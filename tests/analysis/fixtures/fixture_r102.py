"""R102 fixture: four unsafe log/sqrt calls, three safe ones."""

import math


def bad_log(x):
    return math.log(x)


def bad_sqrt(x):
    return math.sqrt(x - 1.0)


def good_guarded(x):
    if x <= 0:
        raise ValueError("x must be positive")
    return math.log(x)


def good_sqrt_nonnegative(x):
    return math.sqrt(max(x, 0.0))


def good_positive_literal():
    return math.log(2.0)


def bad_mentioned_not_excluded(x):
    # Naming x in a comparison that does not exclude zero proves nothing.
    if x > 10.0:
        return 1.0
    return math.log(x)


def bad_sqrt_or(a, b):
    # `a or b` is a itself unless a == 0: a = -1 is negative.
    return math.sqrt(a or b)

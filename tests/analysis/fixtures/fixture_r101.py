"""R101 fixture: eighteen unguarded divisions, seven safe ones."""


def bad_plain(f2):
    return 1.0 / f2


def bad_compound(r, f1):
    return f1 / (r * (r - 1))


def good_guarded(f2):
    if f2 == 0:
        return 0.0
    return 1.0 / f2


def good_contract(profile, population_size):
    return population_size / profile.sample_size


def good_assignment(profile):
    r = profile.sample_size
    return 1.0 / r


def good_literal(x):
    return x / 2.0


def bad_mentioned_not_excluded(r, f1):
    # Naming r in a comparison that does not exclude zero proves nothing.
    if r > 100:
        return 0.0
    return f1 / r


# The module binds k once, to 5: a module-level read of it is proved.
k = 5
K_SHARE = 1.0 / k


class Shadowed:
    # The class body's own k, not the module's.
    k = 0
    share = 1.0 / k


inverse = lambda k: 1.0 / k  # the parameter, not the module's k

shares = [1.0 / k for k in range(3)]  # the comprehension's k starts at 0

# Code that can never run is proved: the module binds z once, to 0, so
# the branch that divides by z is dead, and so is the inner block below.
z = 0
Z_SHARE = 1.0 / z if z else 0.0


def good_infeasible(x):
    if x > 1.0:
        if x < 0.5:
            return 1.0 / (x - x)
    return 0.0


def bad_or_default(a):
    # `a or -3.0` is a itself unless a == 0: a = -4.0 divides by zero.
    c = a or -3.0
    return 1.0 / (c + 4.0)


import math  # noqa: E402 - here, so the pinned lines above stay put
from contextlib import suppress  # noqa: E402

import numpy as np  # noqa: E402


def bad_exp2(x):
    if x < 1.0 or x > 2.0:
        return 0.0
    y = np.exp2(x)
    # y = 2**x lies in [2, 4]: y - 2.5 is 0 at x = log2(2.5).
    return 1.0 / (y - 2.5)


def bad_log2(x):
    if x < 1.0 or x > 8.0:
        return 0.0
    # log2(x) lies in [0, 3]: this is 0 at x = 2**2.5.
    return 1.0 / (math.log2(x) - 2.5)


def bad_log10(x):
    if x < 1.0 or x > 1000.0:
        return 0.0
    # log10(x) lies in [0, 3]: this is 0 at x = 1000.
    return 1.0 / (math.log10(x) - 3.0)


def bad_finally(text, log):
    b = 1.0
    try:
        return float(text)
    except ValueError:
        b = 0.0
        raise
    finally:
        # Runs after the handler set b = 0.0, though no path falls through.
        log(1.0 / b)


def bad_after_with(text, strict):
    b = 1.0
    with suppress(ValueError):
        if strict:
            b = 0.0
        raise ValueError(text)
    # suppress swallows the raise, so this runs, with b = 0.0 if strict.
    return 1.0 / b


# An except handler, a finally body and the code after a with block can
# each be entered midway through the body, with b = 0.0.
def bad_handler_midway(x, g):
    b = 1.0
    try:
        b = 0.0
        g(x)
        b = 2.0
    except ValueError:
        return 1.0 / b
    return b


def bad_finally_midway(x, g, h):
    b = 1.0
    try:
        b = 0.0
        g(x)
        b = 2.0
    finally:
        h(1.0 / b)


def bad_with_midway(x, g):
    b = 1.0
    with suppress(ValueError):
        b = 0.0
        g(x)
        b = 2.0
    return 1.0 / b


# __init__ validates bits >= 8, but reset can rebind self.bits to 0
# through a nested target, a loop target or a with target.
class NestedTargetBits:
    def __init__(self, bits):
        if bits < 8:
            raise ValueError("bits")
        self.bits = bits

    def reset(self, pair):
        _, (self.bits, _) = pair

    def share(self, used):
        return used / self.bits


class LoopTargetBits:
    def __init__(self, bits):
        if bits < 8:
            raise ValueError("bits")
        self.bits = bits

    def reset(self, pairs):
        for (self.bits, _) in pairs:
            pass

    def share(self, used):
        return used / self.bits


class WithTargetBits:
    def __init__(self, bits):
        if bits < 8:
            raise ValueError("bits")
        self.bits = bits

    def reset(self, manager):
        with manager as self.bits:
            pass

    def share(self, used):
        return used / self.bits

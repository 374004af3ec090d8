"""R101 fixture: six unguarded divisions, five safe ones."""


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

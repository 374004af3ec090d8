"""R1301 fixture: unproven divisions inside contracted functions."""

from repro.contracts import ensures, requires


@ensures("result >= 0.0")
def bad_unproven(f1, r):
    return abs(f1) / r


@requires("r >= 1")
@ensures("result >= 0.0")
def good_required(f1, r):
    return abs(f1) / r


@ensures("result >= 0.0")
def good_guarded(f1, r):
    if r == 0:
        return 0.0
    return abs(f1) / r


def free_function(f1, r):
    # Uncontracted: R101's business (estimator stack only), not R1301's.
    return f1 / r

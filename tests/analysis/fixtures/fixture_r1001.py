"""R1001 fixture: ten value-nondeterminism violations, four clean forms."""

import os
import time
from os import environ

import numpy as np


def bad_clock_result():
    return time.time()


def bad_unseeded_rng():
    rng = np.random.default_rng()
    return rng.normal()


def bad_env_result():
    return os.environ.get("SCALE", "1")


def bad_imported_env_result():
    return environ["SCALE"]


def bad_hash_result(values):
    return [hash(value) for value in values]


def bad_transitive():
    return bad_clock_result() * 2


def good_seeded(seed):
    rng = np.random.default_rng(seed)
    return rng.normal()


def good_param_passthrough(values):
    return values[0] + values[-1]


def good_internal_timing():
    start = time.perf_counter()
    result = 41 + 1
    _elapsed = time.perf_counter() - start
    return result


def good_local_environ():
    environ = {"SCALE": "1"}
    return environ["SCALE"]


# The last four read a module-level name an ``os.environ`` read binds:
# through a tuple target, an augmented assignment, a ``for`` target and
# (the control) a plain assignment.
def bad_tuple_bound_env():
    return SCALE_A


def bad_augmented_env():
    return SCALE_B


def bad_loop_bound_env():
    return SCALE_C


def bad_plain_env():
    return SCALE_D


SCALE_A, OTHER = os.environ["SCALE"], 1
SCALE_B = "1"
SCALE_B += os.environ["SCALE"]
for SCALE_C in os.environ:
    pass
SCALE_D = os.environ["SCALE"]

"""R1001 fixture: six value-nondeterminism violations, four clean forms."""

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

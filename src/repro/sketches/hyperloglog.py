"""HyperLogLog (Flajolet et al. 2007).

The modern descendant of the probabilistic counting line the paper's
related work describes.  ``m = 2^p`` registers record the maximum
leading-zero rank seen in each hash bucket; the harmonic-mean raw
estimate is bias-corrected by ``alpha_m`` and, in the small range, by
linear counting on empty registers.  Standard error ``~ 1.04/sqrt(m)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.contracts import requires
from repro.errors import InvalidParameterError
from repro.sketches.base import DistinctSketch
from repro.sketches.hashing import hash64

__all__ = ["HyperLogLog"]


@requires("m >= 16")
def _alpha(m: int) -> float:
    """The bias-correction constant ``alpha_m`` from the HLL paper."""
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


class HyperLogLog(DistinctSketch):
    """HyperLogLog with small-range linear-counting correction.

    Parameters
    ----------
    precision:
        ``p``; the sketch uses ``2^p`` one-byte registers.  Typical
        values 10–16.
    seed:
        Hash seed.
    """

    name = "HLL"

    def __init__(self, precision: int = 12, seed: int = 0) -> None:
        if not 4 <= precision <= 18:
            raise InvalidParameterError(
                f"precision must be in [4, 18], got {precision}"
            )
        self.precision = int(precision)
        self.seed = int(seed)
        self.registers_count = 1 << self.precision
        self._registers = np.zeros(self.registers_count, dtype=np.uint8)

    def add(self, values) -> None:
        hashes = hash64(values, seed=self.seed)
        buckets = (hashes >> np.uint64(64 - self.precision)).astype(np.int64)
        payload_bits = 64 - self.precision
        payload = hashes & np.uint64((1 << payload_bits) - 1)
        # rho = position (1-based) of the leftmost set bit of the payload
        # within payload_bits, i.e. payload_bits - floor(log2(payload)).
        # The maximum-clamp only touches the payload == 0 lanes that the
        # where() discards; it keeps np.log2's domain provably positive
        # (R1302) and makes the errstate shield unnecessary.
        ranks = np.where(
            payload == 0,
            payload_bits + 1,
            payload_bits
            - np.floor(np.log2(np.maximum(payload, 1).astype(np.float64))),
        ).astype(np.uint8)
        np.maximum.at(self._registers, buckets, ranks)

    def estimate(self) -> float:
        m = self.registers_count
        registers = self._registers.astype(np.float64)
        # registers >= 0, so the min-clamp is an exact no-op bounding the
        # exp2 argument for the prover (R1303).
        raw = _alpha(m) * m * m / np.sum(np.exp2(np.minimum(0.0, -registers)))  # reprolint: disable=R101 - sum of 2^-register over m >= 16 registers is positive
        if raw <= 2.5 * m:
            zeros = int(np.count_nonzero(self._registers == 0))
            if zeros:
                return m * math.log(m / zeros)
        return float(raw)

    def merge(self, other: DistinctSketch) -> None:
        self._require_compatible(
            other, precision=self.precision, seed=self.seed
        )
        np.maximum(self._registers, other._registers, out=self._registers)

    @property
    def memory_bytes(self) -> int:
        return self.registers_count

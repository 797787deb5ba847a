"""One critical value per calibration method, with its studentizing scales.

Every method studentizes cluster d by sqrt(g1_d + g2_d), FitResult.scale;
this module is the only place that maps a method name to its primitives:

* BS, BE: one parametric bootstrap (reused when draws are passed in),
  then the max-statistic order statistic or the balanced per-cluster
  thresholds; a replicate is studentized by its own sqrt(g1* + g2*).
* MC: direct simulation from the fitted joint normal law, whose
  model_scales equal the fit's scales to rounding (VT's ridge band too).
* BO: the normal quantile at alpha / (2 D).
* VT: the volume-of-tube height over the ridge band scales.

With a contrast matrix A (BS, MC and BO) the targets are the rows of
A mu; BS and BO take maxstat.contrast_scales of g1 + g2, MC the
contrasts' own variances under its joint normal law.

max_test runs the max-type test of mu = h (or A mu = h) on one calibrate
call: single-step, or step-down over the shared bootstrap draws for BS.
"""

from __future__ import annotations

import numpy as np

from .analytic import TubeConstants, bonferroni_cv, ridge_interval_scales, tube_cv
from .bootstrap import (
    BootstrapDraws,
    beran_critical_values,
    check_draws,
    critical_value_bs,
    critical_value_contrast,
    parametric_bootstrap,
    stepdown_quantile_provider,
)
from .errors import InvalidConstants, ShapeMismatch
from .estimation import FitResult
from .maxstat import ContrastTest, CriticalValue, contrast_scales, single_step_test, step_down_test
from .mc import build_joint_normal, critical_value_mc, model_scales
from .model import BlockLmmData, MixedParameterSpec, check_contrast
from .util import check_alpha

METHODS = ("BS", "MC", "BO", "BE", "VT")
CONTRAST_METHODS = ("BS", "MC", "BO")


def calibrate(
    method: str,
    data: BlockLmmData,
    spec: MixedParameterSpec,
    fit: FitResult,
    *,
    alpha: float,
    seed: int,
    B: int,
    K: int,
    A: np.ndarray | None = None,
    tube: tuple[int, TubeConstants] | None = None,
    draws: BootstrapDraws | None = None,
) -> tuple[CriticalValue, np.ndarray, BootstrapDraws | None]:
    """(critical value, studentizing scales, bootstrap draws) for one method.

    alpha is checked before any work.  The scales are not floored; the
    code that divides by them does that.  seed drives the bootstrap (B
    replicates) or the direct simulation (K draws); tube = (p, constants)
    is required for VT.  Draws passed in are reused instead of redrawn and
    returned as they came, so several bootstrap methods can share one set
    of refits; methods that do not bootstrap return draws unchanged.  Draws
    made for other targets (the D clusters, or A) raise ShapeMismatch.
    """
    check_alpha(alpha)
    if method not in METHODS:
        raise ShapeMismatch(f"unknown method {method!r}; choose from {METHODS}")
    scales, q = fit.scale, data.D
    if A is not None:
        if method not in CONTRAST_METHODS:
            raise ShapeMismatch(f"contrast calibration supports {CONTRAST_METHODS}, got {method!r}")
        A = check_contrast(A, data.D)
        scales, q = contrast_scales(scales**2, A), A.shape[0]
    if draws is not None:
        check_draws(draws, data.D, A)

    if method in ("BS", "BE"):
        if draws is None:
            draws = parametric_bootstrap(data, spec, fit, B, seed, A)
        if method == "BE":
            cv = beran_critical_values(draws, alpha)
        elif A is None:
            cv = critical_value_bs(draws, alpha)
        else:
            cv = critical_value_contrast(draws, A, alpha)
    elif method == "MC":
        joint = build_joint_normal(data, fit.theta)
        cv = critical_value_mc(joint, spec, K, alpha, seed, contrast=A)
        scales = model_scales(joint, spec, contrast=A)
    elif method == "BO":
        cv = bonferroni_cv(q, alpha)
    else:
        if tube is None:
            raise InvalidConstants("method VT needs tube = (p, TubeConstants)")
        p, constants = tube
        cv = tube_cv(p, constants, alpha)
        scales = ridge_interval_scales(data, fit.theta, spec)
    return cv, scales, draws


def max_test(
    method: str,
    data: BlockLmmData,
    spec: MixedParameterSpec,
    fit: FitResult,
    h=None,
    *,
    alpha: float,
    seed: int,
    B: int,
    K: int,
    A: np.ndarray | None = None,
    tube: tuple[int, TubeConstants] | None = None,
    stepdown: bool = False,
) -> tuple[ContrastTest, np.ndarray]:
    """(test, sorted rejected indices) of the max-type test of mu = h.

    With a contrast matrix A the nulls are A mu = h; h defaults to zeros.
    A's shape, then h, is checked before any calibration.  single_step_test
    floors calibrate's scales; stepdown (BS only) selects by step-down over
    subset quantiles of the same draws.  The critical value is test.critical.
    """
    if A is not None:
        A = check_contrast(A, data.D)
    rows = data.D if A is None else A.shape[0]
    h = np.zeros(rows) if h is None else np.asarray(h, dtype=float).ravel()
    if h.shape != (rows,):
        if A is None:
            raise ShapeMismatch(f"h must have {rows} values, got {h.shape[0]}")
        raise ShapeMismatch(f"h must have one value per contrast row ({rows})")
    if stepdown and method != "BS":
        raise ShapeMismatch(f"step-down selection needs method BS, got {method!r}")
    cv, scales, draws = calibrate(
        method, data, spec, fit, alpha=alpha, seed=seed, B=B, K=K, A=A, tube=tube
    )
    mu_hat = fit.mu_hat if A is None else A @ fit.mu_hat
    test = single_step_test(mu_hat, scales, h, cv)
    if stepdown:
        provider = stepdown_quantile_provider(draws, alpha)
        return test, step_down_test(test.t, provider, alpha)
    return test, np.flatnonzero(test.decisions)

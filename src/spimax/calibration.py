"""One critical value per calibration method, with its studentizing scales.

This module is the only place that maps a method name to the primitives
that calibrate it:

* BS, BE: one parametric bootstrap (reused when draws are passed in),
  then the max-statistic order statistic or the balanced per-cluster
  thresholds; scales are the leading MSE terms sqrt(g1).
* MC: direct simulation from the fitted joint normal law, studentized by
  its model-implied standard deviations.
* BO: the normal quantile at alpha / (2 D) over the leading-term scales.
* VT: the volume-of-tube height over the ridge band scales.

With a contrast matrix A (BS, MC and BO) the targets are the rows of
A mu; the leading-term scales become sqrt(sum_j A_rj^2 g1_j).

max_test runs the max-type test of mu = h (or A mu = h) on one calibrate
call: single-step, or step-down over the shared bootstrap draws for BS.
"""

from __future__ import annotations

import numpy as np

from .analytic import TubeConstants, bonferroni_cv, ridge_interval_scales, tube_cv
from .bootstrap import (
    BootstrapDraws,
    beran_critical_values,
    critical_value_bs,
    critical_value_contrast,
    parametric_bootstrap,
    stepdown_quantile_provider,
)
from .errors import InvalidConstants, ShapeMismatch
from .estimation import FitResult
from .maxstat import METHODS, SCALE_FLOOR, ContrastTest, CriticalValue, single_step_test, step_down_test
from .mc import build_joint_normal, critical_value_mc, model_scales
from .model import BlockLmmData, MixedParameterSpec, check_contrast

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
    """(critical value, floored scales, bootstrap draws) for one method.

    seed drives the bootstrap (B replicates) or the direct simulation (K
    draws); tube = (p, constants) is required for VT.  Draws passed in
    are reused instead of redrawn and returned as they came, so several
    bootstrap methods can share one set of refits; methods that do not
    bootstrap return draws unchanged.
    """
    if method not in METHODS:
        raise ShapeMismatch(f"unknown method {method!r}; choose from {METHODS}")
    scales = np.maximum(fit.scale, SCALE_FLOOR)
    if A is not None:
        if method not in CONTRAST_METHODS:
            raise ShapeMismatch(f"contrast calibration supports {CONTRAST_METHODS}, got {method!r}")
        A = check_contrast(A, data.D)
        scales = np.sqrt(np.maximum(scales**2 @ (A.T**2), SCALE_FLOOR**2))

    if method in ("BS", "BE"):
        if draws is None:
            draws = parametric_bootstrap(data, spec, fit, B, seed)
        if method == "BE":
            cv = beran_critical_values(draws, alpha)
        elif A is None:
            cv = critical_value_bs(draws, alpha)
        else:
            cv = critical_value_contrast(draws, A, alpha)
    elif method == "MC":
        joint = build_joint_normal(data, fit.theta)
        cv = critical_value_mc(joint, spec, K, alpha, seed, contrast=A)
        scales = np.maximum(model_scales(joint, spec, contrast=A), SCALE_FLOOR)
    elif method == "BO":
        cv = bonferroni_cv(data.D if A is None else A.shape[0], alpha)
    else:
        if tube is None:
            raise InvalidConstants("method VT needs tube = (p, TubeConstants)")
        p, constants = tube
        cv = tube_cv(p, constants, alpha)
        scales = np.maximum(ridge_interval_scales(data, fit.theta, spec), SCALE_FLOOR)
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

    With a contrast matrix A the nulls are A mu = h.  h defaults to zeros,
    one per target row, and is checked before any calibration.  The test
    studentizes by calibrate's floored scales; stepdown (BS only) selects
    by step-down over subset quantiles of the same bootstrap draws.  The
    critical value is test.critical.
    """
    rows = data.D if A is None else len(A)
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
    mu_hat = fit.mu_hat if A is None else np.asarray(A, dtype=float) @ fit.mu_hat
    test = single_step_test(mu_hat, scales, h, cv)
    if stepdown:
        provider = stepdown_quantile_provider(draws, alpha, A=A)
        return test, step_down_test(test.t, provider, alpha)
    return test, np.flatnonzero(test.decisions)

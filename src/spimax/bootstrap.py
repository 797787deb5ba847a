"""Parametric bootstrap calibration of max-type critical values.

Each replicate draws new random effects and errors at the fitted
parameters, refits the whole estimation pipeline on the synthetic
response, and records the studentized deviation of the refitted mixed
parameter from its replicate truth.  Critical values are order statistics
of row maxima of that matrix.

Replicate b uses the generator derived from (master_seed, b), and its
refit depends only on its own response: refitted alone it agrees with the
batch result to rounding (matrix products round differently for other
batch sizes).  Refits run in batches of the fixed size CHUNK, so results
are bit-identical for every worker count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import EmptySubset, RefitFailure, ShapeMismatch
from .estimation import FitResult, batch_eblup, response_scale
from .maxstat import CriticalValue
from .model import NERM, BlockLmmData, MixedParameterSpec, check_spec
from .util import (
    check_seed,
    check_threads,
    derive_rng,
    deterministic_map,
    order_statistic,
    quantile_index,
)

# replicates are refitted in fixed-size batches; the size is a constant so
# that results are bit-identical for every worker count
CHUNK = 128

# replicate g1 values are floored at G1_FLOOR s^2, s the response scale of
# the data (estimation.response_scale), so the floor acts in standardized units
G1_FLOOR = 1e-12


@dataclass(frozen=True)
class BootstrapDraws:
    """Studentized bootstrap deviations plus the pieces needed for reuse.

    s_matrix[b, d] = (mu_hat*_bd - mu*_bd) / sqrt(g1_bd(theta*_b));
    delta holds the unstudentized numerators and g1_star the replicate
    MSE leading terms (floored), so contrast and per-cluster calibrations
    can reuse the same draws without refitting.
    """

    s_matrix: np.ndarray
    delta: np.ndarray
    g1_star: np.ndarray
    master_seed: int
    model_tag: str
    cluster_ids: tuple
    n_fallback: int = 0
    n_boundary: int = 0

    @property
    def b_reps(self) -> int:
        return self.s_matrix.shape[0]

    @property
    def D(self) -> int:
        return self.s_matrix.shape[1]

    def save_csv(self, path) -> None:
        """Rows are replicates, columns clusters, under a header row of cluster ids."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow([str(c) for c in self.cluster_ids])
            np.savetxt(fh, self.s_matrix, delimiter=",")


def parametric_bootstrap(
    data: BlockLmmData,
    spec: MixedParameterSpec,
    fit: FitResult,
    b_reps: int,
    master_seed: int,
    threads: int | None = None,
) -> BootstrapDraws:
    """Draw, refit and studentize b_reps synthetic datasets.

    Unit-level errors are drawn per unit at the estimated sigma2_e;
    area-level errors per area at the known error variances.  The
    replicate truth mu*_d = k_d' beta_hat + m_d u*_d keeps the original
    coefficient estimate, and every replicate is refitted with the same
    REML pipeline as the original fit.  Replicates whose refit lands on
    the variance floor are kept; their g1 values are floored before
    studentizing.
    """
    check_spec(data, spec)
    check_seed(master_seed)
    check_threads(threads)
    if b_reps < 1:
        raise ShapeMismatch("need at least one bootstrap replicate")
    D, n = data.D, data.n_total
    beta_hat = fit.beta_hat
    xb = data.X @ beta_hat
    sigma_u = np.sqrt(fit.theta.sigma2_u)
    if data.model_tag == NERM:
        sigma_e = np.sqrt(fit.theta.sigma2_e)
    else:
        area_sd = np.sqrt(data.known_error_vars)
    reps = np.repeat(np.arange(D), data.sizes)

    Y = np.empty((b_reps, n))
    u_star = np.empty((b_reps, D))
    for b in range(b_reps):
        rng = derive_rng(master_seed, b)
        u_star[b] = sigma_u * rng.standard_normal(D)
        if data.model_tag == NERM:
            e = sigma_e * rng.standard_normal(n)
        else:
            e = area_sd * rng.standard_normal(D)
        Y[b] = xb + u_star[b][reps] + e

    mu_star = beta_hat @ spec.k.T + spec.m[None, :] * u_star

    def refit(start: int) -> dict:
        return batch_eblup(data, spec, Y[start : start + CHUNK])

    starts = range(0, b_reps, CHUNK)
    try:
        chunks = deterministic_map(refit, starts, threads)
    except ShapeMismatch:
        raise
    except Exception as exc:  # pragma: no cover - degenerate linear algebra
        raise RefitFailure(f"bootstrap refit failed: {exc}") from exc

    mu_hat_star = np.vstack([c["mu"] for c in chunks])
    g1_floor = G1_FLOOR * response_scale(data.y) ** 2
    g1_star = np.maximum(np.vstack([c["g1"] for c in chunks]), g1_floor)
    n_fallback = int(sum(c["fallback"].sum() for c in chunks))
    n_boundary = int(sum(c["boundary"].sum() for c in chunks))

    delta = mu_hat_star - mu_star
    s_matrix = delta / np.sqrt(g1_star)
    return BootstrapDraws(
        s_matrix=s_matrix,
        delta=delta,
        g1_star=g1_star,
        master_seed=int(master_seed),
        model_tag=data.model_tag,
        cluster_ids=data.cluster_ids,
        n_fallback=n_fallback,
        n_boundary=n_boundary,
    )


def critical_value_bs(draws: BootstrapDraws, alpha: float) -> CriticalValue:
    """(1-alpha) order statistic of the row maxima of |S*|."""
    k = quantile_index(draws.b_reps, alpha)
    row_max = np.abs(draws.s_matrix).max(axis=1)
    return CriticalValue(value=order_statistic(row_max, k), method="BS", alpha=alpha)


def _contrast_abs_s(draws: BootstrapDraws, A: np.ndarray) -> np.ndarray:
    """|studentized| replicate matrix for the contrasts A mu, shape (B, q)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != draws.D:
        raise ShapeMismatch(f"A must have {draws.D} columns, got shape {A.shape}")
    if A.shape[0] < 1:
        raise ShapeMismatch("A needs at least one row")
    numer = draws.delta @ A.T
    scale = np.sqrt(draws.g1_star @ (A.T**2))
    # an all-zero contrast row has a zero numerator; keep its statistic at 0
    return np.abs(numer) / np.where(scale > 0.0, scale, 1.0)


def critical_value_contrast(
    draws: BootstrapDraws, A: np.ndarray, alpha: float
) -> CriticalValue:
    """Bootstrap threshold for the max statistic of the contrasts A mu.

    Numerators are the projected replicate deviations A (mu_hat* - mu*);
    each contrast is studentized by sqrt(sum_j A_dj^2 g1_j(theta*)).
    With A = I this reduces exactly to critical_value_bs.
    """
    s = _contrast_abs_s(draws, A)
    k = quantile_index(draws.b_reps, alpha)
    return CriticalValue(value=order_statistic(s.max(axis=1), k), method="BS", alpha=alpha)


def beran_critical_values(draws: BootstrapDraws, alpha: float) -> CriticalValue:
    """Per-cluster thresholds balancing marginal levels.

    Each |S*_bd| is mapped through its own cluster's empirical cdf; the
    (1-alpha) quantile q of the row maxima of those cdf values is pulled
    back through each marginal cdf to give cluster thresholds that share
    one probability level.
    """
    B, D = draws.s_matrix.shape
    abs_s = np.abs(draws.s_matrix)
    sorted_cols = np.sort(abs_s, axis=0)
    ranks = np.empty_like(abs_s)
    for d in range(D):
        ranks[:, d] = np.searchsorted(sorted_cols[:, d], abs_s[:, d], side="right")
    row_max = ranks.max(axis=1) / B
    q = order_statistic(row_max, quantile_index(B, alpha))
    # generalized inverse: smallest order statistic with cdf >= q
    idx = min(max(int(np.ceil(q * B - 1e-9)), 1), B)
    per_cluster = sorted_cols[idx - 1, :].copy()
    return CriticalValue(value=float(q), method="BE", alpha=alpha, per_cluster=per_cluster)


def stepdown_quantile_provider(
    draws: BootstrapDraws, alpha: float, A: np.ndarray | None = None
):
    """Subset-max quantiles over shared draws, for step-down selection.

    Because every subset quantile comes from the same draw matrix, the
    threshold can only shrink when the subset shrinks.  Without A the
    subsets index clusters; with a contrast matrix A they index its rows,
    studentized the same way as critical_value_contrast.
    """
    abs_s = np.abs(draws.s_matrix) if A is None else _contrast_abs_s(draws, A)
    k = quantile_index(draws.b_reps, alpha)
    m = abs_s.shape[1]

    def provider(subset) -> float:
        idx = np.array(sorted({int(i) for i in subset}), dtype=int)
        if idx.size == 0:
            raise EmptySubset("cannot take a quantile over an empty cluster subset")
        if idx.min() < 0 or idx.max() >= m:
            raise ShapeMismatch(f"component indices must lie in [0, {m})")
        return order_statistic(abs_s[:, idx].max(axis=1), k)

    return provider

"""Parametric bootstrap calibration of max-type critical values.

Each replicate draws new random effects and errors at the fitted
parameters, refits the whole estimation pipeline on the synthetic
response, and records the deviation of the refitted mixed parameter from
its replicate truth and its leading MSE term g1.  Critical values are
order statistics of row maxima of |S*| = |delta / sqrt(g1)|, derived on
read: each reader builds it in one buffer of its own.

The bootstrap is one loop over chunks of CHUNK replicates: each chunk
draws and refits its own rows, so only one chunk of responses is held at
a time.  Replicate b uses the generator derived from (master_seed, b); a
chunk seeds all its replicate streams in one vectorized pass
(util.replicate_rngs), identical draw for draw to derive_rng(master_seed,
b).  A replicate's refit depends only on its own response: refitted alone
it agrees with the batch result to rounding (matrix products round
differently for other batch sizes).  The chunks run one after another in
the calling thread; worker threads were measured to slow the refits down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySubset, ShapeMismatch
from .estimation import FitResult, batch_eblup, response_scale
from .maxstat import CriticalValue
from .model import BlockLmmData, MixedParameterSpec, check_contrast, check_spec, error_variances
from .util import check_seed, order_statistic, quantile_index, replicate_rngs

# replicates are refitted in fixed-size batches; a constant size keeps the
# rows of every whole chunk bit-identical whatever b_reps is
CHUNK = 128

# replicate g1 values are floored at G1_FLOOR s^2, s the response scale of
# the data (estimation.response_scale), so the floor acts in standardized units
G1_FLOOR = 1e-12


@dataclass(frozen=True)
class BootstrapDraws:
    """Bootstrap deviations and g1 values, reusable without refitting.

    delta[b, d] = mu_hat*_bd - mu*_bd and g1_star[b, d] = g1_d(theta*_b)
    (floored) are the only B x D state; each reader derives |S*| from them.
    """

    delta: np.ndarray
    g1_star: np.ndarray
    n_fallback: int = 0
    n_boundary: int = 0

    @property
    def b_reps(self) -> int:
        return self.delta.shape[0]

    @property
    def D(self) -> int:
        return self.delta.shape[1]


def parametric_bootstrap(
    data: BlockLmmData,
    spec: MixedParameterSpec,
    fit: FitResult,
    b_reps: int,
    master_seed: int,
) -> BootstrapDraws:
    """Draw and refit b_reps synthetic datasets.

    Replicate b draws u* and then one error per unit of y at its error
    variance (model.error_variances: the estimated sigma2_e for unit-level
    data, the known psi_d for area-level data), both from its own stream.
    The replicate truth mu*_d = k_d' beta_hat + m_d u*_d keeps the original
    coefficient estimate, and every replicate is refitted with the same
    REML pipeline as the original fit; each chunk writes only its own rows
    of the outputs.  Replicates whose refit lands on the variance floor
    are kept; their g1 values are floored.
    """
    check_spec(data, spec)
    check_seed(master_seed)
    if b_reps < 1:
        raise ShapeMismatch("need at least one bootstrap replicate")
    D, n = data.D, data.n_total
    beta_hat = fit.beta_hat
    xb = data.X @ beta_hat
    mu_fixed = beta_hat @ spec.k.T
    sigma_u = np.sqrt(fit.theta.sigma2_u)
    error_sd = np.sqrt(error_variances(data, fit.theta))
    reps = np.repeat(np.arange(D), data.sizes)
    g1_floor = G1_FLOOR * response_scale(data.y) ** 2
    delta = np.empty((b_reps, D))
    g1_star = np.empty((b_reps, D))

    def run_chunk(start: int) -> tuple[int, int]:
        m = min(CHUNK, b_reps - start)
        u_star = np.empty((m, D))
        Y = np.empty((m, n))
        for i, rng in enumerate(replicate_rngs(master_seed, range(start, start + m))):
            u_star[i] = sigma_u * rng.standard_normal(D)
            Y[i] = xb + u_star[i][reps] + error_sd * rng.standard_normal(n)
        res = batch_eblup(data, spec, Y)
        delta[start : start + m] = res["mu"] - (mu_fixed + spec.m * u_star)
        g1_star[start : start + m] = np.maximum(res["g1"], g1_floor)
        return int(res["fallback"].sum()), int(res["boundary"].sum())

    counts = [run_chunk(start) for start in range(0, b_reps, CHUNK)]
    n_fallback, n_boundary = (sum(c) for c in zip(*counts))
    return BootstrapDraws(delta, g1_star, n_fallback, n_boundary)


def _abs_s(draws: BootstrapDraws) -> np.ndarray:
    """|S*| = |delta / sqrt(g1_star)| in one fresh buffer."""
    buf = np.sqrt(draws.g1_star)
    return np.abs(np.divide(draws.delta, buf, out=buf), out=buf)


def _row_max_quantile(abs_s: np.ndarray, alpha: float, where=True) -> float:
    """(1-alpha) order statistic of the row maxima of abs_s over the columns that where marks."""
    # the entries are >= 0, so a masked maximum from 0 is exact and copies no columns
    row_max = np.max(abs_s, axis=1, where=where, initial=0.0)
    return order_statistic(row_max, quantile_index(abs_s.shape[0], alpha))


def critical_value_bs(draws: BootstrapDraws, alpha: float) -> CriticalValue:
    """(1-alpha) order statistic of the row maxima of |S*|."""
    return CriticalValue(value=_row_max_quantile(_abs_s(draws), alpha))


def _contrast_abs_s(draws: BootstrapDraws, A: np.ndarray) -> np.ndarray:
    """|studentized| replicate matrix for the contrasts A mu, shape (B, q)."""
    A = check_contrast(A, draws.D)
    numer = draws.delta @ A.T
    scale = np.sqrt(draws.g1_star @ (A.T**2))
    # an all-zero contrast row has a zero numerator; keep its statistic at 0
    scale[~(scale > 0.0)] = 1.0
    return np.divide(np.abs(numer, out=numer), scale, out=numer)


def critical_value_contrast(draws: BootstrapDraws, A: np.ndarray, alpha: float) -> CriticalValue:
    """Bootstrap threshold for the max statistic of the contrasts A mu.

    Numerators are the projected replicate deviations A (mu_hat* - mu*);
    each contrast is studentized by sqrt(sum_j A_dj^2 g1_j(theta*)).
    With A = I this reduces exactly to critical_value_bs.
    """
    value = _row_max_quantile(_contrast_abs_s(draws, A), alpha)
    return CriticalValue(value=value)


def beran_critical_values(draws: BootstrapDraws, alpha: float) -> CriticalValue:
    """Per-cluster thresholds balancing marginal levels.

    Each |S*_bd| is mapped through its own cluster's empirical cdf; the
    (1-alpha) quantile q of the row maxima of those cdf values is pulled
    back through each marginal cdf to give cluster thresholds that share
    one probability level.
    """
    B = draws.b_reps
    cols = _abs_s(draws)
    max_rank = np.zeros(B, dtype=np.intp)
    for d in range(draws.D):  # column d turns into its sorted copy once it is ranked
        sorted_col = np.sort(cols[:, d])
        np.maximum(max_rank, np.searchsorted(sorted_col, cols[:, d], side="right"), out=max_rank)
        cols[:, d] = sorted_col
    q = order_statistic(max_rank / B, quantile_index(B, alpha))
    # generalized inverse: smallest order statistic with cdf >= q
    idx = min(max(int(np.ceil(q * B - 1e-9)), 1), B)
    per_cluster = cols[idx - 1, :].copy()
    return CriticalValue(value=float(q), per_cluster=per_cluster)


def stepdown_quantile_provider(draws: BootstrapDraws, alpha: float, A: np.ndarray | None = None):
    """Subset-max quantiles over shared draws, for step-down selection.

    Because every subset quantile comes from the same draw matrix, the
    threshold can only shrink when the subset shrinks.  Without A the
    subsets index clusters; with a contrast matrix A they index its rows,
    studentized the same way as critical_value_contrast.
    """
    abs_s = _abs_s(draws) if A is None else _contrast_abs_s(draws, A)
    m = abs_s.shape[1]

    def provider(subset) -> float:
        idx = np.array([int(i) for i in subset], dtype=int)
        if idx.size == 0:
            raise EmptySubset("cannot take a quantile over an empty cluster subset")
        if idx.min() < 0 or idx.max() >= m:
            raise ShapeMismatch(f"component indices must lie in [0, {m})")
        return _row_max_quantile(abs_s, alpha, np.isin(np.arange(m), idx))

    return provider

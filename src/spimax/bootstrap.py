"""Parametric bootstrap calibration of max-type critical values.

Each replicate draws new random effects and errors at the fitted
parameters, refits the whole estimation pipeline on the synthetic
response, and records the deviation of the refitted mixed parameter from
its replicate truth and its g1 + g2, the scale of FitResult.scale.
Critical values are order statistics of row maxima of |S*| = |delta /
sqrt(g1 + g2)| (or of contrast rows), studentized per chunk into one
B x q matrix that the readers only read.

The bootstrap is one loop over chunks of CHUNK replicates: each chunk
draws, refits and studentizes its own rows, so only one chunk of draws is
held at a time.  Every chunk fills one block of standard normals: a
unit-level chunk c from the one generator derive_rng(master_seed, c),
always whole, of which a short last chunk uses the first rows; an
area-level chunk row by row, replicate b's row from
derive_rng(master_seed, b), all seeded in one vectorized pass
(util.replicate_normals).  So results depend only on (master_seed, index):
they are the same at any worker count and, with CHUNK fixed, under any
split of B.  A replicate's refit depends only on its own draws: refitted
alone it agrees with the batch result to rounding (matrix products round
differently for other batch sizes).  The chunks run one after another in
the calling thread; worker threads were measured to slow the refits down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySubset, ShapeMismatch
from .estimation import DrawnStatistics, FitResult, batch_eblup, response_scale, within_dof
from .maxstat import CriticalValue, contrast_scales
from .model import NERM, BlockLmmData, MixedParameterSpec, check_contrast, check_spec, error_variances
from .util import check_seed, derive_rng, order_statistic, quantile_index, replicate_normals

# replicates are refitted in fixed-size batches; a constant size keeps the
# rows of every whole chunk bit-identical whatever b_reps is
CHUNK = 128

# replicate g1 + g2 values are floored at MSE_FLOOR s^2, s the response scale
# of the data (estimation.response_scale), so the floor acts in standardized units
MSE_FLOOR = 1e-12


@dataclass(frozen=True)
class BootstrapDraws:
    """Studentized bootstrap deviations, reusable without refitting.

    abs_s[b, j] = |S*_bj| for cluster j, or for row j of the contrast matrix
    A when A is not None, studentized per chunk; it is the only B x q state.
    """

    abs_s: np.ndarray
    n_fallback: int = 0
    n_boundary: int = 0
    A: np.ndarray | None = None

    @property
    def b_reps(self) -> int:
        return self.abs_s.shape[0]


def parametric_bootstrap(
    data: BlockLmmData,
    spec: MixedParameterSpec,
    fit: FitResult,
    b_reps: int,
    master_seed: int,
    A: np.ndarray | None = None,
) -> BootstrapDraws:
    """Draw, refit and studentize b_reps synthetic datasets.

    Replicate b draws u* and errors at their error variances (model.
    error_variances: the estimated sigma2_e for unit-level data, the known
    psi_d for area-level data).  An area-level replicate refits y* = X
    beta_hat + u* + e.  A unit-level replicate is refitted from the
    statistics the refit reads (estimation.DrawnStatistics), drawn without
    its n errors: Z'e ~ N(0, sigma2_e diag n_d), X_w'e = sigma_e L z with
    L L' = X_w'X_w (estimation.within_factor) and z ~ N(0, I_r), and the
    within part of e'e as sigma2_e (|z|^2 + chi2_{n-D-r}), the
    between/within split of the one-way model.  A chunk fills one normal
    block and scales its first 2D columns, u* and the noise (Z'e, or e for
    area-level data), by their standard deviations; a unit-level block has
    r more columns for z, and its chunk then draws CHUNK chi2 values.  The
    replicate truth mu*_d = k_d' beta_hat + m_d u*_d keeps the original
    coefficient estimate, and every replicate is refitted with the same
    REML pipeline as the original fit.  Replicates whose refit lands on the
    variance floor are kept; their g1 + g2 values are floored.  Each chunk
    writes its own rows of abs_s, |delta| / sqrt(g1* + g2*), or for a
    contrast matrix A |delta A'| over maxstat.contrast_scales of g1* + g2*,
    a zero scale set to 1.  Unit-level data with n - D - r <= 0 hold no
    information on sigma2_e and raise DegenerateData (estimation.within_dof)
    before any draw.
    """
    check_spec(data, spec)
    if A is not None:
        A = check_contrast(A, data.D)
    check_seed(master_seed)
    if b_reps < 1:
        raise ShapeMismatch("need at least one bootstrap replicate")
    D = data.D
    beta_hat = fit.beta_hat
    mu_fixed = beta_hat @ spec.k.T
    unit_level = data.model_tag == NERM
    # a chunk's block holds u*, the noise and (unit-level) the r values of z;
    # sd holds the standard deviations of its first 2D columns
    if unit_level:
        L, chi2_dof = within_dof(data)
        sigma2_e = fit.theta.sigma2_e
        Lt = np.sqrt(sigma2_e) * L.T  # X_w'e = z @ Lt
        noise_sd = np.sqrt(sigma2_e * data.sizes)  # of Z'e
        r = Lt.shape[0]
    else:
        xb = data.X @ beta_hat
        noise_sd = np.sqrt(error_variances(data, fit.theta))  # of e
        r = 0
    sd = np.concatenate([np.full(D, np.sqrt(fit.theta.sigma2_u)), noise_sd])
    normals = np.empty((CHUNK, 2 * D + r))
    mse_floor = MSE_FLOOR * response_scale(data.y) ** 2
    abs_s = np.empty((b_reps, D if A is None else A.shape[0]))

    def run_chunk(start: int) -> tuple[int, int]:
        m = min(CHUNK, b_reps - start)
        if unit_level:
            rng = derive_rng(master_seed, start // CHUNK)
            rng.standard_normal(out=normals)
        else:
            replicate_normals(master_seed, range(start, start + m), normals[:m])
        draw = normals[:m]
        draw[:, : 2 * D] *= sd
        u_star, noise = draw[:, :D], draw[:, D : 2 * D]
        if unit_level:
            z = draw[:, 2 * D :]
            chi2 = rng.chisquare(chi2_dof, CHUNK)[:m]
            ee_within = sigma2_e * (np.einsum("mi,mi->m", z, z) + chi2)
            Y = DrawnStatistics(beta_hat, u_star, noise, z @ Lt, ee_within)
        else:
            Y = xb + u_star + noise
        res = batch_eblup(data, spec, Y)
        delta = np.subtract(res["mu"], mu_fixed + spec.m * u_star, out=res["mu"])
        mse = np.maximum(np.add(res["g1"], res["g2"], out=res["g1"]), mse_floor, out=res["g1"])
        out = abs_s[start : start + m]
        if A is None:
            np.abs(np.divide(delta, np.sqrt(mse, out=mse), out=out), out=out)
        else:
            numer = delta @ A.T
            scale = contrast_scales(mse, A)
            scale[~(scale > 0.0)] = 1.0
            np.divide(np.abs(numer, out=numer), scale, out=out)
        return int(res["fallback"].sum()), int(res["boundary"].sum())

    counts = [run_chunk(start) for start in range(0, b_reps, CHUNK)]
    n_fallback, n_boundary = (sum(c) for c in zip(*counts))
    return BootstrapDraws(abs_s, n_fallback, n_boundary, A)


def check_draws(draws: BootstrapDraws, D: int, A: np.ndarray | None = None) -> None:
    """Raise ShapeMismatch unless the draws were studentized for A (no A: the D clusters)."""
    made, A, q = draws.A, A if A is None else check_contrast(A, D), draws.abs_s.shape[1]
    if made is None or A is None:
        same = made is A and q == D
    else:
        same = made is A or np.array_equal(made, A)
    if not same:
        held = f"{q} clusters" if made is None else "a {} x {} contrast".format(*made.shape)
        asked = f"{D} clusters" if A is None else f"this {A.shape[0]} x {D} contrast"
        raise ShapeMismatch(f"the draws were studentized for {held}, not for {asked}")


def _row_max_quantile(abs_s: np.ndarray, alpha: float, where=True) -> float:
    """(1-alpha) order statistic of the row maxima of abs_s over the columns that where marks."""
    # the entries are >= 0, so a masked maximum from 0 is exact and copies no columns
    row_max = np.max(abs_s, axis=1, where=where, initial=0.0)
    return order_statistic(row_max, quantile_index(abs_s.shape[0], alpha))


def critical_value_bs(draws: BootstrapDraws, alpha: float) -> CriticalValue:
    """(1-alpha) order statistic of the row maxima of |S*|."""
    return CriticalValue(value=_row_max_quantile(draws.abs_s, alpha))


def critical_value_contrast(draws: BootstrapDraws, A: np.ndarray, alpha: float) -> CriticalValue:
    """Bootstrap threshold for the max statistic of the contrasts A mu.

    The draws must come from parametric_bootstrap(..., A) for an equal A
    (else ShapeMismatch): their columns are A's rows, studentized.  With
    A = I this reduces exactly to critical_value_bs.
    """
    check_draws(draws, draws.abs_s.shape[1] if draws.A is None else draws.A.shape[1], A)
    return CriticalValue(value=_row_max_quantile(draws.abs_s, alpha))


def beran_critical_values(draws: BootstrapDraws, alpha: float) -> CriticalValue:
    """Per-cluster thresholds balancing marginal levels.

    Each |S*_bd| is mapped through its own cluster's empirical cdf; the
    (1-alpha) quantile q of the row maxima of those cdf values is pulled
    back through each marginal cdf to give cluster thresholds that share
    one probability level.
    """
    B = draws.b_reps
    cols = draws.abs_s.copy()
    max_rank = np.zeros(B, dtype=np.intp)
    for d in range(cols.shape[1]):  # column d turns into its sorted copy once it is ranked
        sorted_col = np.sort(cols[:, d])
        np.maximum(max_rank, np.searchsorted(sorted_col, cols[:, d], side="right"), out=max_rank)
        cols[:, d] = sorted_col
    q = order_statistic(max_rank / B, quantile_index(B, alpha))
    # generalized inverse: smallest order statistic with cdf >= q
    idx = min(max(int(np.ceil(q * B - 1e-9)), 1), B)
    per_cluster = cols[idx - 1, :].copy()
    return CriticalValue(value=float(q), per_cluster=per_cluster)


def stepdown_quantile_provider(draws: BootstrapDraws, alpha: float):
    """Subset-max quantiles over shared draws, for step-down selection.

    Because every subset quantile comes from the same draw matrix, the
    threshold can only shrink when the subset shrinks.  The subsets index
    the draws' columns: clusters, or the rows of the contrast matrix the
    draws were studentized for.
    """
    abs_s = draws.abs_s
    m = abs_s.shape[1]

    def provider(subset) -> float:
        idx = np.array([int(i) for i in subset], dtype=int)
        if idx.size == 0:
            raise EmptySubset("cannot take a quantile over an empty cluster subset")
        if idx.min() < 0 or idx.max() >= m:
            raise ShapeMismatch(f"component indices must lie in [0, {m})")
        return _row_max_quantile(abs_s, alpha, np.isin(np.arange(m), idx))

    return provider

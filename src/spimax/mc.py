"""Critical values from the estimated joint normal law of the predictor.

The stacked coefficient vector phi = (beta, u) solves the mixed-model
equations with precision K = C' R^-1 C + G+, where C = [X Z] and G+ is
block diagonal with a zero block for beta and G^-1 for u.  The deviation
of the predicted mixed parameters from their targets is a fixed linear
map of phi_hat - phi, so max-statistic thresholds can be computed by
direct simulation from N(0, K^-1) at the fitted variance components.

K is an arrow matrix (Henderson 1975): a q x q fixed-effect corner A, a
D x q border B and a diagonal D block Lambda.  Absorbing u leaves the
q x q Schur complement S = A - B' Lambda^-1 B = X' V^-1 X, and with
Lc Lc' = S^-1 the lower-triangular arrow

    F = [[Lc, 0], [-Lambda^-1 B Lc, Lambda^-1/2]]

satisfies F F' = K^-1.  Building F costs O(D q^2), and no (q + D)-square
array is ever formed.  A draw of the maximum over the D mixed parameters
costs O(q) plus the entries of its cluster noise that can reach a
censoring threshold, about one per draw when the components are nearly
independent, and a completion pass draws the rest only when the quantile
falls below that threshold (critical_value_mc).  A draw through a dense
contrast of R rows costs O(R (D + q)).  Chunks of draws run one after
another in the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CholeskyFailure, ShapeMismatch
from .maxstat import CriticalValue
from .model import (
    BlockLmmData,
    MixedParameterSpec,
    VarianceComponents,
    check_contrast,
    error_variances,
)
from .util import (
    check_alpha,
    check_seed,
    derive_rng,
    floor_scales,
    normal_quantile,
    order_statistic,
    quantile_index,
)

# draws are generated in fixed-size chunks, each from streams derived from
# its own index, so a chunk's draws do not depend on the chunks before it
DRAW_CHUNK = 8192
# a chunk draws blocks of about this many normals (512 KiB), so a block and
# its products stay in cache and memory does not grow with D
BLOCK_NUMBERS = 2**16
# the censoring threshold tau is set so that independent components with
# every w at its smallest would all stay below it with probability
# CENSOR_LEVEL; a chunk whose entries would pass its cut-off s with a
# larger probability than DENSE_SHARE draws all of them
CENSOR_LEVEL = 0.4
DENSE_SHARE = 0.2
# tail entries are sampled about this many at a time; each one carries
# some eight numbers of working arrays, so this matches one block
TAIL_ENTRIES = BLOCK_NUMBERS // 8

@dataclass(frozen=True)
class Arrow:
    """A (q + D)-square matrix kept as a q x q corner, a D x q border and a D diagonal.

    A precision reads it as the symmetric [[corner, border'], [border,
    diag]], a covariance factor as the lower-triangular [[corner, 0],
    [border, diag]].
    """

    corner: np.ndarray
    border: np.ndarray
    diag: np.ndarray

    def __post_init__(self):
        q, D = self.corner.shape[0], self.diag.shape[0]
        if self.corner.shape != (q, q) or self.border.shape != (D, q):
            raise ShapeMismatch(
                f"arrow parts do not fit: corner {self.corner.shape}, "
                f"border {self.border.shape}, diag {self.diag.shape}"
            )

    @property
    def nbytes(self) -> int:
        return self.corner.nbytes + self.border.nbytes + self.diag.nbytes


def assemble_precision(data: BlockLmmData, theta: VarianceComponents) -> Arrow:
    """C' R^-1 C + G+ as a symmetric arrow, assembled from per-cluster blocks.

    R is diagonal with the per-unit error variances r (model.error_variances),
    so one formula serves both families: corner X' R^-1 X, border the
    cluster sums of the rows of R^-1 X, diagonal the cluster sums of 1 / r
    plus 1 / sigma2_u.
    """
    r = error_variances(data, theta)
    xr = data.X / r[:, None]
    return Arrow(
        corner=data.X.T @ xr,
        border=np.add.reduceat(xr, data.offsets, axis=0),
        diag=np.add.reduceat(1.0 / r, data.offsets) + 1.0 / theta.sigma2_u,
    )


@dataclass(frozen=True)
class JointNormalModel:
    """The law N(0, K^-1) of phi_hat - phi: its precision K and the factor F F' = K^-1."""

    precision: Arrow
    cov_factor: Arrow

    @property
    def covariance(self) -> Arrow:
        """K^-1, held as its factor cov_factor.

        Only the benchmark tracer reads it: bench/trace_child.py sums the
        nbytes of precision, covariance and cov_factor.
        """
        return self.cov_factor


def build_joint_normal(data: BlockLmmData, theta: VarianceComponents) -> JointNormalModel:
    K = assemble_precision(data, theta)
    inv_diag = 1.0 / K.diag
    schur = K.corner - K.border.T @ (K.border * inv_diag[:, None])
    try:
        np.linalg.cholesky(schur)
    except np.linalg.LinAlgError as exc:
        raise CholeskyFailure("mixed-model precision is not positive definite") from exc
    beta_cov = np.linalg.inv(schur)
    beta_cov = 0.5 * (beta_cov + beta_cov.T)
    try:
        lc = np.linalg.cholesky(beta_cov)
    except np.linalg.LinAlgError as exc:
        raise CholeskyFailure("implied covariance is not positive definite") from exc
    border = -(K.border @ lc) * inv_diag[:, None]
    return JointNormalModel(precision=K, cov_factor=Arrow(lc, border, np.sqrt(inv_diag)))


def _mapped_factor(model, spec, contrast):
    """(Mq, Mw, cols) with rows of [Mq, Mw] = rows of A L F, L the loading matrix.

    This is the one place that classifies a contrast.  Without one, Mw is
    the vector w of a diagonal (the u-part of L F is diag(m / sqrt(lambda)))
    and cols is None.  A selection (every row has one non-zero entry a_r,
    each in a column of its own) keeps that form: row r is a_r times row
    cols[r].  Any other contrast gives the dense R x D block A diag(w) and
    cols None.
    """
    F = model.cov_factor
    D, q = F.diag.shape[0], F.corner.shape[0]
    if spec.k.shape != (D, q):
        raise ShapeMismatch(f"spec k has shape {spec.k.shape}, expected {(D, q)}")
    mq = spec.k @ F.corner + spec.m[:, None] * F.border
    w = spec.m * F.diag
    if contrast is None:
        return mq, w, None
    contrast = check_contrast(contrast, D)
    hits = contrast != 0
    cols = hits.argmax(axis=1)
    if np.all(hits.sum(axis=1) == 1) and np.unique(cols).size == cols.size:
        a = contrast[np.arange(cols.size), cols]
        return a[:, None] * mq[cols], a * w[cols], cols
    return contrast @ mq, contrast * w, None


def model_scales(
    model: JointNormalModel, spec: MixedParameterSpec, contrast: np.ndarray | None = None
) -> np.ndarray:
    """Model-implied standard deviations of (A) L (phi_hat - phi), one per row."""
    mq, mw, _ = _mapped_factor(model, spec, contrast)
    return _row_norms(mq, mw)


def _row_norms(mq, mw):
    u_part = mw**2 if mw.ndim == 1 else np.einsum("rd,rd->r", mw, mw)
    return np.sqrt(np.einsum("ri,ri->r", mq, mq) + u_part)


def _studentized(mq, mw):
    """(mq, mw) with each row divided by its floored model-implied scale."""
    scales = floor_scales(_row_norms(mq, mw))
    return mq / scales[:, None], mw / (scales if mw.ndim == 1 else scales[:, None])


class _ColumnDraw:
    """Rows t_r = mq_r' z_q + w_r' z_u read from one draw z = (z_q, z_u), z_u of length D.

    mq and w are the studentized rows.  A 1-D w reads one column per row:
    row r reads column cols[r] of z_u with weight w_r (row d reads column d
    if cols is None), and no two rows read the same column: rows_of[d] is
    the row that reads column d, or -1.  A 2-D w (R x D, a dense contrast)
    makes row r read all of z_u; its tau is 0, so its chunks draw all of
    z_u and are never censored.

    A chunk draws the z_q of all its draws first.  With b = |z_q| @ bound_q
    bounding every |mq_r' z_q| of a draw, an entry of z_u with
    |z| <= s = (tau - max b) / w_max leaves each |t_r| it feeds at or below
    tau.  So the chunk samples only its entries with |z| > s, each one in
    that tail with probability p = erfc(s / sqrt 2), and records per draw
    the largest |t_r| they feed: that is the draw's maximum wherever it
    exceeds tau (to rounding, as completion sums t_r in another order).
    Completion draws the other entries, |z| <= s, from a stream of its own,
    which gives every draw its exact maximum.  A chunk with p > DENSE_SHARE,
    or any chunk once tau <= 0, draws all of z_u.  Dense and completed
    draws go in blocks of `block` draws, tail entries about TAIL_ENTRIES at
    a time.

    tau and the bounds come from the plain rows (plain_mq, plain_w), one
    per column, joined with the rows read, so a selection of the plain rows
    shares tau, s and so its draws with the plain draw.  tau does not depend
    on alpha.  By Anderson's inequality, P(max_d |t_d| <= tau) is at most
    P(|Z| <= tau / min |w|)^D = CENSOR_LEVEL for the plain rows.
    """

    def __init__(self, mq, w, plain_mq, plain_w, cols, block):
        D = plain_w.shape[0]
        self.mq, self.w, self.cols, self.block = mq, w, cols, block
        self.rows_of = np.arange(D)
        if cols is not None:
            self.rows_of = np.full(D, -1)
            self.rows_of[cols] = np.arange(cols.size)
        self.bound_q = np.maximum(np.abs(plain_mq).max(axis=0), np.abs(mq).max(axis=0))
        self.w_max = float(max(np.abs(plain_w).max(), np.abs(w).max()))
        tail = -math.expm1(math.log(CENSOR_LEVEL) / D) / 2.0
        self.tau = -float(np.abs(plain_w).min() * normal_quantile(tail)) if w.ndim == 1 else 0.0

    def dense_max(self, zq, zu, out):
        if self.w.ndim == 2:
            t = zu @ self.w.T
        else:
            t = zu if self.cols is None else zu[:, self.cols]
            t *= self.w
        t += zq @ self.mq.T
        np.abs(t, out=t)
        t.max(axis=1, out=out)

    def tail_max(self, zq, pos, z, out):
        """Per draw, the largest |t_r| fed by the entries z at flat positions pos; 0 if none."""
        i, r = np.divmod(pos, self.rows_of.size)
        if self.cols is not None:
            # keep the entries of columns that some row reads, as row numbers
            r = self.rows_of.take(r)
            read = np.flatnonzero(r >= 0)
            i, r, z = i.take(read), r.take(read), z.take(read)
        # summed column by column, so no (entries x q) array is gathered
        t = self.w.take(r)
        t *= z
        for j in range(zq.shape[1]):
            t += zq[:, j].take(i) * self.mq[:, j].take(r)
        out[:] = 0.0
        np.maximum.at(out, i, np.abs(t, out=t))

    def chunk_max(self, rng, body_rng, out):
        """Maxima of one chunk of draws into out; True if they are exact only above tau.

        With a body stream every maximum is exact.
        """
        n, D = out.size, self.rows_of.size
        zq = rng.standard_normal((n, self.mq.shape[1]))
        # s is cut a relative 1e-9 below its bound, so rounding in t cannot
        # lift an entry that was not sampled above tau
        cut = self.tau * (1.0 - 1e-9) - (np.abs(zq) @ self.bound_q).max()
        s = cut / self.w_max if self.tau > 0 else 0.0
        p = math.erfc(s / math.sqrt(2.0))
        if p > DENSE_SHARE:
            for lo in range(0, n, self.block):
                hi = min(lo + self.block, n)
                self.dense_max(zq[lo:hi], rng.standard_normal((hi - lo, D)), out[lo:hi])
            return False
        step = max(1, int(TAIL_ENTRIES / (D * p)))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            pos = _tail_positions(rng, (hi - lo) * D, p)
            z = _tail_normals(rng, s, pos.size)
            if body_rng is None:
                self.tail_max(zq[lo:hi], pos, z, out[lo:hi])
                continue
            for a in range(lo, hi, self.block):
                b = min(a + self.block, hi)
                zu = _body_normals(body_rng, s, (b - a, D))
                first, last = np.searchsorted(pos, ((a - lo) * D, (b - lo) * D))
                zu.ravel()[pos[first:last] - (a - lo) * D] = z[first:last]
                self.dense_max(zq[a:b], zu, out[a:b])
        return body_rng is None


def _tail_positions(rng, n, p):
    """Sorted positions in range(n), each one taken independently with probability p.

    The gaps between taken positions are geometric; they are drawn in
    batches large enough to pass n in one batch nearly always.
    """
    batch = int(n * p + 4.0 * math.sqrt(n * p)) + 16
    pos = np.cumsum(rng.geometric(p, batch)) - 1
    while pos[-1] < n:
        pos = np.concatenate([pos, pos[-1] + np.cumsum(rng.geometric(p, batch))])
    return pos[: np.searchsorted(pos, n)]


def _tail_normals(rng, s, n):
    """n standard normals conditioned on |Z| > s > 0.

    |Z| comes from Robert's (1995) translated-exponential proposal with the
    optimal rate, accepted with probability exp(-(x - rate)^2 / 2); the sign
    is drawn after.
    """
    rate = 0.5 * (s + math.sqrt(s * s + 4.0))
    out = np.empty(n)
    done = 0
    while done < n:
        x = s + rng.standard_exponential(n - done) / rate
        x = x[rng.random(n - done) <= np.exp(-0.5 * (x - rate) ** 2)]
        out[done : done + x.size] = x
        done += x.size
    out[rng.random(n) < 0.5] *= -1.0
    return out


def _body_normals(rng, s, shape):
    """Standard normals of the given shape conditioned on |Z| <= s, by redrawing the rest."""
    z = rng.standard_normal(shape)
    flat = z.ravel()
    redraw = np.flatnonzero((flat > s) | (flat < -s))
    while redraw.size:
        flat[redraw] = rng.standard_normal(redraw.size)
        redraw = redraw[np.abs(flat[redraw]) > s]
    return z


def critical_value_mc(
    model: JointNormalModel,
    spec: MixedParameterSpec,
    k_draws: int,
    alpha: float,
    master_seed: int,
    contrast: np.ndarray | None = None,
) -> CriticalValue:
    """Max-statistic threshold simulated from the fitted normal law.

    Numerators are the mapped deviations, studentized by the model-implied
    standard deviation of each component (model_scales).  Pass a contrast
    matrix to calibrate linear combinations A mu.

    Chunk c of DRAW_CHUNK draws continues one stream from (master_seed, c)
    in blocks of at most BLOCK_NUMBERS normals.  Without a contrast, or with
    a selection of the mixed parameters (_mapped_factor), a chunk draws only
    the entries of z_u that can reach the censoring threshold tau (see
    _ColumnDraw); any other contrast draws every entry.  When the order
    statistic lies at or below tau, every chunk that censored is drawn
    again and completed from the stream (master_seed, c, 1), so the result
    is exact in law either way.  tau does not depend on alpha, so all alphas
    share the same draws.  The chunks run one after another in the calling
    thread; no worker count enters the result.
    """
    check_alpha(alpha)
    check_seed(master_seed)
    if k_draws < 1:
        raise ShapeMismatch("need at least one draw")
    plain_mq, plain_w, _ = _mapped_factor(model, spec, None)
    mq, w, cols = _mapped_factor(model, spec, contrast)
    block = max(1, BLOCK_NUMBERS // (plain_mq.shape[1] + plain_w.shape[0]))
    draw = _ColumnDraw(*_studentized(mq, w), *_studentized(plain_mq, plain_w), cols, block)
    maxima = np.empty(k_draws)
    n_chunks = (k_draws + DRAW_CHUNK - 1) // DRAW_CHUNK
    censored = np.zeros(n_chunks, dtype=bool)

    def run_chunk(i: int, complete: bool) -> None:
        rng = derive_rng(master_seed, i)
        body_rng = derive_rng(master_seed, i, 1) if complete else None
        out = maxima[i * DRAW_CHUNK : (i + 1) * DRAW_CHUNK]
        censored[i] = draw.chunk_max(rng, body_rng, out)

    for i in range(n_chunks):
        run_chunk(i, complete=False)
    k = quantile_index(k_draws, alpha)
    value = order_statistic(maxima, k)
    if value <= draw.tau and censored.any():
        for i in np.flatnonzero(censored):
            run_chunk(i, complete=True)
        value = order_statistic(maxima, k)
    return CriticalValue(value=value)

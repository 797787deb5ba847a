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

satisfies F F' = K^-1.  Building F costs O(D q^2), one draw costs O(D q),
and no (q + D)-square array is ever formed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import util
from .errors import CholeskyFailure, ShapeMismatch
from .maxstat import SCALE_FLOOR, CriticalValue
from .model import (
    BlockLmmData,
    MixedParameterSpec,
    VarianceComponents,
    check_contrast,
    error_variances,
)
from .util import check_seed, derive_rng, order_statistic, quantile_index

# draws are generated in fixed-size chunks with per-chunk derived streams,
# so the merged result is invariant to the worker count
DRAW_CHUNK = 8192
# a chunk draws blocks of about this many normals (512 KiB), so a block and
# its products stay in cache and memory does not grow with D
BLOCK_NUMBERS = 2**16

ARROW_KINDS = ("symmetric", "lower", "gram")


@dataclass(frozen=True)
class Arrow:
    """A (q + D)-square matrix kept as a q x q corner, a D x q border and a D diagonal.

    kind "symmetric" is [[corner, border'], [border, diag]], "lower" is
    [[corner, 0], [border, diag]], and "gram" is F F' for the "lower"
    arrow F with the same parts.
    """

    corner: np.ndarray
    border: np.ndarray
    diag: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in ARROW_KINDS:
            raise ShapeMismatch(f"arrow kind must be one of {ARROW_KINDS}, got {self.kind!r}")
        q, D = self.corner.shape[0], self.diag.shape[0]
        if self.corner.shape != (q, q) or self.border.shape != (D, q):
            raise ShapeMismatch(
                f"arrow parts do not fit: corner {self.corner.shape}, "
                f"border {self.border.shape}, diag {self.diag.shape}"
            )

    @property
    def nbytes(self) -> int:
        return self.corner.nbytes + self.border.nbytes + self.diag.nbytes

    def dense(self) -> np.ndarray:
        """The full matrix; O((q + D)^2) memory, for checks only."""
        q, D = self.corner.shape[0], self.diag.shape[0]
        out = np.zeros((q + D, q + D))
        out[:q, :q] = self.corner
        out[q:, :q] = self.border
        out[q:, q:] = np.diag(self.diag)
        if self.kind == "symmetric":
            out[:q, q:] = self.border.T
        elif self.kind == "gram":
            out = out @ out.T
        return out


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
        kind="symmetric",
    )


@dataclass(frozen=True)
class JointNormalModel:
    """Precision, covariance and a sampling factor for phi_hat - phi.

    All three are arrows: precision is symmetric, cov_factor is lower
    triangular and covariance is cov_factor @ cov_factor.T.
    """

    precision: Arrow
    covariance: Arrow
    cov_factor: Arrow


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
    diag = np.sqrt(inv_diag)
    return JointNormalModel(
        precision=K,
        covariance=Arrow(lc, border, diag, kind="gram"),
        cov_factor=Arrow(lc, border, diag, kind="lower"),
    )


def _mapped_factor(model, spec, contrast):
    """(Mq, Mw) with rows of [Mq, Mw] = rows of A L F, L the loading matrix.

    Without a contrast Mw is the vector w of a diagonal (the u-part of L F
    is diag(m / sqrt(lambda))); with one it is the dense R x D block A diag(w).
    """
    F = model.cov_factor
    D, q = F.diag.shape[0], F.corner.shape[0]
    if spec.k.shape != (D, q):
        raise ShapeMismatch(f"spec k has shape {spec.k.shape}, expected {(D, q)}")
    mq = spec.k @ F.corner + spec.m[:, None] * F.border
    w = spec.m * F.diag
    if contrast is None:
        return mq, w
    contrast = check_contrast(contrast, D)
    return contrast @ mq, contrast * w


def model_scales(
    model: JointNormalModel, spec: MixedParameterSpec, contrast: np.ndarray | None = None
) -> np.ndarray:
    """Model-implied standard deviations of (A) L (phi_hat - phi), one per row."""
    return _row_norms(*_mapped_factor(model, spec, contrast))


def _row_norms(mq, mw):
    u_part = mw**2 if mw.ndim == 1 else np.einsum("rd,rd->r", mw, mw)
    return np.sqrt(np.einsum("ri,ri->r", mq, mq) + u_part)


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
    in blocks of BLOCK_NUMBERS normals.  Chunks run on up to one thread per
    usable CPU and write only their own maxima, so that count moves no bit.
    """
    check_seed(master_seed)
    if k_draws < 1:
        raise ShapeMismatch("need at least one draw")
    mq, mw = _mapped_factor(model, spec, contrast)
    scales = np.maximum(_row_norms(mq, mw), SCALE_FLOOR)
    # studentize the mapped factor once instead of every draw
    mq = mq / scales[:, None]
    mw = mw / (scales if mw.ndim == 1 else scales[:, None])
    q, D = mq.shape[1], model.cov_factor.diag.shape[0]
    block = max(1, BLOCK_NUMBERS // (q + D))
    maxima = np.empty(k_draws)

    def chunk_max(i: int) -> None:
        rng = derive_rng(master_seed, i)
        end = min((i + 1) * DRAW_CHUNK, k_draws)
        for lo in range(i * DRAW_CHUNK, end, block):
            hi = min(lo + block, end)
            # white noise for (beta, u); F maps it to phi_hat - phi
            z = rng.standard_normal((hi - lo, q + D))
            zq, zu = z[:, :q], z[:, q:]
            if mw.ndim == 1:
                zu *= mw
                t = zu
            else:
                t = zu @ mw.T
            t += zq @ mq.T
            np.abs(t, out=t)
            t.max(axis=1, out=maxima[lo:hi])

    n_chunks = (k_draws + DRAW_CHUNK - 1) // DRAW_CHUNK
    workers = min(n_chunks, util.usable_cpus())
    if workers == 1:
        for i in range(n_chunks):
            chunk_max(i)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(chunk_max, range(n_chunks)))
    value = order_statistic(maxima, quantile_index(k_draws, alpha))
    return CriticalValue(value=value, method="MC", alpha=alpha)

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

from dataclasses import dataclass

import numpy as np

from .errors import CholeskyFailure, ShapeMismatch
from .maxstat import SCALE_FLOOR, CriticalValue
from .model import (
    FHM,
    NERM,
    BlockLmmData,
    MixedParameterSpec,
    VarianceComponents,
)
from .util import (
    check_seed,
    check_threads,
    derive_rng,
    deterministic_map,
    order_statistic,
    quantile_index,
)

# draws are generated in fixed-size chunks with per-chunk derived streams,
# so the merged result is invariant to the worker count
DRAW_CHUNK = 8192

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
    """C' R^-1 C + G+ as a symmetric arrow, assembled from per-cluster blocks."""
    if data.model_tag == NERM:
        if theta.sigma2_e is None:
            raise ShapeMismatch("unit-level model requires sigma2_e")
        se = theta.sigma2_e
        t = np.add.reduceat(data.X, data.offsets, axis=0)
        return Arrow(
            corner=data.X.T @ data.X / se,
            border=t / se,
            diag=data.sizes / se + 1.0 / theta.sigma2_u,
            kind="symmetric",
        )
    if data.model_tag == FHM:
        s2e = data.known_error_vars
        border = data.X / s2e[:, None]
        return Arrow(
            corner=data.X.T @ border,
            border=border,
            diag=1.0 / s2e + 1.0 / theta.sigma2_u,
            kind="symmetric",
        )
    raise ShapeMismatch(f"unknown model tag {data.model_tag!r}")


@dataclass(frozen=True)
class JointNormalModel:
    """Precision, covariance and a sampling factor for phi_hat - phi.

    All three are arrows: precision is symmetric, cov_factor is lower
    triangular and covariance is cov_factor @ cov_factor.T.
    """

    precision: Arrow
    covariance: Arrow
    cov_factor: Arrow
    p: int
    D: int

    @property
    def dim(self) -> int:
        return self.p + 1 + self.D


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
        p=data.p,
        D=data.D,
    )


def loading_matrix(model: JointNormalModel, spec: MixedParameterSpec) -> np.ndarray:
    """Rows map phi to the mixed parameters: [k_d, m_d e_d]."""
    _check_loading(model, spec)
    return np.hstack([spec.k, np.diag(spec.m)])


def _check_loading(model: JointNormalModel, spec: MixedParameterSpec) -> None:
    if spec.k.shape != (model.D, model.p + 1):
        raise ShapeMismatch(
            f"spec k has shape {spec.k.shape}, expected {(model.D, model.p + 1)}"
        )


def _mapped_factor(model, spec, contrast):
    """(Mq, Mw) with rows of [Mq, Mw] = rows of A L F, L the loading matrix.

    Without a contrast Mw is the vector w of a diagonal (the u-part of L F
    is diag(m / sqrt(lambda))); with one it is the dense R x D block A diag(w).
    """
    _check_loading(model, spec)
    F = model.cov_factor
    mq = spec.k @ F.corner + spec.m[:, None] * F.border
    w = spec.m * F.diag
    if contrast is None:
        return mq, w
    contrast = np.asarray(contrast, dtype=float)
    if contrast.ndim != 2 or contrast.shape[1] != model.D:
        raise ShapeMismatch(f"contrast must have {model.D} columns, got {contrast.shape}")
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
    scales: np.ndarray | None = None,
    contrast: np.ndarray | None = None,
    threads: int | None = None,
) -> CriticalValue:
    """Max-statistic threshold simulated from the fitted normal law.

    Numerators are the mapped deviations; the default studentization is
    the model-implied standard deviation of each component.  Pass scales
    to studentize differently (e.g. by sqrt(g1)), or a contrast matrix to
    calibrate linear combinations A mu.
    """
    check_seed(master_seed)
    check_threads(threads)
    if k_draws < 1:
        raise ShapeMismatch("need at least one draw")
    mq, mw = _mapped_factor(model, spec, contrast)
    if scales is None:
        scales = _row_norms(mq, mw)
    else:
        scales = np.asarray(scales, dtype=float)
        if scales.shape != (mq.shape[0],):
            raise ShapeMismatch(f"scales must have shape {(mq.shape[0],)}, got {scales.shape}")
    scales = np.maximum(scales, SCALE_FLOOR)
    # studentize the mapped factor once instead of every draw
    mq = mq / scales[:, None]
    mw = mw / (scales if mw.ndim == 1 else scales[:, None])
    q = mq.shape[1]

    def chunk_max(i: int) -> np.ndarray:
        lo = i * DRAW_CHUNK
        m = min(DRAW_CHUNK, k_draws - lo)
        # white noise for (beta, u); F maps it to phi_hat - phi
        z = derive_rng(master_seed, i).standard_normal((m, q + model.D))
        zq, zu = z[:, :q], z[:, q:]
        if mw.ndim == 1:
            zu *= mw
            t = zu
        else:
            t = zu @ mw.T
        t += zq @ mq.T
        np.abs(t, out=t)
        return t.max(axis=1)

    n_chunks = (k_draws + DRAW_CHUNK - 1) // DRAW_CHUNK
    maxima = np.concatenate(deterministic_map(chunk_max, range(n_chunks), threads))
    value = order_statistic(maxima, quantile_index(k_draws, alpha))
    return CriticalValue(value=value, method="MC", alpha=alpha)

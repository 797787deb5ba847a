"""Data containers for block-diagonal linear mixed models.

Two families are supported, both with a single random effect per cluster:

* NERM: unit-level model with clusters of size n_d, homoscedastic unit
  errors (variance sigma2_e) and a cluster random intercept (sigma2_u).
* FHM: area-level model with one observation per cluster, a known
  heteroscedastic error variance per cluster, and a cluster random
  intercept (sigma2_u).

The response of cluster d is y_d = X_d beta + u_d 1 + e_d, and the targets
of inference are mixed parameters mu_d = k_d' beta + m_d u_d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MissingErrorVariance, RankDeficient, ShapeMismatch

NERM = "NERM"
FHM = "FHM"

# The REML estimator floors its parameter (psi = sigma2_u / sigma2_e, or
# sigma2_u in units of the standardized response) at VAR_FLOOR.  A supplied
# variance component that is zero or negative is raised to VAR_FLOOR, in the
# units of the data, so downstream ratios stay finite.
VAR_FLOOR = 1e-10


def _as_float_array(a, name: str, ndim: int) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(a, dtype=float))
    if arr.ndim != ndim:
        raise ShapeMismatch(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ShapeMismatch(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class ClusterBlock:
    """One cluster: response vector, design rows, optional known error variance."""

    cluster_id: object
    y: np.ndarray
    X: np.ndarray
    known_error_var: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "y", _as_float_array(self.y, "y", 1))
        object.__setattr__(self, "X", _as_float_array(self.X, "X", 2))
        if self.known_error_var is not None:
            object.__setattr__(self, "known_error_var", float(self.known_error_var))

    @property
    def n(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class BlockLmmData:
    """Immutable collection of cluster blocks plus the model family tag."""

    model_tag: str
    clusters: tuple[ClusterBlock, ...]

    def __post_init__(self):
        object.__setattr__(self, "clusters", tuple(self.clusters))

    # ---- derived layout ----

    @property
    def D(self) -> int:
        return len(self.clusters)

    @property
    def p(self) -> int:
        # number of slope covariates; design has p + 1 columns with intercept first
        return self.clusters[0].X.shape[1] - 1

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.array([c.n for c in self.clusters], dtype=np.int64)

    @cached_property
    def offsets(self) -> np.ndarray:
        """Start index of each cluster in the stacked arrays."""
        return np.concatenate([[0], np.cumsum(self.sizes)[:-1]])

    @property
    def n_total(self) -> int:
        return int(self.sizes.sum())

    @cached_property
    def X(self) -> np.ndarray:
        return np.vstack([c.X for c in self.clusters])

    @cached_property
    def y(self) -> np.ndarray:
        return np.concatenate([c.y for c in self.clusters])

    @cached_property
    def known_error_vars(self) -> np.ndarray | None:
        """Per-cluster known error variances (FHM), else None."""
        if self.model_tag != FHM:
            return None
        return np.array([c.known_error_var for c in self.clusters], dtype=float)

    @cached_property
    def cluster_ids(self) -> tuple:
        return tuple(c.cluster_id for c in self.clusters)

    def cluster_slices(self) -> list[slice]:
        return [slice(int(o), int(o + n)) for o, n in zip(self.offsets, self.sizes)]


def replace_response(data: BlockLmmData, y: np.ndarray) -> BlockLmmData:
    """Same design and metadata with a new stacked response vector."""
    y = np.asarray(y, dtype=float)
    if y.shape != (data.n_total,):
        raise ShapeMismatch(f"y must have shape {(data.n_total,)}, got {y.shape}")
    blocks = [
        ClusterBlock(
            cluster_id=c.cluster_id,
            y=y[sl],
            X=c.X,
            known_error_var=c.known_error_var,
        )
        for c, sl in zip(data.clusters, data.cluster_slices())
    ]
    return BlockLmmData(model_tag=data.model_tag, clusters=tuple(blocks))


@dataclass(frozen=True)
class VarianceComponents:
    """Variance components; sigma2_e is None for the area-level model.

    A component <= 0 becomes VAR_FLOOR; positive values are kept however
    small, so estimates at any scale of the response pass through unchanged.
    """

    sigma2_u: float
    sigma2_e: float | None = None

    def __post_init__(self):
        for name in ("sigma2_u", "sigma2_e"):
            value = getattr(self, name)
            if value is None:
                continue
            value = float(value)
            if not np.isfinite(value):
                raise ShapeMismatch(f"{name} must be finite")
            object.__setattr__(self, name, value if value > 0.0 else VAR_FLOOR)


@dataclass(frozen=True)
class MixedParameterSpec:
    """Targets mu_d = k_d' beta + m_d u_d, one row of k per cluster."""

    k: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", _as_float_array(self.k, "k", 2))
        object.__setattr__(self, "m", _as_float_array(self.m, "m", 1))
        if self.k.shape[0] != self.m.shape[0]:
            raise ShapeMismatch(
                f"k has {self.k.shape[0]} rows but m has {self.m.shape[0]} entries"
            )


def validate(data: BlockLmmData) -> None:
    """Check structural invariants; raises on the first violation."""
    if data.D < 1:
        raise ShapeMismatch("need at least one cluster")
    if data.model_tag not in (NERM, FHM):
        raise ShapeMismatch(f"unknown model tag {data.model_tag!r}")
    ncols = data.clusters[0].X.shape[1]
    if ncols < 1:
        raise ShapeMismatch("design matrix needs at least the intercept column")
    for c in data.clusters:
        if c.n < 1:
            raise ShapeMismatch(f"cluster {c.cluster_id!r} is empty")
        if c.X.shape[0] != c.n:
            raise ShapeMismatch(
                f"cluster {c.cluster_id!r}: X has {c.X.shape[0]} rows for {c.n} responses"
            )
        if c.X.shape[1] != ncols:
            raise ShapeMismatch(
                f"cluster {c.cluster_id!r}: X has {c.X.shape[1]} columns, expected {ncols}"
            )
        if not np.all(c.X[:, 0] == 1.0):
            raise ShapeMismatch(f"cluster {c.cluster_id!r}: first design column must be all ones")
        if data.model_tag == FHM:
            if c.n != 1:
                raise ShapeMismatch(
                    f"area-level model requires one observation per cluster, "
                    f"cluster {c.cluster_id!r} has {c.n}"
                )
            if c.known_error_var is None:
                raise MissingErrorVariance(f"cluster {c.cluster_id!r} lacks known_error_var")
            if not (np.isfinite(c.known_error_var) and c.known_error_var > 0):
                raise MissingErrorVariance(
                    f"cluster {c.cluster_id!r}: known_error_var must be positive, "
                    f"got {c.known_error_var}"
                )
        else:
            if c.known_error_var is not None:
                raise ShapeMismatch(
                    f"cluster {c.cluster_id!r}: known_error_var is only valid "
                    f"for the area-level model"
                )
    if np.linalg.matrix_rank(data.X) < ncols:
        raise RankDeficient("stacked design matrix is rank deficient")


def check_spec(data: BlockLmmData, spec: MixedParameterSpec) -> None:
    if spec.k.shape != (data.D, data.p + 1):
        raise ShapeMismatch(
            f"spec k has shape {spec.k.shape}, expected {(data.D, data.p + 1)}"
        )


def eval_mixed_parameters(
    data: BlockLmmData, spec: MixedParameterSpec, beta: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """mu_d = k_d' beta + m_d u_d for every cluster."""
    check_spec(data, spec)
    beta = _as_float_array(beta, "beta", 1)
    u = _as_float_array(u, "u", 1)
    if beta.shape[0] != data.p + 1:
        raise ShapeMismatch(f"beta has length {beta.shape[0]}, expected {data.p + 1}")
    if u.shape[0] != data.D:
        raise ShapeMismatch(f"u has length {u.shape[0]}, expected {data.D}")
    return spec.k @ beta + spec.m * u


def cluster_mean_spec(data: BlockLmmData) -> MixedParameterSpec:
    """Target the cluster mean of the fixed part plus the full random effect.

    k_d is the within-cluster average design row and m_d = 1, so
    mu_d = xbar_d' beta + u_d.
    """
    k = np.vstack([c.X.mean(axis=0) for c in data.clusters])
    return MixedParameterSpec(k=k, m=np.ones(data.D))

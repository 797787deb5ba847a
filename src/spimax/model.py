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

import dataclasses
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


def _as_float_array(a, name: str, ndim: int, finite: bool = True) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(a, dtype=float))
    if arr.ndim != ndim:
        raise ShapeMismatch(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if finite and not np.all(np.isfinite(arr)):
        raise ShapeMismatch(f"{name} contains non-finite entries")
    return arr


def _check_finite(y: np.ndarray, X: np.ndarray, sizes: np.ndarray) -> None:
    """Raise for the first cluster holding a non-finite entry, naming y before X."""
    ends = np.cumsum(sizes)
    first = {}
    for name, ok in (("y", np.isfinite(y)), ("X", np.isfinite(X).all(axis=1))):
        if not ok.all():
            first[name] = np.searchsorted(ends, np.argmin(ok), side="right")
    if first:
        raise ShapeMismatch(f"{min(first, key=first.get)} contains non-finite entries")


@dataclass(frozen=True)
class BlockLmmData:
    """Clusters stored as stacked arrays plus the model family tag.

    Cluster d owns sizes[d] consecutive rows of y and X; known_error_vars
    holds one known error variance per cluster (FHM) and is None for NERM.
    """

    model_tag: str
    cluster_ids: tuple
    sizes: np.ndarray
    y: np.ndarray
    X: np.ndarray
    known_error_vars: np.ndarray | None = None

    def __post_init__(self):
        sizes = np.asarray(self.sizes, dtype=np.int64)
        y = _as_float_array(self.y, "y", 1, finite=False)
        X = _as_float_array(self.X, "X", 2, finite=False)
        _check_finite(y, X, sizes)
        object.__setattr__(self, "cluster_ids", tuple(self.cluster_ids))
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        if self.known_error_vars is not None:
            ev = np.asarray(self.known_error_vars, dtype=float)
            object.__setattr__(self, "known_error_vars", ev)

    # ---- derived layout ----

    @property
    def D(self) -> int:
        return self.sizes.shape[0]

    @property
    def p(self) -> int:
        # number of slope covariates; design has p + 1 columns with intercept first
        return self.X.shape[1] - 1

    @cached_property
    def offsets(self) -> np.ndarray:
        """Start index of each cluster in the stacked arrays."""
        return np.concatenate([[0], np.cumsum(self.sizes)[:-1]])

    @property
    def n_total(self) -> int:
        return self.y.shape[0]

    def cluster_slices(self) -> list[slice]:
        return [slice(int(o), int(o + n)) for o, n in zip(self.offsets, self.sizes)]


def replace_response(data: BlockLmmData, y: np.ndarray) -> BlockLmmData:
    """Same design and metadata with a new stacked response vector."""
    y = np.asarray(y, dtype=float)
    if y.shape != (data.n_total,):
        raise ShapeMismatch(f"y must have shape {(data.n_total,)}, got {y.shape}")
    return dataclasses.replace(data, y=y)


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
    """Check structural invariants; raises on the first violation.

    A check that holds per cluster names the first cluster failing it.
    """
    D, sizes, ids, X = data.D, data.sizes, data.cluster_ids, data.X
    if D < 1:
        raise ShapeMismatch("need at least one cluster")
    if data.model_tag not in (NERM, FHM):
        raise ShapeMismatch(f"unknown model tag {data.model_tag!r}")
    if X.shape[1] < 1:
        raise ShapeMismatch("design matrix needs at least the intercept column")
    if len(ids) != D:
        raise ShapeMismatch(f"{len(ids)} cluster ids for {D} clusters")
    if X.shape[0] != data.n_total:
        raise ShapeMismatch(f"X has {X.shape[0]} rows for {data.n_total} responses")

    def first(bad: np.ndarray) -> int | None:
        return int(np.argmax(bad)) if bad.any() else None

    if (d := first(sizes < 1)) is not None:
        raise ShapeMismatch(f"cluster {ids[d]!r} is empty")
    if sizes.sum() != data.n_total:
        raise ShapeMismatch(f"cluster sizes sum to {sizes.sum()} for {data.n_total} responses")
    if (row := first(X[:, 0] != 1.0)) is not None:
        cid = ids[int(np.searchsorted(np.cumsum(sizes), row, side="right"))]
        raise ShapeMismatch(f"cluster {cid!r}: first design column must be all ones")
    ev = data.known_error_vars
    if data.model_tag == FHM:
        if (d := first(sizes != 1)) is not None:
            raise ShapeMismatch(
                f"area-level model requires one observation per cluster, "
                f"cluster {ids[d]!r} has {sizes[d]}"
            )
        if ev is None:
            raise MissingErrorVariance(f"cluster {ids[0]!r} lacks known_error_var")
        if ev.shape != (D,):
            raise ShapeMismatch(f"known_error_vars has shape {ev.shape}, expected {(D,)}")
        if (d := first(~(np.isfinite(ev) & (ev > 0)))) is not None:
            raise MissingErrorVariance(
                f"cluster {ids[d]!r}: known_error_var must be positive, got {float(ev[d])}"
            )
    elif ev is not None:
        raise ShapeMismatch(
            f"cluster {ids[0]!r}: known_error_var is only valid for the area-level model"
        )
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise RankDeficient("stacked design matrix is rank deficient")


def error_variances(data: BlockLmmData, theta: VarianceComponents) -> np.ndarray:
    """Error variance of each unit of y: the diagonal of R in e ~ N(0, R).

    sigma2_e for every unit of the unit-level model; the known psi_d of the
    area-level model, whose areas hold one unit each.
    """
    if data.model_tag == FHM:
        return data.known_error_vars
    if theta.sigma2_e is None:
        raise ShapeMismatch("unit-level model requires sigma2_e")
    return np.full(data.n_total, theta.sigma2_e)


def check_spec(data: BlockLmmData, spec: MixedParameterSpec) -> None:
    if spec.k.shape != (data.D, data.p + 1):
        raise ShapeMismatch(
            f"spec k has shape {spec.k.shape}, expected {(data.D, data.p + 1)}"
        )


def check_contrast(A, D: int) -> np.ndarray:
    """A as a float matrix; it must be 2-D with at least one row and D columns."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] != D:
        raise ShapeMismatch(f"A must have at least one row and {D} columns, got {A.shape}")
    return A


def cluster_mean_spec(data: BlockLmmData) -> MixedParameterSpec:
    """Target the cluster mean of the fixed part plus the full random effect.

    k_d is the within-cluster average design row and m_d = 1, so
    mu_d = xbar_d' beta + u_d.  Row j of every cluster longer than j is
    added in turn, the order X[sl].mean(axis=0) sums in, so k is bit for
    bit that mean.
    """
    sizes, offsets = data.sizes, data.offsets
    k = data.X[offsets]
    for j in range(1, int(sizes.max())):
        longer = sizes > j
        k[longer] += data.X[offsets[longer] + j]
    return MixedParameterSpec(k=k / sizes[:, None], m=np.ones(data.D))

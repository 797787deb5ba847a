"""Closed-form critical values: Bonferroni and volume-of-tube bounds.

The tube bound controls the non-coverage of bands c' phi_hat +/- c_crit *
sigma_e_hat ||l_M|| uniformly over a family of coefficient vectors.  Its
geometric constants (tube volume kappa0, boundary measures, curvature
corrections, the scale bounds xi0/eta0 and the error-dof nu) describe the
regression manifold; they are inputs supplied by the caller, never
estimated from data.

The Bonferroni quantile comes from the standard library
(util.normal_quantile).  scipy.special, which only the tube bound needs,
is imported inside the functions that call it, so that ``import spimax``
loads numpy only and jobs that never use the tube bound never pay for
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundUnattainable,
    InvalidConstants,
    NonMonotoneBound,
    ShapeMismatch,
)
from .maxstat import CriticalValue
from .mc import build_joint_normal, model_scales
from .model import (
    NERM,
    BlockLmmData,
    MixedParameterSpec,
    VarianceComponents,
    check_spec,
    error_variances,
)
from .util import check_alpha, normal_quantile

BISECT_LO = 1e-6
BISECT_HI = 100.0
BISECT_TOL = 1e-8
BISECT_MAX_ITER = 200


def bonferroni_cv(D: int, alpha: float) -> CriticalValue:
    """Upper z quantile at tail level alpha / (2 D).

    Taken as -z(alpha / (2 D)) by symmetry: forming 1 - alpha / (2 D) would
    round off the digits of a small tail level.
    """
    check_alpha(alpha)
    if D < 1:
        raise ShapeMismatch("need at least one cluster")
    value = -float(normal_quantile(alpha / (2.0 * D)))
    return CriticalValue(value=value, method="BO", alpha=alpha)


# ----------------------------------------------------------------------
# ridge representation of the predictor
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RidgeWeights:
    """Observation weights l with c' phi_tilde = l' y, plus ||l_M||.

    l_m_norm is the norm of the rotated weight vector, satisfying
    sigma2_e * ||l_M||^2 = Var(c' (phi_tilde - phi)); it is only defined
    for the homoscedastic unit-level model.
    """

    l: np.ndarray
    l_m_norm: float | None


def ridge_weights(data: BlockLmmData, theta: VarianceComponents, c: np.ndarray) -> RidgeWeights:
    """Solve the mixed-model equations for the weights of c' phi_tilde.

    K z = c is solved by block elimination through the arrow factor F of
    K^-1 = F F': z = F (F' c), and c' z = ||F' c||^2.  Then l = R^-1 C z,
    R the diagonal of per-unit error variances (model.error_variances).
    """
    c = np.asarray(c, dtype=float)
    q = data.p + 1
    dim = q + data.D
    if c.shape != (dim,):
        raise ShapeMismatch(f"c must have length {dim}, got {c.shape}")
    F = build_joint_normal(data, theta).cov_factor
    yq = F.corner.T @ c[:q] + F.border.T @ c[q:]
    yu = F.diag * c[q:]
    zq = F.corner @ yq
    zu = F.border @ yq + F.diag * yu
    l = (data.X @ zq + np.repeat(zu, data.sizes)) / error_variances(data, theta)
    norm = None
    if data.model_tag == NERM:
        norm = math.sqrt(float(yq @ yq + yu @ yu)) / math.sqrt(theta.sigma2_e)
    return RidgeWeights(l=l, l_m_norm=norm)


def ridge_interval_scales(
    data: BlockLmmData, theta: VarianceComponents, spec: MixedParameterSpec
) -> np.ndarray:
    """Per-cluster sigma_e_hat * ||l_M|| for the mixed-parameter targets.

    These are the tube-band scales; squared they equal g1_d + g2_d, the
    model-implied variances of the joint normal law.
    """
    check_spec(data, spec)
    if data.model_tag != NERM:
        raise ShapeMismatch("ridge band scales require the unit-level model")
    return model_scales(build_joint_normal(data, theta), spec)


# ----------------------------------------------------------------------
# volume-of-tube bound
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TubeConstants:
    """User-supplied geometric constants of the band family.

    kappa0: tube volume of the index manifold
    zeta0: boundary volume
    kappa2, zeta1, m0: curvature / corner corrections
    euler: Euler characteristic bound on the residual term
    xi0: lower bound on the band scale ratio (multiplies c)
    eta0: centering correction
    nu: degrees of freedom of the variance estimate
    """

    kappa0: float
    zeta0: float
    kappa2: float
    zeta1: float
    m0: float
    euler: float
    xi0: float
    eta0: float
    nu: float

    def __post_init__(self):
        vals = {
            "kappa0": self.kappa0,
            "zeta0": self.zeta0,
            "kappa2": self.kappa2,
            "zeta1": self.zeta1,
            "m0": self.m0,
            "euler": self.euler,
            "xi0": self.xi0,
            "eta0": self.eta0,
            "nu": self.nu,
        }
        for name, v in vals.items():
            if not np.isfinite(v):
                raise InvalidConstants(f"{name} must be finite, got {v}")
            if v < 0:
                raise InvalidConstants(f"{name} must be nonnegative, got {v}")
        if self.kappa0 <= 0:
            raise InvalidConstants("kappa0 must be positive")
        if self.xi0 <= 0:
            raise InvalidConstants("xi0 must be positive")
        if self.nu < 1:
            raise InvalidConstants("nu must be at least 1")


def _gamma_ratio(a: float, b: float) -> float:
    from scipy import special

    return math.exp(special.gammaln(a) - special.gammaln(b))


def _a_terms(c: float, k: TubeConstants) -> tuple[float, float, float]:
    """Chi-integral closed forms A1, A2, A3 at scaled height c * xi0."""
    nu = k.nu
    x = c * k.xi0
    base = -0.5 * math.log1p(x * x / nu)  # log (1 + x^2/nu)^(-1/2)
    a1 = math.exp(nu * base)
    a2 = math.sqrt(2.0) * x / math.sqrt(nu) * _gamma_ratio((nu + 1) / 2, nu / 2) * math.exp(
        (nu + 1) * base
    )
    a3 = (x * x / nu) * 2.0 * _gamma_ratio((nu + 2) / 2, nu / 2) * math.exp((nu + 2) * base)
    return a1, a2, a3


def tube_alpha_bound(p: int, c: float, k: TubeConstants) -> float:
    """Upper bound on the simultaneous non-coverage at height c.

    Branches on the manifold dimension p; the p = 1 and p = 2 branches use
    the closed chi-integral terms, the p >= 3 branch F tail probabilities.
    """
    from scipy import special

    if p < 1:
        raise ShapeMismatch("manifold dimension p must be at least 1")
    c = float(c)
    if c < 0:
        raise ShapeMismatch("height c must be nonnegative")
    nu = k.nu
    x = c * k.xi0
    t_tail = 2.0 * special.stdtr(nu, -x)
    if p == 1:
        a1, a2, _ = _a_terms(c, k)
        return (k.kappa0 / math.pi) * (a1 + k.eta0 * a2) + k.euler * t_tail
    if p == 2:
        a1, a2, a3 = _a_terms(c, k)
        lead = (k.kappa0 / (math.sqrt(2.0) * math.pi**1.5)) * (
            a2 + k.eta0 * (a3 - x / math.sqrt(nu) * a1)
        )
        edge = (k.zeta0 / (2.0 * math.pi)) * (a1 + k.eta0 * a2)
        return lead + edge + 2.0 * k.euler * t_tail
    # p >= 3: sigma_e / sigma_e_hat treated as 1 in the shifted height
    shifted = (x - k.eta0) ** 2
    out = (
        k.kappa0
        * math.gamma((p + 1) / 2)
        / math.pi ** ((p + 1) / 2)
        * special.fdtrc(p + 1, nu, shifted / (p + 1))
    )
    out += (
        (k.zeta0 / 2.0)
        * math.gamma(p / 2)
        / math.pi ** (p / 2)
        * special.fdtrc(p, nu, shifted / p)
    )
    out += (
        ((k.kappa2 + k.zeta1 + k.m0) / (2.0 * math.pi))
        * math.gamma((p - 1) / 2)
        / math.pi ** ((p - 1) / 2)
        * special.fdtrc(p - 1, nu, shifted / (p - 1))
    )
    return out


def tube_cv(p: int, k: TubeConstants, alpha: float) -> CriticalValue:
    """Smallest height whose tube bound stays at or below alpha, by bisection.

    The bound must cross the level alpha at most once on the bracket
    [1e-6, 100]; the tail approximation is only a coverage certificate on
    the far side of that crossing.  A profile that dips under alpha and
    comes back up trips the defensive check instead of returning a height
    that certifies nothing.
    """
    check_alpha(alpha)

    def f(c: float) -> float:
        return tube_alpha_bound(p, c, k)

    if f(BISECT_HI) > alpha:
        raise BoundUnattainable(
            f"bound is {f(BISECT_HI):.4g} > alpha = {alpha} at the bracket edge {BISECT_HI}"
        )
    grid = np.logspace(math.log10(BISECT_LO), math.log10(BISECT_HI), 129)
    below = np.array([f(g) <= alpha for g in grid])
    crossings = int(np.sum(below[1:] != below[:-1]))
    if crossings > 1:
        raise NonMonotoneBound(
            f"bound crosses alpha {crossings} times on the bracket; "
            "cannot certify a smallest height"
        )
    if crossings == 0:
        # at or below alpha over the whole bracket
        return CriticalValue(value=BISECT_LO, method="VT", alpha=alpha)
    i = int(np.flatnonzero(~below).max())
    lo, hi = grid[i], grid[i + 1]
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if f(mid) <= alpha:
            hi = mid
        else:
            lo = mid
        if hi - lo < 0.1 * BISECT_TOL:
            break
    return CriticalValue(value=hi, method="VT", alpha=alpha)

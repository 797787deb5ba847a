"""Closed-form critical values: Bonferroni and volume-of-tube bounds.

The tube bound controls the non-coverage of bands c' phi_hat +/- c_crit *
sigma_e_hat ||l_M|| uniformly over a family of coefficient vectors.  Its
geometric constants (tube volume kappa0, boundary measures, curvature
corrections, the scale bounds xi0/eta0 and the error-dof nu) describe the
regression manifold; they are inputs supplied by the caller, never
estimated from data.

The Bonferroni quantile comes from the standard library
(util.normal_quantile).  The tube bound's Student-t and F tail
probabilities are both a regularized incomplete beta function, evaluated
here by one continued fraction (_beta_tail).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    BoundUnattainable,
    InvalidConstants,
    NoConvergence,
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
        for f in fields(self):
            name, v = f.name, getattr(self, f.name)
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


def _log_gamma_ratio(a: float, b: float) -> float:
    """lgamma(a + b) - lgamma(a) for a, b > 0.

    From a = 30 up it is the difference of the two Stirling series, so a
    large a with a small increment b does not cancel two large lgammas.
    """
    if a < 30.0:
        return math.lgamma(a + b) - math.lgamma(a)
    w = _stirling_remainder
    return b * math.log(a) + (a + b - 0.5) * math.log1p(b / a) - b + w(a + b) - w(a)


def _stirling_remainder(z: float) -> float:
    """Stirling series 1/(12z) - 1/(360z^3) + 1/(1260z^5).

    It approximates lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2).
    """
    z2 = z * z
    return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * z2)) / z2) / z


CF_TOL = 1e-15
CF_MAX_ITER = 1000
_CF_TINY = 1e-300


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    """Continued fraction of I_x(a, b), y = 1 - x, by the modified Lentz method.

    Numerical Recipes (section 6.4) form.  The first denominator
    1 - (a + b) x / (a + 1) is written as ((1 - b) x + (a + 1) y) / (a + 1),
    which does not cancel when x is close to 1.
    """
    c = 1.0
    d = ((1.0 - b) * x + (a + 1.0) * y) / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, CF_MAX_ITER + 1):
        m2 = 2 * m
        for num in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < CF_TOL:
            return h
    raise NoConvergence(f"incomplete beta continued fraction at a={a}, b={b}, x={x}")


def _beta_tail(a: float, b: float, r: float, log_r: Callable[[], float]) -> float:
    """Regularized incomplete beta I_x(a, b) at x = 1 / (1 + r), r >= 0.

    1 - x = r / (1 + r) is formed directly, so tiny tails keep their
    digits.  Past x = (a + 1) / (a + b + 2) the fraction converges slowly,
    and 1 - I_(1-x)(b, a) is taken instead.  Where r overflows, log_r()
    gives log r from its factors; there x = 1 / r and 1 - x = 1 to double
    precision, and the prefactor x^a (1 - x)^b is r^-a.
    """
    if r == 0.0:
        return 1.0
    log_beta = math.lgamma(b) - _log_gamma_ratio(a, b)
    if r == math.inf:
        lr = log_r()
        return math.exp(-a * lr - log_beta) * _beta_cf(a, b, math.exp(-lr), 1.0) / a
    x, y = 1.0 / (1.0 + r), r / (1.0 + r)
    log1p_r = math.log1p(r)
    front = math.exp(-a * log1p_r + b * (math.log(r) - log1p_r) - log_beta)
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - front * _beta_cf(b, a, y, x) / b
    return front * _beta_cf(a, b, x, y) / a


def _t_tail(nu: float, x: float) -> float:
    """P(T > x) for Student's t with nu degrees of freedom, x >= 0."""
    return 0.5 * _beta_tail(nu / 2.0, 0.5, x * x / nu, lambda: 2.0 * math.log(x) - math.log(nu))


def _f_tail(d1: float, nu: float, x: float) -> float:
    """P(F > x) for the F law with (d1, nu) degrees of freedom, x >= 0."""
    return _beta_tail(
        nu / 2.0, d1 / 2.0, d1 * x / nu, lambda: math.log(d1) + math.log(x) - math.log(nu)
    )


def _a_terms(c: float, k: TubeConstants) -> tuple[float, float, float]:
    """Chi-integral closed forms A1, A2, A3 at scaled height c * xi0."""
    nu = k.nu
    x = c * k.xi0
    base = -0.5 * math.log1p(x * x / nu)  # log (1 + x^2/nu)^(-1/2)
    a1 = math.exp(nu * base)
    half = math.exp(_log_gamma_ratio(nu / 2, 0.5))  # Gamma((nu + 1) / 2) / Gamma(nu / 2)
    a2 = math.sqrt(2.0) * x / math.sqrt(nu) * half * math.exp((nu + 1) * base)
    # (x^2 / nu) * 2 * Gamma((nu + 2) / 2) / Gamma(nu / 2), and that ratio is nu / 2
    a3 = x * x * math.exp((nu + 2) * base)
    return a1, a2, a3


def tube_alpha_bound(p: int, c: float, k: TubeConstants) -> float:
    """Upper bound on the simultaneous non-coverage at height c.

    Branches on the manifold dimension p; the p = 1 and p = 2 branches use
    the closed chi-integral terms, the p >= 3 branch F tail probabilities.
    From p = 343 up a Gamma or pi power in the p >= 3 coefficients
    overflows, and the bound is unattainable.
    """
    if p < 1:
        raise ShapeMismatch("manifold dimension p must be at least 1")
    c = float(c)
    if c < 0:
        raise ShapeMismatch("height c must be nonnegative")
    nu = k.nu
    x = c * k.xi0
    t_tail = 2.0 * _t_tail(nu, x)
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
    try:
        out = (
            k.kappa0
            * math.gamma((p + 1) / 2)
            / math.pi ** ((p + 1) / 2)
            * _f_tail(p + 1, nu, shifted / (p + 1))
        )
        out += (
            (k.zeta0 / 2.0)
            * math.gamma(p / 2)
            / math.pi ** (p / 2)
            * _f_tail(p, nu, shifted / p)
        )
        out += (
            ((k.kappa2 + k.zeta1 + k.m0) / (2.0 * math.pi))
            * math.gamma((p - 1) / 2)
            / math.pi ** ((p - 1) / 2)
            * _f_tail(p - 1, nu, shifted / (p - 1))
        )
    except OverflowError:  # math.gamma or the pi power
        raise BoundUnattainable(
            f"tube bound coefficients overflow at manifold dimension p = {p}"
        ) from None
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

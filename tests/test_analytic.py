"""Tests for Bonferroni, ridge weights and the volume-of-tube bound."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import make_fhm, make_nerm
from oracles import max_abs_normal_quantile, tube_p1_closed_form
from spimax.analytic import (
    BISECT_LO,
    RidgeWeights,
    TubeConstants,
    _f_tail,
    _t_tail,
    bonferroni_cv,
    ridge_interval_scales,
    ridge_weights,
    tube_alpha_bound,
    tube_cv,
)
from spimax.errors import (
    AlphaOutOfRange,
    BoundUnattainable,
    InvalidConstants,
    NonMonotoneBound,
    ShapeMismatch,
)
from spimax.estimation import eblup, g1, g2, reml_fit
from spimax.model import VarianceComponents, cluster_mean_spec
from spimax.util import normal_quantile


def benign_constants(**overrides):
    base = dict(
        kappa0=2.5, zeta0=3.0, kappa2=0.5, zeta1=0.2, m0=0.3,
        euler=0.5, xi0=1.0, eta0=0.3, nu=25.0,
    )
    base.update(overrides)
    return TubeConstants(**base)


def test_bonferroni_frozen_value():
    cv = bonferroni_cv(30, 0.05)
    assert cv.method == "BO"
    assert abs(cv.value - 3.143980287069073) < 1e-12
    assert abs(bonferroni_cv(1, 0.05).value - stats.norm.ppf(0.975)) < 1e-12


# BO and the residual plot positions take the normal quantile from the
# standard library (util.normal_quantile); it stays within a few ulp of
# scipy.stats.norm.ppf, with an absolute term where the quantile nears 0.
# VT takes its t and F tails from one incomplete-beta continued fraction,
# checked against scipy.stats and against closed forms in the deep tail.
special_settings = settings(max_examples=300, deadline=None)


@special_settings
@given(
    alpha=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    D=st.integers(min_value=1, max_value=100_000),
    position=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
def test_normal_quantile_is_within_a_few_ulp_of_norm_ppf(alpha, D, position):
    q = np.array([alpha / (2.0 * D), position, 0.0])
    got, want = normal_quantile(q), stats.norm.ppf(q)
    finite = np.isfinite(want)  # alpha / (2D) can underflow to 0: both give -inf
    assert np.array_equal(got[~finite], want[~finite])
    assert got[2] == -math.inf
    err = np.abs(got[finite] - want[finite])
    assert np.all(err <= 2e-15 * np.abs(want[finite]) + 1e-16), (q, got, want)
    if finite[0]:
        assert bonferroni_cv(D, alpha).value == -got[0]


def test_bonferroni_matches_norm_isf_at_small_tail_levels():
    # the upper quantile is taken by symmetry, so no digits of alpha / (2D)
    # are lost to forming 1 - alpha / (2D)
    worst = 0.0
    for D in np.unique(np.round(np.logspace(0, 5, 60)).astype(int)):
        for alpha in np.logspace(-12, math.log10(0.5), 60):
            want = stats.norm.isf(alpha / (2.0 * D))
            worst = max(worst, abs(bonferroni_cv(int(D), alpha).value - want) / want)
    assert worst <= 1.5e-15
    assert math.isfinite(bonferroni_cv(100_000, 1e-12).value)
    # a tail level that underflows to 0 has no finite quantile
    with pytest.raises(ShapeMismatch):
        bonferroni_cv(1, 5e-324)


def tail_tolerance(nu):
    return 2e-12 * max(1.0, math.sqrt(nu) / 10.0)


def upper_tail(law, x):
    """P(X > x) from scipy, the smaller side taken directly.

    Near 1, scipy's sf forms 1 - x in its incomplete-beta argument and
    loses the digits (P(F(1, 1) > 4.3e-17) comes back as 1.0, not
    1 - 4.2e-9); 1 - cdf does not.  The t tail is taken as
    P(T > x) = P(F(1, nu) > x^2) / 2: scipy's t.sf at nu = 1 is off by
    1.5e-9 at x = 1e-8.
    """
    sf = law.sf(x)
    return sf if sf <= 0.5 else 1.0 - law.cdf(x)


@special_settings
@given(
    x=st.floats(min_value=0.0, max_value=1e3),
    nu=st.floats(min_value=1.0, max_value=1e6),
)
def test_t_tail_matches_t_sf(x, nu):
    want = 0.5 * upper_tail(stats.f(1, nu), x * x)
    assume(want >= 1e-100)
    assert abs(_t_tail(nu, x) - want) <= tail_tolerance(nu) * want


@special_settings
@given(
    x=st.floats(min_value=0.0, max_value=1e4),
    # d1 = p - 1, p, p + 1 of the p >= 3 bound; most draws at p <= 7
    d1=st.one_of(st.integers(min_value=1, max_value=8), st.integers(min_value=9, max_value=41)),
    nu=st.floats(min_value=1.0, max_value=1e6),
)
def test_f_tail_matches_f_sf(x, d1, nu):
    want = upper_tail(stats.f(d1, nu), x)
    assume(want >= 1e-100)
    assert abs(_f_tail(d1, nu, x) - want) <= tail_tolerance(nu) * want


def test_tails_match_closed_forms_deep_in_the_tail():
    # P(F(2, nu) > x) = (1 + 2x/nu)^(-nu/2); P(T(1) > x) = atan2(1, x) / pi
    checked = 0
    for nu in np.logspace(0, 6, 25):
        for x in np.logspace(-3, 6, 60):
            want = math.exp(-nu / 2.0 * math.log1p(2.0 * x / nu))
            if want >= 1e-300:
                checked += 1
                assert abs(_f_tail(2, nu, x) - want) <= tail_tolerance(nu) * want, (nu, x)
    # past x = 1.3e154 the argument x^2 / nu of the incomplete beta overflows
    for x in map(float, np.logspace(-12, 300, 600)):
        want = math.atan2(1.0, x) / math.pi
        assert abs(_t_tail(1.0, x) - want) <= tail_tolerance(1.0) * want, x
    # 2x overflows here though 2x / nu need not; the tail is (2x / nu)^(-nu/2)
    for nu in (1.0, 1.5):
        for x in (1e308, 1.5e308, sys.float_info.max):
            want = math.exp(-nu / 2.0 * (math.log(2.0) + math.log(x) - math.log(nu)))
            assert abs(_f_tail(2, nu, x) - want) <= tail_tolerance(nu) * want, (nu, x)
    assert checked > 1000
    assert _t_tail(5.0, 0.0) == 0.5 and _f_tail(3, 5.0, 0.0) == 1.0
    assert _t_tail(5.0, math.inf) == 0.0


def test_bonferroni_dominates_independent_exact():
    for D in (2, 10, 40):
        for alpha in (0.01, 0.05, 0.2):
            assert bonferroni_cv(D, alpha).value >= max_abs_normal_quantile(D, alpha)


def test_bonferroni_validation():
    with pytest.raises(ShapeMismatch):
        bonferroni_cv(0, 0.05)
    with pytest.raises(AlphaOutOfRange):
        bonferroni_cv(5, 0.0)


@pytest.mark.parametrize("maker", [make_nerm, make_fhm])
def test_ridge_weights_reproduce_predictor(maker):
    data, _ = maker(seed=21)
    fit = eblup(data)
    phi_hat = np.concatenate([fit.beta_hat, fit.u_hat])
    rng = np.random.default_rng(5)
    for _ in range(5):
        c = rng.normal(size=phi_hat.size)
        w = ridge_weights(data, fit.theta, c)
        target = float(c @ phi_hat)
        assert abs(float(w.l @ data.y) - target) <= 1e-10 * (1.0 + abs(target))


def test_ridge_weights_shape_guard():
    data, truth = make_nerm(D=4, seed=1)
    theta = VarianceComponents(sigma2_u=truth["sigma2_u"], sigma2_e=truth["sigma2_e"])
    with pytest.raises(ShapeMismatch):
        ridge_weights(data, theta, np.ones(3))


def test_ridge_norm_matches_prediction_variance():
    # sigma2_e * ||l_M||^2 = g1 + g2 for the mixed-parameter coefficient rows
    data, _ = make_nerm(D=10, seed=13)
    theta = reml_fit(data)
    spec = cluster_mean_spec(data)
    g = g1(data, theta) * spec.m**2 + g2(data, theta, spec)
    for d in range(data.D):
        c = np.zeros(data.p + 1 + data.D)
        c[: data.p + 1] = spec.k[d]
        c[data.p + 1 + d] = spec.m[d]
        w = ridge_weights(data, theta, c)
        assert abs(theta.sigma2_e * w.l_m_norm**2 - g[d]) <= 1e-8 * g[d]
    scales = ridge_interval_scales(data, theta, spec)
    np.testing.assert_allclose(scales, np.sqrt(g), rtol=1e-10)


def test_ridge_norm_undefined_for_area_level():
    data, truth = make_fhm(D=6, seed=2)
    theta = VarianceComponents(sigma2_u=truth["sigma2_u"])
    w = ridge_weights(data, theta, np.ones(data.p + 1 + data.D))
    assert w.l_m_norm is None
    with pytest.raises(ShapeMismatch):
        ridge_interval_scales(data, theta, cluster_mean_spec(data))


def test_tube_constants_validation():
    with pytest.raises(InvalidConstants):
        benign_constants(kappa0=0.0)
    with pytest.raises(InvalidConstants):
        benign_constants(xi0=0.0)
    with pytest.raises(InvalidConstants):
        benign_constants(nu=0.5)
    with pytest.raises(InvalidConstants):
        benign_constants(zeta0=-1.0)
    with pytest.raises(InvalidConstants):
        benign_constants(eta0=float("nan"))
    with pytest.raises(InvalidConstants):
        benign_constants(euler=float("inf"))


def test_tube_bound_validation():
    k = benign_constants()
    with pytest.raises(ShapeMismatch):
        tube_alpha_bound(0, 2.0, k)
    with pytest.raises(ShapeMismatch):
        tube_alpha_bound(1, -1.0, k)


def test_tube_p1_inversion_matches_closed_form():
    for kappa0, nu, xi0 in ((2.5, 30.0, 1.0), (4.0, 12.0, 0.8)):
        k = TubeConstants(
            kappa0=kappa0, zeta0=0.0, kappa2=0.0, zeta1=0.0, m0=0.0,
            euler=0.0, xi0=xi0, eta0=0.0, nu=nu,
        )
        for alpha in (0.01, 0.05, 0.2):
            cv = tube_cv(1, k, alpha)
            assert cv.method == "VT"
            closed = tube_p1_closed_form(alpha, kappa0, nu, xi0)
            assert abs(cv.value - closed) <= 1e-8
            assert tube_alpha_bound(1, cv.value, k) <= alpha


def test_tube_bound_monotone_on_tail_grid():
    grid = np.linspace(1.5, 10.0, 1000)
    for p in (1, 2, 3):
        k = benign_constants(eta0=0.3 if p < 3 else 0.0)
        vals = np.array([tube_alpha_bound(p, c, k) for c in grid])
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals > 0)


def test_tube_gaussian_limit():
    # nu -> inf, kappa0 = pi: bound at height c tends to exp(-c^2/2)
    k = TubeConstants(
        kappa0=math.pi, zeta0=0.0, kappa2=0.0, zeta1=0.0, m0=0.0,
        euler=0.0, xi0=1.0, eta0=0.0, nu=1e4,
    )
    target = math.exp(-2.0)
    assert abs(tube_alpha_bound(1, 2.0, k) - target) / target < 0.01


def test_tube_cv_monotone_in_inputs():
    k = benign_constants()
    k2 = benign_constants(kappa0=5.0)
    for p in (1, 2):
        assert tube_cv(p, k2, 0.05).value > tube_cv(p, k, 0.05).value
        assert tube_cv(p, k, 0.01).value > tube_cv(p, k, 0.05).value


def test_tube_cv_boundary_and_failure_modes():
    # whole bracket already below alpha: left edge comes back
    ksmall = TubeConstants(
        kappa0=0.01, zeta0=0.0, kappa2=0.0, zeta1=0.0, m0=0.0,
        euler=0.0, xi0=1.0, eta0=0.0, nu=30.0,
    )
    assert tube_cv(1, ksmall, 0.05).value == BISECT_LO
    # alpha below the bound's floor on the bracket
    k5 = TubeConstants(
        kappa0=math.pi, zeta0=0.0, kappa2=0.0, zeta1=0.0, m0=0.0,
        euler=0.0, xi0=1.0, eta0=0.0, nu=5.0,
    )
    with pytest.raises(BoundUnattainable):
        tube_cv(1, k5, 1e-30)
    # large centering correction makes the bound rise then fall
    khump = TubeConstants(
        kappa0=2.0, zeta0=1.0, kappa2=0.5, zeta1=0.1, m0=0.2,
        euler=0.0, xi0=1.0, eta0=50.0, nu=10.0,
    )
    with pytest.raises(NonMonotoneBound):
        tube_cv(3, khump, 0.05)


@pytest.mark.parametrize("p", [343, 344, 2000])
def test_tube_cv_unattainable_once_the_coefficients_overflow(p):
    # Gamma((p + 1) / 2) overflows from p = 343 up, pi^((p + 1) / 2) later
    with pytest.raises(BoundUnattainable, match=f"p = {p}"):
        tube_cv(p, benign_constants(), 0.05)


def test_ridge_weights_dataclass_fields():
    w = RidgeWeights(l=np.ones(3), l_m_norm=2.0)
    assert w.l_m_norm == 2.0

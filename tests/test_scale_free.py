"""REML fits do not depend on the units or the location of the response.

Multiplying y by c (and, for the area-level model, the known error
variances by c^2) multiplies the variance components by c^2 and the
coefficients and predictions by c.  For c a power of two the results are
exact multiples, because the estimator solves the same standardized
problem bit for bit.  Adding c to y leaves the variance components alone
and adds c to the predictions of cluster means.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import make_fhm, make_nerm, rescaled
from spimax.analytic import TubeConstants
from spimax.bootstrap import parametric_bootstrap
from spimax.calibration import calibrate
from spimax.errors import DegenerateData
from spimax.estimation import batch_eblup, eb_random_effects, eblup, response_scale
from spimax.maxstat import build_spi
from spimax.model import (
    NERM,
    VAR_FLOOR,
    BlockLmmData,
    VarianceComponents,
    cluster_mean_spec,
    replace_response,
)

from oracles import dense_gls_blup, dense_restricted_loglik, reference_reml

# The profile Newton solver stops once its step is below STEP_TOL = 1e-12
# relative to the parameter, so theta agrees with the dense reference
# maximizer to about 1e-11 (test_reml_agrees_with_the_reference_maximizer
# asks for 1e-10), and a fit in other units to the same order.
RTOL = 1e-10


def fit_of(data: BlockLmmData) -> dict:
    return batch_eblup(data, cluster_mean_spec(data), data.y[None, :])


@st.composite
def datasets(draw):
    """Unit- or area-level data whose random-effect variance is well inside."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    p = draw(st.integers(min_value=0, max_value=2))
    sigma2_u = draw(st.floats(min_value=0.3, max_value=3.0))
    if draw(st.sampled_from([NERM, "FHM"])) == NERM:
        data, _ = make_nerm(
            D=draw(st.integers(min_value=6, max_value=20)), n_d=4, p=p,
            sigma2_e=draw(st.floats(min_value=0.2, max_value=2.0)),
            sigma2_u=sigma2_u, seed=seed, unbalanced=True,
        )
    else:
        data, _ = make_fhm(D=draw(st.integers(min_value=15, max_value=40)), p=p,
                           sigma2_u=sigma2_u, seed=seed)
    assume(np.linalg.matrix_rank(data.X) == p + 1)
    # scale checks are only meaningful away from the variance floor
    assume(not fit_of(data)["boundary"][0])
    return data


@settings(max_examples=60, deadline=None)
@given(data=datasets(), log10_c=st.floats(min_value=-4.0, max_value=6.0))
def test_fit_is_equivariant_to_units(data, log10_c):
    c = 10.0**log10_c
    unit = fit_of(data)
    scaled = fit_of(rescaled(data, c))
    assert not unit["fallback"].any()
    assert not scaled["fallback"].any()
    assert not scaled["boundary"].any()
    assert_allclose(scaled["theta"], c**2 * unit["theta"], rtol=RTOL, atol=0)
    for key in ("beta", "mu"):
        size = np.abs(unit[key]).max()
        assert_allclose(scaled[key], c * unit[key], rtol=RTOL, atol=RTOL * c * size)


@settings(max_examples=40, deadline=None)
@given(data=datasets(), k=st.integers(min_value=-20, max_value=20))
def test_power_of_two_units_give_exact_multiples(data, k):
    c = 2.0**k
    unit = fit_of(data)
    scaled = fit_of(rescaled(data, c))
    for key, power in (("theta", 2), ("g1", 2), ("g2", 2), ("beta", 1), ("u", 1), ("mu", 1)):
        assert_array_equal(scaled[key], c**power * unit[key])
    assert_array_equal(scaled["fallback"], unit["fallback"])
    assert_array_equal(scaled["boundary"], unit["boundary"])
    # the single-dataset fit, theta included
    unit, scaled = eblup(data), eblup(rescaled(data, c))
    for field in ("beta_hat", "u_hat", "mu_hat", "scale"):
        assert_array_equal(getattr(scaled, field), c * getattr(unit, field))
    assert scaled.theta.sigma2_u == c**2 * unit.theta.sigma2_u
    if data.model_tag == NERM:
        assert scaled.theta.sigma2_e == c**2 * unit.theta.sigma2_e


@pytest.mark.parametrize("make", [make_nerm, make_fhm])
@pytest.mark.parametrize("sds", [1e2, 1e4, 1e6])
def test_fit_is_invariant_to_a_shift_of_the_response(make, sds):
    # the fit works on y minus the dataset's own OLS fit, so a response far
    # from zero does not cancel in its quadratic forms
    data = make(D=30, seed=2)[0]
    c = sds * float(np.std(data.y))
    unit, shifted = eblup(data), eblup(replace_response(data, data.y + c))
    assert_allclose(shifted.theta.sigma2_u, unit.theta.sigma2_u, rtol=1e-9, atol=0)
    if data.model_tag == NERM:
        assert_allclose(shifted.theta.sigma2_e, unit.theta.sigma2_e, rtol=1e-9, atol=0)
    # y + c itself rounds to a few ulp of c
    atol = 8 * np.finfo(float).eps * c + 1e-10 * np.abs(unit.mu_hat).max()
    assert_allclose(shifted.mu_hat - c, unit.mu_hat, rtol=0, atol=atol)


def _bench_inputs():
    """bench/inputs.py, which writes the benchmark's inputs."""
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    )
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def _bench_tube_constants() -> TubeConstants:
    """The benchmark's p = 1 tube constants for --method vt."""
    return TubeConstants(**dict(_bench_inputs().TUBE_CONSTANTS))


def _desk_data(seed: int) -> BlockLmmData:
    """The unit-level desk input of the benchmark (bench/inputs.py) for seed."""
    inputs = _bench_inputs()
    draw = inputs.draw_units(seed, inputs.DESK_D)
    X = np.column_stack([np.ones(draw.y.size), draw.covs])
    return BlockLmmData(NERM, tuple(range(inputs.DESK_D)), np.full(inputs.DESK_D, inputs.N_D),
                        draw.y, X)


@pytest.mark.parametrize("seed", [1801, 1811])
def test_a_response_far_from_zero_with_residuals_is_fitted(seed):
    # the degenerate-response bound reads the centred residuals, so it does
    # not grow with the square of the offset
    data = _desk_data(seed)
    unit, shifted = eblup(data), eblup(replace_response(data, data.y + 1e8))
    assert_allclose(shifted.theta.sigma2_u, unit.theta.sigma2_u, rtol=1e-6, atol=0)
    assert_allclose(shifted.theta.sigma2_e, unit.theta.sigma2_e, rtol=1e-6, atol=0)


@pytest.mark.parametrize("offset", [0.0, 1e8, 1e12])
def test_an_exact_fit_far_from_zero_is_still_degenerate(offset):
    # y = X beta + offset holds nothing but the rounding of y
    data = _desk_data(1801)
    exact = replace_response(data, data.X @ np.array([1.0, 2.0, -0.5]) + offset)
    with pytest.raises(DegenerateData, match="no residual variation"):
        eblup(exact)


@pytest.mark.parametrize(
    "data",
    [
        make_nerm()[0],
        make_fhm()[0],
        rescaled(make_nerm(D=30, seed=1)[0], 2.0**-20),
        # boundary fits with s = 1/8 and s = 1/16
        rescaled(make_nerm(D=12, seed=29, unbalanced=True)[0], 0.1),
        rescaled(make_fhm(D=15, sigma2_u=0.05, seed=0)[0], 0.1),
    ],
    ids=["nerm", "fhm", "nerm-2^-20", "nerm-boundary", "fhm-boundary"],
)
def test_eblup_is_row_zero_of_batch_eblup(data):
    spec = cluster_mean_spec(data)
    fit = eblup(data, spec)
    row = {key: value[0] for key, value in batch_eblup(data, spec, data.y[None]).items()}
    assert_array_equal(fit.beta_hat, row["beta"])
    assert_array_equal(fit.u_hat, row["u"])
    assert_array_equal(fit.mu_hat, row["mu"])
    assert_array_equal(fit.scale, np.sqrt(row["g1"] + row["g2"]))
    assert fit.loglik_restricted == row["loglik"]
    theta = row["theta"]
    if data.model_tag == NERM:
        assert fit.theta == VarianceComponents(sigma2_u=theta[1], sigma2_e=theta[0])
    else:
        assert fit.theta == VarianceComponents(sigma2_u=theta[0])


@pytest.mark.parametrize("make", [make_nerm, make_fhm])
@pytest.mark.parametrize("k", [-20, -8, 8, 20])
def test_eb_random_effects_are_free_of_units(make, k):
    # the zero-variance guard acts in standardized units, so a tiny response
    # keeps its standardized effects instead of zeros
    data = make(D=30, seed=1)[0]
    unit = eb_random_effects(data, eblup(data))
    assert np.all(unit != 0.0)
    scaled = rescaled(data, 2.0**k)
    assert_array_equal(eb_random_effects(scaled, eblup(scaled)), unit)


def test_bootstrap_refits_at_large_units_take_no_fallback():
    for data in (make_nerm(D=30, n_d=5, seed=1)[0], make_fhm(D=30, seed=1)[0]):
        big = rescaled(data, 1e4)
        spec = cluster_mean_spec(big)
        draws = parametric_bootstrap(big, spec, eblup(big, spec), b_reps=200, master_seed=3)
        assert draws.n_fallback == 0


@pytest.mark.parametrize("make", [make_nerm, make_fhm])
@pytest.mark.parametrize("c", [2.0**-12, 2.0**15, 1e4, 2.0**-20, 2.0**-50, 1e-15])
def test_bootstrap_intervals_scale_with_the_data(make, c):
    # BS, MC, BO, BE and (unit-level only) VT on an interior fit, and a dense
    # contrast through BS, MC and BO: at the variance floor, which acts in
    # standardized units, only power-of-two units give exact multiples.  At
    # c = 2^-20 theta and g1 lie below 1e-10 and 1e-12 in the units of the
    # data; at c = 2^-50 and 1e-15 every scale lies far below 1e-12, where
    # only a scale floor relative to the scales themselves leaves them alone.
    base = make(D=20, sigma2_u=2.0, seed=4)[0]
    assert not fit_of(base)["boundary"][0]
    adjacent = np.eye(base.D)[1:] - np.eye(base.D)[:-1]
    cases = [(method, None) for method in ("BS", "MC", "BO", "BE")]
    cases += [(method, adjacent) for method in ("BS", "MC", "BO")]
    if base.model_tag == NERM:
        cases.append(("VT", None))
    tube = (1, _bench_tube_constants())
    exact = c == 2.0 ** round(np.log2(c))
    for method, A in cases:
        results = []
        for data in (base, rescaled(base, c)):
            spec = cluster_mean_spec(data)
            fit = eblup(data, spec)
            cv, scales, _ = calibrate(method, data, spec, fit, alpha=0.1, seed=7, B=200, K=2000,
                                      A=A, tube=tube)
            if A is None:
                spi = build_spi(fit, cv, scales)
                results.append((cv.thresholds(data.D), spi.lower, spi.upper))
            else:
                results.append((cv.thresholds(A.shape[0]), scales))
        (cv_unit, *unit), (cv_scaled, *scaled) = results
        if exact:
            assert_array_equal(cv_scaled, cv_unit, err_msg=f"{method} {A is not None}")
            for s_scaled, s_unit in zip(scaled, unit):
                assert_array_equal(s_scaled, c * s_unit)
        else:
            assert_allclose(cv_scaled, cv_unit, rtol=RTOL, err_msg=f"{method} {A is not None}")
            for s_scaled, s_unit in zip(scaled, unit):
                size = c * np.abs(s_unit).max()
                assert_allclose(s_scaled, c * s_unit, rtol=RTOL, atol=RTOL * size)


def _assert_dense_fit(data, fit):
    th = fit.theta
    beta, u = dense_gls_blup(data, th.sigma2_u, th.sigma2_e)
    spec = cluster_mean_spec(data)
    assert_allclose(fit.beta_hat, beta, rtol=1e-13)
    assert_allclose(fit.mu_hat, beta @ spec.k.T + spec.m * u, rtol=1e-13)
    ll = dense_restricted_loglik(data, th.sigma2_u, th.sigma2_e)
    assert_allclose(fit.loglik_restricted, ll, rtol=1e-13)


def test_unit_scale_fixture_fits_are_unchanged():
    # frozen fits of the fixtures; theta is the dense reference maximizer's
    # to 3e-15, and beta, mu and the loglik the dense GLS fit's at that theta
    # to 1.2e-14, so the frozen values pin the solver, not its error
    data = make_nerm()[0]
    fit = eblup(data)
    assert fit.theta.sigma2_e == 0.4924136105031773
    assert fit.theta.sigma2_u == 0.8014197614658323
    assert fit.beta_hat.tolist() == [1.2950584930987514, 0.782993281757944]
    assert fit.mu_hat[[0, -1]].tolist() == [1.603056474543261, 0.23508307766299308]
    assert fit.loglik_restricted == -62.73718439961654
    su, se = reference_reml(data, VAR_FLOOR, 1e6)
    assert_allclose([fit.theta.sigma2_u, fit.theta.sigma2_e], [su, se], rtol=1e-14)
    _assert_dense_fit(data, fit)

    data = make_fhm()[0]
    fit = eblup(data)
    assert fit.theta.sigma2_u == 0.29837401232166655
    assert fit.beta_hat.tolist() == [1.4521731975480527, 0.6257223602620602]
    assert fit.mu_hat[[0, -1]].tolist() == [1.5875083604740854, 1.3610867833758655]
    assert fit.loglik_restricted == -18.526482096915768
    su, _ = reference_reml(data, VAR_FLOOR * response_scale(data.y) ** 2, 1e3)
    assert_allclose(fit.theta.sigma2_u, su, rtol=1e-14)
    _assert_dense_fit(data, fit)

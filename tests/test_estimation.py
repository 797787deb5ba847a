import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spimax import estimation as est
from spimax.analytic import ridge_interval_scales
from spimax.errors import DegenerateData, ShapeMismatch
from spimax.mc import build_joint_normal, model_scales
from spimax.model import (
    VAR_FLOOR,
    BlockLmmData,
    VarianceComponents,
    cluster_mean_spec,
    replace_response,
)

from conftest import make_fhm, make_nerm, rescaled
from oracles import (
    _profile_point,
    closed_form_g2,
    dense_g1_g2,
    dense_V,
    dense_gls_blup,
    dense_reml_score_terms,
    dense_reml_score_u,
    dense_restricted_loglik,
    dense_restricted_loglik_terms,
    grid_reml,
    loop_fhm_reml_score,
    loop_reml_score,
    reference_reml,
)


# ----------------------------------------------------------------------
# GLS / BLUP against the dense-inverse oracle
# ----------------------------------------------------------------------

def _toy_cases():
    cases = []
    for i in range(8):
        cases.append(make_nerm(D=6, n_d=4, p=1, seed=100 + i)[0])
    for i in range(6):
        cases.append(make_nerm(D=5, n_d=6, p=2, seed=200 + i, unbalanced=True)[0])
    for i in range(6):
        cases.append(make_fhm(D=12, p=1, seed=300 + i)[0])
    return cases


def test_gls_blup_matches_dense_oracle():
    for data in _toy_cases():
        if data.model_tag == "NERM":
            theta = VarianceComponents(sigma2_u=0.8, sigma2_e=0.4)
            beta_o, u_o = dense_gls_blup(data, 0.8, 0.4)
        else:
            theta = VarianceComponents(sigma2_u=0.6)
            beta_o, u_o = dense_gls_blup(data, 0.6)
        fit = est.fit_gls_blup(data, cluster_mean_spec(data), theta)
        assert_allclose(fit.beta_hat, beta_o, atol=1e-10, rtol=0)
        assert_allclose(fit.u_hat, u_o, atol=1e-10, rtol=0)


def test_nerm_blup_is_shrunken_cluster_mean():
    data, _ = make_nerm(D=8, n_d=5, sigma2_e=0.5, sigma2_u=1.0, seed=7)
    theta = VarianceComponents(sigma2_u=1.0, sigma2_e=0.5)
    fit = est.fit_gls_blup(data, cluster_mean_spec(data), theta)
    gamma = 1.0 / (1.0 + 0.5 / 5.0)
    for d, sl in enumerate(data.cluster_slices()):
        resid_mean = data.y[sl].mean() - data.X[sl].mean(axis=0) @ fit.beta_hat
        assert_allclose(fit.u_hat[d], gamma * resid_mean, atol=1e-12)


def test_mixed_parameter_equals_kbeta_plus_mu():
    data, _ = make_nerm(D=6, n_d=5, seed=3)
    spec = cluster_mean_spec(data)
    fit = est.eblup(data, spec)
    assert_allclose(fit.mu_hat, spec.k @ fit.beta_hat + spec.m * fit.u_hat, atol=1e-12)


# ----------------------------------------------------------------------
# restricted likelihood and REML
# ----------------------------------------------------------------------

def test_restricted_loglik_matches_dense():
    data, _ = make_nerm(D=7, n_d=4, seed=11, unbalanced=True)
    for se, su in [(0.3, 0.9), (1.1, 0.05), (0.02, 2.0)]:
        ours = est.restricted_loglik(data, VarianceComponents(sigma2_u=su, sigma2_e=se))
        assert_allclose(ours, dense_restricted_loglik(data, su, se), atol=1e-8)
    fdata, _ = make_fhm(D=14, seed=12)
    for su in [0.1, 0.7, 3.0]:
        ours = est.restricted_loglik(fdata, VarianceComponents(sigma2_u=su))
        assert_allclose(ours, dense_restricted_loglik(fdata, su), atol=1e-8)


def test_reml_matches_grid_search_nerm():
    data, _ = make_nerm(D=10, n_d=4, sigma2_e=0.5, sigma2_u=1.0, seed=21)
    theta = est.eblup(data).theta
    se_g, su_g = grid_reml(data)
    ll_hat = est.restricted_loglik(data, theta)
    ll_grid = dense_restricted_loglik(data, su_g, se_g)
    assert ll_hat >= ll_grid - 1e-6
    # grid resolution after refinement is much coarser than this
    assert abs(theta.sigma2_e - se_g) < 0.05 * (1 + se_g)
    assert abs(theta.sigma2_u - su_g) < 0.05 * (1 + su_g)


def test_reml_matches_grid_search_fhm():
    data, _ = make_fhm(D=20, sigma2_u=0.5, seed=22)
    theta = est.eblup(data).theta
    _, su_g = grid_reml(data)
    ll_hat = est.restricted_loglik(data, theta)
    ll_grid = dense_restricted_loglik(data, su_g)
    assert ll_hat >= ll_grid - 1e-6
    assert abs(theta.sigma2_u - su_g) < 0.05 * (1 + su_g)


def test_reml_score_vanishes_at_optimum():
    data, _ = make_nerm(D=12, n_d=5, seed=31)
    theta = est.eblup(data).theta
    if min(theta.sigma2_e, theta.sigma2_u) <= 1e-9:
        pytest.skip("boundary solution, no interior stationarity")
    h = 1e-5
    for bump in ([h, 0.0], [0.0, h]):
        up = VarianceComponents(sigma2_u=theta.sigma2_u + bump[1], sigma2_e=theta.sigma2_e + bump[0])
        dn = VarianceComponents(sigma2_u=theta.sigma2_u - bump[1], sigma2_e=theta.sigma2_e - bump[0])
        deriv = (est.restricted_loglik(data, up) - est.restricted_loglik(data, dn)) / (2 * h)
        assert abs(deriv) < 1e-4


def test_reml_boundary_derivative_points_inward():
    # no between-cluster variation: sigma2_u should pin at the floor
    rng = np.random.default_rng(41)
    Xs, ys = [], []
    for d in range(12):
        X = np.column_stack([np.ones(5), rng.uniform(0, 1, 5)])
        Xs.append(X)
        ys.append(X @ np.array([1.0, 1.0]) + rng.normal(0, 0.5, 5))
    data = BlockLmmData(
        "NERM", tuple(range(12)), np.full(12, 5), np.concatenate(ys), np.vstack(Xs)
    )
    theta = est.eblup(data).theta
    if theta.sigma2_u <= 1e-8:
        h = 1e-6
        up = VarianceComponents(sigma2_u=theta.sigma2_u + h, sigma2_e=theta.sigma2_e)
        at = VarianceComponents(sigma2_u=theta.sigma2_u, sigma2_e=theta.sigma2_e)
        deriv = (est.restricted_loglik(data, up) - est.restricted_loglik(data, at)) / h
        assert deriv <= 1e-6


def test_reml_translation_invariance():
    data, _ = make_nerm(D=9, n_d=5, seed=51)
    theta0 = est.eblup(data).theta
    rng = np.random.default_rng(52)
    for _ in range(3):
        r = rng.normal(size=data.p + 1)
        shifted = replace_response(data, data.y + data.X @ r)
        theta1 = est.eblup(shifted).theta
        assert_allclose(theta1.sigma2_e, theta0.sigma2_e, rtol=1e-6)
        assert_allclose(theta1.sigma2_u, theta0.sigma2_u, rtol=1e-6)


def test_reml_recovers_truth_on_average():
    est_u = []
    est_e = []
    for seed in range(200):
        data, _ = make_nerm(D=90, n_d=5, sigma2_e=0.5, sigma2_u=1.0, seed=1000 + seed)
        theta = est.eblup(data).theta
        est_u.append(theta.sigma2_u)
        est_e.append(theta.sigma2_e)
    assert abs(np.mean(est_u) - 1.0) < 0.10
    assert abs(np.mean(est_e) - 0.5) < 0.05


def test_reml_recovers_truth_on_average_fhm():
    vals = []
    for seed in range(200):
        data, _ = make_fhm(D=100, sigma2_u=0.5, seed=2000 + seed)
        vals.append(est.eblup(data).theta.sigma2_u)
    assert abs(np.mean(vals) - 0.5) < 0.05


def test_reml_errors():
    data, _ = make_nerm(D=6, n_d=4, seed=61)
    exact = replace_response(data, data.X @ np.array([1.0, 2.0]))
    with pytest.raises(DegenerateData):
        est.eblup(exact)
    X3 = np.column_stack([np.ones(3), [0.1, 0.5, 0.9]])
    tiny = BlockLmmData("NERM", (0,), [3], [1.0, 2.0, 1.5], X3)
    with pytest.raises(ShapeMismatch):
        est.eblup(tiny)


def _unit_data(sizes, seed, p=1):
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    X = np.column_stack([np.ones(n)] + [rng.uniform(0, 1, n) for _ in range(p)])
    y = X.sum(axis=1) + np.repeat(rng.normal(size=len(sizes)), sizes) + rng.normal(0, 0.7, n)
    return BlockLmmData("NERM", tuple(range(len(sizes))), sizes, y, X)


@pytest.mark.parametrize("p", [0, 1, 3])
def test_unit_data_without_within_cluster_dof_is_rejected(p):
    # one row per cluster: n - D - rank(centred slopes) = 0 says nothing on sigma2_e
    with pytest.raises(DegenerateData, match="no information on sigma2_e"):
        est.eblup(_unit_data([1] * 50, seed=p, p=p))
    # singletons plus one pair: the pair's one within-cluster dof goes to the slope
    if p == 1:
        with pytest.raises(DegenerateData, match="is 0$"):
            est.eblup(_unit_data([1] * 20 + [2], seed=5, p=p))


def test_singletons_with_one_large_cluster_still_fit():
    data = _unit_data([1] * 200 + [500], seed=3)
    fit = est.eblup(data)
    assert 0.3 < fit.theta.sigma2_e < 0.7
    assert fit.theta.sigma2_u > 0.1 and np.all(np.isfinite(fit.mu_hat))


def test_loop_reml_score_matches_the_dense_forms():
    data, _ = make_nerm(D=12, n_d=4, p=2, seed=3, unbalanced=True)
    su, se = 0.7, 0.4
    beta, score_u, score_e = loop_reml_score(data, su, se)
    assert_allclose(beta, dense_gls_blup(data, su, se)[0], rtol=1e-12)
    assert_allclose(score_u, dense_reml_score_terms(data, su, se), rtol=1e-12)
    Vinv = np.linalg.inv(dense_V(data, su, se))
    VX = Vinv @ data.X
    P = Vinv - VX @ np.linalg.solve(data.X.T @ VX, VX.T)
    Py = P @ data.y
    assert_allclose(score_e, (np.trace(P), Py @ Py), rtol=1e-12)


def test_loop_fhm_reml_score_matches_the_dense_forms():
    data, _ = make_fhm(D=25, p=2, seed=3)
    beta, score = loop_fhm_reml_score(data, 0.6)
    assert_allclose(beta, dense_gls_blup(data, 0.6)[0], rtol=1e-12)
    assert_allclose(score, dense_reml_score_terms(data, 0.6), rtol=1e-12)


def test_area_level_fit_with_distinct_error_variances_solves_the_reml_score_at_large_D():
    # every area its own weight class (G = D = 2000), the solver's worst case
    data, _ = make_fhm(D=2000, p=2, seed=7)
    assert np.unique(data.known_error_vars).size == data.D
    fit = est.eblup(data)
    beta, (trace, quad) = loop_fhm_reml_score(data, fit.theta.sigma2_u)
    assert abs(trace - quad) <= 1e-8 * max(trace, quad)
    assert np.max(np.abs(fit.beta_hat - beta)) <= 1e-10 * np.max(np.abs(beta))


def test_unit_level_fit_solves_the_reml_score_at_large_D():
    # D = 2000, n about 11 000: past the reach of the O(n^3) dense oracles
    data, _ = make_nerm(D=2000, n_d=5, p=2, seed=7, unbalanced=True)
    fit = est.eblup(data)
    beta, *scores = loop_reml_score(data, fit.theta.sigma2_u, fit.theta.sigma2_e)
    for trace, quad in scores:
        assert abs(trace - quad) <= 1e-8 * max(trace, quad)
    assert np.max(np.abs(fit.beta_hat - beta)) <= 1e-10 * np.max(np.abs(beta))


# ----------------------------------------------------------------------
# MSE components
# ----------------------------------------------------------------------

def test_g1_closed_forms_frozen_values():
    data, _ = make_nerm(D=4, n_d=5, seed=71)
    theta = VarianceComponents(sigma2_u=1.0, sigma2_e=0.5)
    # gamma = 1/(1 + 0.5/5) = 0.909090..., g1 = gamma * 0.5 / 5
    assert_allclose(est.g1(data, theta), np.full(4, 0.09090909090909091), atol=1e-14)
    fdata, _ = make_fhm(D=3, sigma2_u=0.5, error_vars=[1.0, 1.0, 1.0], seed=72)
    ftheta = VarianceComponents(sigma2_u=0.5)
    assert_allclose(est.g1(fdata, ftheta), np.full(3, 1.0 / 3.0), atol=1e-14)


def test_g1_simplified_equals_matrix_form():
    for data in _toy_cases():
        spec = cluster_mean_spec(data)
        if data.model_tag == "NERM":
            theta = VarianceComponents(sigma2_u=1.3, sigma2_e=0.6)
            g1_dense, _ = dense_g1_g2(data, spec, 1.3, 0.6)
        else:
            theta = VarianceComponents(sigma2_u=0.4)
            g1_dense, _ = dense_g1_g2(data, spec, 0.4)
        assert_allclose(est.g1(data, theta) * spec.m**2, g1_dense, atol=1e-12, rtol=0)


def test_g2_matches_dense_oracle():
    for data in _toy_cases():
        spec = cluster_mean_spec(data)
        if data.model_tag == "NERM":
            theta = VarianceComponents(sigma2_u=0.9, sigma2_e=0.5)
            _, g2_dense = dense_g1_g2(data, spec, 0.9, 0.5)
        else:
            theta = VarianceComponents(sigma2_u=0.7)
            _, g2_dense = dense_g1_g2(data, spec, 0.7)
        assert_allclose(est.g2(data, theta, spec), g2_dense, atol=1e-10, rtol=1e-8)


def test_g2_shrinks_with_more_clusters():
    small, _ = make_nerm(D=20, n_d=5, seed=81)
    big, _ = make_nerm(D=80, n_d=5, seed=81)
    theta = VarianceComponents(sigma2_u=1.0, sigma2_e=0.5)
    g2_small = est.g2(small, theta, cluster_mean_spec(small)).mean()
    g2_big = est.g2(big, theta, cluster_mean_spec(big)).mean()
    # order 1/D decay: quadrupling D should cut it to roughly a quarter
    assert g2_big < 0.35 * g2_small


# NERM balanced and unbalanced at p = 0, 1, 2, FHM at p = 0, 1, 2, and two
# fits on the variance floor
_G2_CASES = {
    **{f"nerm-p{p}": make_nerm(D=12, n_d=5, p=p, seed=40 + p)[0] for p in (0, 1, 2)},
    **{f"nerm-unbalanced-p{p}": make_nerm(D=12, p=p, seed=43 + p, unbalanced=True)[0]
       for p in (0, 1, 2)},
    **{f"fhm-p{p}": make_fhm(D=15, p=p, seed=50 + p)[0] for p in (0, 1, 2)},
    "nerm-boundary": rescaled(make_nerm(D=12, seed=29, unbalanced=True)[0], 0.1),
    "fhm-boundary": rescaled(make_fhm(D=15, sigma2_u=0.05, seed=0)[0], 0.1),
}


@pytest.mark.parametrize("name", list(_G2_CASES))
def test_batched_g2_is_the_closed_form_and_dense_g2(name):
    # g2 rows of a 128-row batch, the dataset's own row fitted alone, and
    # estimation.g2 at each row's theta all agree with both oracles
    data = _G2_CASES[name]
    spec = cluster_mean_spec(data)
    rng = np.random.default_rng(7)
    noise = rng.normal(0.0, data.y.std(), size=(127, data.n_total))
    Y = np.vstack([data.y, data.y + noise])
    batch = est.batch_eblup(data, spec, Y)
    alone = est.batch_eblup(data, spec, data.y[None])
    assert batch["boundary"][0] == name.endswith("boundary")
    assert_allclose(alone["g2"][0], batch["g2"][0], rtol=1e-10, atol=0)
    for i in (0, 1, 64, 127):
        theta = est._theta_components(data, batch["theta"][i])
        su, se = theta.sigma2_u, theta.sigma2_e
        closed = closed_form_g2(data, spec, su, se)
        assert_allclose(batch["g2"][i], closed, rtol=1e-10, atol=0)
        assert_allclose(batch["g2"][i], dense_g1_g2(data, spec, su, se)[1], rtol=1e-10, atol=0)
        assert_allclose(est.g2(data, theta, spec), closed, rtol=1e-10, atol=0)


@pytest.mark.parametrize("name", list(_G2_CASES))
def test_fit_scale_is_the_mc_and_ridge_scale(name):
    # every method studentizes by sqrt(g1 + g2): MC's joint normal law and
    # VT's ridge band reach the fit's scale by their own routes
    data = _G2_CASES[name]
    spec = cluster_mean_spec(data)
    fit = est.eblup(data, spec)
    theta = fit.theta
    assert_allclose(fit.scale**2, est.g1(data, theta) * spec.m**2 + est.g2(data, theta, spec),
                    rtol=1e-14, atol=0)
    assert_allclose(model_scales(build_joint_normal(data, theta), spec), fit.scale,
                    rtol=1e-14, atol=0)
    if data.model_tag == "NERM":
        assert_allclose(ridge_interval_scales(data, theta, spec), fit.scale, rtol=1e-14, atol=0)


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------

@pytest.mark.parametrize("family", ["NERM", "FHM"])
def test_cholesky_residuals_match_dense_and_whiten(family):
    if family == "NERM":
        data, _ = make_nerm(D=90, n_d=5, sigma2_e=0.5, sigma2_u=1.0, seed=91)
    else:
        data, _ = make_fhm(D=400, sigma2_u=0.5, seed=91)
    fit = est.eblup(data, cluster_mean_spec(data))
    res = est.cholesky_residuals(data, fit)
    assert res.shape == (data.n_total,)
    if family == "NERM":
        # dense recomputation of one block
        sl = data.cluster_slices()[3]
        V = fit.theta.sigma2_e * np.eye(data.sizes[3]) + fit.theta.sigma2_u
        L = np.linalg.cholesky(V)
        want = np.linalg.solve(L, data.y[sl] - data.X[sl] @ fit.beta_hat)
        assert_allclose(res[sl], want, atol=1e-10)
    else:
        # one unit per area: whitening is division by the marginal sd.  y - X beta
        # can cancel far below its terms, so the tolerance is relative to them
        sd = np.sqrt(fit.theta.sigma2_u + data.known_error_vars)
        want = (data.y - data.X @ fit.beta_hat) / sd
        terms = (np.abs(data.y) + np.abs(data.X) @ np.abs(fit.beta_hat)) / sd
        assert np.all(np.abs(res - want) <= 1e-14 * terms)
    assert 0.85 < res.var() < 1.15
    assert abs(res.mean()) < 0.1


# scipy's own warning, raised inside the oracle on near-constant data
@pytest.mark.filterwarnings("ignore:Precision loss occurred in moment calculation:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=400), seed=st.integers(0, 2**32 - 1),
       shape=st.floats(0.2, 5.0), scale=st.floats(-8.0, 8.0), shift=st.floats(-3.0, 6.0))
def test_skew_is_bit_identical_to_scipy(n, seed, shape, scale, shift):
    from scipy import stats

    rng = np.random.default_rng(seed)
    r = rng.standard_gamma(shape, size=n) * 10.0**scale + rng.normal() * 10.0**shift
    # a constant vector whose mean rounds off its value falls through the
    # guard in both (m2 of a few ulp^2 > (eps * mean)^2): same bits again
    for v in (r, np.full(n, r[0])):
        got, want = est._skew(v), stats.skew(v)
        assert got == want or (np.isnan(got) and np.isnan(want))
    # an exactly constant vector has no skewness
    assert np.isnan(est._skew(np.full(n, 2.0 ** round(scale))))


def test_eb_random_effects_standardized():
    data, _ = make_nerm(D=90, n_d=5, sigma2_e=0.5, sigma2_u=1.0, seed=92)
    fit = est.eblup(data, cluster_mean_spec(data))
    eb = est.eb_random_effects(data, fit)
    var = fit.theta.sigma2_u - est.g1(data, fit.theta)
    assert_allclose(eb, fit.u_hat / np.sqrt(var), atol=1e-12)
    assert 0.7 < eb.var() < 1.3


def test_eb_random_effects_zero_variance_guard():
    data, _ = make_nerm(D=6, n_d=4, seed=93)
    fit = est.fit_gls_blup(
        data, cluster_mean_spec(data), VarianceComponents(sigma2_u=0.0, sigma2_e=0.5)
    )
    assert_allclose(est.eb_random_effects(data, fit), np.zeros(6))


# ----------------------------------------------------------------------
# batched pipeline
# ----------------------------------------------------------------------

def test_batch_matches_single_fits():
    data, _ = make_nerm(D=10, n_d=5, seed=95)
    spec = cluster_mean_spec(data)
    rng = np.random.default_rng(96)
    Y = data.y[None, :] + rng.normal(0, 0.3, size=(5, data.n_total))
    out = est.batch_eblup(data, spec, Y)
    for i in range(Y.shape[0]):
        single = replace_response(data, Y[i])
        fit = est.eblup(single, spec)
        assert_allclose(out["theta"][i, 0], fit.theta.sigma2_e, rtol=1e-10, atol=1e-10)
        assert_allclose(out["theta"][i, 1], fit.theta.sigma2_u, rtol=1e-10, atol=1e-10)
        assert_allclose(out["beta"][i], fit.beta_hat, atol=1e-8)
        assert_allclose(out["mu"][i], fit.mu_hat, atol=1e-8)


def _responses(data, seed, m=40):
    """m responses from the model, random-effect variance cycling 0, 0.05, 0.5, 2."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(m):
        u = rng.normal(0.0, np.sqrt([0.0, 0.05, 0.5, 2.0][i % 4]), data.D)
        if data.model_tag == "NERM":
            e = rng.normal(0.0, 0.7, data.n_total)
            rows.append(data.X.sum(axis=1) + np.repeat(u, data.sizes) + e)
        else:
            rows.append(data.X.sum(axis=1) + u + rng.normal(0.0, np.sqrt(data.known_error_vars)))
    return np.array(rows)


@st.composite
def reml_problems(draw):
    """Small unit- or area-level data; a zero random-effect variance often fits on the floor."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    p = draw(st.integers(min_value=0, max_value=2))
    sigma2_u = draw(st.sampled_from([0.0, 0.02, 0.3, 2.0]))
    if draw(st.sampled_from(["NERM", "FHM"])) == "NERM":
        data = make_nerm(D=draw(st.integers(min_value=4, max_value=12)), n_d=4, p=p,
                         sigma2_u=sigma2_u, seed=seed, unbalanced=True)[0]
    else:
        data = make_fhm(D=draw(st.integers(min_value=8, max_value=25)), p=p,
                        sigma2_u=sigma2_u, seed=seed)[0]
    assume(data.n_total > data.p + 2 and np.linalg.matrix_rank(data.X) == p + 1)
    return rescaled(data, 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0)))


def _floor(data, s):
    """The library's floor on the profile parameter, for a response fitted in units of s."""
    return VAR_FLOOR if data.model_tag == "NERM" else VAR_FLOOR * s**2


@settings(max_examples=40, deadline=None)
@given(data=reml_problems())
def test_reml_agrees_with_the_reference_maximizer(data):
    fit = est.batch_eblup(data, cluster_mean_spec(data), data.y[None, :])
    assert not fit["fallback"][0]
    hi = 1e6 if data.model_tag == "NERM" else 1e3 * (data.y.var() + data.known_error_vars.max())
    su, se = reference_reml(data, _floor(data, est.response_scale(data.y)), hi)
    want = [su] if se is None else [se, su]
    assert_allclose(fit["theta"][0], want, rtol=1e-10, atol=0)


@pytest.mark.parametrize(
    "data",
    [make_nerm(D=15, n_d=4, seed=3, unbalanced=True)[0], make_fhm(D=30, seed=3)[0]],
    ids=["nerm", "fhm"],
)
def test_floor_rows_sit_on_the_floor_at_the_profiled_optimum(data):
    Y = _responses(data, seed=7)
    out = est.batch_eblup(data, cluster_mean_spec(data), Y)
    assert not out["fallback"].any()
    on_floor = out["boundary"]
    assert on_floor.any() and (~on_floor).any()
    theta = out["theta"]
    floor = _floor(data, est.response_scale(data.y))
    if data.model_tag == "NERM":
        # psi = sigma2_u / sigma2_e exactly at the floor ...
        assert np.all(theta[on_floor, 1] == floor * theta[on_floor, 0])
        assert np.all(theta[~on_floor, 1] > floor * theta[~on_floor, 0])
    else:
        assert np.all(theta[on_floor, 0] == floor)
        assert np.all(theta[~on_floor, 0] > floor)
    for i in range(Y.shape[0]):
        row = replace_response(data, Y[i])
        su, se = _profile_point(row, floor)
        # a row is on the floor exactly when the dense REML slope there is <= 0 ...
        assert on_floor[i] == (dense_reml_score_u(row, su, se) <= 0.0)
        if on_floor[i] and se is not None:
            # ... and then sigma2_e is its REML optimum given psi (dense y'P y / (n - q))
            assert_allclose(theta[i, 0], se, rtol=1e-10)


@pytest.mark.parametrize(
    "data", [make_nerm(D=300, n_d=5, p=2, seed=5)[0], make_fhm(D=300, seed=5)[0]], ids=["nerm", "fhm"]
)
def test_a_row_fitted_alone_matches_the_row_in_a_batch(data):
    spec = cluster_mean_spec(data)
    Y = _responses(data, seed=11, m=128)
    batch = est.batch_eblup(data, spec, Y)
    assert batch["boundary"].any() and (~batch["boundary"]).any()
    for i in range(0, 128, 3):
        alone = est.batch_eblup(data, spec, Y[i : i + 1])
        assert alone["boundary"][0] == batch["boundary"][i]
        assert_allclose(alone["theta"][0], batch["theta"][i], rtol=1e-10, atol=0)
        size = np.abs(batch["mu"][i]).max()
        assert_allclose(alone["mu"][0], batch["mu"][i], rtol=0, atol=1e-10 * size)


@pytest.mark.parametrize("data", [make_nerm(D=30, seed=1)[0], make_fhm(D=30, seed=1)[0]],
                         ids=["nerm", "fhm"])
def test_the_memory_layout_of_y_does_not_move_a_fit(data):
    spec = cluster_mean_spec(data)
    Y = _responses(data, seed=13, m=64)
    want = est.batch_eblup(data, spec, Y)
    for view in (np.asfortranarray(Y), np.repeat(Y, 2, axis=1)[:, ::2]):
        got = est.batch_eblup(data, spec, view)
        for key, value in want.items():
            assert np.array_equal(got[key], value), key


def test_the_newton_iteration_reads_no_per_cluster_statistic(monkeypatch):
    # 300 clusters of 5 units form one weight class, so every sum the Newton
    # profile forms is over G = 1 class; 64 rows keep the batch axis off D
    data = make_nerm(D=300, n_d=5, seed=5)[0]
    passed = []
    slope = est._NermCore.slope

    def spy(core, st, x):
        passed.extend([x, *st.values()])
        return slope(core, st, x)

    monkeypatch.setattr(est._NermCore, "slope", spy)
    est.batch_eblup(data, cluster_mean_spec(data), _responses(data, seed=3, m=64))
    assert passed
    assert all(data.D not in np.shape(value) for value in passed)


def test_rows_not_converged_within_max_iter_are_flagged(monkeypatch):
    data = make_nerm(D=15, n_d=4, seed=3, unbalanced=True)[0]
    spec = cluster_mean_spec(data)
    Y = _responses(data, seed=7)
    full = est.batch_eblup(data, spec, Y)
    monkeypatch.setattr(est, "MAX_ITER", 1)
    cut = est.batch_eblup(data, spec, Y)
    # floor rows are settled before the first iteration; the others need more than one
    assert np.array_equal(cut["boundary"], full["boundary"])
    assert np.array_equal(cut["fallback"], ~full["boundary"])
    assert np.array_equal(cut["theta"][full["boundary"]], full["theta"][full["boundary"]])
    assert np.all(np.isfinite(cut["theta"])) and np.all(np.isfinite(cut["loglik"]))


@st.composite
def gls_problems(draw):
    """Unit- (unbalanced, p 0-3) or area-level data in random units, and a theta
    whose random-effect share runs from near the floor to large ratios."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    p = draw(st.integers(min_value=0, max_value=3))
    if draw(st.sampled_from(["NERM", "FHM"])) == "NERM":
        data = make_nerm(D=draw(st.integers(min_value=4, max_value=12)), n_d=4, p=p,
                         seed=seed, unbalanced=True)[0]
    else:
        data = make_fhm(D=draw(st.integers(min_value=8, max_value=25)), p=p, seed=seed)[0]
    assume(data.n_total > data.p + 2 and np.linalg.matrix_rank(data.X) == p + 1)
    c = 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
    data = rescaled(data, c)
    ratio = 10.0 ** draw(st.floats(min_value=-9.0, max_value=4.0))
    if data.model_tag == "NERM":
        se = c**2 * 10.0 ** draw(st.floats(min_value=-1.0, max_value=1.0))
        return data, VarianceComponents(sigma2_u=ratio * se, sigma2_e=se), ratio
    return data, VarianceComponents(sigma2_u=ratio * data.known_error_vars.mean()), ratio


def _loglik_atol(data, theta, tol):
    """tol times the sum of |terms| of the restricted loglik.

    The loglik is -1/2 the sum of four terms and can cancel far below them,
    so a tolerance relative to the loglik itself is ill-posed.
    """
    terms = dense_restricted_loglik_terms(data, theta.sigma2_u, theta.sigma2_e)
    return tol * sum(abs(t) for t in terms)


@settings(max_examples=40, deadline=None)
@given(problem=gls_problems())
def test_fitted_loglik_blup_and_g2_match_the_dense_oracles(problem):
    data, theta, ratio = problem
    spec = cluster_mean_spec(data)
    su, se = theta.sigma2_u, theta.sigma2_e
    assert_allclose(est.restricted_loglik(data, theta), dense_restricted_loglik(data, su, se),
                    rtol=0, atol=_loglik_atol(data, theta, 1e-10))
    fit = est.fit_gls_blup(data, spec, theta)
    beta, u = dense_gls_blup(data, su, se)
    assert_allclose(fit.beta_hat, beta, rtol=0, atol=1e-10 * np.abs(beta).max())
    assert_allclose(fit.u_hat, u, rtol=0, atol=1e-10 * np.abs(fit.mu_hat).max())
    g2 = est.g2(data, theta, spec)
    assert_allclose(g2, closed_form_g2(data, spec, su, se), rtol=1e-10)
    if ratio <= 1e2:
        # the dense oracle's 1'V_d^-1 1 cancels and loses about 1e-15 * ratio^2 relative
        # (7e-8 against a 50-digit reference at ratio 8e3, where g2 is 1e-11 off)
        assert_allclose(g2, dense_g1_g2(data, spec, su, se)[1], rtol=1e-10)

    # every row of a batch fit is the single-dataset evaluation at the row's theta
    rng = np.random.default_rng(0)
    Y = data.y + rng.normal(0.0, data.y.std(), size=(6, data.n_total))
    out = est.batch_eblup(data, spec, Y)
    for i in range(Y.shape[0]):
        row = replace_response(data, Y[i])
        th = est._theta_components(data, out["theta"][i])
        single = est.fit_gls_blup(row, spec, th)
        size = np.abs(single.mu_hat).max()
        assert_allclose(out["beta"][i], single.beta_hat, rtol=0,
                        atol=1e-12 * np.abs(single.beta_hat).max())
        assert_allclose(out["u"][i], single.u_hat, rtol=0, atol=1e-12 * size)
        assert_allclose(out["mu"][i], single.mu_hat, rtol=0, atol=1e-12 * size)
        assert_allclose(out["loglik"][i], est.restricted_loglik(row, th),
                        rtol=0, atol=_loglik_atol(row, th, 1e-12))


def test_restricted_loglik_matches_the_dense_oracle_where_it_cancels_to_zero():
    # y * c with theta * c^2 moves the loglik by -(n - q) log c, so this c puts
    # it within about 1e-13 of 0 while its terms stay in the hundreds
    for seed in range(20):
        data = make_nerm(D=12, n_d=4, p=3, seed=seed, unbalanced=True)[0]
        n, q = data.X.shape
        c = math.exp(dense_restricted_loglik(data, 91.0, 1.0) / (n - q))
        data = rescaled(data, c)
        theta = VarianceComponents(sigma2_u=91.0 * c**2, sigma2_e=c**2)
        want = dense_restricted_loglik(data, theta.sigma2_u, theta.sigma2_e)
        assert abs(want) < 1e-11
        assert_allclose(est.restricted_loglik(data, theta), want,
                        rtol=0, atol=_loglik_atol(data, theta, 1e-10))


# ----------------------------------------------------------------------
# bootstrap rows given as drawn sufficient statistics
# ----------------------------------------------------------------------

def explicit_draws(data, beta, u, e):
    """DrawnStatistics of the responses X beta + Z u + e, and those responses."""
    ze = np.add.reduceat(e, data.offsets, axis=1)
    means = np.add.reduceat(data.X, data.offsets, axis=0) / data.sizes[:, None]
    Xw = data.X - np.repeat(means, data.sizes, axis=0)
    ee_within = np.einsum("mi,mi->m", e, e) - (ze**2 / data.sizes).sum(axis=1)
    Y = data.X @ beta + np.repeat(u, data.sizes, axis=1) + e
    return est.DrawnStatistics(beta, u, ze, e @ Xw, ee_within), Y


def _shifted(data, c):
    return replace_response(data, data.y + c)


def _constant_within_layout():
    # slope 0 constant within clusters, so r = p - 1 (tests/test_layouts.py)
    from test_layouts import _unit_layout

    return _unit_layout([3, 4, 1, 2, 5, 1, 6, 2, 2, 3] * 3, 3, True, 11)


DRAWN_LAYOUTS = {
    "desk-like": lambda: make_nerm(D=300, n_d=5, p=2, seed=1801)[0],
    "desk-like+1e6": lambda: _shifted(make_nerm(D=300, n_d=5, p=2, seed=1801)[0], 1e6),
    "r<p": _constant_within_layout,
    "n-D-r=0": lambda: _unit_data([1] * 20 + [2], seed=5),
}


@pytest.mark.parametrize("layout", sorted(DRAWN_LAYOUTS))
def test_drawn_statistics_equal_the_statistics_of_the_response(layout):
    data = DRAWN_LAYOUTS[layout]()
    if layout == "r<p":
        assert est.within_factor(data).shape[1] == data.p - 1
    spec = cluster_mean_spec(data)
    theta = VarianceComponents(sigma2_u=1.0, sigma2_e=0.5)
    beta = est.fit_gls_blup(data, spec, theta).beta_hat
    rng = np.random.default_rng(7)
    m = 9
    u = rng.normal(0.0, 1.0, (m, data.D))
    e = rng.normal(0.0, math.sqrt(0.5), (m, data.n_total))
    draws, Y = explicit_draws(data, beta, u, e)
    core, got = est._standardize(data, draws)
    want = core.stats(Y)
    # The reference forms Y at the magnitude of the data, which rounds to a
    # few ulps of |Y|; so both sides agree to 1e-12 of the statistics of
    # |Y|.  Off the shift those are the size of the statistics themselves.
    ay = np.abs(Y) / core.scale
    yc = Y / core.scale - data.X @ core.beta_ols
    size_s = np.add.reduceat(ay, data.offsets, axis=1).max()
    size = {
        "s": size_s,
        "xty": (ay @ np.abs(data.X)).max(),
        "yty": (ay * np.abs(yc)).sum(axis=1).max(),
        "S": data.D * (np.abs(want["s"]).max() + np.abs(core.t).max()) * size_s,
    }
    for key, tol in size.items():
        assert got[key].shape == want[key].shape, key
        assert_allclose(got[key], want[key], rtol=0, atol=1e-12 * tol, err_msg=key)


def test_one_cluster_per_class_skips_the_class_sums_bit_for_bit():
    # distinct error variances: every weight class holds one cluster
    data = make_fhm(D=60, p=2, seed=12)[0]
    core = est._core_for(data, 1.0)
    assert core.starts.size == data.D
    t_sorted = core.t[core.order]
    tt = np.add.reduceat(est._outer_rows(t_sorted), core.starts, axis=0)
    assert core.tt.tobytes() == tt.tobytes()
    Y = data.y + np.random.default_rng(3).normal(0.0, 1.0, (17, data.D))
    st = core.stats(Y)
    s_sorted = st["s"][:, core.order]
    prod = np.stack([s_sorted * s_sorted, *(s_sorted * core.t_columns)])
    S = np.add.reduceat(prod, core.starts, axis=2).transpose(1, 2, 0)
    assert st["S"].tobytes() == np.ascontiguousarray(S).tobytes()

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spimax import estimation as est
from spimax.errors import DegenerateData, ShapeMismatch
from spimax.model import (
    VAR_FLOOR,
    BlockLmmData,
    ClusterBlock,
    VarianceComponents,
    cluster_mean_spec,
    replace_response,
)

from conftest import make_fhm, make_nerm, rescaled
from oracles import (
    _profile_point,
    dense_g1_g2,
    dense_reml_score_u,
    dense_gls_blup,
    dense_restricted_loglik,
    grid_reml,
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
    for d, blk in enumerate(data.clusters):
        resid_mean = blk.y.mean() - blk.X.mean(axis=0) @ fit.beta_hat
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
    theta = est.reml_fit(data)
    se_g, su_g = grid_reml(data)
    ll_hat = est.restricted_loglik(data, theta)
    ll_grid = dense_restricted_loglik(data, su_g, se_g)
    assert ll_hat >= ll_grid - 1e-6
    # grid resolution after refinement is much coarser than this
    assert abs(theta.sigma2_e - se_g) < 0.05 * (1 + se_g)
    assert abs(theta.sigma2_u - su_g) < 0.05 * (1 + su_g)


def test_reml_matches_grid_search_fhm():
    data, _ = make_fhm(D=20, sigma2_u=0.5, seed=22)
    theta = est.reml_fit(data)
    _, su_g = grid_reml(data)
    ll_hat = est.restricted_loglik(data, theta)
    ll_grid = dense_restricted_loglik(data, su_g)
    assert ll_hat >= ll_grid - 1e-6
    assert abs(theta.sigma2_u - su_g) < 0.05 * (1 + su_g)


def test_reml_score_vanishes_at_optimum():
    data, _ = make_nerm(D=12, n_d=5, seed=31)
    theta = est.reml_fit(data)
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
    blocks = []
    for d in range(12):
        X = np.column_stack([np.ones(5), rng.uniform(0, 1, 5)])
        y = X @ np.array([1.0, 1.0]) + rng.normal(0, 0.5, 5)
        blocks.append(ClusterBlock(cluster_id=d, y=y, X=X))
    data = BlockLmmData(model_tag="NERM", clusters=tuple(blocks))
    theta = est.reml_fit(data)
    if theta.sigma2_u <= 1e-8:
        h = 1e-6
        up = VarianceComponents(sigma2_u=theta.sigma2_u + h, sigma2_e=theta.sigma2_e)
        at = VarianceComponents(sigma2_u=theta.sigma2_u, sigma2_e=theta.sigma2_e)
        deriv = (est.restricted_loglik(data, up) - est.restricted_loglik(data, at)) / h
        assert deriv <= 1e-6


def test_reml_translation_invariance():
    data, _ = make_nerm(D=9, n_d=5, seed=51)
    theta0 = est.reml_fit(data)
    rng = np.random.default_rng(52)
    for _ in range(3):
        r = rng.normal(size=data.p + 1)
        shifted = BlockLmmData(
            model_tag="NERM",
            clusters=tuple(
                ClusterBlock(cluster_id=c.cluster_id, y=c.y + c.X @ r, X=c.X)
                for c in data.clusters
            ),
        )
        theta1 = est.reml_fit(shifted)
        assert_allclose(theta1.sigma2_e, theta0.sigma2_e, rtol=1e-6)
        assert_allclose(theta1.sigma2_u, theta0.sigma2_u, rtol=1e-6)


def test_reml_recovers_truth_on_average():
    est_u = []
    est_e = []
    for seed in range(200):
        data, _ = make_nerm(D=90, n_d=5, sigma2_e=0.5, sigma2_u=1.0, seed=1000 + seed)
        theta = est.reml_fit(data)
        est_u.append(theta.sigma2_u)
        est_e.append(theta.sigma2_e)
    assert abs(np.mean(est_u) - 1.0) < 0.10
    assert abs(np.mean(est_e) - 0.5) < 0.05


def test_reml_recovers_truth_on_average_fhm():
    vals = []
    for seed in range(200):
        data, _ = make_fhm(D=100, sigma2_u=0.5, seed=2000 + seed)
        vals.append(est.reml_fit(data).sigma2_u)
    assert abs(np.mean(vals) - 0.5) < 0.05


def test_reml_errors():
    data, _ = make_nerm(D=6, n_d=4, seed=61)
    exact = BlockLmmData(
        model_tag="NERM",
        clusters=tuple(
            ClusterBlock(cluster_id=c.cluster_id, y=c.X @ np.array([1.0, 2.0]), X=c.X)
            for c in data.clusters
        ),
    )
    with pytest.raises(DegenerateData):
        est.reml_fit(exact)
    X3 = np.column_stack([np.ones(3), [0.1, 0.5, 0.9]])
    tiny = BlockLmmData(
        model_tag="NERM",
        clusters=(ClusterBlock(cluster_id=0, y=[1.0, 2.0, 1.5], X=X3),),
    )
    with pytest.raises(ShapeMismatch):
        est.reml_fit(tiny)


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
        assert_allclose(est.g1_general(data, theta, spec), g1_dense, atol=1e-12, rtol=0)


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


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------

def test_cholesky_residuals_match_dense_and_whiten():
    data, _ = make_nerm(D=90, n_d=5, sigma2_e=0.5, sigma2_u=1.0, seed=91)
    fit = est.eblup(data, cluster_mean_spec(data))
    res = est.cholesky_residuals(data, fit)
    assert res.shape == (data.n_total,)
    # dense recomputation of one block
    blk = data.clusters[3]
    V = fit.theta.sigma2_e * np.eye(blk.n) + fit.theta.sigma2_u
    L = np.linalg.cholesky(V)
    want = np.linalg.solve(L, blk.y - blk.X @ fit.beta_hat)
    sl = data.cluster_slices()[3]
    assert_allclose(res[sl], want, atol=1e-10)
    assert 0.85 < res.var() < 1.15
    assert abs(res.mean()) < 0.1


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
        single = BlockLmmData(
            model_tag="NERM",
            clusters=tuple(
                ClusterBlock(cluster_id=c.cluster_id, y=Y[i, sl], X=c.X)
                for c, sl in zip(data.clusters, data.cluster_slices())
            ),
        )
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

import math
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose
from scipy import stats

from spimax import bootstrap as boot
from spimax import estimation as est
from spimax.errors import DegenerateData, EmptySubset, SeedOverflow, ShapeMismatch
from spimax.maxstat import step_down_test
from spimax.model import NERM, BlockLmmData, VarianceComponents, cluster_mean_spec
from spimax.util import MAX_SEED, order_statistic, quantile_index, replicate_normals

from conftest import make_fhm, make_nerm
from oracles import max_abs_normal_quantile, max_abs_normal_quantile_se, studentized


def _draws_from_matrix(S, g1=None, A=None):
    S = np.asarray(S, dtype=float)
    g1 = np.ones_like(S) if g1 is None else g1
    return boot.BootstrapDraws(abs_s=studentized(S * np.sqrt(g1), g1, A), A=A)


def _bootstrap_parts(monkeypatch, data, spec, fit, b_reps, seed, A=None):
    """parametric_bootstrap(..., A) and the whole-matrix parts its chunks studentized.

    The refits are the real ones.  A chunk's u* is read from its drawn
    statistics (unit-level) or from the normal rows it filled, scaled by
    sigma_u (area-level); delta and the floored g1* + g2* are rebuilt from
    them with the bootstrap's own arithmetic.  Returns the draws and
    {"abs_s", "s", "delta", "mse_star"}, s the signed S* = delta / sqrt(mse*).
    """
    refit, fill = boot.batch_eblup, boot.replicate_normals
    u_rows, results = [], []

    def recorded_fill(master_seed, keys, out):
        fill(master_seed, keys, out)
        u_rows.append(out[:, : data.D] * np.sqrt(fit.theta.sigma2_u))

    def recorded_refit(data, spec, Y):
        if isinstance(Y, est.DrawnStatistics):  # a view of a buffer the next chunk overwrites
            u_rows.append(np.array(Y.u))
        res = refit(data, spec, Y)
        results.append({key: res[key].copy() for key in ("mu", "g1", "g2")})
        return res

    with monkeypatch.context() as patched:
        patched.setattr(boot, "replicate_normals", recorded_fill)
        patched.setattr(boot, "batch_eblup", recorded_refit)
        draws = boot.parametric_bootstrap(data, spec, fit, b_reps, seed, A)
    u = np.concatenate(u_rows)
    mu, g1, g2 = (np.concatenate([r[key] for r in results]) for key in ("mu", "g1", "g2"))
    delta = mu - (fit.beta_hat @ spec.k.T + spec.m * u)
    mse = np.maximum(g1 + g2, boot.MSE_FLOOR * est.response_scale(data.y) ** 2)
    return draws, {"abs_s": draws.abs_s, "s": delta / np.sqrt(mse), "delta": delta, "mse_star": mse}


@pytest.fixture(scope="module")
def nerm_setup():
    data, _ = make_nerm(D=12, n_d=5, sigma2_e=0.5, sigma2_u=1.0, seed=404)
    spec = cluster_mean_spec(data)
    fit = est.eblup(data, spec)
    return data, spec, fit


@pytest.fixture(scope="module")
def fhm_setup():
    data, _ = make_fhm(D=20, sigma2_u=0.5, seed=77)
    spec = cluster_mean_spec(data)
    return data, spec, est.eblup(data, spec)


def test_bootstrap_deterministic_and_prefix_stable(nerm_setup, fhm_setup, monkeypatch):
    for data, spec, fit in (nerm_setup, fhm_setup):
        def parts(b_reps, seed):
            return _bootstrap_parts(monkeypatch, data, spec, fit, b_reps, seed)[1]

        a, b = parts(300, 99), parts(300, 99)
        assert np.array_equal(a["s"], b["s"])
        assert np.array_equal(a["mse_star"], b["mse_star"])
        assert np.array_equal(a["abs_s"], b["abs_s"])
        d = parts(300, 100)
        assert not np.array_equal(a["s"], d["s"])

        # one stream per chunk (unit-level) or per replicate (area-level), a
        # chunk's stream always drawn in full: fewer replicates give a prefix
        # of the rows, bit for bit over whole chunks, to rounding in a shorter
        # last chunk
        heads, shorts = parts(256, 99), parts(130, 99)
        for field, full in a.items():
            assert np.array_equal(heads[field], full[:256]), field
            assert np.array_equal(shorts[field][:128], full[:128]), field
            assert_allclose(shorts[field][128:], full[128:130], rtol=0,
                            atol=1e-12 * np.abs(full).max())


def test_bootstrap_holds_one_chunk_of_responses():
    data, _ = make_nerm(D=20, n_d=50, seed=12)
    spec = cluster_mean_spec(data)
    fit = est.eblup(data, spec)
    b_reps = 1000
    tracemalloc.start()
    try:
        boot.parametric_bootstrap(data, spec, fit, b_reps, master_seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * b_reps * data.n_total * 8


def test_bootstrap_replicates_reasonable(nerm_setup, monkeypatch):
    data, spec, fit = nerm_setup
    draws, parts = _bootstrap_parts(monkeypatch, data, spec, fit, 400, 5)
    S = parts["s"]
    assert S.shape == draws.abs_s.shape == (400, 12)
    assert np.all(np.isfinite(S))
    # studentized deviations should look roughly standard normal
    sd = S.std()
    assert 0.8 < sd < 1.4
    assert abs(S.mean()) < 0.1
    assert draws.n_fallback <= 8


def test_bootstrap_fhm_uses_known_error_variances(fhm_setup, monkeypatch):
    data, spec, fit = fhm_setup
    draws, parts = _bootstrap_parts(monkeypatch, data, spec, fit, 200, 8)
    S = parts["s"]
    assert S.shape == draws.abs_s.shape == (200, 20)
    assert np.all(np.isfinite(S))
    assert 0.7 < S.std() < 1.5


def test_bootstrap_seed_validation(nerm_setup):
    data, spec, fit = nerm_setup
    with pytest.raises(SeedOverflow):
        boot.parametric_bootstrap(data, spec, fit, 10, master_seed=-1)
    with pytest.raises(SeedOverflow):
        boot.parametric_bootstrap(data, spec, fit, 10, master_seed=2**63)
    with pytest.raises(ShapeMismatch):
        boot.parametric_bootstrap(data, spec, fit, 0, master_seed=1)


KEY_MAX = 2**32 - 1


@settings(max_examples=200, deadline=None)
@given(
    master_seed=st.integers(min_value=0, max_value=MAX_SEED),
    keys=st.lists(st.integers(min_value=0, max_value=KEY_MAX), min_size=1, max_size=12),
)
@example(master_seed=0, keys=[0, KEY_MAX])
@example(master_seed=2**32 - 1, keys=[0, KEY_MAX])
@example(master_seed=2**32, keys=[0, KEY_MAX])
@example(master_seed=MAX_SEED, keys=[0, KEY_MAX])
def test_replicate_normals_fill_each_row_from_its_seed_sequence_stream(master_seed, keys):
    out = np.empty((len(keys), 9))
    replicate_normals(master_seed, keys, out)
    for b, row in zip(keys, out, strict=True):
        want = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=(b,)))
        )
        assert np.array_equal(row, want.standard_normal(9))


@pytest.mark.parametrize("keys", [[2**32], [0, 5, 2**40 + 3], [-1]])
def test_replicate_normals_refuse_keys_outside_one_word(keys):
    with pytest.raises(SeedOverflow, match="replicate keys"):
        replicate_normals(7, keys, np.empty((len(keys), 3)))


def test_replicate_normals_need_one_row_per_key():
    for out in (np.empty((3, 2)), np.empty(2)):
        with pytest.raises(ShapeMismatch, match="one row of out per key"):
            replicate_normals(7, [0, 1], out)


def test_critical_value_bs_matches_independent_normal_oracle():
    rng = np.random.default_rng(2024)
    S = rng.standard_normal((1000, 30))
    draws = _draws_from_matrix(S)
    c = boot.critical_value_bs(draws, 0.05)
    assert abs(c.value - max_abs_normal_quantile(30, 0.05)) < 0.05


def test_critical_value_bs_order_statistic_convention():
    # B=20, alpha=0.05 -> index floor(19)+1 = 20, the largest row max
    S = np.arange(1, 21, dtype=float)[:, None]
    draws = _draws_from_matrix(S)
    assert boot.critical_value_bs(draws, 0.05).value == 20.0
    # B=1: single replicate defines the capped order statistic
    one = _draws_from_matrix(np.array([[3.3]]))
    assert boot.critical_value_bs(one, 0.05).value == 3.3


def test_critical_value_alpha_monotone():
    S = np.random.default_rng(3).standard_normal((500, 8))
    draws = _draws_from_matrix(S)
    values = [boot.critical_value_bs(draws, a).value for a in (0.01, 0.05, 0.1, 0.3)]
    assert all(x >= y for x, y in zip(values, values[1:]))


def test_contrast_identity_reduces_to_bs():
    rng = np.random.default_rng(41)
    g1 = rng.uniform(0.5, 2.0, size=(300, 6))
    delta = rng.standard_normal((300, 6)) * np.sqrt(g1)
    draws = boot.BootstrapDraws(abs_s=studentized(delta, g1, np.eye(6)), A=np.eye(6))
    c_id = boot.critical_value_contrast(draws, np.eye(6), 0.1)
    c_bs = boot.critical_value_bs(boot.BootstrapDraws(abs_s=studentized(delta, g1)), 0.1)
    assert c_id.value == c_bs.value


def test_contrast_shapes_checked():
    # the draws' columns are the contrast rows they were studentized for
    S = np.random.default_rng(1).normal(size=(50, 4))
    draws = _draws_from_matrix(S)
    for A in (np.ones((2, 5)), np.ones((4, 5)), np.ones((0, 4)), np.ones(4)):
        with pytest.raises(ShapeMismatch, match="A must have at least one row and 4 columns"):
            boot.critical_value_contrast(draws, A, 0.05)
    # A's row count is the draws' column count, but they were studentized for the clusters
    centred = np.eye(4) - 0.25
    with pytest.raises(ShapeMismatch, match="studentized for 4 clusters, not for this 4 x 4"):
        boot.critical_value_contrast(draws, centred, 0.05)
    # draws for one contrast serve an equal copy of it, not another of the same shape
    contrast_draws = _draws_from_matrix(S, A=centred)
    boot.critical_value_contrast(contrast_draws, centred.copy(), 0.05)
    with pytest.raises(ShapeMismatch, match="studentized for a 4 x 4 contrast, not for this 4 x 4"):
        boot.critical_value_contrast(contrast_draws, centred[::-1], 0.05)
    with pytest.raises(ShapeMismatch, match="A must have at least one row and 4 columns"):
        boot.critical_value_contrast(contrast_draws, np.ones((4, 5)), 0.05)


def test_beran_single_cluster_equals_marginal_quantile():
    S = np.random.default_rng(7).standard_normal((800, 1))
    draws = _draws_from_matrix(S)
    be = boot.beran_critical_values(draws, 0.05)
    bs = boot.critical_value_bs(draws, 0.05)
    assert be.per_cluster[0] == bs.value


def test_beran_exchangeable_columns_nearly_equal():
    rng = np.random.default_rng(19)
    S = rng.standard_normal((2000, 5))
    draws = _draws_from_matrix(S)
    be = boot.beran_critical_values(draws, 0.1)
    # thresholds agree across columns up to empirical-quantile noise:
    # se of a level-q sample quantile is sqrt(q(1-q)/B) / f(c)
    B = 2000
    q = be.value
    sorted_cols = np.sort(np.abs(S), axis=0)
    idx = int(np.ceil(q * B)) - 1
    w = 25
    inv_density = (sorted_cols[min(idx + w, B - 1), 0] - sorted_cols[idx - w, 0]) / (2 * w / B)
    tol = 4.0 * np.sqrt(q * (1 - q) / B) * inv_density
    assert be.per_cluster.max() - be.per_cluster.min() <= tol


def test_beran_balances_marginal_levels():
    rng = np.random.default_rng(23)
    scales = np.array([0.5, 1.0, 2.0, 4.0])
    S = rng.standard_normal((4000, 4)) * scales
    draws = _draws_from_matrix(S)
    be = boot.beran_critical_values(draws, 0.1)
    # thresholds inherit the marginal scales
    ratio = be.per_cluster / scales
    assert ratio.max() / ratio.min() < 1.1
    # fresh draws: per-cluster non-coverage rates agree across clusters
    fresh = rng.standard_normal((40000, 4)) * scales
    rates = (np.abs(fresh) > be.per_cluster).mean(axis=0)
    assert rates.max() - rates.min() < 0.012


def test_beran_thresholds_within_monte_carlo_error_of_the_sidak_value():
    # independent N(0, 1) columns with B far above D / alpha: each threshold
    # is its column's empirical quantile at the calibrated level q, which
    # itself estimates the Sidak level (1 - alpha)^(1/D).  Its standard
    # error combines the column quantile's, sqrt(q (1 - q) / B) / f(c) with
    # f the density of |Z|, and that of the max-statistic quantile
    D, B, alpha = 10, 20_000, 0.05
    draws = _draws_from_matrix(np.random.default_rng(31).standard_normal((B, D)))
    be = boot.beran_critical_values(draws, alpha)
    c = max_abs_normal_quantile(D, alpha)
    q = (1.0 - alpha) ** (1.0 / D)
    column_se = math.sqrt(q * (1.0 - q) / B) / (2.0 * stats.norm.pdf(c))
    se = math.hypot(column_se, max_abs_normal_quantile_se(D, alpha, B))
    assert abs(be.value - q) < 4.5 * math.sqrt(alpha * (1 - alpha) / B) / (D * q ** (D - 1))
    assert np.all(np.abs(be.per_cluster - c) < 4.5 * se)


@pytest.mark.parametrize("D, B", [(10, 100), (300, 2000)])
def test_beran_saturates_once_the_clusters_outnumber_alpha_b(D, B):
    # every column's maximum ranks B, so more than alpha B rows reach level 1:
    # the level is exactly 1 and each threshold is its column's largest |S*|
    S = np.random.default_rng(D).standard_normal((B, D))
    be = boot.beran_critical_values(_draws_from_matrix(S), 0.05)
    assert D > 0.05 * B
    assert be.value == 1.0
    assert np.array_equal(be.per_cluster, np.abs(S).max(axis=0))


def test_stepdown_provider_monotone_and_guarded():
    S = np.random.default_rng(29).standard_normal((600, 10))
    draws = _draws_from_matrix(S)
    provider = boot.stepdown_quantile_provider(draws, 0.05)
    full = provider(range(10))
    sub = provider(range(5))
    single = provider([3])
    assert single <= sub <= full
    with pytest.raises(EmptySubset):
        provider([])
    with pytest.raises(ShapeMismatch):
        provider([11])


def test_stepdown_provider_contrast_rows():
    S = np.random.default_rng(31).standard_normal((600, 6))
    A = np.zeros((3, 6))
    A[0, 0], A[0, 1] = 1.0, -1.0
    A[1, 2], A[1, 3] = 1.0, -1.0
    A[2, 4], A[2, 5] = 1.0, -1.0
    draws = _draws_from_matrix(S, A=A)
    provider = boot.stepdown_quantile_provider(draws, 0.05)
    # the full contrast set reproduces the single-step contrast threshold
    assert provider(range(3)) == boot.critical_value_contrast(draws, A, 0.05).value
    assert provider([0]) <= provider([0, 2]) <= provider(range(3))
    with pytest.raises(ShapeMismatch):
        provider([3])  # subsets index contrast rows, of which there are 3
    # identity contrasts collapse to the per-cluster provider
    ident = boot.stepdown_quantile_provider(_draws_from_matrix(S, A=np.eye(6)), 0.05)
    plain = boot.stepdown_quantile_provider(_draws_from_matrix(S), 0.05)
    assert all(ident(s) == plain(s) for s in [range(6), (0, 2, 4), (5,)])


def _copied_subset_quantile(abs_s, alpha, subset):
    cols = sorted({int(i) for i in subset})
    return order_statistic(abs_s[:, cols].max(axis=1), quantile_index(abs_s.shape[0], alpha))


def _copied_beran(abs_s, alpha):
    """(q, per_cluster) from a full B x D matrix of per-column searchsorted ranks."""
    B, D = abs_s.shape
    sorted_cols = np.sort(abs_s, axis=0)
    ranks = np.empty_like(abs_s)
    for d in range(D):
        ranks[:, d] = np.searchsorted(sorted_cols[:, d], abs_s[:, d], side="right")
    q = order_statistic(ranks.max(axis=1) / B, quantile_index(B, alpha))
    idx = min(max(int(np.ceil(q * B - 1e-9)), 1), B)
    return q, sorted_cols[idx - 1, :]


# few distinct values, so ties in |S*|, in the row maxima and in the ranks are common
_VALUES = st.sampled_from([-2.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 3.0])
_G1 = st.sampled_from([1e-12, 0.25, 1.0, 2.0, 7.0])


@st.composite
def _draws_and_contrasts(draw):
    """Small draws plus contrast rows from {-1, 0, 1}, an all-zero row included now and then."""
    B, D, q = draw(st.integers(1, 40)), draw(st.integers(1, 7)), draw(st.integers(1, 4))
    delta = draw(hnp.arrays(float, (B, D), elements=_VALUES))
    g1 = draw(hnp.arrays(float, (B, D), elements=_G1))
    A = draw(hnp.arrays(float, (q, D), elements=st.sampled_from([-1.0, 0.0, 1.0])))
    return studentized(delta, g1), studentized(delta, g1, A), A


@settings(max_examples=150, deadline=None)
@given(drawn=_draws_and_contrasts(), alpha=st.sampled_from([0.01, 0.05, 0.2, 0.5]),
       data=st.data())
def test_readers_equal_the_copying_forms_bit_for_bit(drawn, alpha, data):
    abs_s, abs_c, A = drawn
    (D, q), draws, contrast_draws = A.T.shape, boot.BootstrapDraws(abs_s), boot.BootstrapDraws(abs_c, A=A)

    assert boot.critical_value_bs(draws, alpha).value == _copied_subset_quantile(
        abs_s, alpha, range(D))
    assert boot.critical_value_contrast(contrast_draws, A, alpha).value == _copied_subset_quantile(
        abs_c, alpha, range(q))
    be = boot.beran_critical_values(draws, alpha)
    level, per_cluster = _copied_beran(abs_s, alpha)
    assert be.value == level and np.array_equal(be.per_cluster, per_cluster)

    for m, provider, copied in (
        (D, boot.stepdown_quantile_provider(draws, alpha), abs_s),
        (q, boot.stepdown_quantile_provider(contrast_draws, alpha), abs_c),
    ):
        subset = st.lists(st.integers(0, m - 1), min_size=1, max_size=2 * m)
        for idx in data.draw(st.lists(subset, min_size=1, max_size=4)):
            assert provider(idx) == _copied_subset_quantile(copied, alpha, idx)


def test_bs_and_stepdown_allocate_no_draw_matrix_and_be_one_copy():
    # desk size: the readers read the draws' one |S*| matrix; the step-down
    # reduces each subset of it in place instead of copying its columns, and
    # BE sorts one copy
    B, D = 2000, 300
    rng = np.random.default_rng(5)
    draws = boot.BootstrapDraws(
        abs_s=studentized(rng.standard_normal((B, D)), rng.uniform(0.5, 2.0, (B, D)))
    )
    t = np.linspace(0.0, 6.0, D)  # about a third rejected, over several rounds
    vectors = 16 * B * 8  # a few length-B vectors

    def peak_of(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def bs_and_stepdown():
        boot.critical_value_bs(draws, 0.05)
        rejected = step_down_test(t, boot.stepdown_quantile_provider(draws, 0.05), 0.05)
        assert 0 < rejected.size < D

    assert peak_of(bs_and_stepdown) <= vectors
    assert peak_of(lambda: boot.beran_critical_values(draws, 0.05)) <= B * D * 8 + vectors


@pytest.mark.parametrize("rows", [None, 50], ids=["clusters", "contrasts"])
def test_bootstrap_state_grows_by_one_draw_matrix(rows):
    # desk size: each chunk studentizes its own rows into the one B x q |S*|
    # matrix, so a thousand more replicates add a thousand rows of it
    data = make_nerm(D=300, n_d=5, p=2, seed=6)[0]
    spec = cluster_mean_spec(data)
    fit = est.eblup(data, spec)
    A = None if rows is None else np.eye(data.D)[:rows] - np.eye(data.D, k=1)[:rows]
    q = data.D if A is None else rows

    def peak_of(b_reps):
        tracemalloc.start()
        try:
            boot.parametric_bootstrap(data, spec, fit, b_reps, 4, A)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_of(2000) - peak_of(1000) <= 1.1 * 1000 * q * 8


@pytest.mark.parametrize("family", ["nerm", "fhm"])
def test_chunk_studentization_equals_the_whole_matrix_oracle_bit_for_bit(
    monkeypatch, nerm_setup, fhm_setup, family
):
    data, spec, fit = nerm_setup if family == "nerm" else fhm_setup
    dense = np.random.default_rng(8).standard_normal((7, data.D))
    dense[3] = 0.0  # an all-zero row keeps its statistic at 0
    for A in (None, np.eye(data.D), dense):
        # two whole chunks and a short one
        draws, parts = _bootstrap_parts(monkeypatch, data, spec, fit, 300, 13, A)
        assert np.array_equal(draws.abs_s, studentized(parts["delta"], parts["mse_star"], A))
    assert np.all(draws.abs_s[:, 3] == 0.0)


def test_bootstrap_speed(nerm_setup):
    data, spec, fit = nerm_setup
    t0 = time.perf_counter()
    boot.parametric_bootstrap(data, spec, fit, 500, master_seed=11)
    elapsed = time.perf_counter() - t0
    # the simulation harness runs hundreds of these
    assert elapsed < 2.0


def _recorded_draws(monkeypatch, data, spec, fit, b_reps, seed):
    """parametric_bootstrap's draws, each chunk's copied out, with a stand-in for the refit."""
    drawn = []

    def stand_in(data, spec, Y):
        # the draws are views of a buffer that the next chunk overwrites
        drawn.append({f.name: np.array(getattr(Y, f.name)) for f in fields(Y)})
        m = Y.u.shape[0]
        zeros = np.zeros(m, dtype=bool)
        return {"mu": np.zeros((m, data.D)), "g1": np.ones((m, data.D)),
                "g2": np.zeros((m, data.D)), "fallback": zeros, "boundary": zeros}

    monkeypatch.setattr(boot, "batch_eblup", stand_in)
    boot.parametric_bootstrap(data, spec, fit, b_reps, master_seed=seed)
    return {key: np.concatenate([d[key] for d in drawn]) for key in drawn[0] if key != "beta"}


def _within_design(data):
    means = np.add.reduceat(data.X, data.offsets, axis=0) / data.sizes[:, None]
    return data.X - np.repeat(means, data.sizes, axis=0)


def test_drawn_statistics_have_the_moments_of_explicit_errors(monkeypatch):
    # with e ~ N(0, se I) explicit, Z'e ~ N(0, se diag n), X_w'e ~ N(0, se
    # X_w'X_w) independent of it, and the within part of e'e less |P_w e|^2
    # is se chi2_{n-D-r}: the drawn pieces must have the same moments
    data = make_nerm(D=6, n_d=4, p=2, seed=9, unbalanced=True)[0]
    spec = cluster_mean_spec(data)
    fit = est.eblup(data, spec)
    su, se = fit.theta.sigma2_u, fit.theta.sigma2_e
    B = 6000
    drawn = _recorded_draws(monkeypatch, data, spec, fit, B, seed=21)
    Xw = _within_design(data)
    gram_w = Xw.T @ Xw
    r = np.linalg.matrix_rank(gram_w)
    assert r == est.within_factor(data).shape[1] == data.p
    assert np.all(drawn["xwe"][:, 0] == 0.0)  # the intercept centres to zero

    # joint covariance of (u*, Z'e, X_w'e slopes) against the explicit one
    pieces = np.hstack([drawn["u"], drawn["ze"], drawn["xwe"][:, 1:]])
    cov = np.zeros((pieces.shape[1],) * 2)
    D = data.D
    cov[:D, :D] = su * np.eye(D)
    cov[D : 2 * D, D : 2 * D] = se * np.diag(data.sizes)
    cov[2 * D :, 2 * D :] = se * gram_w[1:, 1:]
    var = np.diag(cov)
    assert np.all(np.abs(pieces.mean(axis=0)) <= 4.5 * np.sqrt(var / B))
    sample = pieces.T @ pieces / B
    se_cov = np.sqrt((np.outer(var, var) + cov**2) / B)
    assert np.all(np.abs(sample - cov) <= 4.5 * se_cov)

    # what is left of e'e after the projection on X_w is se chi2_{n-D-r}
    proj = np.einsum("mi,ij,mj->m", drawn["xwe"], np.linalg.pinv(gram_w), drawn["xwe"])
    chi2 = (drawn["ee_within"] - proj) / se
    dof = data.n_total - D - r
    assert abs(chi2.mean() - dof) <= 4.5 * math.sqrt(2 * dof / B)
    # the sample variance of chi2_k draws has variance 8 k (k + 6) / B
    assert abs(chi2.var() - 2 * dof) <= 4.5 * math.sqrt(8 * dof * (dof + 6) / B)


def test_bootstrap_rejects_unit_data_without_sigma2_e_degrees_of_freedom(monkeypatch):
    # n - D - r = 0: singletons, or singletons plus pairs whose within dof go
    # to the slopes.  eblup refuses these layouts and fit_gls_blup does not;
    # no refit of their draws can estimate sigma2_e, so nothing is drawn
    def no_draws(*args):
        raise RuntimeError("drew before checking the degrees of freedom")

    monkeypatch.setattr(boot, "derive_rng", no_draws)
    for sizes, p in (([1] * 20 + [2], 1), ([1] * 30, 0), ([1] * 30, 1), ([1] * 20 + [2, 2], 2)):
        rng = np.random.default_rng(5)
        n = sum(sizes)
        X = np.column_stack([np.ones(n)] + [rng.uniform(0, 1, n) for _ in range(p)])
        y = X.sum(axis=1) + np.repeat(rng.normal(size=len(sizes)), sizes) + rng.normal(0, 0.7, n)
        data = BlockLmmData(NERM, tuple(range(len(sizes))), sizes, y, X)
        assert data.n_total - data.D - est.within_factor(data).shape[1] == 0
        spec = cluster_mean_spec(data)
        fit = est.fit_gls_blup(data, spec, VarianceComponents(sigma2_u=1.0, sigma2_e=0.5))
        with pytest.raises(DegenerateData, match="no information on sigma2_e"):
            boot.parametric_bootstrap(data, spec, fit, 200, master_seed=3)

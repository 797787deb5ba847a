"""Tests for critical values simulated from the joint normal law."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from conftest import make_fhm, make_nerm
from oracles import dense_arrow, dense_loading, max_abs_normal_quantile, max_abs_normal_quantile_se
from spimax import mc
from spimax.errors import AlphaOutOfRange, ShapeMismatch
from spimax.estimation import eblup, g1, g2
from spimax.mc import (
    CENSOR_LEVEL,
    DRAW_CHUNK,
    Arrow,
    JointNormalModel,
    assemble_precision,
    build_joint_normal,
    critical_value_mc,
    model_scales,
)
from spimax.model import (
    NERM,
    BlockLmmData,
    MixedParameterSpec,
    VarianceComponents,
    cluster_mean_spec,
)
from spimax.util import derive_rng


def dense_precision(data, theta):
    """C' R^-1 C + blockdiag(0, G^-1) built from the full design."""
    n = data.n_total
    Z = np.zeros((n, data.D))
    for d, sl in enumerate(data.cluster_slices()):
        Z[sl, d] = 1.0
    C = np.hstack([data.X, Z])
    if data.model_tag == NERM:
        r_inv = np.full(n, 1.0 / theta.sigma2_e)
    else:
        r_inv = 1.0 / data.known_error_vars
    K = C.T @ (C * r_inv[:, None])
    q = data.p + 1
    K[q:, q:] += np.eye(data.D) / theta.sigma2_u
    return K, C, r_inv


def tiny_unit_data():
    return BlockLmmData(NERM, ("a",), [1], [0.3], [[1.0]])


def test_precision_tiny_frozen():
    theta = VarianceComponents(sigma2_u=1.0, sigma2_e=1.0)
    K = dense_arrow(assemble_precision(tiny_unit_data(), theta))
    assert np.array_equal(K, np.array([[1.0, 1.0], [1.0, 2.0]]))


def test_precision_matches_dense_nerm():
    data, truth = make_nerm(D=7, n_d=4, seed=3, unbalanced=True)
    theta = VarianceComponents(sigma2_u=truth["sigma2_u"], sigma2_e=truth["sigma2_e"])
    K_dense, _, _ = dense_precision(data, theta)
    np.testing.assert_allclose(dense_arrow(assemble_precision(data, theta)), K_dense, atol=1e-10)


def test_precision_matches_dense_fhm():
    data, truth = make_fhm(D=9, seed=4)
    theta = VarianceComponents(sigma2_u=truth["sigma2_u"])
    K_dense, _, _ = dense_precision(data, theta)
    np.testing.assert_allclose(dense_arrow(assemble_precision(data, theta)), K_dense, atol=1e-10)


def test_covariance_matches_empirical_deviations():
    # Cov(phi_hat - phi) = K^-1 when phi_hat solves the mixed-model
    # equations at the true variance components.
    data, truth = make_nerm(D=3, n_d=3, seed=5)
    theta = VarianceComponents(sigma2_u=truth["sigma2_u"], sigma2_e=truth["sigma2_e"])
    model = build_joint_normal(data, theta)
    K, C, r_inv = dense_precision(data, theta)
    W = np.linalg.solve(K, (C * r_inv[:, None]).T)

    rng = np.random.default_rng(123)
    reps = 60_000
    beta = truth["beta"]
    u = rng.normal(0.0, np.sqrt(truth["sigma2_u"]), size=(reps, data.D))
    e = rng.normal(0.0, np.sqrt(truth["sigma2_e"]), size=(reps, data.n_total))
    mean = data.X @ beta
    Y = mean + np.repeat(u, data.sizes, axis=1) + e
    phi_hat = Y @ W.T
    dev = phi_hat - np.concatenate(
        [np.broadcast_to(beta, (reps, data.p + 1)), u], axis=1
    )
    emp = np.cov(dev.T)
    F = dense_arrow(model.cov_factor, lower=True)
    cov = F @ F.T
    se = np.sqrt(
        (np.outer(np.diag(cov), np.diag(cov)) + cov**2) / reps
    )
    assert np.all(np.abs(emp - cov) <= 8.0 * se)


def test_joint_normal_shapes_and_factor():
    data, truth = make_fhm(D=6, seed=8)
    theta = VarianceComponents(sigma2_u=truth["sigma2_u"])
    model = build_joint_normal(data, theta)
    dim = data.p + 1 + data.D
    K = dense_arrow(model.precision)
    F = dense_arrow(model.cov_factor, lower=True)
    assert K.shape == F.shape == (dim, dim)
    assert np.array_equal(F, np.tril(F)) and np.all(np.diag(F) > 0)
    np.testing.assert_allclose(F @ F.T @ K, np.eye(dim), atol=1e-9)


def identity_arrow(D):
    return Arrow(corner=np.eye(1), border=np.zeros((D, 1)), diag=np.ones(D))


def independent_components_model(D):
    """Synthetic joint law whose mapped components are iid standard normal."""
    model = JointNormalModel(precision=identity_arrow(D), cov_factor=identity_arrow(D))
    spec = MixedParameterSpec(k=np.zeros((D, 1)), m=np.ones(D))
    return model, spec


def test_mc_matches_independent_normal_quantile():
    # each column read twice is not a selection: it takes the dense route,
    # and its maximum is that of the D columns
    D, alpha = 30, 0.05
    model, spec = independent_components_model(D)
    assert np.array_equal(dense_loading(spec), np.hstack([np.zeros((D, 1)), np.eye(D)]))
    for contrast in (None, np.vstack([np.eye(D), np.eye(D)])):
        cv = critical_value_mc(model, spec, 100_000, alpha, master_seed=42, contrast=contrast)
        assert abs(cv.value - max_abs_normal_quantile(D, alpha)) < 0.02


def _recorded_paths(monkeypatch):
    """The derive_rng paths critical_value_mc opens from now on, in call order."""
    paths = []

    def recorded(master_seed, *path):
        paths.append(path)
        return derive_rng(master_seed, *path)

    monkeypatch.setattr(mc, "derive_rng", recorded)
    return paths


def _completed(paths):
    """Whether a chunk was completed: completion draws from (seed, chunk, 1)."""
    return any(len(path) == 2 for path in paths)


def _recorded_maxima(monkeypatch):
    """Every array of draw maxima critical_value_mc takes an order statistic of, copied."""
    seen = []
    order_statistic = mc.order_statistic

    def recorded(values, k):
        seen.append(values.copy())
        return order_statistic(values, k)

    monkeypatch.setattr(mc, "order_statistic", recorded)
    return seen


def _recorded_taus(monkeypatch):
    """The censoring threshold of every column draw built from now on."""
    taus = []
    build = mc._ColumnDraw

    def recorded(*args):
        draw = build(*args)
        taus.append(draw.tau)
        return draw

    monkeypatch.setattr(mc, "_ColumnDraw", recorded)
    return taus


def correlated_nerm():
    """A unit-level law whose studentized components correlate (up to 0.06) and
    whose noise weights w_d differ (0.97 to 0.99), yet whose chunks still
    sample only tail entries (p about 0.13)."""
    data, _ = make_nerm(D=400, n_d=2, sigma2_u=0.05, sigma2_e=1.0, seed=2, unbalanced=True)
    model = build_joint_normal(data, VarianceComponents(sigma2_u=0.05, sigma2_e=1.0))
    return model, cluster_mean_spec(data)


def test_mc_checks_alpha_before_any_draw(monkeypatch):
    def no_draws(*args):
        raise RuntimeError("drew before checking alpha")

    monkeypatch.setattr(mc, "derive_rng", no_draws)
    model, spec = independent_components_model(4)
    for alpha in (0.0, 1.0):
        with pytest.raises(AlphaOutOfRange):
            critical_value_mc(model, spec, 100, alpha, 1)


@pytest.mark.parametrize("D", [1, 30, 300])
def test_mc_exact_with_and_without_completion(monkeypatch, D):
    # D = 1 draws densely (its cut-off leaves too large a tail share); for
    # D = 30 and 300 the alpha 0.8 quantile lies below the censoring
    # threshold, so those calls complete their chunks
    model, spec = independent_components_model(D)
    for alpha in (0.05, 0.8):
        paths = _recorded_paths(monkeypatch)
        value = critical_value_mc(model, spec, 20_000, alpha, master_seed=D).value
        assert _completed(paths) == (alpha == 0.8 and D > 1)
        error = value - max_abs_normal_quantile(D, alpha)
        assert abs(error) < 5 * max_abs_normal_quantile_se(D, alpha, 20_000)


def test_mc_censoring_threshold_is_at_most_the_independent_quantile(monkeypatch):
    # with every w_d = 1 Anderson's bound is attained: tau is the quantile at
    # level 1 - CENSOR_LEVEL, so it lies below every quantile with alpha < 0.6
    for D in (1, 30, 1400):
        model, spec = independent_components_model(D)
        taus = _recorded_taus(monkeypatch)
        critical_value_mc(model, spec, 10, 0.05, 1)
        (tau,) = taus
        assert tau == pytest.approx(max_abs_normal_quantile(D, 1 - CENSOR_LEVEL), rel=1e-9)
        assert tau < max_abs_normal_quantile(D, 0.5)


@pytest.mark.parametrize("case", ["independent", "correlated", "selection"])
def test_mc_censored_maxima_are_exact_above_tau(monkeypatch, case):
    # the first pass records each draw's maximum over its tail entries only;
    # completion fills in the body.  Above tau the two agree (to rounding:
    # the passes sum each t_r in another order), a draw recorded at or below
    # tau completes at or below tau, and without a selection at least
    # 1 - CENSOR_LEVEL of the draws lie above tau in law
    if case == "independent":
        (model, spec), contrast = independent_components_model(30), None
    else:
        model, spec = correlated_nerm()
        # a selection with signed, scaled entries, its rows out of column order
        contrast = None if case == "correlated" else np.zeros((4, 400))
        if contrast is not None:
            contrast[[0, 1, 2, 3], [17, 5, 399, 9]] = [1.0, -2.0, 0.5, 3.0]
    seen = _recorded_maxima(monkeypatch)
    taus = _recorded_taus(monkeypatch)
    k_draws = DRAW_CHUNK + 999
    critical_value_mc(model, spec, k_draws, 0.99, master_seed=21, contrast=contrast)
    (tau,), (censored, exact) = taus, seen
    above = censored > tau
    np.testing.assert_allclose(exact[above], censored[above], rtol=1e-14, atol=0)
    assert np.all(exact[~above] <= tau)
    assert np.all(censored <= exact * (1 + 1e-14))
    if contrast is None:
        share = np.sqrt(CENSOR_LEVEL * (1 - CENSOR_LEVEL) / k_draws)
        assert (exact > tau).mean() > 1 - CENSOR_LEVEL - 4.5 * share


def test_tail_positions_take_each_position_with_probability_p():
    class UnitGaps:
        def geometric(self, p, size):
            return np.ones(size, dtype=np.int64)

    # unit gaps take every position, also past the first batch of gaps
    assert np.array_equal(mc._tail_positions(UnitGaps(), 100, 0.5), np.arange(100))
    rng = np.random.default_rng(8)
    hits = np.zeros(7)
    for _ in range(4000):
        hits[mc._tail_positions(rng, 7, 0.3)] += 1
    assert np.all(np.abs(hits / 4000 - 0.3) < 4.5 * np.sqrt(0.21 / 4000))


def test_mc_completed_noise_is_standard_normal(monkeypatch):
    # tail entries (|z| > s, a share p) and completed body entries (|z| <= s)
    # make up iid N(0, 1) vectors: check the moments, the tail share and the
    # law of each part
    model, spec = independent_components_model(30)
    noise, cuts, shares = [], [], []
    dense_max, positions, body = mc._ColumnDraw.dense_max, mc._tail_positions, mc._body_normals

    def recorded_dense(draw, zq, zu, out):
        noise.append(zu.copy())
        return dense_max(draw, zq, zu, out)

    def recorded_positions(rng, n, p):
        shares.append(p)
        return positions(rng, n, p)

    def recorded_body(rng, s, shape):
        cuts.append(s)
        return body(rng, s, shape)

    monkeypatch.setattr(mc._ColumnDraw, "dense_max", recorded_dense)
    monkeypatch.setattr(mc, "_tail_positions", recorded_positions)
    monkeypatch.setattr(mc, "_body_normals", recorded_body)
    critical_value_mc(model, spec, DRAW_CHUNK, 0.8, master_seed=5)
    s, p = cuts[0], shares[0]
    assert set(cuts) == {s} and set(shares) == {p}
    z = np.concatenate([block.ravel() for block in noise])
    n = z.size
    assert n == DRAW_CHUNK * 30
    assert abs(z.mean()) < 4.5 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 4.5 * np.sqrt(2.0 / n)
    assert abs((z**4).mean() - 3.0) < 4.5 * np.sqrt(96.0 / n)
    assert abs(np.corrcoef(z[:-1], z[1:])[0, 1]) < 4.5 / np.sqrt(n)
    tail = np.abs(z) > s
    assert abs(tail.mean() - p) < 4.5 * np.sqrt(p * (1 - p) / n)
    mass = stats.norm.sf(s)
    tail_law = lambda x: 1.0 - stats.norm.sf(x) / mass  # noqa: E731
    body_law = lambda x: (stats.norm.cdf(x) - 0.5) / (0.5 - mass)  # noqa: E731
    assert stats.kstest(np.abs(z[tail]), tail_law).pvalue > 1e-3
    assert stats.kstest(np.abs(z[~tail]), body_law).pvalue > 1e-3
    assert abs((z[tail] < 0).mean() - 0.5) < 4.5 * np.sqrt(0.25 / tail.sum())


def test_mc_tail_draws_agree_with_dense_draws(monkeypatch):
    # the same seeds through the tail route and, with every chunk forced to
    # draw all its noise, through the dense route
    model, spec = correlated_nerm()
    seeds = range(6)
    taus = _recorded_taus(monkeypatch)
    tail = [critical_value_mc(model, spec, 20_000, 0.05, seed).value for seed in seeds]
    monkeypatch.setattr(mc, "DENSE_SHARE", 0.0)
    dense = [critical_value_mc(model, spec, 20_000, 0.05, seed).value for seed in seeds]
    assert tail != dense
    spread = np.sqrt((np.var(tail, ddof=1) + np.var(dense, ddof=1)) / len(seeds))
    assert abs(np.mean(tail) - np.mean(dense)) < max(4.5 * spread, 0.01)
    # Anderson's bound: at most CENSOR_LEVEL of the draws stay at or below tau
    at_level = critical_value_mc(model, spec, 20_000, 1 - CENSOR_LEVEL, 99).value
    assert at_level > taus[0]


def test_mc_chunk_c_draws_from_its_own_streams(monkeypatch):
    # chunk c draws from (seed, c); a completed chunk draws (seed, c) again
    # and the rest of its noise from (seed, c, 1).  At alpha 0.8 the quantile
    # lies below the censoring threshold, so every chunk is completed.  Equal
    # calls give equal values
    model, spec = independent_components_model(12)
    for alpha in (0.1, 0.8):
        kwargs = dict(k_draws=2 * DRAW_CHUNK + 17, alpha=alpha, master_seed=7)
        paths = _recorded_paths(monkeypatch)
        base = critical_value_mc(model, spec, **kwargs).value
        completed = [path for c in range(3) for path in ((c,), (c, 1))] if alpha == 0.8 else []
        assert paths == [(0,), (1,), (2,)] + completed
        assert critical_value_mc(model, spec, **kwargs).value == base
        assert critical_value_mc(model, spec, **{**kwargs, "master_seed": 8}).value != base


def test_mc_whole_chunks_do_not_depend_on_the_draw_count(monkeypatch):
    # a chunk's maxima come from its own streams alone, so a call with a
    # partial third chunk repeats the two whole chunks of a call without
    # it, bit for bit, with and without a dense contrast
    data, _ = make_nerm(D=20, seed=12)
    model = build_joint_normal(data, eblup(data).theta)
    spec = cluster_mean_spec(data)
    contrast = np.random.default_rng(4).normal(size=(6, data.D))
    for extra in ({}, {"contrast": contrast}):
        maxima = []
        for k_draws in (2 * DRAW_CHUNK + 17, 2 * DRAW_CHUNK):
            seen = _recorded_maxima(monkeypatch)
            critical_value_mc(model, spec, k_draws, 0.05, master_seed=31, **extra)
            maxima.append(seen[0])
        assert np.array_equal(maxima[0][: 2 * DRAW_CHUNK], maxima[1])


def test_mc_holds_one_block_of_draws(monkeypatch):
    # each chunk draws in blocks, so memory does not grow with DRAW_CHUNK x (q + D);
    # alpha 0.8 completes every chunk, which draws its body entries in blocks too
    data, _ = make_nerm(D=300, p=2, seed=8)
    model = build_joint_normal(data, eblup(data).theta)
    spec = cluster_mean_spec(data)
    for alpha in (0.05, 0.8):
        paths = _recorded_paths(monkeypatch)
        tracemalloc.start()
        try:
            critical_value_mc(model, spec, k_draws=2 * DRAW_CHUNK, alpha=alpha, master_seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _completed(paths) == (alpha == 0.8)
        assert peak < 0.25 * DRAW_CHUNK * (data.p + 1 + data.D) * 8


def test_mc_alpha_monotone():
    model, spec = independent_components_model(9)
    c_lo = critical_value_mc(model, spec, 30_000, 0.10, master_seed=3).value
    c_hi = critical_value_mc(model, spec, 30_000, 0.02, master_seed=3).value
    assert c_hi > c_lo


def test_mc_contrast_subset_is_exactly_monotone():
    # shared draws make the subset maxima pointwise dominated
    data, truth = make_nerm(D=8, seed=10)
    theta = VarianceComponents(sigma2_u=truth["sigma2_u"], sigma2_e=truth["sigma2_e"])
    model = build_joint_normal(data, theta)
    spec = cluster_mean_spec(data)
    full = np.eye(8)
    cs = [critical_value_mc(model, spec, 10_000, 0.05, 17, contrast=full[:r]).value
          for r in (2, 5, 8)]
    assert cs[0] <= cs[1] <= cs[2]
    c_plain = critical_value_mc(model, spec, 10_000, 0.05, 17).value
    c_eye = critical_value_mc(model, spec, 10_000, 0.05, 17, contrast=full).value
    assert c_eye == c_plain


def test_mc_selection_reads_the_plain_draw(monkeypatch):
    # a selection reads columns of the plain draw with the plain tau, so
    # reordering rows or scaling one by a power of two moves no bit, and
    # nested selections give exactly monotone values
    model, spec = correlated_nerm()
    taus = _recorded_taus(monkeypatch)
    plain = critical_value_mc(model, spec, 20_000, 0.05, 4).value
    rows = np.eye(400)[::-1]
    rows[:3] *= -2.0
    rows[3:5] *= 0.5
    assert critical_value_mc(model, spec, 20_000, 0.05, 4, contrast=rows).value == plain
    nested = [critical_value_mc(model, spec, 20_000, 0.05, 4, contrast=np.eye(400)[:r]).value
              for r in (20, 100, 399)]
    assert nested == sorted(nested) and nested[-1] <= plain
    assert set(taus) == {taus[0]}


def test_model_scales_equal_prediction_variance_split():
    # diag(L K^-1 L') = g1 + g2 for the mixed-parameter loading rows
    for data, truth in (make_nerm(D=12, seed=2), make_fhm(D=12, seed=2)):
        theta = eblup(data).theta
        spec = cluster_mean_spec(data)
        model = build_joint_normal(data, theta)
        L = dense_loading(spec)
        F = dense_arrow(model.cov_factor, lower=True)
        scales = np.sqrt(np.einsum("di,ij,dj->d", L, F @ F.T, L))
        expected = np.sqrt(g1(data, theta) * spec.m**2 + g2(data, theta, spec))
        np.testing.assert_allclose(scales, expected, rtol=1e-9)


def test_model_scales_of_a_selection_hold_no_dense_block():
    # an identity contrast is a selection: its scales are the plain ones,
    # computed without the R x D float block A diag(w)
    D = 1200
    model, spec = independent_components_model(D)
    eye = np.eye(D)
    tracemalloc.start()
    try:
        scales = model_scales(model, spec, eye)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(scales, model_scales(model, spec))
    assert peak < 0.4 * D * D * 8


def test_mc_input_validation():
    model, spec = independent_components_model(4)
    with pytest.raises(ShapeMismatch):
        critical_value_mc(model, spec, 0, 0.05, 1)
    for contrast in (np.ones((2, 5)), np.zeros((0, 4)), np.ones(4)):
        with pytest.raises(ShapeMismatch, match="at least one row and 4 columns"):
            critical_value_mc(model, spec, 100, 0.05, 1, contrast=contrast)
        with pytest.raises(ShapeMismatch, match="at least one row and 4 columns"):
            model_scales(model, spec, contrast=contrast)
    bad_spec = MixedParameterSpec(k=np.zeros((5, 1)), m=np.ones(5))
    for run in (model_scales, lambda m, s: critical_value_mc(m, s, 100, 0.05, 1)):
        with pytest.raises(ShapeMismatch, match=r"spec k has shape \(5, 1\), expected \(4, 1\)"):
            run(model, bad_spec)
    data = tiny_unit_data()
    with pytest.raises(ShapeMismatch):
        assemble_precision(data, VarianceComponents(sigma2_u=1.0))

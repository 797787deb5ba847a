import csv
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spimax import bootstrap as boot
from spimax import estimation as est
from spimax.errors import EmptySubset, SeedOverflow, ShapeMismatch, ThreadsOutOfRange
from spimax.mc import build_joint_normal, critical_value_mc
from spimax.model import cluster_mean_spec
from spimax.simulate import ScenarioConfig, run_spi_experiment

from conftest import make_fhm, make_nerm
from oracles import max_abs_normal_quantile


def _draws_from_matrix(S, g1=None, seed=0):
    S = np.asarray(S, dtype=float)
    g1 = np.ones_like(S) if g1 is None else g1
    return boot.BootstrapDraws(
        s_matrix=S,
        delta=S * np.sqrt(g1),
        g1_star=g1,
        master_seed=seed,
        model_tag="NERM",
        cluster_ids=tuple(range(S.shape[1])),
    )


@pytest.fixture(scope="module")
def nerm_setup():
    data, _ = make_nerm(D=12, n_d=5, sigma2_e=0.5, sigma2_u=1.0, seed=404)
    spec = cluster_mean_spec(data)
    fit = est.eblup(data, spec)
    return data, spec, fit


def test_bootstrap_deterministic_and_thread_invariant(nerm_setup):
    data, spec, fit = nerm_setup
    a = boot.parametric_bootstrap(data, spec, fit, 300, master_seed=99)
    b = boot.parametric_bootstrap(data, spec, fit, 300, master_seed=99)
    assert np.array_equal(a.s_matrix, b.s_matrix)
    c = boot.parametric_bootstrap(data, spec, fit, 300, master_seed=99, threads=3)
    assert np.array_equal(a.s_matrix, c.s_matrix)
    assert np.array_equal(a.g1_star, c.g1_star)
    d = boot.parametric_bootstrap(data, spec, fit, 300, master_seed=100)
    assert not np.array_equal(a.s_matrix, d.s_matrix)


def test_bootstrap_replicates_reasonable(nerm_setup):
    data, spec, fit = nerm_setup
    draws = boot.parametric_bootstrap(data, spec, fit, 400, master_seed=5)
    assert draws.s_matrix.shape == (400, 12)
    assert np.all(np.isfinite(draws.s_matrix))
    # studentized deviations should look roughly standard normal
    sd = draws.s_matrix.std()
    assert 0.8 < sd < 1.4
    assert abs(draws.s_matrix.mean()) < 0.1
    assert draws.n_fallback <= 8


def test_bootstrap_fhm_uses_known_error_variances():
    data, _ = make_fhm(D=20, sigma2_u=0.5, seed=77)
    spec = cluster_mean_spec(data)
    fit = est.eblup(data, spec)
    draws = boot.parametric_bootstrap(data, spec, fit, 200, master_seed=8)
    assert draws.s_matrix.shape == (200, 20)
    assert np.all(np.isfinite(draws.s_matrix))
    assert 0.7 < draws.s_matrix.std() < 1.5


def test_bootstrap_seed_validation(nerm_setup):
    data, spec, fit = nerm_setup
    with pytest.raises(SeedOverflow):
        boot.parametric_bootstrap(data, spec, fit, 10, master_seed=-1)
    with pytest.raises(SeedOverflow):
        boot.parametric_bootstrap(data, spec, fit, 10, master_seed=2**63)
    with pytest.raises(ShapeMismatch):
        boot.parametric_bootstrap(data, spec, fit, 0, master_seed=1)


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_are_rejected(nerm_setup, threads):
    data, spec, fit = nerm_setup
    with pytest.raises(ThreadsOutOfRange):
        boot.parametric_bootstrap(data, spec, fit, 10, master_seed=1, threads=threads)
    model = build_joint_normal(data, fit.theta)
    with pytest.raises(ThreadsOutOfRange):
        critical_value_mc(model, spec, k_draws=10, alpha=0.1, master_seed=1, threads=threads)
    config = ScenarioConfig(D=6, n_d=3, n_sim=2, n_boot=10, n_mc=10, master_seed=1)
    with pytest.raises(ThreadsOutOfRange):
        run_spi_experiment(config, methods=("BO",), threads=threads)


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
    draws = boot.BootstrapDraws(
        s_matrix=delta / np.sqrt(np.maximum(g1, boot.G1_FLOOR)),
        delta=delta,
        g1_star=g1,
        master_seed=0,
        model_tag="NERM",
        cluster_ids=tuple(range(6)),
    )
    c_id = boot.critical_value_contrast(draws, np.eye(6), 0.1)
    c_bs = boot.critical_value_bs(draws, 0.1)
    assert c_id.value == c_bs.value


def test_contrast_shapes_checked():
    draws = _draws_from_matrix(np.random.default_rng(1).normal(size=(50, 4)))
    with pytest.raises(ShapeMismatch):
        boot.critical_value_contrast(draws, np.ones((2, 5)), 0.05)
    with pytest.raises(ShapeMismatch):
        boot.critical_value_contrast(draws, np.ones((0, 4)), 0.05)


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
    draws = _draws_from_matrix(S)
    A = np.zeros((3, 6))
    A[0, 0], A[0, 1] = 1.0, -1.0
    A[1, 2], A[1, 3] = 1.0, -1.0
    A[2, 4], A[2, 5] = 1.0, -1.0
    provider = boot.stepdown_quantile_provider(draws, 0.05, A=A)
    # the full contrast set reproduces the single-step contrast threshold
    assert provider(range(3)) == boot.critical_value_contrast(draws, A, 0.05).value
    assert provider([0]) <= provider([0, 2]) <= provider(range(3))
    with pytest.raises(ShapeMismatch):
        provider([3])  # subsets index contrast rows, of which there are 3
    # identity contrasts collapse to the per-cluster provider
    ident = boot.stepdown_quantile_provider(draws, 0.05, A=np.eye(6))
    plain = boot.stepdown_quantile_provider(draws, 0.05)
    assert all(ident(s) == plain(s) for s in [range(6), (0, 2, 4), (5,)])


def test_save_csv_roundtrip(tmp_path, nerm_setup):
    data, spec, fit = nerm_setup
    draws = boot.parametric_bootstrap(data, spec, fit, 20, master_seed=3)
    path = tmp_path / "draws.csv"
    draws.save_csv(path)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert_allclose(back, draws.s_matrix, rtol=1e-6)


def test_save_csv_header_holds_the_cluster_ids(tmp_path):
    S = np.array([[0.5, -1.25], [2.0, 0.125]])
    draws = _draws_from_matrix(S)
    quoted = boot.BootstrapDraws(**{**vars(draws), "cluster_ids": ("a,b", 'c"d')})
    path = tmp_path / "quoted.csv"
    quoted.save_csv(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a,b", 'c"d']
    assert [[float(v) for v in row] for row in rows[1:]] == S.tolist()

    # plain ids: the same bytes as a header joined with commas
    plain, legacy = tmp_path / "plain.csv", tmp_path / "legacy.csv"
    draws.save_csv(plain)
    np.savetxt(legacy, S, delimiter=",", header="0,1", comments="")
    assert plain.read_bytes() == legacy.read_bytes()


def test_bootstrap_speed(nerm_setup):
    data, spec, fit = nerm_setup
    t0 = time.perf_counter()
    boot.parametric_bootstrap(data, spec, fit, 500, master_seed=11)
    elapsed = time.perf_counter() - t0
    # the simulation harness runs hundreds of these
    assert elapsed < 2.0

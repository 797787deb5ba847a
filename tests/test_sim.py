"""Simulation harness: generation, criteria bookkeeping, reproducibility."""

import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

from spimax import bootstrap, simulate, util
from spimax.errors import NonPositiveShift, ShapeMismatch, SingularSystem
from spimax.model import FHM, NERM
from spimax.simulate import (
    ScenarioConfig,
    generate_scenario,
    preset_config,
    run_fwer_experiment,
    run_power_experiment,
    run_spi_experiment,
)

from conftest import assert_no_child_process
from oracles import reference_scenario


def small_config(**kw):
    base = dict(D=10, n_d=4, n_sim=12, n_boot=60, n_mc=300, master_seed=414)
    base.update(kw)
    return ScenarioConfig(**base)


def test_preset_config_applies_overrides_and_labels():
    assert preset_config("fwer") == ScenarioConfig(
        model_tag=NERM, D=15, sigma2_e=1.0, sigma2_u=1.0, label="fwer-D15"
    )
    config = preset_config("table2-row", D=10, n_sim=3, sigma2_u=0.4, fhm_sigma_pattern=(0.5,))
    assert config.label == "table2-row-D10"
    assert (config.model_tag, config.D, config.n_sim, config.sigma2_u) == (FHM, 10, 3, 0.4)
    assert config.fhm_sigma_pattern == (0.5,)


def test_generate_unit_level_layout():
    config = ScenarioConfig(D=15, n_d=5, master_seed=9)
    data, mu, spec = generate_scenario(config, 0)
    assert data.model_tag == NERM
    assert data.D == 15 and data.n_total == 75
    assert np.all(data.X[:, 0] == 1.0)
    # slope covariate is uniform on the unit interval
    assert data.X[:, 1].min() >= 0.0 and data.X[:, 1].max() <= 1.0
    assert mu.shape == (15,)
    assert np.all(spec.m == 1.0)
    # target is the within-cluster mean of the fixed part plus the effect
    d = 7
    sl = slice(d * 5, (d + 1) * 5)
    np.testing.assert_allclose(spec.k[d], data.X[sl].mean(axis=0), rtol=0, atol=1e-15)


def test_generate_area_level_layout():
    pattern = (2.0, 0.6, 0.5, 0.4, 0.2)
    config = ScenarioConfig(
        model_tag=FHM, D=10, fhm_sigma_pattern=pattern, master_seed=9
    )
    data, mu, spec = generate_scenario(config, 3)
    assert data.model_tag == FHM
    assert np.all(data.sizes == 1)
    np.testing.assert_array_equal(data.known_error_vars, np.repeat(pattern, 2))
    # with one unit per area the cluster mean row is the design row itself
    np.testing.assert_array_equal(spec.k, data.X)


def test_generate_is_deterministic_per_replicate():
    config = small_config()
    a_data, a_mu, _ = generate_scenario(config, 4)
    b_data, b_mu, _ = generate_scenario(config, 4)
    np.testing.assert_array_equal(a_data.y, b_data.y)
    np.testing.assert_array_equal(a_data.X, b_data.X)
    np.testing.assert_array_equal(a_mu, b_mu)
    c_data, c_mu, _ = generate_scenario(config, 5)
    assert not np.array_equal(a_data.y, c_data.y)
    assert not np.array_equal(a_mu, c_mu)


@pytest.mark.parametrize("model", [NERM, FHM])
@pytest.mark.parametrize(
    "beta", [(1.0,), (1.0, 1.0), (0.3, -2.0, 7.5, 1e3)], ids=["p0", "p1", "p3"]
)
def test_generated_data_matches_cluster_by_cluster_construction(model, beta):
    config = ScenarioConfig(
        model_tag=model, D=300 if model == FHM else 60, n_d=7, beta=beta, master_seed=31
    )
    for replicate in range(4):
        data, mu, spec = generate_scenario(config, replicate)
        y, X, ev, mu_ref, k = reference_scenario(config, replicate)
        np.testing.assert_array_equal(data.y, y)
        np.testing.assert_array_equal(data.X, X)
        if ev is None:
            assert data.known_error_vars is None
        else:
            np.testing.assert_array_equal(data.known_error_vars, ev)
        np.testing.assert_array_equal(mu, mu_ref)
        np.testing.assert_array_equal(spec.k, k)
        assert data.cluster_ids == tuple(range(config.D))


def test_random_effect_variance_matches_config():
    config = ScenarioConfig(D=40, n_d=2, sigma2_u=1.0, master_seed=77)
    beta = np.asarray(config.beta)
    draws = np.empty((2500, config.D))
    for i in range(draws.shape[0]):
        _, mu, spec = generate_scenario(config, i)
        draws[i] = mu - spec.k @ beta
    rel_err = abs(draws.var(ddof=1) / config.sigma2_u - 1.0)
    assert rel_err < 0.03


def test_config_validation():
    with pytest.raises(ShapeMismatch):
        ScenarioConfig(model_tag="nerm")
    with pytest.raises(ShapeMismatch):
        ScenarioConfig(D=1)
    with pytest.raises(ShapeMismatch):
        ScenarioConfig(n_d=1)
    with pytest.raises(ShapeMismatch):
        ScenarioConfig(sigma2_e=0.0)
    with pytest.raises(ShapeMismatch):
        ScenarioConfig(model_tag=FHM, D=12)  # pattern length 5 does not divide 12
    with pytest.raises(ShapeMismatch):
        ScenarioConfig(model_tag=FHM, fhm_sigma_pattern=(0.5, -0.1), D=10)
    with pytest.raises(ShapeMismatch):
        ScenarioConfig(n_sim=0)
    for fields in (dict(sigma2_u=np.nan), dict(sigma2_e=np.inf), dict(beta=(1.0, np.nan)),
                   dict(model_tag=FHM, D=10, fhm_sigma_pattern=(np.nan, 1.0, 1.0, 1.0, 1.0)),
                   dict(model_tag=FHM, fhm_sigma_pattern=())):
        with pytest.raises(ShapeMismatch, match="finite"):
            ScenarioConfig(**fields)
    assert ScenarioConfig().label == "NERM-D30"
    assert ScenarioConfig(label="cell-3").label == "cell-3"


def test_spi_reproducible():
    config = small_config()
    a = run_spi_experiment(config)
    b = run_spi_experiment(config)
    for m in a.methods:
        assert a.criteria[m] == b.criteria[m]
        assert a.halfwidths[m] == b.halfwidths[m]
        np.testing.assert_array_equal(a.samples[m]["ws"], b.samples[m]["ws"])
    assert a.n_failed == 0


def test_spi_criteria_recompute_from_samples():
    config = small_config()
    result = run_spi_experiment(config, methods=("BS", "MC"))
    for m in result.methods:
        cov, w = result.samples[m]["ecp"], result.samples[m]["ws"]
        assert cov.dtype == bool and cov.shape == (config.n_sim,)
        assert w.shape == (config.n_sim, config.D)
        assert result.criteria[m]["ecp"] == cov.mean()
        assert result.criteria[m]["ws"] == w.mean()
        assert result.criteria[m]["vs"] == w.var(axis=0, ddof=1).mean()
        # vs's sample is each replicate's share of it, and carries its half-width
        z = result.samples[m]["vs"]
        assert z.shape == (config.n_sim,)
        assert np.isclose(z.mean(), result.criteria[m]["vs"], rtol=1e-12, atol=0)
        assert result.halfwidths[m]["vs"] == 1.96 * z.std(ddof=1) / np.sqrt(config.n_sim)


def test_vs_halfwidth_is_its_spread_over_independent_runs():
    # in a balanced design every cluster has the same width within a
    # replicate, so a spread over clusters would read about zero
    runs = [
        run_spi_experiment(small_config(n_sim=30, master_seed=seed), methods=("BO",))
        for seed in range(1000, 1020)
    ]
    vs = np.array([r.criteria["BO"]["vs"] for r in runs])
    # root mean square: a width variance is heavy-tailed, so a typical run's
    # sample sd reads low
    hw = np.array([r.halfwidths["BO"]["vs"] for r in runs])
    sd_reported = np.sqrt(np.mean(hw**2)) / 1.96
    assert sd_reported > 0
    assert 1 / 3 < vs.std(ddof=1) / sd_reported < 3


def test_spi_method_validation():
    with pytest.raises(ShapeMismatch):
        run_spi_experiment(small_config(), methods=("BS", "XX"))


@pytest.mark.parametrize(
    "run",
    [lambda config: run_spi_experiment(config, methods=("BO", "BO")),
     lambda config: run_power_experiment(config, methods=("BS", "BS"))],
    ids=["spi", "power"],
)
def test_duplicate_methods_are_rejected_before_any_replicate(monkeypatch, run):
    monkeypatch.setattr(simulate, "_map_replicates", None)  # calling it would fail
    with pytest.raises(ShapeMismatch, match="duplicate method names"):
        run(small_config())


def test_rows_layout():
    result = run_spi_experiment(small_config(n_sim=4), methods=("BO",))
    rows = result.rows()
    assert len(rows) == 3
    for scenario, method, criterion, value, hw in rows:
        assert scenario == "NERM-D10" and method == "BO"
        assert criterion in ("ecp", "ws", "vs")
        assert np.isfinite(value) and hw >= 0.0


def test_power_size_and_saturation():
    config = small_config(n_sim=60, n_boot=100, n_mc=400)
    result = run_power_experiment(config, delta_grid=(-2.0, 0.0, 2.0))
    np.testing.assert_array_equal(result.samples["deltas"], [-2.0, 0.0, 2.0])
    for m in ("BS", "MC"):
        size = result.criteria[m]["power@0"]
        assert size < 0.25
        # a two-sigma shift dwarfs prediction scales of ~0.4 at this layout
        assert result.criteria[m]["power@2"] > 0.8
        assert result.criteria[m]["power@-2"] > 0.8
        assert abs(result.criteria[m]["power@2"] - result.criteria[m]["power@-2"]) < 0.15


def test_power_reuses_one_threshold_across_shifts():
    config = small_config(n_sim=10)
    a = run_power_experiment(config, delta_grid=(0.0, 1.0))
    b = run_power_experiment(config, delta_grid=(1.0,))
    np.testing.assert_array_equal(a.samples["BS"]["power@1"], b.samples["BS"]["power@1"])
    assert a.samples["BS"]["power@1"].dtype == bool


def test_power_validation(monkeypatch):
    monkeypatch.setattr(simulate, "_map_replicates", None)  # calling it would fail
    with pytest.raises(ShapeMismatch):
        run_power_experiment(small_config(), methods=("BO",))
    # every criterion power@{delta:g} names exactly one finite shift
    for grid in ((), (0.0, 0.0, 0.5), (0.5, 0.5000001), (np.nan, 0.0), (np.inf,)):
        with pytest.raises(ShapeMismatch):
            run_power_experiment(small_config(), delta_grid=grid)


def test_fwer_all_null_weak_control():
    config = small_config(n_sim=30, n_boot=80)
    result = run_fwer_experiment(config, n_alt=0)
    assert result.samples["n_alt"] == 0
    for m in ("BS", "BO"):
        assert result.criteria[m]["alt_rate"] == 0.0
        # nominal 5% family error, generous Monte Carlo slack at 30 runs
        assert result.criteria[m]["fwer"] <= 0.30


def test_fwer_huge_shift_rejects_every_alternative():
    # shift must dominate even the thresholds produced by bootstrap
    # replicates whose variance estimate collapses to the floor
    config = small_config(n_sim=8, n_boot=60)
    result = run_fwer_experiment(config, shift=1e8, n_alt=2)
    for m in ("BS", "BO"):
        assert result.criteria[m]["alt_rate"] == 1.0
        assert 0.0 <= result.criteria[m]["fwer"] <= 1.0


def test_fwer_reproducible():
    config = small_config(n_sim=10, n_boot=60)
    a = run_fwer_experiment(config, shift=1.0, n_alt=2)
    b = run_fwer_experiment(config, shift=1.0, n_alt=2)
    assert a.criteria == b.criteria


def test_fwer_validation():
    for shift in (-1.0, np.nan, np.inf):
        with pytest.raises(NonPositiveShift):
            run_fwer_experiment(small_config(), shift=shift, n_alt=2)
    with pytest.raises(ShapeMismatch):
        run_fwer_experiment(small_config(D=12, n_sim=2), shift=1.0)  # 5 does not divide 12
    with pytest.raises(ShapeMismatch):
        run_fwer_experiment(small_config(), n_alt=99)


# ----------------------------------------------------- failed replicates


def _fail_fits_on(monkeypatch, config, replicates):
    """Make the replicate fit raise SingularSystem on the given replicates.

    A replicate is recognized by its response, so the failure follows the
    replicate into whichever worker process fits it.
    """
    responses = [generate_scenario(config, i)[0].y for i in replicates]
    real_eblup = simulate.eblup

    def eblup(data, spec=None):
        if any(np.array_equal(data.y, y) for y in responses):
            raise SingularSystem("injected failure")
        return real_eblup(data, spec)

    monkeypatch.setattr(simulate, "eblup", eblup)


EXPERIMENTS = {
    "spi": lambda config: run_spi_experiment(config, methods=("BS", "MC", "BO", "BE")),
    "power": lambda config: run_power_experiment(config, delta_grid=(0.0, 1.0)),
    "fwer": lambda config: run_fwer_experiment(config, shift=1.0, n_alt=2),
}


def _recomputed(result):
    """Criteria recomputed from the per-replicate samples: each is its sample's mean but vs."""
    out = {}
    for m in result.methods:
        out[m] = {c: float(x.mean()) for c, x in result.samples[m].items()}
        if "ws" in result.samples[m]:  # the spi experiment
            out[m]["vs"] = float(result.samples[m]["ws"].var(axis=0, ddof=1).mean())
    return out


@pytest.mark.parametrize("kind", sorted(EXPERIMENTS))
def test_failed_replicates_are_left_out(monkeypatch, kind):
    config = small_config(n_sim=6, n_boot=40, n_mc=200)
    full = EXPERIMENTS[kind](config)
    failing = (1, 4)
    _fail_fits_on(monkeypatch, config, failing)
    result = EXPERIMENTS[kind](config)
    assert result.n_failed == 2
    assert result.samples["failed_replicates"] == failing
    assert result.methods == full.methods
    assert result.criteria == _recomputed(result)
    keep = [i for i in range(config.n_sim) if i not in failing]
    for m in result.methods:
        for name, values in result.samples[m].items():
            if name == "vs":  # each value is centred by the mean of the surviving widths
                continue
            np.testing.assert_array_equal(values, full.samples[m][name][keep])


@pytest.mark.parametrize("kind", sorted(EXPERIMENTS))
def test_every_replicate_failing_raises(monkeypatch, kind):
    config = small_config(n_sim=3, n_boot=40, n_mc=200)
    _fail_fits_on(monkeypatch, config, range(config.n_sim))
    with pytest.raises(ShapeMismatch):
        EXPERIMENTS[kind](config)


# ----------------------------------------------------- worker processes


def _assert_same_samples(a, b):
    assert a.keys() == b.keys()
    for key, value in a.items():
        if isinstance(value, dict):
            _assert_same_samples(value, b[key])
        else:
            np.testing.assert_array_equal(value, b[key])


def _assert_same_result(a, b):
    assert a.criteria == b.criteria
    assert a.halfwidths == b.halfwidths
    assert (a.n_failed, a.n_fallback, a.n_boundary) == (b.n_failed, b.n_fallback, b.n_boundary)
    _assert_same_samples(a.samples, b.samples)


def _refuse_fork():
    raise AssertionError("a simulation worker was forked")


@pytest.mark.parametrize("kind", sorted(EXPERIMENTS))
def test_results_do_not_depend_on_the_worker_count(monkeypatch, kind):
    # seven replicates over one to four workers, two of them failing; four
    # workers hold uneven shares of 2, 2, 2 and 1 replicates
    config = small_config(n_sim=7, n_boot=40, n_mc=200)
    _fail_fits_on(monkeypatch, config, (2, 5))
    results = []
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(util, "usable_cpus", lambda cpus=cpus: cpus)
        results.append(EXPERIMENTS[kind](config))
        assert_no_child_process()
    base = results[0]
    assert base.samples["failed_replicates"] == (2, 5)
    for other in results[1:]:
        _assert_same_result(other, base)
    # a lone replicate runs inline whatever the CPU count
    single = dataclasses.replace(config, n_sim=1)
    monkeypatch.setattr(util, "usable_cpus", lambda: 1)
    inline = EXPERIMENTS[kind](single)
    monkeypatch.setattr(util, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    _assert_same_result(EXPERIMENTS[kind](single), inline)


class _InjectedBug(Exception):
    """An error that is not a SpimaxError: a replicate raising it is a bug."""


def _break_replicate(monkeypatch, config, replicate, action):
    """Make the fit of the given replicate call action() first."""
    bad = generate_scenario(config, replicate)[0].y
    real_eblup = simulate.eblup

    def eblup(data, spec=None):
        if np.array_equal(data.y, bad):
            action()
        return real_eblup(data, spec)

    monkeypatch.setattr(simulate, "eblup", eblup)


def test_a_worker_error_surfaces_with_its_type_and_leaves_no_process(monkeypatch):
    config = small_config(n_sim=6, n_boot=40, n_mc=200)

    def action():
        raise _InjectedBug("replicate 4")

    _break_replicate(monkeypatch, config, 4, action)
    monkeypatch.setattr(util, "usable_cpus", lambda: 2)
    with pytest.raises(_InjectedBug, match="replicate 4") as raised:
        run_spi_experiment(config, methods=("BO",))
    assert "in action" in str(raised.value.__cause__)  # the worker's traceback text
    assert_no_child_process()


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_worker_that_dies_raises_and_leaves_no_process(monkeypatch, cpus):
    # os._exit in a worker: the run raises instead of waiting for its results
    config = small_config(n_sim=6, n_boot=40, n_mc=200)
    _break_replicate(monkeypatch, config, 4, lambda: os._exit(3))
    monkeypatch.setattr(util, "usable_cpus", lambda: cpus)
    share = 4 % cpus
    with pytest.raises(RuntimeError, match=f"share {share} of {cpus} .* with status 3 before"):
        run_spi_experiment(config, methods=("BO",))
    assert_no_child_process()


class _Unpicklable(Exception):
    """An error that holds a lambda, so it cannot be sent from a worker as itself."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_worker_error_that_does_not_pickle_still_surfaces(monkeypatch, cpus):
    config = small_config(n_sim=6, n_boot=40, n_mc=200)

    def action():
        raise _Unpicklable("replicate 5")

    _break_replicate(monkeypatch, config, 5, action)
    monkeypatch.setattr(util, "usable_cpus", lambda: cpus)
    message = r"_Unpicklable\('replicate 5'\), which does not pickle"
    with pytest.raises(RuntimeError, match=message) as raised:
        run_spi_experiment(config, methods=("BO",))
    traceback_text = str(raised.value.__cause__)
    assert "in action" in traceback_text and "_Unpicklable: replicate 5" in traceback_text
    assert_no_child_process()


def _run_with_fork_refused(config, methods):
    os.fork = _refuse_fork  # this process is the pool's worker, discarded after the test
    return run_spi_experiment(config, methods)


def test_a_run_inside_a_pool_worker_stays_inline(monkeypatch):
    # a daemonic process may not start children, so its replicates run inline
    config = small_config(n_sim=4, n_boot=40, n_mc=200)
    monkeypatch.setattr(util, "usable_cpus", lambda: 2)
    direct = run_spi_experiment(config, methods=("BO",))
    with multiprocessing.get_context("fork").Pool(1) as pool:
        nested = pool.apply(_run_with_fork_refused, (config, ("BO",)))
    assert nested.criteria == direct.criteria
    _assert_same_samples(nested.samples, direct.samples)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_refit_bug_propagates_out_of_the_experiment(monkeypatch, cpus):
    # only a SpimaxError marks a replicate failed; a programming error in
    # the bootstrap refit must surface as itself
    def batch_eblup(data, spec, Y):
        raise TypeError("refit bug")

    monkeypatch.setattr(bootstrap, "batch_eblup", batch_eblup)
    monkeypatch.setattr(util, "usable_cpus", lambda: cpus)
    with pytest.raises(TypeError, match="refit bug"):
        run_spi_experiment(small_config(n_sim=2), methods=("BS",))
    assert_no_child_process()

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spimax import maxstat
from spimax.errors import (
    AlphaOutOfRange,
    MissingPerCluster,
    ProviderInconsistent,
    ShapeMismatch,
)
from spimax.estimation import FitResult
from spimax.model import VarianceComponents


def _fit(mu, scale):
    mu = np.asarray(mu, dtype=float)
    return FitResult(
        beta_hat=np.zeros(2),
        u_hat=np.zeros(mu.size),
        mu_hat=mu,
        theta=VarianceComponents(sigma2_u=1.0, sigma2_e=1.0),
        scale=np.asarray(scale, dtype=float),
        loglik_restricted=0.0,
    )


def test_single_step_test_rejects_a_shape_mismatch():
    c = maxstat.CriticalValue(value=2.0, method="BS", alpha=0.05)
    with pytest.raises(ShapeMismatch):
        maxstat.single_step_test([1.0, 2.0], [1.0], [0.0, 0.0], c)
    with pytest.raises(ShapeMismatch):
        maxstat.single_step_test([1.0, 2.0], [1.0, 1.0], [0.0], c)


def test_single_step_test_floors_zero_scales():
    c = maxstat.CriticalValue(value=2.0, method="BS", alpha=0.05)
    out = maxstat.single_step_test([1e-6], [0.0], [0.0], c)
    assert np.isfinite(out.statistic) and out.statistic == 1e-6 / 1e-12
    assert out.t.tolist() == [1e-6 / 1e-12]


def test_single_step_test_t_is_the_floored_studentized_vector():
    rng = np.random.default_rng(23)
    mu, h = rng.normal(size=40) * 50, rng.normal(size=40) * 50
    scale = rng.uniform(0.0, 3.0, size=40)
    scale[::7] = 0.0
    c = maxstat.CriticalValue(value=2.0, method="BS", alpha=0.05)
    out = maxstat.single_step_test(mu, scale, h, c)
    want = np.abs(mu - h) / np.maximum(scale, maxstat.SCALE_FLOOR)
    assert np.array_equal(out.t, want)
    assert out.statistic == want.max()
    assert np.array_equal(out.decisions, want >= 2.0)


def test_single_step_test_decisions_use_per_cluster_thresholds():
    mu = np.array([1.5, 1.5, 2.5, 0.5])
    c = maxstat.CriticalValue(
        value=0.9, method="BE", alpha=0.1, per_cluster=np.array([1.0, 2.0, 2.5, 0.1])
    )
    out = maxstat.single_step_test(mu, np.ones(4), np.zeros(4), c)
    assert np.array_equal(out.decisions, out.t >= c.per_cluster)
    assert out.decisions.tolist() == [True, False, True, True]


def test_critical_value_validation():
    with pytest.raises(AlphaOutOfRange):
        maxstat.CriticalValue(value=2.0, method="BS", alpha=1.5)
    with pytest.raises(ShapeMismatch):
        maxstat.CriticalValue(value=-1.0, method="BS", alpha=0.05)
    with pytest.raises(ShapeMismatch):
        maxstat.CriticalValue(value=2.0, method="XX", alpha=0.05)
    with pytest.raises(MissingPerCluster):
        maxstat.CriticalValue(value=2.0, method="BE", alpha=0.05)
    with pytest.raises(MissingPerCluster):
        maxstat.CriticalValue(value=2.0, method="BS", alpha=0.05, per_cluster=np.ones(3))


def test_build_spi_symmetric_half_widths():
    rng = np.random.default_rng(5)
    mu = rng.normal(size=8) * 100
    scale = rng.uniform(0.1, 2.0, size=8)
    c = maxstat.CriticalValue(value=2.5, method="BS", alpha=0.05)
    iv = maxstat.build_spi(_fit(mu, scale), c)
    # identical half-width added above and subtracted below, bit for bit
    assert np.array_equal(iv.upper, mu + 2.5 * scale)
    assert np.array_equal(iv.lower, mu - 2.5 * scale)
    assert_allclose(iv.upper + iv.lower, 2 * mu, rtol=1e-14)
    assert iv.critical.alpha == 0.05


def test_build_spi_per_cluster_thresholds():
    mu = np.zeros(3)
    scale = np.ones(3)
    c = maxstat.CriticalValue(
        value=0.9, method="BE", alpha=0.1, per_cluster=np.array([1.0, 2.0, 3.0])
    )
    iv = maxstat.build_spi(_fit(mu, scale), c)
    assert_allclose(iv.upper, [1.0, 2.0, 3.0])
    with pytest.raises(ShapeMismatch):
        maxstat.build_spi(_fit(np.zeros(4), np.ones(4)), c)


def test_covers_all_closed_endpoints():
    c = maxstat.CriticalValue(value=1.0, method="BO", alpha=0.05)
    iv = maxstat.build_spi(_fit([0.0, 0.0], [1.0, 2.0]), c)
    assert maxstat.covers_all(iv, np.array([1.0, -2.0]))  # exactly on the boundary
    assert not maxstat.covers_all(iv, np.array([1.0001, 0.0]))


def test_single_step_ties_reject():
    c = maxstat.CriticalValue(value=2.0, method="BS", alpha=0.05)
    out = maxstat.single_step_test(
        np.array([2.0, 1.0]), np.ones(2), np.zeros(2), c
    )
    assert out.statistic == 2.0
    assert out.decisions.tolist() == [True, False]
    assert out.decisions.any()


def test_paired_contrast_layout_rejects():
    # 52 paired differences over 104 clusters, one strongly nonzero
    D = 104
    A = np.zeros((52, D))
    for d in range(52):
        A[d, 2 * d] = 1.0
        A[d, 2 * d + 1] = -1.0
    assert np.all(A.sum(axis=1) == 0)
    mu_h = np.zeros(52)
    mu_h[17] = 10.495
    crit = maxstat.CriticalValue(value=8.673, method="BS", alpha=0.05)
    out = maxstat.single_step_test(mu_h, np.ones(52), np.zeros(52), crit)
    assert out.statistic == pytest.approx(10.495)
    assert out.decisions.any()
    assert out.decisions.sum() == 1


def _provider_from(abs_draws, alpha):
    B = abs_draws.shape[0]
    k = min(int(np.floor((1 - alpha) * B)) + 1, B)

    def provider(subset):
        idx = np.array(sorted(subset), dtype=int)
        m = abs_draws[:, idx].max(axis=1)
        return np.partition(m, k - 1)[k - 1]

    return provider


def test_step_down_superset_of_single_step():
    rng = np.random.default_rng(11)
    draws = np.abs(rng.normal(size=(400, 12)))
    t = rng.normal(scale=2.0, size=12)
    provider = _provider_from(draws, 0.1)
    c_full = provider(range(12))
    single = set(np.flatnonzero(np.abs(t) >= c_full))
    stepdown = set(maxstat.step_down_test(t, provider, 0.1).tolist())
    assert single <= stepdown


def test_step_down_trace_and_thresholds():
    rng = np.random.default_rng(13)
    draws = np.abs(rng.normal(size=(500, 6)))
    t = np.array([50.0, 0.1, 0.2, 0.1, 0.05, 2.1])
    seen = []
    base = _provider_from(draws, 0.05)

    def recording(subset):
        seen.append(tuple(sorted(subset)))
        return base(subset)

    rejected = maxstat.step_down_test(t, recording, 0.05)
    assert 0 in rejected
    assert seen[0] == tuple(range(6))
    if len(seen) > 1:
        assert 0 not in seen[1]
        assert base(seen[1]) <= base(seen[0])


def test_step_down_no_rejections():
    draws = np.abs(np.random.default_rng(17).normal(size=(300, 5)))
    out = maxstat.step_down_test(np.zeros(5), _provider_from(draws, 0.05), 0.05)
    assert out.size == 0


def test_step_down_rejects_inconsistent_provider():
    calls = {"n": 0}

    def bad(subset):
        calls["n"] += 1
        return 0.5 * calls["n"]  # grows as the set shrinks

    with pytest.raises(ProviderInconsistent):
        # first step rejects only the two large components, second call
        # then returns a larger threshold than the first
        maxstat.step_down_test(np.array([3.0, 0.6, 0.1]), bad, 0.05)

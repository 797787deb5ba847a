"""Fits on unbalanced and unusual layouts agree with the dense oracles.

Mostly singleton or paired clusters next to one large cluster, a covariate
that is constant within clusters, and p = 0 to 5 slope columns: at the
fitted theta, beta and the predictions equal the dense GLS/BLUP, and the
dense REML score in sigma2_u vanishes (or is <= 0 on the variance floor).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import make_fhm
from oracles import dense_gls_blup, dense_reml_score_terms
from spimax.estimation import batch_eblup, eblup
from spimax.model import NERM, BlockLmmData, cluster_mean_spec

RTOL = 1e-10
SCORE_RTOL = 1e-9
seeds = st.integers(min_value=0, max_value=2**32 - 1)
slopes = st.integers(min_value=0, max_value=5)


def _unit_layout(sizes, p, constant_within, seed):
    """Unit-level data on the given cluster sizes; slope 0 constant within clusters if asked."""
    rng = np.random.default_rng(seed)
    sizes = np.asarray(sizes)
    cluster = np.repeat(np.arange(sizes.size), sizes)
    X = np.column_stack([np.ones(cluster.size), rng.uniform(0.0, 1.0, (cluster.size, p))])
    if constant_within and p:
        X[:, 1] = rng.uniform(0.0, 1.0, sizes.size)[cluster]
    u = rng.normal(0.0, 1.0, sizes.size)
    y = X @ rng.uniform(-1.0, 1.0, p + 1) + u[cluster] + rng.normal(0.0, 0.7, cluster.size)
    return BlockLmmData(NERM, tuple(range(sizes.size)), sizes, y, X)


def _assert_matches_dense_oracles(data):
    spec = cluster_mean_spec(data)
    fit = eblup(data, spec)
    su, se = fit.theta.sigma2_u, fit.theta.sigma2_e
    beta, u = dense_gls_blup(data, su, se)
    mu = spec.k @ beta + spec.m * u
    assert_allclose(fit.beta_hat, beta, rtol=0, atol=RTOL * np.abs(beta).max())
    assert_allclose(fit.mu_hat, mu, rtol=0, atol=RTOL * np.abs(mu).max())
    trace, quad = dense_reml_score_terms(data, su, se)
    score = -0.5 * (trace - quad)
    if batch_eblup(data, spec, data.y[None, :])["boundary"][0]:
        assert score <= SCORE_RTOL * (abs(trace) + abs(quad))
    else:
        assert abs(score) <= SCORE_RTOL * (abs(trace) + abs(quad)), (score, trace, quad)


@settings(max_examples=8, deadline=None)
@given(
    small=st.lists(st.integers(min_value=1, max_value=2), min_size=20, max_size=60),
    large=st.integers(min_value=30, max_value=2000),
    where=st.floats(min_value=0.0, max_value=1.0),
    p=slopes,
    constant_within=st.booleans(),
    seed=seeds,
)
@example(small=[1] * 40 + [2] * 20, large=2000, where=0.5, p=5, constant_within=True, seed=3)
def test_small_clusters_beside_one_large_cluster(small, large, where, p, constant_within, seed):
    at = int(where * len(small))
    data = _unit_layout(small[:at] + [large] + small[at:], p, constant_within, seed)
    _assert_matches_dense_oracles(data)


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=12), min_size=12, max_size=40),
    p=slopes,
    constant_within=st.booleans(),
    seed=seeds,
)
def test_unbalanced_clusters_with_zero_to_five_slopes(sizes, p, constant_within, seed):
    data = _unit_layout([3, 4] + sizes, p, constant_within, seed)
    _assert_matches_dense_oracles(data)


@settings(max_examples=30, deadline=None)
@given(D=st.integers(min_value=12, max_value=80), p=slopes, seed=seeds)
def test_area_level_with_zero_to_five_slopes(D, p, seed):
    _assert_matches_dense_oracles(make_fhm(D=D, p=p, seed=seed)[0])

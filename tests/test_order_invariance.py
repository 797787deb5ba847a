"""A fit does not depend on the order of the clusters or of their units.

Reordering changes only the order of floating-point sums, so theta, beta
and the (reordered) predictions and scales agree to rounding.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import make_fhm, make_nerm
from spimax.estimation import eblup
from spimax.model import BlockLmmData, cluster_mean_spec

RTOL = 1e-12
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _permuted(data: BlockLmmData, seed: int):
    """data with its clusters, and the units inside each, in a random order."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(data.D)
    rows = np.concatenate(
        [data.offsets[d] + rng.permutation(int(data.sizes[d])) for d in order]
    )
    ev = None if data.known_error_vars is None else data.known_error_vars[order]
    ids = tuple(data.cluster_ids[d] for d in order)
    return BlockLmmData(data.model_tag, ids, data.sizes[order], data.y[rows], data.X[rows], ev), order


def _assert_same_fit(data, perm_seed):
    permuted, order = _permuted(data, perm_seed)
    fit = eblup(data, cluster_mean_spec(data))
    other = eblup(permuted, cluster_mean_spec(permuted))
    for name in ("sigma2_u", "sigma2_e"):
        want = getattr(fit.theta, name)
        if want is not None:  # the area-level model has known error variances
            assert_allclose(getattr(other.theta, name), want, rtol=RTOL, atol=0)
    pairs = ((other.beta_hat, fit.beta_hat), (other.mu_hat, fit.mu_hat[order]),
             (other.scale, fit.scale[order]))
    for got, want in pairs:
        assert_allclose(got, want, rtol=RTOL, atol=RTOL * np.abs(want).max())


@settings(max_examples=10, deadline=None)
@given(data_seed=seeds, perm_seed=seeds)
def test_unit_level_fit_ignores_cluster_and_unit_order(data_seed, perm_seed):
    data, _ = make_nerm(D=40, p=2, seed=data_seed, unbalanced=True)
    _assert_same_fit(data, perm_seed)


@settings(max_examples=10, deadline=None)
@given(data_seed=seeds, perm_seed=seeds)
def test_area_level_fit_ignores_area_order(data_seed, perm_seed):
    data, _ = make_fhm(D=40, seed=data_seed)
    _assert_same_fit(data, perm_seed)

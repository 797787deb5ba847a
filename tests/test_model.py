"""Structural tests for the data containers and their validation."""

import dataclasses

import numpy as np
import pytest

from conftest import make_fhm, make_nerm
from spimax.errors import MissingErrorVariance, RankDeficient, ShapeMismatch
from spimax.model import (
    FHM,
    NERM,
    VAR_FLOOR,
    BlockLmmData,
    MixedParameterSpec,
    VarianceComponents,
    check_contrast,
    cluster_mean_spec,
    error_variances,
    validate,
)


def flat(tag, y, X, sizes=None, ev=None, ids=None):
    """Dataset from stacked arrays; one cluster "a" unless sizes say otherwise."""
    sizes = [len(y)] if sizes is None else sizes
    ids = tuple("abcdefgh"[: len(sizes)]) if ids is None else ids
    return BlockLmmData(tag, ids, sizes, y, X, ev)


def test_stacked_layout():
    data, _ = make_nerm(D=4, n_d=3, seed=0, unbalanced=True)
    assert data.n_total == int(data.sizes.sum())
    assert data.X.shape == (data.n_total, data.p + 1)
    assert data.y.shape == (data.n_total,)
    assert data.offsets[0] == 0
    assert len(set(data.sizes)) > 1
    slices = data.cluster_slices()
    assert [sl.start for sl in slices] == list(data.offsets)
    assert [sl.stop - sl.start for sl in slices] == list(data.sizes)
    assert slices[-1].stop == data.n_total
    assert data.known_error_vars is None
    validate(data)


def test_fhm_layout():
    data, truth = make_fhm(D=5, seed=1)
    np.testing.assert_array_equal(data.known_error_vars, truth["error_vars"])
    assert np.all(data.sizes == 1)
    validate(data)


def test_validate_rejects_bad_intercept():
    X = np.column_stack([np.full(3, 2.0), np.arange(3.0)])
    with pytest.raises(ShapeMismatch, match="cluster 'a': first design column"):
        validate(flat(NERM, np.zeros(3), X))
    # the message names the cluster holding the first bad row
    X = np.column_stack([np.ones(6), np.arange(6.0)])
    X[4, 0] = 0.0
    with pytest.raises(ShapeMismatch, match="cluster 'b': first design column"):
        validate(flat(NERM, np.zeros(6), X, sizes=[2, 3, 1]))


def test_validate_rejects_rank_deficiency():
    X = np.column_stack([np.ones(4), np.ones(4)])
    with pytest.raises(RankDeficient):
        validate(flat(NERM, np.zeros(4), X))


def test_validate_rejects_unknown_tag():
    with pytest.raises(ShapeMismatch):
        validate(flat("other", np.zeros(2), np.ones((2, 1))))


def test_validate_area_level_requirements():
    one = np.ones((1, 1))
    with pytest.raises(MissingErrorVariance):
        validate(flat(FHM, [1.0], one))
    with pytest.raises(MissingErrorVariance):
        validate(flat(FHM, [1.0], one, ev=[0.0]))
    with pytest.raises(ShapeMismatch):
        validate(flat(FHM, [1.0, 2.0], np.ones((2, 1)), ev=[0.5]))
    # known error variance is meaningless for the unit-level model
    with pytest.raises(ShapeMismatch):
        validate(flat(NERM, [1.0], one, ev=[0.5]))
    # a bad variance is reported for the cluster that holds it
    X = np.column_stack([np.ones(4), np.arange(4.0)])
    for bad in (np.nan, 0.0, -0.25):
        data = flat(FHM, np.zeros(4), X, sizes=[1, 1, 1, 1], ev=[0.5, 0.4, bad, 0.3])
        with pytest.raises(MissingErrorVariance) as exc:
            validate(data)
        assert str(exc.value) == f"cluster 'c': known_error_var must be positive, got {bad}"


def test_validate_rejects_inconsistent_layout():
    X = np.column_stack([np.ones(4), np.arange(4.0)])
    cases = [
        (flat(NERM, np.zeros(4), X, sizes=[2, 1]), "cluster sizes sum to 3 for 4 responses"),
        (flat(NERM, np.zeros(4), X[:3], sizes=[2, 2]), "X has 3 rows for 4 responses"),
        (flat(NERM, np.zeros(4), X, sizes=[2, 2], ids=("a",)), "1 cluster ids for 2 clusters"),
        (flat(NERM, np.zeros(4), X, sizes=[2, 0, 2]), "cluster 'b' is empty"),
    ]
    for data, message in cases:
        with pytest.raises(ShapeMismatch) as exc:
            validate(data)
        assert str(exc.value) == message


def test_data_rejects_non_finite():
    one = np.ones((1, 1))
    with pytest.raises(ShapeMismatch, match="y contains non-finite entries"):
        flat(NERM, [np.nan], one)
    with pytest.raises(ShapeMismatch, match="X contains non-finite entries"):
        flat(NERM, [1.0], np.full((1, 1), np.inf))
    # the first cluster with a bad entry decides, y before X within a cluster
    y, X = np.zeros(4), np.ones((4, 1))
    y[3], X[1, 0] = np.nan, np.inf
    with pytest.raises(ShapeMismatch, match="X contains"):
        flat(NERM, y, X, sizes=[2, 2])
    with pytest.raises(ShapeMismatch, match="y contains"):
        flat(NERM, y, X, sizes=[1, 3])


def test_variance_components_floor_and_immutable():
    theta = VarianceComponents(sigma2_u=0.0, sigma2_e=-3.0)
    assert theta.sigma2_u == VAR_FLOOR
    assert theta.sigma2_e == VAR_FLOOR
    with pytest.raises(dataclasses.FrozenInstanceError):
        theta.sigma2_u = 1.0
    with pytest.raises(ShapeMismatch):
        VarianceComponents(sigma2_u=np.nan)


def test_error_variances_per_unit():
    data, _ = make_nerm(D=4, n_d=3, seed=3, unbalanced=True)
    r = error_variances(data, VarianceComponents(sigma2_u=1.0, sigma2_e=0.25))
    np.testing.assert_array_equal(r, np.full(data.n_total, 0.25))
    with pytest.raises(ShapeMismatch, match="requires sigma2_e"):
        error_variances(data, VarianceComponents(sigma2_u=1.0))
    area, _ = make_fhm(D=6, seed=3)
    r = error_variances(area, VarianceComponents(sigma2_u=1.0))
    np.testing.assert_array_equal(r, area.known_error_vars)


def test_mixed_parameter_spec_shapes():
    with pytest.raises(ShapeMismatch):
        MixedParameterSpec(k=np.ones((3, 2)), m=np.ones(4))
    spec = MixedParameterSpec(k=np.ones((3, 2)), m=np.ones(3))
    assert spec.k.dtype == float


def test_check_contrast_returns_floats_and_rejects_bad_shapes():
    A = check_contrast([[1, -1, 0], [0, 0, 2]], 3)
    assert A.dtype == float
    np.testing.assert_array_equal(A, [[1.0, -1.0, 0.0], [0.0, 0.0, 2.0]])
    for bad in (np.ones((2, 4)), np.zeros((0, 3)), np.ones(3), np.ones((1, 1, 3))):
        with pytest.raises(ShapeMismatch, match=r"at least one row and 3 columns, got \("):
            check_contrast(bad, 3)


def test_cluster_mean_spec_targets_within_cluster_average():
    data, _ = make_nerm(D=4, n_d=3, seed=9)
    spec = cluster_mean_spec(data)
    assert spec.k.shape == (4, data.p + 1)
    np.testing.assert_array_equal(spec.k[2], data.X[data.cluster_slices()[2]].mean(axis=0))
    np.testing.assert_array_equal(spec.m, np.ones(4))
    # bit for bit the per-cluster mean, on sizes 2 to 39
    data, _ = make_nerm(D=60, n_d=20, p=3, seed=9, unbalanced=True)
    want = np.vstack([data.X[sl].mean(axis=0) for sl in data.cluster_slices()])
    np.testing.assert_array_equal(cluster_mean_spec(data).k, want)

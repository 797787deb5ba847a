"""Tests for critical values simulated from the joint normal law."""

import sys
import tracemalloc

import numpy as np
import pytest

from conftest import make_fhm, make_nerm
from oracles import dense_loading, max_abs_normal_quantile
from spimax import util
from spimax.errors import ShapeMismatch
from spimax.estimation import eblup, g1, g2
from spimax.mc import (
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
    K = assemble_precision(tiny_unit_data(), theta).dense()
    assert np.array_equal(K, np.array([[1.0, 1.0], [1.0, 2.0]]))


def test_precision_matches_dense_nerm():
    data, truth = make_nerm(D=7, n_d=4, seed=3, unbalanced=True)
    theta = VarianceComponents(sigma2_u=truth["sigma2_u"], sigma2_e=truth["sigma2_e"])
    K_dense, _, _ = dense_precision(data, theta)
    np.testing.assert_allclose(assemble_precision(data, theta).dense(), K_dense, atol=1e-10)


def test_precision_matches_dense_fhm():
    data, truth = make_fhm(D=9, seed=4)
    theta = VarianceComponents(sigma2_u=truth["sigma2_u"])
    K_dense, _, _ = dense_precision(data, theta)
    np.testing.assert_allclose(assemble_precision(data, theta).dense(), K_dense, atol=1e-10)


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
    cov = model.covariance.dense()
    se = np.sqrt(
        (np.outer(np.diag(cov), np.diag(cov)) + cov**2) / reps
    )
    assert np.all(np.abs(emp - cov) <= 8.0 * se)


def test_joint_normal_shapes_and_factor():
    data, truth = make_fhm(D=6, seed=8)
    theta = VarianceComponents(sigma2_u=truth["sigma2_u"])
    model = build_joint_normal(data, theta)
    dim = data.p + 1 + data.D
    assert model.precision.dense().shape == (dim, dim)
    np.testing.assert_allclose(
        model.cov_factor.dense() @ model.cov_factor.dense().T,
        model.covariance.dense(),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        model.covariance.dense() @ model.precision.dense(), np.eye(dim), atol=1e-9
    )


def identity_arrow(D, kind):
    return Arrow(corner=np.eye(1), border=np.zeros((D, 1)), diag=np.ones(D), kind=kind)


def independent_components_model(D):
    """Synthetic joint law whose mapped components are iid standard normal."""
    model = JointNormalModel(
        precision=identity_arrow(D, "symmetric"),
        covariance=identity_arrow(D, "gram"),
        cov_factor=identity_arrow(D, "lower"),
    )
    spec = MixedParameterSpec(k=np.zeros((D, 1)), m=np.ones(D))
    return model, spec


def test_mc_matches_independent_normal_quantile():
    D, alpha = 30, 0.05
    model, spec = independent_components_model(D)
    assert np.array_equal(dense_loading(spec), np.hstack([np.zeros((D, 1)), np.eye(D)]))
    cv = critical_value_mc(model, spec, k_draws=100_000, alpha=alpha, master_seed=42)
    assert abs(cv.value - max_abs_normal_quantile(D, alpha)) < 0.02


def _with_cpus(monkeypatch, cpus):
    monkeypatch.setattr(util, "usable_cpus", lambda: cpus)


def test_mc_deterministic_and_thread_invariant(monkeypatch):
    model, spec = independent_components_model(12)
    kwargs = dict(k_draws=20_000, alpha=0.1, master_seed=7)
    base = critical_value_mc(model, spec, **kwargs).value
    assert critical_value_mc(model, spec, **kwargs).value == base
    for cpus in (1, 3):
        _with_cpus(monkeypatch, cpus)
        assert critical_value_mc(model, spec, **kwargs).value == base
    assert critical_value_mc(model, spec, k_draws=20_000, alpha=0.1, master_seed=8).value != base


def test_mc_thread_and_chunk_invariant(monkeypatch):
    # three chunks, the last partial: the worker count must not change a bit,
    # also with more workers than cores switching as often as they can
    data, _ = make_nerm(D=20, seed=12)
    theta = eblup(data).theta
    model = build_joint_normal(data, theta)
    spec = cluster_mean_spec(data)
    contrast = np.random.default_rng(4).normal(size=(6, data.D))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for extra in ({}, {"contrast": contrast}):
            kwargs = dict(k_draws=2 * DRAW_CHUNK + 17, alpha=0.05, master_seed=31, **extra)
            values = []
            for cpus in (1, 3):
                _with_cpus(monkeypatch, cpus)
                values.append(critical_value_mc(model, spec, **kwargs).value)
            assert values[0] == values[1]
    finally:
        sys.setswitchinterval(interval)


def test_mc_holds_one_block_of_draws():
    # each chunk draws in blocks, so memory does not grow with DRAW_CHUNK x (q + D)
    data, _ = make_nerm(D=300, p=2, seed=8)
    model = build_joint_normal(data, eblup(data).theta)
    spec = cluster_mean_spec(data)
    tracemalloc.start()
    try:
        critical_value_mc(model, spec, k_draws=2 * DRAW_CHUNK, alpha=0.05, master_seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
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


def test_model_scales_equal_prediction_variance_split():
    # diag(L K^-1 L') = g1 + g2 for the mixed-parameter loading rows
    for data, truth in (make_nerm(D=12, seed=2), make_fhm(D=12, seed=2)):
        theta = eblup(data).theta
        spec = cluster_mean_spec(data)
        model = build_joint_normal(data, theta)
        L = dense_loading(spec)
        scales = np.sqrt(np.einsum("di,ij,dj->d", L, model.covariance.dense(), L))
        expected = np.sqrt(g1(data, theta) * spec.m**2 + g2(data, theta, spec))
        np.testing.assert_allclose(scales, expected, rtol=1e-9)


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

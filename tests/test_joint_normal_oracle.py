"""Arrow-structured joint normal law against the dense oracles.

The library never forms the (q + D)-square precision or covariance; these
property tests rebuild both densely and check the factor, the model-implied
scales (with and without a contrast) and the ridge band scales against them.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import make_fhm, make_nerm
from oracles import (
    dense_assemble_precision,
    dense_joint_normal,
    dense_loading_scales,
)
from spimax.analytic import ridge_interval_scales
from spimax.errors import ShapeMismatch
from spimax.mc import build_joint_normal, model_scales
from spimax.model import NERM, VAR_FLOOR, MixedParameterSpec, VarianceComponents

RTOL = 1e-10
# Both the dense oracle and the arrow path lose about cond * 1e-17 in
# relative terms, cond being the condition number of the Jacobi-scaled
# precision (measured on 3000 random laws: at most 3e-11 below 1e6, up to
# 3e-7 above 1e7, for either path).  Agreement to RTOL is only possible
# below this bound, so laws above it are not drawn.
MAX_SCALED_COND = 1e6

sigma2_u_values = st.one_of(
    st.sampled_from([VAR_FLOOR, 10 * VAR_FLOOR, 1e3]),
    st.floats(min_value=1e-6, max_value=1e3),
)


@st.composite
def laws(draw):
    """(data, theta, spec, contrast) for either model family."""
    family = draw(st.sampled_from(["NERM", "FHM"]))
    D = draw(st.integers(min_value=1, max_value=40))
    p = draw(st.integers(min_value=0, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    sigma2_u = draw(sigma2_u_values)
    if family == "NERM":
        data, _ = make_nerm(D=D, n_d=3, p=p, seed=seed, unbalanced=True)
        assume(np.linalg.matrix_rank(data.X) == p + 1)
        theta = VarianceComponents(
            sigma2_u=sigma2_u, sigma2_e=draw(st.floats(min_value=0.05, max_value=20.0))
        )
    else:
        assume(D > p)
        data, _ = make_fhm(D=D, p=p, seed=seed)
        theta = VarianceComponents(sigma2_u=sigma2_u)
    K = dense_assemble_precision(data, theta)
    jacobi = 1.0 / np.sqrt(np.diag(K))
    assume(np.linalg.cond(K * np.outer(jacobi, jacobi)) <= MAX_SCALED_COND)
    rng = np.random.default_rng(seed)
    spec = MixedParameterSpec(k=rng.normal(size=(D, p + 1)), m=rng.uniform(0.2, 2.0, size=D))
    contrast = rng.normal(size=(draw(st.integers(min_value=1, max_value=5)), D))
    return data, theta, spec, contrast


def assert_close(actual, expected):
    """Entrywise agreement to RTOL relative to the largest oracle entry."""
    scale = np.abs(expected).max()
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=RTOL * scale)


property_settings = settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)


@property_settings
@given(laws())
def test_arrow_parts_match_dense_oracle(law):
    data, theta, _, _ = law
    model = build_joint_normal(data, theta)
    _, cov, chol = dense_joint_normal(data, theta)
    assert_close(model.precision.dense(), dense_assemble_precision(data, theta))
    F = model.cov_factor.dense()
    # lower triangular with a positive diagonal: the Cholesky factor of K^-1
    assert_close(F, chol)
    assert_close(F @ F.T, cov)
    assert_close(model.covariance.dense(), cov)
    q = data.p + 1
    assert model.cov_factor.nbytes == 8 * (q * (q + data.D) + data.D)


@property_settings
@given(laws())
def test_model_scales_match_dense_oracle(law):
    data, theta, spec, contrast = law
    model = build_joint_normal(data, theta)
    np.testing.assert_allclose(
        model_scales(model, spec), dense_loading_scales(data, theta, spec), rtol=RTOL
    )
    np.testing.assert_allclose(
        model_scales(model, spec, contrast),
        dense_loading_scales(data, theta, spec, contrast),
        rtol=RTOL,
    )


@property_settings
@given(laws())
def test_ridge_solves_match_dense_oracle(law):
    data, theta, spec, _ = law
    if data.model_tag == NERM:
        np.testing.assert_allclose(
            ridge_interval_scales(data, theta, spec),
            dense_loading_scales(data, theta, spec),
            rtol=RTOL,
        )
    else:
        with pytest.raises(ShapeMismatch, match="unit-level"):
            ridge_interval_scales(data, theta, spec)

import dataclasses
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from spimax.model import BlockLmmData

sys.path.insert(0, str(Path(__file__).parent))

# a failing example prints the @reproduce_failure blob that replays it exactly
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")


def assert_no_child_process():
    """The test process has no child process, running or exited but not reaped."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    left = "one still running" if pid == 0 else f"{pid}, exited but not reaped"
    raise AssertionError(f"the test process has a child process left: {left}")


@pytest.fixture(autouse=True)
def _no_child_process_left():
    # the simulation workers are plain forks, which multiprocessing does not see
    yield
    assert_no_child_process()


def make_nerm(
    D=10,
    n_d=5,
    p=1,
    sigma2_e=0.5,
    sigma2_u=1.0,
    beta=None,
    seed=0,
    unbalanced=False,
):
    """Random unit-level dataset; returns (data, truth dict)."""
    rng = np.random.default_rng(seed)
    beta = np.ones(p + 1) if beta is None else np.asarray(beta, dtype=float)
    sizes, Xs, ys = [], [], []
    u = rng.normal(0.0, np.sqrt(sigma2_u), size=D)
    for d in range(D):
        n = int(rng.integers(2, 2 * n_d)) if unbalanced else n_d
        X = np.column_stack([np.ones(n)] + [rng.uniform(0, 1, n) for _ in range(p)])
        e = rng.normal(0.0, np.sqrt(sigma2_e), size=n)
        sizes.append(n)
        Xs.append(X)
        ys.append(X @ beta + u[d] + e)
    data = BlockLmmData("NERM", tuple(range(D)), sizes, np.concatenate(ys), np.vstack(Xs))
    return data, {"beta": beta, "u": u, "sigma2_e": sigma2_e, "sigma2_u": sigma2_u}


def make_fhm(D=15, p=1, sigma2_u=0.5, error_vars=None, beta=None, seed=0):
    """Random area-level dataset with known heteroscedastic error variances."""
    rng = np.random.default_rng(seed)
    beta = np.ones(p + 1) if beta is None else np.asarray(beta, dtype=float)
    if error_vars is None:
        error_vars = rng.uniform(0.2, 0.8, size=D)
    else:
        error_vars = np.asarray(error_vars, dtype=float)
    u = rng.normal(0.0, np.sqrt(sigma2_u), size=D)
    X, y = np.empty((D, p + 1)), np.empty(D)
    for d in range(D):
        X[d] = [1.0] + [rng.uniform(0, 1) for _ in range(p)]
        y[d] = X[d] @ beta + u[d] + rng.normal(0.0, np.sqrt(error_vars[d]))
    data = BlockLmmData("FHM", tuple(range(D)), np.ones(D), y, X, error_vars)
    return data, {"beta": beta, "u": u, "sigma2_u": sigma2_u, "error_vars": error_vars}


def rescaled(data, c):
    """y * c; known error variances * c^2 for the area-level model."""
    ev = data.known_error_vars
    ev = None if ev is None else ev * c**2
    return dataclasses.replace(data, y=data.y * c, known_error_vars=ev)

import sys
from pathlib import Path

import numpy as np

from spimax.model import BlockLmmData, ClusterBlock

sys.path.insert(0, str(Path(__file__).parent))


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
    blocks = []
    u = rng.normal(0.0, np.sqrt(sigma2_u), size=D)
    for d in range(D):
        n = int(rng.integers(2, 2 * n_d)) if unbalanced else n_d
        X = np.column_stack([np.ones(n)] + [rng.uniform(0, 1, n) for _ in range(p)])
        e = rng.normal(0.0, np.sqrt(sigma2_e), size=n)
        y = X @ beta + u[d] + e
        blocks.append(ClusterBlock(cluster_id=d, y=y, X=X))
    data = BlockLmmData(model_tag="NERM", clusters=tuple(blocks))
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
    blocks = []
    for d in range(D):
        X = np.column_stack([[1.0]] + [[rng.uniform(0, 1)] for _ in range(p)])
        y = X[0] @ beta + u[d] + rng.normal(0.0, np.sqrt(error_vars[d]))
        blocks.append(
            ClusterBlock(cluster_id=d, y=[y], X=X, known_error_var=error_vars[d])
        )
    data = BlockLmmData(model_tag="FHM", clusters=tuple(blocks))
    return data, {"beta": beta, "u": u, "sigma2_u": sigma2_u, "error_vars": error_vars}


def rescaled(data, c):
    """y * c; known error variances * c^2 for the area-level model."""
    blocks = tuple(
        ClusterBlock(
            cluster_id=b.cluster_id,
            y=b.y * c,
            X=b.X,
            known_error_var=None if b.known_error_var is None else b.known_error_var * c**2,
        )
        for b in data.clusters
    )
    return BlockLmmData(model_tag=data.model_tag, clusters=blocks)

"""Dense reference implementations used as oracles in the tests.

Everything here builds the full n x n covariance and works with plain
matrix algebra, deliberately ignoring the block structure the library
exploits.  Slow but unambiguous.
"""

import math

import numpy as np
from scipy import stats


def dense_V(data, sigma2_u, sigma2_e=None):
    n = data.n_total
    V = np.zeros((n, n))
    for blk, sl in zip(data.clusters, data.cluster_slices()):
        J = np.ones((blk.n, blk.n))
        if data.model_tag == "FHM":
            V[sl, sl] = blk.known_error_var * np.eye(blk.n) + sigma2_u * J
        else:
            V[sl, sl] = sigma2_e * np.eye(blk.n) + sigma2_u * J
    return V


def dense_gls_blup(data, sigma2_u, sigma2_e=None):
    """GLS beta and per-cluster BLUP via explicit inverses."""
    V = dense_V(data, sigma2_u, sigma2_e)
    Vinv = np.linalg.inv(V)
    X, y = data.X, data.y
    A = X.T @ Vinv @ X
    beta = np.linalg.solve(A, X.T @ Vinv @ y)
    resid = y - X @ beta
    u = np.empty(data.D)
    for d, (blk, sl) in enumerate(zip(data.clusters, data.cluster_slices())):
        Vd_inv = np.linalg.inv(V[sl, sl])
        u[d] = sigma2_u * np.ones(blk.n) @ Vd_inv @ resid[sl]
    return beta, u


def dense_restricted_loglik(data, sigma2_u, sigma2_e=None):
    V = dense_V(data, sigma2_u, sigma2_e)
    Vinv = np.linalg.inv(V)
    X, y = data.X, data.y
    A = X.T @ Vinv @ X
    beta = np.linalg.solve(A, X.T @ Vinv @ y)
    r = y - X @ beta
    ypy = r @ Vinv @ r
    n, q = X.shape
    _, ld_v = np.linalg.slogdet(V)
    _, ld_a = np.linalg.slogdet(A)
    return -0.5 * (ld_v + ld_a + ypy + (n - q - 1) * math.log(2 * math.pi))


def dense_g1_g2(data, spec, sigma2_u, sigma2_e=None):
    """MSE components from the defining matrix expressions."""
    V = dense_V(data, sigma2_u, sigma2_e)
    Vinv = np.linalg.inv(V)
    X = data.X
    A = X.T @ Vinv @ X
    Ainv = np.linalg.inv(A)
    g1 = np.empty(data.D)
    g2 = np.empty(data.D)
    for d, (blk, sl) in enumerate(zip(data.clusters, data.cluster_slices())):
        Vd_inv = np.linalg.inv(V[sl, sl])
        one = np.ones(blk.n)
        m = spec.m[d]
        g1[d] = m * (sigma2_u - sigma2_u * one @ Vd_inv @ one * sigma2_u) * m
        a = m * sigma2_u * one @ Vd_inv  # 1 x n_d
        b = spec.k[d] - blk.X.T @ a
        g2[d] = b @ Ainv @ b
    return g1, g2


def grid_reml(data, se_grid=None, su_grid=None, refine=2):
    """Two-stage lattice search over the restricted log-likelihood."""
    if data.model_tag == "FHM":
        su_grid = np.logspace(-4, 2, 121) if su_grid is None else su_grid
        for _ in range(refine + 1):
            lls = np.array([dense_restricted_loglik(data, su) for su in su_grid])
            j = int(np.argmax(lls))
            lo, hi = su_grid[max(j - 1, 0)], su_grid[min(j + 1, su_grid.size - 1)]
            su_grid = np.linspace(lo, hi, 81)
        return None, su_grid[40]
    se_grid = np.logspace(-3, 2, 61) if se_grid is None else se_grid
    su_grid = np.logspace(-4, 2, 61) if su_grid is None else su_grid
    for _ in range(refine + 1):
        lls = np.array(
            [[dense_restricted_loglik(data, su, se) for su in su_grid] for se in se_grid]
        )
        i, j = np.unravel_index(int(np.argmax(lls)), lls.shape)
        se_lo, se_hi = se_grid[max(i - 1, 0)], se_grid[min(i + 1, se_grid.size - 1)]
        su_lo, su_hi = su_grid[max(j - 1, 0)], su_grid[min(j + 1, su_grid.size - 1)]
        se_grid = np.linspace(se_lo, se_hi, 41)
        su_grid = np.linspace(su_lo, su_hi, 41)
    return se_grid[20], su_grid[20]


def max_abs_normal_quantile(D, alpha):
    """Exact c with P(max_d |N(0,1)| <= c) = 1 - alpha for independent components."""
    return float(stats.norm.ppf(0.5 * (1.0 + (1.0 - alpha) ** (1.0 / D))))


def tube_p1_closed_form(alpha, kappa0, nu, xi0=1.0):
    """Inverse of the leading p=1 tube term when the corrections vanish."""
    return math.sqrt(nu * ((kappa0 / (math.pi * alpha)) ** (2.0 / nu) - 1.0)) / xi0


def dense_assemble_precision(data, theta):
    """Mixed-model precision C' R^-1 C + G+ as a full (q + D)-square matrix."""
    q = data.p + 1
    D = data.D
    K = np.zeros((q + D, q + D))
    if data.model_tag == "NERM":
        se = theta.sigma2_e
        t = np.add.reduceat(data.X, data.offsets, axis=0)
        K[:q, :q] = data.X.T @ data.X / se
        K[:q, q:] = t.T / se
        K[q:, :q] = t / se
        K[q:, q:] = np.diag(data.sizes / se + 1.0 / theta.sigma2_u)
    else:
        s2e = data.known_error_vars
        K[:q, :q] = np.einsum("d,di,dj->ij", 1.0 / s2e, data.X, data.X)
        K[:q, q:] = data.X.T / s2e
        K[q:, :q] = data.X / s2e[:, None]
        K[q:, q:] = np.diag(1.0 / s2e + 1.0 / theta.sigma2_u)
    return K


def dense_joint_normal(data, theta):
    """(precision, covariance, lower Cholesky factor) by dense inversion."""
    K = dense_assemble_precision(data, theta)
    cov = np.linalg.inv(K)
    cov = 0.5 * (cov + cov.T)
    return K, cov, np.linalg.cholesky(cov)


def dense_loading_scales(data, theta, spec, contrast=None):
    """sqrt(diag(L K^-1 L')) with L = (A) [k, diag(m)]."""
    _, cov, _ = dense_joint_normal(data, theta)
    L = np.hstack([spec.k, np.diag(spec.m)])
    if contrast is not None:
        L = contrast @ L
    return np.sqrt(np.einsum("di,ij,dj->d", L, cov, L))


def dense_ridge_weights(data, theta, c):
    """(l, c' K^-1 c, l_scale) from a dense solve of the mixed-model equations.

    l = R^-1 C z with K z = c.  l_scale = R^-1 |C| |z| is the size of the
    terms summed into each weight; a weight far smaller than its terms is
    cancellation, and rounding error in it scales with l_scale, not with l.
    """
    K = dense_assemble_precision(data, theta)
    z = np.linalg.solve(K, c)
    q = data.p + 1
    cz = data.X @ z[:q] + np.repeat(z[q:], data.sizes)
    cz_abs = np.abs(data.X) @ np.abs(z[:q]) + np.repeat(np.abs(z[q:]), data.sizes)
    if data.model_tag == "NERM":
        r = np.full(data.n_total, theta.sigma2_e)
    else:
        r = np.repeat(data.known_error_vars, data.sizes)
    return cz / r, float(c @ z), cz_abs / r

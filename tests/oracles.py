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
    for d, (sl, n) in enumerate(zip(data.cluster_slices(), data.sizes)):
        se = data.known_error_vars[d] if data.model_tag == "FHM" else sigma2_e
        V[sl, sl] = se * np.eye(n) + sigma2_u * np.ones((n, n))
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
    for d, sl in enumerate(data.cluster_slices()):
        Vd_inv = np.linalg.inv(V[sl, sl])
        u[d] = sigma2_u * np.ones(data.sizes[d]) @ Vd_inv @ resid[sl]
    return beta, u


def dense_restricted_loglik_terms(data, sigma2_u, sigma2_e=None):
    """log|V|, log|X'V^-1 X|, y'Py and (n - q - 1) log 2 pi.

    The restricted loglik is -1/2 their sum.  It can cancel far below the
    terms, so compare it to within a multiple of the sum of their absolute
    values, not relative to itself.
    """
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
    return ld_v, ld_a, ypy, (n - q - 1) * math.log(2 * math.pi)


def dense_restricted_loglik(data, sigma2_u, sigma2_e=None):
    ld_v, ld_a, ypy, const = dense_restricted_loglik_terms(data, sigma2_u, sigma2_e)
    return -0.5 * (ld_v + ld_a + ypy + const)


def dense_g1_g2(data, spec, sigma2_u, sigma2_e=None):
    """MSE components from the defining matrix expressions."""
    V = dense_V(data, sigma2_u, sigma2_e)
    Vinv = np.linalg.inv(V)
    X = data.X
    A = X.T @ Vinv @ X
    Ainv = np.linalg.inv(A)
    g1 = np.empty(data.D)
    g2 = np.empty(data.D)
    for d, sl in enumerate(data.cluster_slices()):
        Vd_inv = np.linalg.inv(V[sl, sl])
        one = np.ones(data.sizes[d])
        m = spec.m[d]
        g1[d] = m * (sigma2_u - sigma2_u * one @ Vd_inv @ one * sigma2_u) * m
        a = m * sigma2_u * one @ Vd_inv  # 1 x n_d
        b = spec.k[d] - X[sl].T @ a
        g2[d] = b @ Ainv @ b
    return g1, g2


def closed_form_g2(data, spec, sigma2_u, sigma2_e=None):
    """g2 from per-cluster closed forms, with no inverse of a V_d block.

    Unit level: X'V^-1 X = sum_d [C_d + sigma2_e / (sigma2_e + n_d sigma2_u)
    t_d t_d' / n_d] / sigma2_e, with C_d the centred scatter of X_d and t_d
    its column sums, and b_d = k_d - m_d sigma2_u t_d / (sigma2_e + n_d sigma2_u).
    Area level: the same with v_d = sigma2_u + psi_d in place of the block.
    Unlike dense_g1_g2 it keeps its accuracy at large sigma2_u / sigma2_e.
    """
    X = data.X
    if data.model_tag == "FHM":
        v = sigma2_u + data.known_error_vars
        A = (X.T / v) @ X
        b = spec.k - (spec.m * sigma2_u / v)[:, None] * X
    else:
        A = np.zeros((X.shape[1], X.shape[1]))
        b = np.empty(spec.k.shape)
        for d, sl in enumerate(data.cluster_slices()):
            n_d = data.sizes[d]
            t = X[sl].sum(axis=0)
            centred = X[sl] - t / n_d
            lam = sigma2_e + n_d * sigma2_u
            A += (centred.T @ centred + sigma2_e / lam * np.outer(t, t) / n_d) / sigma2_e
            b[d] = spec.k[d] - spec.m[d] * sigma2_u * t / lam
    return np.einsum("dj,dj->d", b, np.linalg.solve(A, b.T).T)


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


def dense_reml_score_terms(data, sigma2_u, sigma2_e=None):
    """(tr(P ZZ'), y'P ZZ' P y), the two terms of the REML score in sigma2_u."""
    V = dense_V(data, sigma2_u, sigma2_e)
    Vinv = np.linalg.inv(V)
    X, y = data.X, data.y
    VX = Vinv @ X
    P = Vinv - VX @ np.linalg.solve(X.T @ VX, VX.T)
    ZZ = np.zeros_like(V)
    for sl in data.cluster_slices():
        ZZ[sl, sl] = 1.0
    Py = P @ y
    return np.sum(P * ZZ), Py @ ZZ @ Py


def dense_reml_score_u(data, sigma2_u, sigma2_e=None):
    """d/d sigma2_u of the restricted loglik: -(tr(P ZZ') - y'P ZZ' P y) / 2."""
    trace, quad = dense_reml_score_terms(data, sigma2_u, sigma2_e)
    return -0.5 * (trace - quad)


def _profile_point(data, x):
    """(sigma2_u, sigma2_e) at the profile parameter x.

    Unit-level: x = sigma2_u / sigma2_e with sigma2_e = y'P y / (n - q) at
    unit sigma2_e.  Area-level: x = sigma2_u.
    """
    if data.model_tag == "FHM":
        return x, None
    V = dense_V(data, x, 1.0)
    Vinv = np.linalg.inv(V)
    X, y = data.X, data.y
    VX = Vinv @ X
    Py = Vinv @ y - VX @ np.linalg.solve(X.T @ VX, VX.T @ y)
    se = (y @ Py) / (data.n_total - X.shape[1])
    return x * se, se


def reference_reml(data, floor, hi, points=241):
    """REML by a fine log-grid search over the profile, polished by bisection.

    The profile parameter x (see _profile_point) runs over [floor, hi].
    The grid maximizer of dense_restricted_loglik brackets the optimum;
    bisection on the sign of the dense score in sigma2_u (whose sign is the
    sign of the profile slope) then narrows the bracket to rounding.  A fit
    whose score at the floor is <= 0 is the floor point.  Returns
    (sigma2_u, sigma2_e), sigma2_e None for the area-level model.
    """

    def slope(x):
        return dense_reml_score_u(data, *_profile_point(data, x))

    if slope(floor) <= 0.0:
        return _profile_point(data, floor)
    grid = np.concatenate([[floor], np.logspace(math.log10(floor), math.log10(hi), points)[1:]])
    lls = [dense_restricted_loglik(data, *_profile_point(data, x)) for x in grid]
    j = int(np.argmax(lls))
    assert j < grid.size - 1, "grid maximum at the upper end"
    lo, up = grid[max(j - 1, 0)], grid[j + 1]
    assert slope(lo) > 0.0 >= slope(up)
    while up - lo > 1e-15 * up:
        mid = math.sqrt(lo * up)
        if mid <= lo or mid >= up:
            break
        if slope(mid) > 0.0:
            lo = mid
        else:
            up = mid
    return _profile_point(data, math.sqrt(lo * up))


def reference_scenario(config, replicate):
    """generate_scenario built cluster by cluster, as it once was.

    Returns (y, X, known error variances or None, mu, k): each cluster's
    rows are formed on their own and stacked, and k_d is X_d.mean(axis=0).
    """
    from spimax.util import derive_rng

    rng = derive_rng(config.master_seed, replicate, 0)
    beta = np.asarray(config.beta, dtype=float)
    p = beta.size - 1
    D = config.D
    ys, Xs, ev = [], [], None
    if config.model_tag == "NERM":
        n_d = config.n_d
        covs = rng.uniform(0.0, 1.0, size=(D * n_d, p))
        u = math.sqrt(config.sigma2_u) * rng.standard_normal(D)
        e = math.sqrt(config.sigma2_e) * rng.standard_normal(D * n_d)
        for d in range(D):
            sl = slice(d * n_d, (d + 1) * n_d)
            X = np.column_stack([np.ones(n_d), covs[sl]])
            Xs.append(X)
            ys.append(X @ beta + u[d] + e[sl])
    else:
        ev = config.error_vars
        covs = rng.uniform(0.0, 1.0, size=(D, p))
        u = math.sqrt(config.sigma2_u) * rng.standard_normal(D)
        e = np.sqrt(ev) * rng.standard_normal(D)
        for d in range(D):
            X = np.concatenate([[1.0], covs[d]])[None, :]
            Xs.append(X)
            ys.append([float(X[0] @ beta + u[d] + e[d])])
    k = np.vstack([X.mean(axis=0) for X in Xs])
    mu = k @ beta + np.ones(D) * u
    return np.concatenate(ys), np.vstack(Xs), ev, mu, k


def loop_reml_score(data, sigma2_u, sigma2_e):
    """Unit-level GLS beta and REML score terms by a per-cluster loop.

    Nothing n x n is formed: V_d^-1 v = (v - g_d 1 1'v) / sigma2_e with
    g_d = sigma2_u / (sigma2_e + n_d sigma2_u) (Sherman-Morrison), one
    cluster at a time.  Returns (beta, (tr(P ZZ'), y'P ZZ' P y),
    (tr(P), y'P P y)): the REML score in sigma2_u, resp. sigma2_e, is
    -(trace - quad) / 2 for its pair.
    """
    q = data.X.shape[1]
    A, b, blocks = np.zeros((q, q)), np.zeros(q), []
    for sl, n in zip(data.cluster_slices(), data.sizes):
        g = sigma2_u / (sigma2_e + n * sigma2_u)
        VX = (data.X[sl] - g * data.X[sl].sum(axis=0)) / sigma2_e
        Vy = (data.y[sl] - g * data.y[sl].sum()) / sigma2_e
        A += data.X[sl].T @ VX
        b += data.X[sl].T @ Vy
        blocks.append((sl, n, g, VX))
    beta = np.linalg.solve(A, b)
    Ainv = np.linalg.inv(A)
    tr_u = quad_u = tr_e = quad_e = 0.0
    for sl, n, g, VX in blocks:
        r = data.y[sl] - data.X[sl] @ beta
        Pr = (r - g * r.sum()) / sigma2_e  # (P y)_d = V_d^-1 (y_d - X_d beta)
        s = VX.sum(axis=0)  # X_d' V_d^-1 1
        tr_u += n / (sigma2_e + n * sigma2_u) - s @ Ainv @ s
        quad_u += Pr.sum() ** 2
        tr_e += n * (1.0 - g) / sigma2_e - np.sum(Ainv * (VX.T @ VX))
        quad_e += Pr @ Pr
    return beta, (tr_u, quad_u), (tr_e, quad_e)


def loop_fhm_reml_score(data, sigma2_u):
    """Area-level GLS beta and REML score terms by a loop over the areas.

    V = diag(v_d) with v_d = sigma2_u + psi_d and Z = I, so P y = V^-1 (y -
    X beta), y'P ZZ' P y = sum_d ((y_d - x_d' beta) / v_d)^2 and tr(P ZZ')
    = sum_d 1 / v_d - tr((X'V^-1 X)^-1 X'V^-2 X).  Nothing D x D is formed.
    Returns (beta, (tr(P ZZ'), y'P ZZ' P y)); the REML score in sigma2_u is
    -(trace - quad) / 2.
    """
    q = data.X.shape[1]
    A, b, W = np.zeros((q, q)), np.zeros(q), np.zeros((q, q))
    for x, y, psi in zip(data.X, data.y, data.known_error_vars):
        v = sigma2_u + psi
        A += np.outer(x, x) / v
        b += x * y / v
        W += np.outer(x, x) / v**2
    beta = np.linalg.solve(A, b)
    v = sigma2_u + data.known_error_vars
    trace = np.sum(1.0 / v) - np.sum(np.linalg.inv(A) * W)
    quad = np.sum(((data.y - data.X @ beta) / v) ** 2)
    return beta, (trace, quad)

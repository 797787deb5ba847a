"""REML estimation, GLS/BLUP prediction, and prediction-error components.

The unit-level model inverts each block covariance V_d = sigma2_e I +
sigma2_u J in closed form (Sherman-Morrison), so one restricted-likelihood
evaluation costs O(n) after a single pass over the data.  All likelihood
work is written against a batch axis: a bootstrap refit of B responses is
one vectorized call, and a single dataset is a batch of one, so both paths
run the same estimator.

REML has one free parameter once the residual variance is profiled out:
the ratio psi = sigma2_u / sigma2_e for the unit-level model (sigma2_e =
y'P y / (n - q) in closed form) and sigma2_u for the area-level model.  Each
core returns the profile's slope and curvature for a batch of rows in one
call, with every weighted sum sum_d w_d t_d t_d' formed as a single matrix
product against the outer products t_d t_d' built once per core.  A
safeguarded Newton iteration over the rows still moving maximizes it (see
_newton_profile); a row whose slope at the floor VAR_FLOOR is <= 0 sits
exactly on the floor.  Fits run on the response divided by s, a power of
two near its standard deviation, and are mapped back, so the tolerances
and the floor act in standardized units and a fit does not depend on the
units the response was recorded in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateData,
    EmptyGrid,
    NoConvergence,
    NonPositiveShift,
    ShapeMismatch,
    SingularSystem,
)
from .model import (
    FHM,
    NERM,
    VAR_FLOOR,
    BlockLmmData,
    MixedParameterSpec,
    VarianceComponents,
    check_spec,
    cluster_mean_spec,
    replace_response,
    validate,
)

MAX_ITER = 200
# a row has converged once its Newton step, or its bracket, is this small
# relative to the parameter
STEP_TOL = 1e-12
_LOG2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients, predicted effects, targets and their scales."""

    beta_hat: np.ndarray
    u_hat: np.ndarray
    mu_hat: np.ndarray
    theta: VarianceComponents
    scale: np.ndarray
    loglik_restricted: float


# ======================================================================
# batched likelihood cores
# ======================================================================

def _solve_batched(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("normal equations are singular") from exc


def _outer_rows(t: np.ndarray) -> np.ndarray:
    """t_d t_d' flattened to one row per cluster, (D, q * q)."""
    return (t[:, :, None] * t[:, None, :]).reshape(t.shape[0], -1)


def _weighted_outer(core, w: np.ndarray) -> np.ndarray:
    """sum_d w_md t_d t_d' for every row of w, as one matrix product."""
    return (w.reshape(-1, w.shape[-1]) @ core.tt).reshape(w.shape[:-1] + (core.q, core.q))


def _residual_sums(core, st, beta):
    """Cluster sums rho_d = s_d - t_d' beta of y - X beta, and |y - X beta|^2.

    The squared norm is the unweighted part of y'V^-1 y, zero for the
    area-level model.
    """
    rtr = (
        st["yty"]
        - 2.0 * np.einsum("mi,mi->m", st["xty"], beta)
        + np.einsum("mi,ij,mj->m", beta, core.xtx, beta)
    )
    return st["s"] - beta @ core.t.T, rtr


def _profile_forms(core, st, a: np.ndarray):
    """y'P y with its first two derivatives, and the log|A| derivative traces.

    a stacks the cluster weights of V^-1 and their first two derivatives in
    the solver's parameter, shape (3, m, D): A = X'X + sum_d a_d t_d t_d'
    and y'V^-1 y = y'y + sum_d a_d s_d^2 at unit residual variance (X'X and
    y'y are zero for the area-level model).  With rho_d = s_d - t_d' beta,
    r = y'P y = |y - X beta|^2 + sum_d a_d rho_d^2, r' = sum_d a'_d rho_d^2
    and r'' = sum_d a''_d rho_d^2 - 2 beta'A beta', where A beta' =
    sum_d a'_d rho_d t_d.  The traces are tr(A^-1 A') and tr(A^-1 A'') -
    tr((A^-1 A')^2).
    """
    A, A1, A2 = _weighted_outer(core, a)
    try:
        inv = np.linalg.inv(core.xtx + A)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("normal equations are singular") from exc
    beta = np.einsum("mij,mj->mi", inv, st["xty"] + (a[0] * st["s"]) @ core.t)
    rho, rtr = _residual_sums(core, st, beta)
    r = rtr + (a[0] * rho**2).sum(axis=1)
    r1, r2 = (a[1:] * rho**2).sum(axis=2)
    g = (a[1] * rho) @ core.t
    r2 = r2 - 2.0 * np.einsum("mi,mij,mj->m", g, inv, g)
    M1 = inv @ A1
    tr1 = np.einsum("mii->m", M1)
    tr2 = np.einsum("mij,mji->m", inv, A2) - np.einsum("mij,mji->m", M1, M1)
    return r, r1, r2, tr1, tr2


class _NermCore:
    """Closed-form likelihood pieces for the unit-level model.

    theta rows are (sigma2_e, sigma2_u).  The solver's parameter is the
    ratio psi = sigma2_u / sigma2_e, with sigma2_e profiled out at its REML
    maximizer y'P y / (n - q), P the projection at unit sigma2_e.
    """

    def __init__(self, data: BlockLmmData):
        self.X = data.X
        self.n = data.n_total
        self.D = data.D
        self.q = data.p + 1
        self.sizes = data.sizes.astype(float)
        self.offsets = data.offsets
        self.xtx = data.X.T @ data.X
        # t_d = X_d' 1, one row per cluster
        self.t = np.add.reduceat(data.X, data.offsets, axis=0)
        self.tt = _outer_rows(self.t)
        self.dof = self.n - self.q - 1

    def stats(self, Y: np.ndarray) -> dict:
        return {
            "xty": Y @ self.X,
            "yty": np.einsum("mi,mi->m", Y, Y),
            "s": np.add.reduceat(Y, self.offsets, axis=1),
        }

    def _common(self, st, theta):
        se = theta[:, 0]
        su = theta[:, 1]
        den = se[:, None] + self.sizes[None, :] * su[:, None]
        w = su[:, None] / den
        A = (self.xtx[None] - _weighted_outer(self, w)) / se[:, None, None]
        b = (st["xty"] - (w * st["s"]) @ self.t) / se[:, None]
        return se, den, w, A, b

    def loglik(self, st, theta):
        se, den, w, A, b = self._common(st, theta)
        beta = _solve_batched(A, b)
        quad = (st["yty"] - np.einsum("md,md->m", w, st["s"] ** 2)) / se
        ypy = quad - np.einsum("mi,mi->m", b, beta)
        logdet_v = (self.n - self.D) * np.log(se) + np.log(den).sum(axis=1)
        sign, logdet_a = np.linalg.slogdet(A)
        ll = -0.5 * (logdet_v + logdet_a + ypy + self.dof * _LOG2PI)
        ll = np.where(sign > 0, ll, -np.inf)
        return ll, beta

    def slope(self, st, psi):
        """Profile loglik slope and curvature in psi, and y'P y at unit sigma2_e."""
        nk = self.sizes / (1.0 + self.sizes * psi[:, None])  # n_d kappa_d
        kappa = nk / self.sizes
        a = np.stack([-psi[:, None] * kappa, -(kappa**2), 2.0 * nk * kappa**2])
        r, r1, r2, tr1, tr2 = _profile_forms(self, st, a)
        dof = self.n - self.q
        l1 = -0.5 * (dof * r1 / r + nk.sum(axis=1) + tr1)
        l2 = -0.5 * (dof * (r2 / r - (r1 / r) ** 2) - (nk**2).sum(axis=1) + tr2)
        return l1, l2, r

    def theta(self, psi, r):
        se = r / (self.n - self.q)
        return np.stack([se, psi * se], axis=1)

    def start(self, st):
        # method-of-moments ratio on OLS residuals, kept away from zero
        m = st["xty"].shape[0]
        beta0 = np.linalg.solve(
            np.broadcast_to(self.xtx, (m, self.q, self.q)), st["xty"][..., None]
        )[..., 0]
        rsum, rtr = _residual_sums(self, st, beta0)
        ss_between = (rsum**2 / self.sizes[None, :]).sum(axis=1)
        ss_within = np.maximum(rtr - ss_between, 0.0)
        msw = ss_within / max(self.n - self.D, 1)
        nf = self.sizes
        n_eff = max((self.n - (nf**2).sum() / self.n) / max(self.D - 1, 1), 1.0)
        msb = ss_between / max(self.D - 1, 1)
        se0 = np.maximum(msw, 1e-8)
        return np.maximum((msb - se0) / (n_eff * se0), 0.05), rtr

    def predictions(self, st, theta, spec: MixedParameterSpec):
        se, den, w, A, b = self._common(st, theta)
        beta = _solve_batched(A, b)
        u = w * _residual_sums(self, st, beta)[0]
        g1 = self.g1(theta) * spec.m[None, :] ** 2
        mu = beta @ spec.k.T + spec.m[None, :] * u
        return beta, u, mu, g1

    def g1(self, theta):
        se = theta[:, 0][:, None]
        su = theta[:, 1][:, None]
        return su * se / (se + self.sizes[None, :] * su)


class _FhmCore:
    """Likelihood pieces for the area-level model; theta rows are (sigma2_u,).

    The solver's parameter is sigma2_u itself.
    """

    def __init__(self, data: BlockLmmData, error_vars: np.ndarray):
        self.X = data.X
        self.D = data.D
        self.q = data.p + 1
        self.s2e = error_vars
        # one observation per cluster: t_d = x_d, and no unweighted X'X part
        self.t = data.X
        self.tt = _outer_rows(data.X)
        self.xtx = np.zeros((self.q, self.q))
        self.dof = self.D - self.q - 1

    def stats(self, Y: np.ndarray) -> dict:
        # the stacked response is already per-cluster
        m = Y.shape[0]
        return {"s": Y, "xty": np.zeros((m, self.q)), "yty": np.zeros(m)}

    def _common(self, st, theta):
        v = self.s2e[None, :] + theta[:, 0][:, None]
        A = _weighted_outer(self, 1.0 / v)
        b = (st["s"] / v) @ self.X
        return v, A, b

    def loglik(self, st, theta):
        v, A, b = self._common(st, theta)
        beta = _solve_batched(A, b)
        r = st["s"] - beta @ self.X.T
        ypy = (r**2 / v).sum(axis=1)
        sign, logdet_a = np.linalg.slogdet(A)
        ll = -0.5 * (np.log(v).sum(axis=1) + logdet_a + ypy + self.dof * _LOG2PI)
        ll = np.where(sign > 0, ll, -np.inf)
        return ll, beta

    def slope(self, st, su):
        """Restricted loglik slope and curvature in sigma2_u, and y'P y."""
        inv = 1.0 / (self.s2e[None, :] + su[:, None])
        a = np.stack([inv, -(inv**2), 2.0 * inv**3])
        r, r1, r2, tr1, tr2 = _profile_forms(self, st, a)
        l1 = -0.5 * (r1 + inv.sum(axis=1) + tr1)
        l2 = -0.5 * (r2 - (inv**2).sum(axis=1) + tr2)
        return l1, l2, r

    def theta(self, su, r):
        return su[:, None]

    def start(self, st):
        m = st["s"].shape[0]
        xtx = self.X.T @ self.X
        beta0 = np.linalg.solve(
            np.broadcast_to(xtx, (m, self.q, self.q)), (st["s"] @ self.X)[..., None]
        )[..., 0]
        r = st["s"] - beta0 @ self.X.T
        rtr = (r**2).sum(axis=1)
        msr = rtr / max(self.D - self.q, 1)
        return np.maximum(msr - self.s2e.mean(), 0.05 * msr), rtr

    def predictions(self, st, theta, spec: MixedParameterSpec):
        v, A, b = self._common(st, theta)
        beta = _solve_batched(A, b)
        r = st["s"] - beta @ self.X.T
        u = (theta[:, 0][:, None] / v) * r
        g1 = self.g1(theta) * spec.m[None, :] ** 2
        mu = beta @ spec.k.T + spec.m[None, :] * u
        return beta, u, mu, g1

    def g1(self, theta):
        su = theta[:, 0][:, None]
        return su * self.s2e[None, :] / (su + self.s2e[None, :])


def _core_for(data: BlockLmmData, s: float = 1.0):
    """Likelihood core for the response in units of s (known variances / s^2)."""
    if data.model_tag == NERM:
        return _NermCore(data)
    return _FhmCore(data, data.known_error_vars / s**2)


def response_scale(y: np.ndarray) -> float:
    """The power of two nearest sd(y) on the log scale; 1 for a constant y.

    Dividing by a power of two is exact, so data with 2^-0.5 <= sd < 2^0.5
    is fitted exactly as given, and y * 2^k is the same standardized
    problem as y, bit for bit.
    """
    sd = float(np.std(y))
    if not (sd > 0.0 and math.isfinite(sd)):
        return 1.0
    frac, exp = math.frexp(sd)  # sd = frac * 2^exp with 0.5 <= frac < 1
    return math.ldexp(1.0, exp if frac >= math.sqrt(0.5) else exp - 1)


def _standardize(data: BlockLmmData, Y: np.ndarray):
    """Core and sufficient statistics of Y / s, where s is data's response scale.

    s comes from the dataset's own response, never from the rows of Y, so
    every batch of bootstrap replicates is solved in the same units.
    """
    s = response_scale(data.y)
    core = _core_for(data, s)
    return core, core.stats(Y / s), s


# ======================================================================
# batched REML driver
# ======================================================================

def _newton_profile(core, st, x0):
    """Maximize each row's one-parameter REML profile from the start x0.

    A row whose slope at the floor VAR_FLOOR is <= 0 stays exactly there.
    Every other row keeps a bracket lo <= x < hi with a positive slope at lo
    and a non-positive one at hi, takes the Newton step when the curvature
    is negative and the step stays inside the bracket, and otherwise
    bisects the bracket geometrically, or expands it while hi is unbounded.
    Only rows still moving are evaluated, and every decision reads the sign
    and size of the slope, never a difference of loglik values, so a row
    follows the same path whatever batch it sits in.

    Returns the last evaluated parameter, y'P y there, and the boundary
    and not-converged masks.
    """
    m = x0.shape[0]
    x = np.full(m, VAR_FLOOR)
    slope, _, r = core.slope(st, x)
    boundary = slope <= 0.0
    converged = boundary.copy()
    lo, hi = x.copy(), np.full(m, np.inf)
    rows = np.flatnonzero(slope > 0.0)
    nxt = np.maximum(x0, VAR_FLOOR)
    for _ in range(MAX_ITER):
        if rows.size == 0:
            break
        x[rows] = xi = nxt[rows]
        slope, curv, r[rows] = core.slope({k: v[rows] for k, v in st.items()}, xi)
        up = slope > 0.0
        lo[rows] = lo_i = np.where(up, xi, lo[rows])
        hi[rows] = hi_i = np.where(up, hi[rows], xi)
        newton = curv < 0.0
        step = -slope / np.where(newton, curv, -1.0)
        done = (newton & (np.abs(step) <= STEP_TOL * xi)) | (hi_i <= lo_i * (1.0 + STEP_TOL))
        trial = xi + step
        inside = newton & (trial > lo_i) & (trial < hi_i)
        safe = np.where(np.isinf(hi_i), 4.0 * xi, np.sqrt(lo_i * hi_i))
        nxt[rows] = np.where(inside, trial, safe)
        converged[rows[done]] = True
        rows = rows[~done]
    return x, r, boundary, ~converged


def _batch_reml(core, st, s: float, spec: MixedParameterSpec | None = None) -> dict:
    """REML per row of a standardized problem, with results in the units of Y.

    Maps theta and g1 back by s^2, beta, u and mu by s, and the restricted
    loglik by -(n - q) log s.  `boundary` marks rows at the floor of the
    solver's parameter and `fallback` rows not converged within MAX_ITER.
    Predictions are included when spec is given.
    """
    x0, _ = core.start(st)
    x, r, boundary, unconverged = _newton_profile(core, st, x0)
    theta = core.theta(x, r)
    ll, _ = core.loglik(st, theta)
    out = {
        "theta": theta * s**2,
        "loglik": ll - (core.dof + 1) * math.log(s),  # core.dof + 1 = n - q
        "fallback": unconverged,
        "boundary": boundary,
    }
    if spec is not None:
        beta, u, mu, g1 = core.predictions(st, theta, spec)
        out.update(beta=beta * s, u=u * s, mu=mu * s, g1=g1 * s**2)
    return out


def batch_eblup(data: BlockLmmData, spec: MixedParameterSpec, Y: np.ndarray) -> dict:
    """Run the full REML + BLUP pipeline on every row of Y at once.

    Returns arrays keyed by name: theta (m, k), beta (m, p+1), u (m, D),
    mu (m, D), g1 (m, D), loglik (m,), plus bookkeeping masks `fallback`
    (not converged within MAX_ITER) and `boundary` (at the floor).  Row i
    depends only on Y[i]: the solver evaluates each row on its own path,
    so a row fitted alone and inside a batch agree to rounding (matrix
    products round differently for different batch sizes), and a fixed
    split of the rows gives bit-identical results.
    """
    check_spec(data, spec)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != data.n_total:
        raise ShapeMismatch(f"Y must be (m, {data.n_total}), got {Y.shape}")
    return _batch_reml(*_standardize(data, Y), spec)


# ======================================================================
# single-dataset API
# ======================================================================

def _theta_array(data: BlockLmmData, theta: VarianceComponents) -> np.ndarray:
    if data.model_tag == NERM:
        if theta.sigma2_e is None:
            raise ShapeMismatch("unit-level model requires sigma2_e")
        return np.array([[theta.sigma2_e, theta.sigma2_u]])
    return np.array([[theta.sigma2_u]])


def _theta_components(data: BlockLmmData, row: np.ndarray) -> VarianceComponents:
    if data.model_tag == NERM:
        return VarianceComponents(sigma2_u=row[1], sigma2_e=row[0])
    return VarianceComponents(sigma2_u=row[0])


def restricted_loglik(data: BlockLmmData, theta: VarianceComponents) -> float:
    """Restricted log-likelihood at the supplied variance components."""
    core = _core_for(data)
    st = core.stats(data.y[None, :])
    ll, _ = core.loglik(st, _theta_array(data, theta))
    return float(ll[0])


def _fit_single(data: BlockLmmData, spec: MixedParameterSpec | None = None) -> dict:
    """The dataset's own response as a batch of one, after the single-fit checks."""
    validate(data)
    if data.n_total <= data.p + 2:
        raise ShapeMismatch(
            f"need more than p + 2 = {data.p + 2} observations, have {data.n_total}"
        )
    core, st, s = _standardize(data, data.y[None, :])
    _, rtr = core.start(st)
    if rtr[0] <= 1e-12 * (1.0 + float(np.mean(data.y**2)) / s**2):
        raise DegenerateData("response has no residual variation around the fixed part")
    fit = _batch_reml(core, st, s, spec)
    if not np.isfinite(fit["loglik"][0]):
        raise NoConvergence("restricted likelihood is not finite at any candidate")
    return fit


def reml_fit(data: BlockLmmData) -> VarianceComponents:
    """REML variance components of the dataset's own response."""
    return _theta_components(data, _fit_single(data)["theta"][0])


def _row0_result(fit: dict, theta: VarianceComponents) -> FitResult:
    return FitResult(
        beta_hat=fit["beta"][0],
        u_hat=fit["u"][0],
        mu_hat=fit["mu"][0],
        theta=theta,
        scale=np.sqrt(np.maximum(fit["g1"][0], 0.0)),
        loglik_restricted=float(fit["loglik"][0]),
    )


def fit_gls_blup(
    data: BlockLmmData, spec: MixedParameterSpec, theta: VarianceComponents
) -> FitResult:
    """GLS fixed effects and BLUP random effects at known variance components."""
    check_spec(data, spec)
    core = _core_for(data)
    st = core.stats(data.y[None, :])
    tarr = _theta_array(data, theta)
    beta, u, mu, g1 = core.predictions(st, tarr, spec)
    ll, _ = core.loglik(st, tarr)
    return _row0_result(dict(beta=beta, u=u, mu=mu, g1=g1, loglik=ll), theta)


def eblup(data: BlockLmmData, spec: MixedParameterSpec | None = None) -> FitResult:
    """REML + BLUP: row 0 of the batch fit of data.y[None, :]."""
    if spec is None:
        spec = cluster_mean_spec(data)
    check_spec(data, spec)
    fit = _fit_single(data, spec)
    return _row0_result(fit, _theta_components(data, fit["theta"][0]))


# ======================================================================
# prediction-error components and diagnostics
# ======================================================================

def g1(data: BlockLmmData, theta: VarianceComponents) -> np.ndarray:
    """Leading MSE term of the BLUP, one value per cluster.

    Unit-level: gamma_d sigma2_e / n_d; area-level:
    sigma2_u sigma2_e_d / (sigma2_u + sigma2_e_d).
    """
    core = _core_for(data)
    return core.g1(_theta_array(data, theta))[0]


def g1_general(
    data: BlockLmmData, theta: VarianceComponents, spec: MixedParameterSpec
) -> np.ndarray:
    """Matrix form m_d^2 (G - G 1'V^-1 1 G); equals g1 scaled by m_d^2."""
    check_spec(data, spec)
    return g1(data, theta) * spec.m**2


def g2(
    data: BlockLmmData, theta: VarianceComponents, spec: MixedParameterSpec
) -> np.ndarray:
    """Fixed-effect estimation contribution b_d' (X'V^-1X)^-1 b_d."""
    check_spec(data, spec)
    core = _core_for(data)
    tarr = _theta_array(data, theta)
    if data.model_tag == NERM:
        se, su = tarr[0]
        kappa = 1.0 / (se + data.sizes * su)
        bvec = spec.k - (spec.m * su * kappa)[:, None] * core.t
        A = (core.xtx - np.einsum("d,di,dj->ij", su * kappa, core.t, core.t)) / se
    else:
        su = tarr[0, 0]
        v = data.known_error_vars + su
        bvec = spec.k - (spec.m * su / v)[:, None] * data.X
        A = np.einsum("d,di,dj->ij", 1.0 / v, data.X, data.X)
    try:
        sol = np.linalg.solve(A, bvec.T)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("X'V^-1X is singular") from exc
    return np.einsum("di,id->d", bvec, sol)


def cholesky_residuals(data: BlockLmmData, fit: FitResult) -> np.ndarray:
    """Block-whitened residuals L_d^-1 (y_d - X_d beta_hat), stacked.

    Under a correct model these are approximately iid standard normal.
    """
    theta = fit.theta
    out = np.empty(data.n_total)
    for blk, sl in zip(data.clusters, data.cluster_slices()):
        r = blk.y - blk.X @ fit.beta_hat
        if data.model_tag == FHM:
            out[sl] = r / math.sqrt(theta.sigma2_u + blk.known_error_var)
        else:
            V = theta.sigma2_e * np.eye(blk.n) + theta.sigma2_u
            L = np.linalg.cholesky(V)
            out[sl] = np.linalg.solve(L, r)
    return out


def log_shift_profile(data: BlockLmmData, grid) -> tuple[np.ndarray, np.ndarray, int]:
    """Residual skewness under y -> log(y + c) at every shift c of grid.

    Returns the grid as a float vector, the Fisher skewness of the
    decorrelated residuals at each shift, and the index of the shift
    minimizing |skewness|.  The model is refitted at every candidate; ties
    go to the first grid point attaining the minimum.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise EmptyGrid("transform grid is empty")
    y = data.y
    if np.any(y + grid.min() <= 0):
        raise NonPositiveShift(
            f"y + c must stay positive; smallest candidate {grid.min():g} fails"
        )
    from scipy import stats  # only transform needs it; keeps scipy out of `import spimax`

    skews = np.empty(grid.size)
    for i, c in enumerate(grid):
        shifted = replace_response(data, np.log(y + c))
        skews[i] = float(stats.skew(cholesky_residuals(shifted, eblup(shifted))))
    return grid, skews, int(np.argmin(np.abs(skews)))


def log_shift_transform(data: BlockLmmData, grid) -> tuple[float, np.ndarray]:
    """Shift c minimizing |skewness| of residuals, and the response log(y + c)."""
    grid, _, best = log_shift_profile(data, grid)
    c_star = float(grid[best])
    return c_star, np.log(data.y + c_star)


def eb_random_effects(data: BlockLmmData, fit: FitResult) -> np.ndarray:
    """Predicted effects standardized by sqrt(sigma2_u - g1_d).

    The variance of the BLUP of u_d is sigma2_u - g1_d; clusters where that
    is numerically zero get a zero score.
    """
    var = fit.theta.sigma2_u - g1(data, fit.theta)
    out = np.zeros(data.D)
    ok = var > 1e-12
    out[ok] = fit.u_hat[ok] / np.sqrt(var[ok])
    return out

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
call.  The weights of V^-1 depend on a cluster only through its size (or
known error variance), so the clusters fall into G weight classes, and
every weighted sum sum_d w_d t_d t_d' is a single matrix product against
the class sums T_g = sum_{d in g} t_d t_d' built once per core; a Newton
step costs O(G) per row, not O(D).  A safeguarded Newton iteration over
the rows still moving maximizes the profile (see _newton_profile); a row
whose slope at the floor VAR_FLOOR is <= 0 sits exactly on the floor.
One GLS evaluation (_gls) serves the solver and the fit: the Newton
profile reads y'P y from it, and _evaluate reads the restricted loglik,
beta, the BLUPs and g2 from the same forms at the fitted theta.  Fits run
on the response divided by s, a power of two near its standard
deviation, and are mapped back, so the tolerances and the floor act in
standardized units and a fit does not depend on the units the response
was recorded in.  They also run on the response minus the dataset's own
OLS fit, with beta_ols added back, so a fit does not depend on where the
response sits either.
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
    NERM,
    VAR_FLOOR,
    BlockLmmData,
    MixedParameterSpec,
    VarianceComponents,
    check_spec,
    cluster_mean_spec,
    error_variances,
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
    """Fitted coefficients, predicted effects, targets and their scales sqrt(g1 + g2)."""

    beta_hat: np.ndarray
    u_hat: np.ndarray
    mu_hat: np.ndarray
    theta: VarianceComponents
    scale: np.ndarray
    loglik_restricted: float


@dataclass(frozen=True)
class DrawnStatistics:
    """Unit-level responses y_i = X beta + Z u_i + e_i, given by what the refit reads.

    All in the units of y: u (m, D) holds the random effects, ze (m, D) =
    Z'e the cluster sums of the errors, xwe (m, p + 1) = X_w'e with X_w the
    within-cluster-centred design, and ee_within (m,) the within-cluster
    part of e'e, |e|^2 - sum_d ze_d^2 / n_d.  A bootstrap chunk draws these
    directly instead of its (m, n) responses.
    """

    beta: np.ndarray
    u: np.ndarray
    ze: np.ndarray
    xwe: np.ndarray
    ee_within: np.ndarray


# ======================================================================
# batched likelihood cores
# ======================================================================

def _outer_rows(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """a_d b_d' (b = a if None) flattened to one row per cluster, (D, q * q)."""
    b = a if b is None else b
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


class _Core:
    """What both likelihood cores share: weight classes and the centring.

    The weights of V^-1 depend on a cluster only through its key (n_d for
    the unit-level model, the known error variance for the area-level
    one), so every weighted sum over clusters is a sum over the G distinct
    keys, the weight classes, of class sums built once.  label maps each
    cluster to its class, count holds the class sizes, and order lists the
    clusters class by class, each class starting at its entry of starts.

    The core works in units of scale: statistics are taken of the response
    divided by scale, minus the dataset's own OLS fit X beta_ols.  y'P y
    does not change under a shift of y along X, and the expanded quadratic
    forms of _gls stay clear of cancellation however far the response sits
    from zero.  Fitted coefficients add beta_ols back.  beta_ols comes from
    the dataset's own response, never from the rows of Y, so a row gives
    the same fit alone and in any batch.
    """

    def __init__(self, data: BlockLmmData, scale: float, t: np.ndarray, key: np.ndarray):
        X = self.X = data.X
        self.q = X.shape[1]
        self.scale = scale
        self.t = t
        self.key, self.label, self.count = np.unique(
            key, return_inverse=True, return_counts=True
        )
        self.order = np.argsort(self.label, kind="stable")
        self.starts = np.concatenate([[0], np.cumsum(self.count)[:-1]])
        t_sorted = t[self.order]
        # T_g = sum over the clusters d of class g of t_d t_d', (G, q * q)
        self.tt = self._class_sums(_outer_rows(t_sorted), axis=0)
        # the columns of t, class by class, to broadcast against (m, D): a
        # product whose inner axis runs over clusters is about twice as
        # fast as one whose inner axis runs over the q coefficients
        self.t_columns = np.ascontiguousarray(t_sorted.T)[:, None, :]
        self.gram = X.T @ X
        try:
            self.beta_ols = np.linalg.solve(self.gram, X.T @ (data.y / scale))
        except np.linalg.LinAlgError as exc:
            raise SingularSystem("normal equations are singular") from exc
        # the OLS fit in the units of Y: scale is a power of two, so
        # (Y - shift) / scale rounds exactly as Y / scale - X beta_ols
        self.shift = scale * (X @ self.beta_ols)

    def stats(self, Y: np.ndarray) -> dict:
        """Sufficient statistics of every row of Y / scale minus the dataset's OLS fit.

        s holds the cluster sums s_d (m, D), which the BLUPs and the start
        read.  The Newton profile reads only the class-level entries: X'y
        and y'y (the unweighted parts) and S_g = sum_d s_d (s_d, t_d'),
        (m, G, 1 + q), which holds S2_g = sum_d s_d^2 and ST_g = sum_d s_d
        t_d side by side.  The sums are taken in the units of Y and divided
        by powers of two afterwards, which is exact.
        """
        Y = Y - self.shift
        s = self._cluster_sums(Y) / self.scale
        return {**self._unweighted(Y), "s": s, "S": self._class_stats(s)}

    def _class_sums(self, a: np.ndarray, axis: int) -> np.ndarray:
        """Sums of a's entries along axis (clusters in class order) within each weight class."""
        if self.starts.size == self.label.size:
            return a  # one cluster per class: a one-element sum is that element
        return np.add.reduceat(a, self.starts, axis=axis)

    def _class_stats(self, s: np.ndarray) -> np.ndarray:
        """S_g = sum over the clusters d of class g of s_d (s_d, t_d'), (m, G, 1 + q)."""
        s_sorted = s[:, self.order]
        prod = np.empty((1 + self.q,) + s.shape)
        np.multiply(s_sorted, s_sorted, out=prod[0])
        np.multiply(s_sorted, self.t_columns, out=prod[1:])
        return np.ascontiguousarray(self._class_sums(prod, axis=2).transpose(1, 2, 0))


# the statistics the Newton profile reads, none with an axis over clusters
_CLASS_STATS = ("xty", "yty", "S")


def _gls(core, st, a: np.ndarray):
    """GLS fit at unit residual variance from the class weights a[:, 0] of V^-1.

    V^-1 = I + a_d J on cluster d.  a stacks class weight vectors per row,
    shape (m, k, G), and for each k A_k = sum_g a_k,g T_g, a_k . S2 and
    B_k = sum_g a_k,g ST_g are formed, the last two as one product with
    S.  Then X'V^-1 X = X'X + A_0 and X'V^-1 y = X'y + B_0 = c (X'X and
    X'y are zero for the area-level model), beta = (X'V^-1 X)^-1 c and r =
    y'P y = y'y + a_0 . S2 - beta'c.  Returns A, B, a . S2, (X'V^-1 X)^-1,
    beta (in the centred coordinates) and r.

    Sums over classes and row-wise dot products are batched matrix
    products, one (k x G) @ (G x (1 + q)) product per row, and a row
    vector v[:, None, :] times a column vector w[:, :, None].
    """
    A = (a.reshape(-1, a.shape[-1]) @ core.tt).reshape(a.shape[:-1] + (core.q, core.q))
    aS = a @ st["S"]
    aS2, B = aS[..., 0], aS[..., 1:]
    try:
        inv = np.linalg.inv(core.xtx + A[:, 0])
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("normal equations are singular") from exc
    c = st["xty"] + B[:, 0]
    beta = (inv @ c[:, :, None])[:, :, 0]
    r = st["yty"] + aS2[:, 0] - (beta[:, None, :] @ c[:, :, None])[:, 0, 0]
    return A, B, aS2, inv, beta, r


def _profile_forms(core, st, a: np.ndarray):
    """y'P y with its first two derivatives, and the log|A| derivative traces.

    a stacks the class weights of V^-1 and their first two derivatives in
    the solver's parameter, shape (m, 3, G), at unit residual variance (see
    _gls).  With cluster residual sums rho_d = s_d - t_d' beta, r_k =
    sum_d a_k,d rho_d^2 = a_k . S2 - 2 beta'B_k + beta'A_k beta for k = 1,
    2, and r'' = r_2 - 2 g'(X'V^-1 X)^-1 g with g = sum_d a'_d rho_d t_d =
    B_1 - A_1 beta.  The traces are tr(A^-1 A') and tr(A^-1 A'') -
    tr((A^-1 A')^2).
    """
    A, B, aS2, inv, beta, r = _gls(core, st, a)
    Ab = (A[:, 1:] @ beta[:, None, :, None])[..., 0]
    r1, r2 = (aS2[:, 1:] + ((Ab - 2.0 * B[:, 1:]) @ beta[:, :, None])[..., 0]).T
    g = B[:, 1] - Ab[:, 0]
    r2 = r2 - 2.0 * (g[:, None, :] @ inv @ g[:, :, None])[:, 0, 0]
    M1 = inv @ A[:, 1]
    tr1 = np.einsum("mii->m", M1)
    tr2 = np.einsum("mij,mji->m", inv, A[:, 2]) - np.einsum("mij,mji->m", M1, M1)
    return r, r1, r2, tr1, tr2


def _g2(core, spec: MixedParameterSpec, inv: np.ndarray, w: np.ndarray) -> np.ndarray:
    """b_d' M b_d per row (m, D), b_d = k_d - m_d w_d t_d, M = inv (m, q, q), w (m, D).

    b_d = kp_d + (alpha_d - m_d w_d) t_d, kp_d the part of k_d orthogonal to t_d:
    expanded in k_d instead, the form cancels to (|k_d| / |b_d|)^2 relative.
    """
    t, tt = core.t, np.einsum("di,di->d", core.t, core.t)
    alpha = np.einsum("di,di->d", spec.k, t) / np.where(tt > 0.0, tt, 1.0)
    kp, e = spec.k - alpha[:, None] * t, alpha - spec.m * w
    M = inv.reshape(inv.shape[0], -1)
    g2 = M @ _outer_rows(t).T
    g2 *= e
    g2 += M @ (2.0 * _outer_rows(kp, t)).T
    g2 *= e
    g2 += M @ _outer_rows(kp).T
    return g2


def _evaluate(core, st, theta, spec: MixedParameterSpec | None = None) -> dict:
    """Restricted loglik at theta per row; beta, u, mu, g1 and g2 too given spec.

    With V = sigma2_e V_1 the loglik is -1/2 [(n - q) log sigma2_e +
    log|V_1| + log|A| + r / sigma2_e + (n - q - 1) log 2 pi], A and r the
    _gls forms at unit residual variance (sigma2_e = 1 for the area-level
    model).  The (n - q - 1) log 2 pi constant is the convention
    tests/oracles.dense_restricted_loglik shares, not a degrees-of-freedom
    count.  The BLUP is u_d = w_g(d) rho_d with rho_d = s_d - t_d' beta, and
    g2 = sigma2_e b_d' (X'V_1^-1 X)^-1 b_d (_g2).
    """
    x, se = core.parameter(theta)
    a0, logdet_v, w = core.weights(x)
    A, _, _, inv, beta, r = _gls(core, st, a0[:, None])
    sign, logdet_a = np.linalg.slogdet(core.xtx + A[:, 0])
    nq = core.n - core.q
    ll = -0.5 * (nq * np.log(se) + logdet_v + logdet_a + r / se + (nq - 1) * _LOG2PI)
    out = {"loglik": np.where(sign > 0, ll, -np.inf)}
    if spec is not None:
        w = w[:, core.label]
        g2 = _g2(core, spec, np.reshape(se, (-1, 1, 1)) * inv, w)
        u = w * (st["s"] - beta @ core.t.T)
        beta = beta + core.beta_ols
        out.update(
            beta=beta,
            u=u,
            mu=beta @ spec.k.T + spec.m[None, :] * u,
            g1=core.g1(theta)[:, core.label] * spec.m[None, :] ** 2,
            g2=g2,
        )
    return out


class _NermCore(_Core):
    """Closed-form likelihood pieces for the unit-level model.

    theta rows are (sigma2_e, sigma2_u).  The solver's parameter is the
    ratio psi = sigma2_u / sigma2_e, with sigma2_e profiled out at its REML
    maximizer y'P y / (n - q), P the projection at unit sigma2_e.  The
    weight classes are the distinct cluster sizes n_g.
    """

    def __init__(self, data: BlockLmmData, scale: float):
        self.n = data.n_total
        self.D = data.D
        self.sizes = data.sizes.astype(float)
        self.offsets = data.offsets
        # t_d = X_d' 1, one row per cluster
        super().__init__(data, scale, np.add.reduceat(data.X, data.offsets, axis=0), self.sizes)
        self.xtx = self.gram

    def _cluster_sums(self, Y):
        return np.add.reduceat(Y, self.offsets, axis=1)

    def drawn_stats(self, draws: DrawnStatistics) -> dict:
        """The statistics of stats for rows given by their drawn pieces, without forming Y.

        In the core's units a row is X delta + Z u + e, with delta = beta /
        scale - beta_ols and every piece divided by scale.  Then s = T delta
        + n u + Z'e, X'y = X'X delta + T'u + T'(Z'e / n) + X_w'e, and y'y =
        2 delta'X'y - delta'X'X delta + sum_d (n_d u_d + (Z'e)_d)^2 / n_d +
        the within part of e'e, T holding the rows t_d.
        """
        inv = 1.0 / self.scale  # a power of two, so scaling by it is exact
        delta = draws.beta * inv - self.beta_ols
        gd = self.gram @ delta
        xty = draws.u @ self.t
        xty += draws.ze @ (self.t / self.sizes[:, None])
        xty += draws.xwe
        xty *= inv
        xty += gd
        # v = n u + Z'e, the cluster sums of Z u + e; s = T delta + v
        v = np.multiply(draws.u, self.sizes)
        v += draws.ze
        v *= inv
        yty = np.einsum("md,md,d->m", v, v, 1.0 / self.sizes)
        yty += 2.0 * (xty @ delta) - delta @ gd
        yty += draws.ee_within * inv**2
        v += self.t @ delta
        return {"xty": xty, "yty": yty, "s": v, "S": self._class_stats(v)}

    def _unweighted(self, Y):
        return {
            "xty": (Y @ self.X) / self.scale,
            "yty": np.einsum("mi,mi->m", Y, Y) / self.scale**2,
        }

    def parameter(self, theta):
        return theta[:, 1] / theta[:, 0], theta[:, 0]

    def weights(self, psi):
        """V^-1 weights -psi kappa_g, log|V_1| and BLUP weights psi kappa_g.

        V_1 = I + psi J on cluster d, kappa_g = 1 / (1 + n_g psi).
        """
        w = psi[:, None] / (1.0 + self.key * psi[:, None])
        return -w, np.log1p(self.key * psi[:, None]) @ self.count, w

    def slope(self, st, psi):
        """Profile loglik slope and curvature in psi, and y'P y at unit sigma2_e."""
        nk = self.key / (1.0 + self.key * psi[:, None])  # n_g kappa_g
        kappa = nk / self.key
        a = np.stack([-psi[:, None] * kappa, -(kappa**2), 2.0 * nk * kappa**2], axis=1)
        r, r1, r2, tr1, tr2 = _profile_forms(self, st, a)
        dof = self.n - self.q
        l1 = -0.5 * (dof * r1 / r + nk @ self.count + tr1)
        l2 = -0.5 * (dof * (r2 / r - (r1 / r) ** 2) - nk**2 @ self.count + tr2)
        return l1, l2, r

    def theta(self, psi, r):
        se = r / (self.n - self.q)
        return np.stack([se, psi * se], axis=1)

    def start(self, st):
        # method-of-moments ratio on each row's own OLS residuals, kept away from zero
        m = st["xty"].shape[0]
        beta0 = np.linalg.solve(
            np.broadcast_to(self.xtx, (m, self.q, self.q)), st["xty"][..., None]
        )[..., 0]
        rsum = st["s"] - beta0 @ self.t.T
        rtr = (
            st["yty"]
            - 2.0 * np.einsum("mi,mi->m", st["xty"], beta0)
            + np.einsum("mi,ij,mj->m", beta0, self.xtx, beta0)
        )
        ss_between = (rsum**2 / self.sizes[None, :]).sum(axis=1)
        ss_within = np.maximum(rtr - ss_between, 0.0)
        msw = ss_within / max(self.n - self.D, 1)
        nf = self.sizes
        n_eff = max((self.n - (nf**2).sum() / self.n) / max(self.D - 1, 1), 1.0)
        msb = ss_between / max(self.D - 1, 1)
        se0 = np.maximum(msw, 1e-8)
        return np.maximum((msb - se0) / (n_eff * se0), 0.05), rtr

    def g1(self, theta):
        """g1 of each weight class."""
        se = theta[:, 0][:, None]
        su = theta[:, 1][:, None]
        return su * se / (se + self.key[None, :] * su)


class _FhmCore(_Core):
    """Likelihood pieces for the area-level model; theta rows are (sigma2_u,).

    The solver's parameter is sigma2_u itself.  The weight classes are the
    distinct known error variances.
    """

    def __init__(self, data: BlockLmmData, scale: float):
        self.n = self.D = data.D
        self.s2e = data.known_error_vars / scale**2
        # one observation per cluster: t_d = x_d, and no unweighted X'X part
        super().__init__(data, scale, data.X, self.s2e)
        self.xtx = np.zeros((self.q, self.q))

    def _cluster_sums(self, Y):
        # the stacked response is already per-cluster
        return Y

    def _unweighted(self, Y):
        m = Y.shape[0]
        return {"xty": np.zeros((m, self.q)), "yty": np.zeros(m)}

    def parameter(self, theta):
        return theta[:, 0], 1.0

    def weights(self, su):
        """V^-1 weights 1 / v_g, log|V| and BLUP weights sigma2_u / v_g."""
        v = self.key[None, :] + su[:, None]
        return 1.0 / v, np.log(v) @ self.count, su[:, None] / v

    def slope(self, st, su):
        """Restricted loglik slope and curvature in sigma2_u, and y'P y."""
        inv = 1.0 / (self.key[None, :] + su[:, None])
        inv2 = inv * inv
        # inv2 * inv, not inv**3: a cube goes through pow, several times slower
        a = np.stack([inv, -inv2, 2.0 * inv2 * inv], axis=1)
        r, r1, r2, tr1, tr2 = _profile_forms(self, st, a)
        l1 = -0.5 * (r1 + inv @ self.count + tr1)
        l2 = -0.5 * (r2 - inv2 @ self.count + tr2)
        return l1, l2, r

    def theta(self, su, r):
        return su[:, None]

    def start(self, st):
        m = st["s"].shape[0]
        beta0 = np.linalg.solve(
            np.broadcast_to(self.gram, (m, self.q, self.q)), (st["s"] @ self.X)[..., None]
        )[..., 0]
        r = st["s"] - beta0 @ self.X.T
        rtr = (r**2).sum(axis=1)
        msr = rtr / max(self.D - self.q, 1)
        return np.maximum(msr - self.s2e.mean(), 0.05 * msr), rtr

    def g1(self, theta):
        """g1 of each weight class."""
        su = theta[:, 0][:, None]
        return su * self.key[None, :] / (su + self.key[None, :])


def _core_for(data: BlockLmmData, s: float = 1.0):
    """Likelihood core for the response in units of s (known variances / s^2)."""
    return (_NermCore if data.model_tag == NERM else _FhmCore)(data, s)


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


def _standardize(data: BlockLmmData, Y):
    """Core and sufficient statistics of Y / s, where s is data's response scale.

    s comes from the dataset's own response, never from the rows of Y, so
    every batch of bootstrap replicates is solved in the same units.  Y is
    a response matrix or DrawnStatistics.
    """
    core = _core_for(data, response_scale(data.y))
    return core, core.drawn_stats(Y) if isinstance(Y, DrawnStatistics) else core.stats(Y)


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
    Only rows still moving are evaluated, on their class-level statistics
    alone (_CLASS_STATS), and every decision reads the sign and size of the
    slope, never a difference of loglik values, so a row follows the same
    path whatever batch it sits in.

    Returns the last evaluated parameter, y'P y there, and the boundary
    and not-converged masks.
    """
    st = {k: st[k] for k in _CLASS_STATS}
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
        moving = st if rows.size == m else {k: v[rows] for k, v in st.items()}
        slope, curv, r[rows] = core.slope(moving, xi)
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


def _batch_reml(core, st, spec: MixedParameterSpec | None = None) -> dict:
    """REML per row of a standardized problem, with results in the units of Y.

    Maps theta, g1 and g2 back by s^2, beta, u and mu by s, and the restricted
    loglik by -(n - q) log s, s the core's scale.  `boundary` marks rows at the floor of the
    solver's parameter and `fallback` rows not converged within MAX_ITER.
    Predictions are included when spec is given.
    """
    x0, _ = core.start(st)
    x, r, boundary, unconverged = _newton_profile(core, st, x0)
    theta = core.theta(x, r)
    fit = _evaluate(core, st, theta, spec)
    s = core.scale
    out = {
        "theta": theta * s**2,
        "loglik": fit["loglik"] - (core.n - core.q) * math.log(s),
        "fallback": unconverged,
        "boundary": boundary,
    }
    if spec is not None:
        for key, power in (("beta", 1), ("u", 1), ("mu", 1), ("g1", 2), ("g2", 2)):
            out[key] = fit[key]
            out[key] *= s**power  # in place: _evaluate made these arrays
    return out


def batch_eblup(data: BlockLmmData, spec: MixedParameterSpec, Y) -> dict:
    """Run the full REML + BLUP pipeline on every row of Y at once.

    Y is an (m, n) response matrix or, for unit-level data, DrawnStatistics
    standing for one.

    Returns arrays keyed by name: theta (m, k), beta (m, p+1), u (m, D),
    mu (m, D), g1 and g2 (m, D), loglik (m,), plus bookkeeping masks `fallback`
    (not converged within MAX_ITER) and `boundary` (at the floor).  Row i
    depends only on Y[i]: the solver evaluates each row on its own path,
    so a row fitted alone and inside a batch agree to rounding (matrix
    products round differently for different batch sizes), and a fixed
    split of the rows gives bit-identical results whatever the memory
    layout of Y.
    """
    check_spec(data, spec)
    if not isinstance(Y, DrawnStatistics):
        # matrix products round by layout, so every Y is fitted in C order
        Y = np.ascontiguousarray(Y, dtype=float)
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


def _evaluate_at(data: BlockLmmData, theta: VarianceComponents, spec=None) -> dict:
    """_evaluate of the dataset's own response at known variance components."""
    if spec is not None:
        check_spec(data, spec)
    core = _core_for(data)
    return _evaluate(core, core.stats(data.y[None, :]), _theta_array(data, theta), spec)


def restricted_loglik(data: BlockLmmData, theta: VarianceComponents) -> float:
    """Restricted log-likelihood at the supplied variance components."""
    return float(_evaluate_at(data, theta)["loglik"][0])


def within_factor(data: BlockLmmData) -> np.ndarray:
    """L with L L' = X_w'X_w, shape (p + 1, r), X_w the within-cluster-centred design.

    r is the rank of X_w, from one SVD of the centred slope columns (the
    intercept centres to zero, so L's first row is zero).  Singular values
    up to a tolerance relative to the slopes count as zero: relative to X,
    not to the centred columns, which may hold only rounding.
    """
    slopes = data.X[:, 1:]
    means = np.add.reduceat(slopes, data.offsets, axis=0) / data.sizes[:, None]
    centred = slopes - np.repeat(means, data.sizes, axis=0)
    _, sv, vt = np.linalg.svd(centred, full_matrices=False)
    keep = sv > np.linalg.norm(slopes) * max(slopes.shape) * np.finfo(float).eps
    L = np.zeros((data.p + 1, int(keep.sum())))
    L[1:] = vt[keep].T * sv[keep]
    return L


def within_dof(data: BlockLmmData) -> tuple[np.ndarray, int]:
    """(within_factor(data), n - D - r), after checking that sigma2_e has n - D - r > 0 dof."""
    L = within_factor(data)
    dof = data.n_total - data.D - L.shape[1]
    if dof <= 0:
        raise DegenerateData(
            "unit-level data has no information on sigma2_e: n - D - rank of the "
            f"within-cluster-centred covariates is {dof}"
        )
    return L, dof


def _fit_single(data: BlockLmmData, spec: MixedParameterSpec) -> dict:
    """The dataset's own response as a batch of one, after the single-fit checks."""
    validate(data)
    if data.n_total <= data.p + 2:
        raise ShapeMismatch(
            f"need more than p + 2 = {data.p + 2} observations, have {data.n_total}"
        )
    if data.model_tag == NERM:
        within_dof(data)
    core, st = _standardize(data, data.y[None, :])
    s = core.scale
    _, rtr = core.start(st)
    # rtr is the OLS residual sum of squares of the centred response in
    # units of s.  Rounding y_d to a double alone leaves a residual of up to
    # eps |y_d| / s, so residuals within 64 ulps of the response are
    # rounding, however far from zero the response sits.
    rounding = (64.0 * np.finfo(float).eps) ** 2 * float(np.sum((data.y / s) ** 2))
    if rtr[0] <= 1e-12 + rounding:
        raise DegenerateData("response has no residual variation around the fixed part")
    fit = _batch_reml(core, st, spec)
    if not np.isfinite(fit["loglik"][0]):
        raise NoConvergence("restricted likelihood is not finite at any candidate")
    return fit


def _row0_result(fit: dict, theta: VarianceComponents) -> FitResult:
    return FitResult(
        beta_hat=fit["beta"][0],
        u_hat=fit["u"][0],
        mu_hat=fit["mu"][0],
        theta=theta,
        scale=np.sqrt(np.maximum(fit["g1"][0] + fit["g2"][0], 0.0)),
        loglik_restricted=float(fit["loglik"][0]),
    )


def fit_gls_blup(
    data: BlockLmmData, spec: MixedParameterSpec, theta: VarianceComponents
) -> FitResult:
    """GLS fixed effects and BLUP random effects at known variance components."""
    return _row0_result(_evaluate_at(data, theta, spec), theta)


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
    return core.g1(_theta_array(data, theta))[0, core.label]


def g2(
    data: BlockLmmData, theta: VarianceComponents, spec: MixedParameterSpec
) -> np.ndarray:
    """Fixed-effect estimation contribution b_d' (X'V^-1X)^-1 b_d.

    With BLUP weights w_d, b_d = k_d - m_d w_d t_d; row 0 of _evaluate.
    """
    return _evaluate_at(data, theta, spec)["g2"][0]


def cholesky_residuals(data: BlockLmmData, fit: FitResult) -> np.ndarray:
    """Block-whitened residuals L_d^-1 (y_d - X_d beta_hat), stacked.

    L_d is the Cholesky factor of V_d = R_d + sigma2_u 1 1', R_d the diagonal
    of the cluster's error variances (model.error_variances).  Under a
    correct model these are approximately iid standard normal.
    """
    ev = error_variances(data, fit.theta)
    out = np.empty(data.n_total)
    for sl in data.cluster_slices():
        L = np.linalg.cholesky(np.diag(ev[sl]) + fit.theta.sigma2_u)
        out[sl] = np.linalg.solve(L, data.y[sl] - data.X[sl] @ fit.beta_hat)
    return out


def log_shift(data: BlockLmmData, c: float) -> BlockLmmData:
    """data with its response replaced by log(y + c)."""
    return replace_response(data, np.log(data.y + c))


def log_shift_profile(data: BlockLmmData, grid=25) -> tuple[np.ndarray, np.ndarray, int]:
    """Residual skewness under y -> log(y + c) at every shift c of grid.

    grid holds the shifts, or is a point count: that many shifts from
    min(y) to max(y) for a positive response, otherwise the same span moved
    to (-min(y), max(y) - 2 min(y)], so that y + c stays positive at every
    candidate.  Returns the grid as a float vector, the Fisher skewness of
    the decorrelated residuals at each shift, and the index of the shift
    minimizing |skewness|.  The model is refitted at every candidate; ties
    go to the first grid point attaining the minimum.
    """
    y = data.y
    if isinstance(grid, (int, np.integer)):
        if grid < 1:
            raise EmptyGrid("grid needs at least one point")
        lo, hi = y.min(), y.max()
        grid = np.linspace(lo, hi, grid) if lo > 0 else np.linspace(0.0, hi - lo, grid + 1)[1:] - lo
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise EmptyGrid("transform grid is empty")
    if not np.all(finite := np.isfinite(grid)):
        raise ShapeMismatch(f"transform shifts must be finite, got {grid[~finite][0]:g}")
    if np.any(y + grid.min() <= 0):
        raise NonPositiveShift(
            f"y + c must stay positive; smallest candidate {grid.min():g} fails"
        )
    skews = np.empty(grid.size)
    for i, c in enumerate(grid):
        shifted = log_shift(data, c)
        skews[i] = _skew(cholesky_residuals(shifted, eblup(shifted)))
    return grid, skews, int(np.argmin(np.abs(skews)))


def _skew(r: np.ndarray) -> float:
    """Fisher skewness m3 / m2^1.5 with biased moments.

    nan when m2 <= (eps * mean)^2, as for an exactly constant vector.  The
    operations are those of scipy.stats.skew(r, bias=True), so it agrees
    with it bit for bit.
    """
    mean = np.mean(r)
    d = r - mean
    m2 = np.mean(d**2)
    m3 = np.mean(d**2 * d)
    if m2 <= (np.finfo(float).eps * mean) ** 2:
        return math.nan
    return float(m3 / m2**1.5)


def eb_random_effects(data: BlockLmmData, fit: FitResult) -> np.ndarray:
    """Predicted effects standardized by sqrt(sigma2_u - g1_d).

    The variance of the BLUP of u_d is sigma2_u - g1_d; clusters where that
    is numerically zero, below 1e-12 in the squared units of the
    standardized response, get a zero score.
    """
    var = fit.theta.sigma2_u - g1(data, fit.theta)
    out = np.zeros(data.D)
    ok = var > 1e-12 * response_scale(data.y) ** 2
    out[ok] = fit.u_hat[ok] / np.sqrt(var[ok])
    return out

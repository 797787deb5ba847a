"""REML estimation, GLS/BLUP prediction, and prediction-error components.

The unit-level model inverts each block covariance V_d = sigma2_e I +
sigma2_u J in closed form (Sherman-Morrison), so one restricted-likelihood
evaluation costs O(n) after a single pass over the data.  All likelihood
work is written against a batch axis: a bootstrap refit of B responses is
one vectorized call, and a single dataset is a batch of one, so both paths
run the same estimator.

Optimisation is Fisher scoring with step halving; replicates where scoring
stalls fall back to a profiled grid-plus-golden-section search, which
cannot diverge.  Fits run on the response divided by s, a power of two
near its standard deviation, and are mapped back, so the tolerances, the
variance floor and the fallback grid act in standardized units and a fit
does not depend on the units the response was recorded in.  Floors left in
data units: VarianceComponents (so FitResult.theta), bootstrap.G1_FLOOR
and maxstat.SCALE_FLOOR.
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
LL_TOL = 1e-10
PAR_TOL = 1e-8
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


def _tr_pair(Ainv: np.ndarray, M: np.ndarray) -> np.ndarray:
    # trace(Ainv @ M) per batch row
    return np.einsum("mij,mji->m", Ainv, M)


class _NermCore:
    """Closed-form likelihood pieces for the unit-level model.

    theta rows are (sigma2_e, sigma2_u).
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
        kappa = 1.0 / den
        A = (self.xtx[None] - np.einsum("md,di,dj->mij", w, self.t, self.t)) / se[:, None, None]
        b = (st["xty"] - (w * st["s"]) @ self.t) / se[:, None]
        return se, su, den, w, kappa, A, b

    def _residual_sums(self, st, beta):
        # per-cluster sums of y - X beta, and its squared norm
        rsum = st["s"] - beta @ self.t.T
        rtr = (
            st["yty"]
            - 2.0 * np.einsum("mi,mi->m", st["xty"], beta)
            + np.einsum("mi,ij,mj->m", beta, self.xtx, beta)
        )
        return rsum, rtr

    def loglik(self, st, theta):
        se, su, den, w, kappa, A, b = self._common(st, theta)
        beta = _solve_batched(A, b)
        quad = (st["yty"] - np.einsum("md,md->m", w, st["s"] ** 2)) / se
        ypy = quad - np.einsum("mi,mi->m", b, beta)
        logdet_v = (self.n - self.D) * np.log(se) + np.log(den).sum(axis=1)
        sign, logdet_a = np.linalg.slogdet(A)
        ll = -0.5 * (logdet_v + logdet_a + ypy + self.dof * _LOG2PI)
        ll = np.where(sign > 0, ll, -np.inf)
        return ll, beta

    def score_info(self, st, theta):
        se, su, den, w, kappa, A, b = self._common(st, theta)
        beta = _solve_batched(A, b)
        Ainv = np.linalg.inv(A)
        nf = self.sizes[None, :]
        t = self.t

        rsum, rtr = self._residual_sums(st, beta)

        # coefficient of t t' in X' V^-k X, from powers of (I - w J)
        c2 = w * (2.0 - w * nf)
        c3 = w * (3.0 - 3.0 * w * nf + (w * nf) ** 2)

        B_e = (self.xtx[None] - np.einsum("md,di,dj->mij", c2, t, t)) / se[:, None, None] ** 2
        B_u = np.einsum("md,di,dj->mij", kappa**2, t, t)

        tr_p_e = (self.n - (w * nf).sum(axis=1)) / se - _tr_pair(Ainv, B_e)
        tr_p_u = (nf * kappa).sum(axis=1) - _tr_pair(Ainv, B_u)

        r_v2_r = (rtr - (c2 * rsum**2).sum(axis=1)) / se**2
        r_zz_r = (kappa**2 * rsum**2).sum(axis=1)

        score = np.stack(
            [-0.5 * (tr_p_e - r_v2_r), -0.5 * (tr_p_u - r_zz_r)], axis=1
        )

        Q_ee = (self.xtx[None] - np.einsum("md,di,dj->mij", c3, t, t)) / se[:, None, None] ** 3
        Q_eu = np.einsum("md,di,dj->mij", kappa**3, t, t)
        Q_uu = np.einsum("md,di,dj->mij", nf * kappa**3, t, t)

        T1_ee = (self.n - (c2 * nf).sum(axis=1)) / se**2
        T1_eu = (nf * kappa**2).sum(axis=1)
        T1_uu = ((nf * kappa) ** 2).sum(axis=1)

        AB_e = Ainv @ B_e
        AB_u = Ainv @ B_u
        info = np.empty((theta.shape[0], 2, 2))
        info[:, 0, 0] = 0.5 * (T1_ee - 2.0 * _tr_pair(Ainv, Q_ee) + np.einsum("mij,mji->m", AB_e, AB_e))
        info[:, 0, 1] = 0.5 * (T1_eu - 2.0 * _tr_pair(Ainv, Q_eu) + np.einsum("mij,mji->m", AB_e, AB_u))
        info[:, 1, 0] = info[:, 0, 1]
        info[:, 1, 1] = 0.5 * (T1_uu - 2.0 * _tr_pair(Ainv, Q_uu) + np.einsum("mij,mji->m", AB_u, AB_u))
        return score, info

    def start(self, st):
        # method-of-moments on OLS residuals, floored away from zero
        m = st["xty"].shape[0]
        beta0 = np.linalg.solve(
            np.broadcast_to(self.xtx, (m, self.q, self.q)), st["xty"][..., None]
        )[..., 0]
        rsum, rtr = self._residual_sums(st, beta0)
        ss_between = (rsum**2 / self.sizes[None, :]).sum(axis=1)
        ss_within = np.maximum(rtr - ss_between, 0.0)
        msw = ss_within / max(self.n - self.D, 1)
        nf = self.sizes
        n_eff = max((self.n - (nf**2).sum() / self.n) / max(self.D - 1, 1), 1.0)
        msb = ss_between / max(self.D - 1, 1)
        se0 = np.maximum(msw, 1e-8)
        su0 = np.maximum((msb - se0) / n_eff, 0.05 * se0)
        return np.stack([se0, su0], axis=1), rtr

    def profile(self, st, psi):
        """Loglik and theta rows at psi = sigma2_u / sigma2_e.

        sigma2_e is profiled out at its REML maximizer y'P y / (n - q), with
        P the projection at unit sigma2_e.
        """
        m = psi.shape[0]
        unit = np.stack([np.ones(m), psi], axis=1)
        se, su, den, w, kappa, A, b = self._common(st, unit)
        beta = _solve_batched(A, b)
        quad = st["yty"] - np.einsum("md,md->m", w, st["s"] ** 2)
        ypy = quad - np.einsum("mi,mi->m", b, beta)
        se_hat = np.maximum(ypy / (self.n - self.q), VAR_FLOOR)
        theta = np.maximum(np.stack([se_hat, psi * se_hat], axis=1), VAR_FLOOR)
        return self.loglik(st, theta)[0], theta

    def profile_grid(self, st):
        return np.concatenate([[0.0], np.logspace(-10, 8, 73)])

    def predictions(self, st, theta, spec: MixedParameterSpec):
        se, su, den, w, kappa, A, b = self._common(st, theta)
        beta = _solve_batched(A, b)
        rsum = st["s"] - beta @ self.t.T
        u = su[:, None] * kappa * rsum
        g1 = self.g1(theta) * spec.m[None, :] ** 2
        mu = beta @ spec.k.T + spec.m[None, :] * u
        return beta, u, mu, g1

    def g1(self, theta):
        se = theta[:, 0][:, None]
        su = theta[:, 1][:, None]
        return su * se / (se + self.sizes[None, :] * su)


class _FhmCore:
    """Likelihood pieces for the area-level model; theta rows are (sigma2_u,)."""

    def __init__(self, data: BlockLmmData, error_vars: np.ndarray):
        self.X = data.X
        self.D = data.D
        self.q = data.p + 1
        self.s2e = error_vars
        self.xx = np.einsum("di,dj->dij", data.X, data.X)
        self.dof = self.D - self.q - 1

    def stats(self, Y: np.ndarray) -> dict:
        # one observation per cluster, so the stacked response is already per-cluster
        return {"y": Y}

    def _common(self, st, theta):
        v = self.s2e[None, :] + theta[:, 0][:, None]
        A = np.einsum("md,dij->mij", 1.0 / v, self.xx)
        b = (st["y"] / v) @ self.X
        return v, A, b

    def loglik(self, st, theta):
        v, A, b = self._common(st, theta)
        beta = _solve_batched(A, b)
        r = st["y"] - beta @ self.X.T
        ypy = (r**2 / v).sum(axis=1)
        sign, logdet_a = np.linalg.slogdet(A)
        ll = -0.5 * (np.log(v).sum(axis=1) + logdet_a + ypy + self.dof * _LOG2PI)
        ll = np.where(sign > 0, ll, -np.inf)
        return ll, beta

    def score_info(self, st, theta):
        v, A, b = self._common(st, theta)
        beta = _solve_batched(A, b)
        Ainv = np.linalg.inv(A)
        r = st["y"] - beta @ self.X.T

        B = np.einsum("md,dij->mij", 1.0 / v**2, self.xx)
        Q = np.einsum("md,dij->mij", 1.0 / v**3, self.xx)
        tr_p = (1.0 / v).sum(axis=1) - _tr_pair(Ainv, B)
        score = -0.5 * (tr_p - (r**2 / v**2).sum(axis=1))

        AB = Ainv @ B
        info = 0.5 * (
            (1.0 / v**2).sum(axis=1) - 2.0 * _tr_pair(Ainv, Q) + np.einsum("mij,mji->m", AB, AB)
        )
        return score[:, None], info[:, None, None]

    def start(self, st):
        m = st["y"].shape[0]
        xtx = self.xx.sum(axis=0)
        beta0 = np.linalg.solve(np.broadcast_to(xtx, (m, self.q, self.q)), (st["y"] @ self.X)[..., None])[..., 0]
        r = st["y"] - beta0 @ self.X.T
        rtr = (r**2).sum(axis=1)
        msr = rtr / max(self.D - self.q, 1)
        su0 = np.maximum(msr - self.s2e.mean(), 0.05 * msr)
        return np.maximum(su0, VAR_FLOOR)[:, None], rtr

    def profile(self, st, su):
        """Loglik and theta rows at sigma2_u, the one parameter."""
        theta = su[:, None]
        return self.loglik(st, theta)[0], theta

    def profile_grid(self, st):
        hi = 10.0 * (st["y"].var(axis=1).max() + self.s2e.max()) + 1.0
        return np.concatenate([[VAR_FLOOR], np.logspace(-9, np.log10(hi), 73)])

    def predictions(self, st, theta, spec: MixedParameterSpec):
        v, A, b = self._common(st, theta)
        beta = _solve_batched(A, b)
        r = st["y"] - beta @ self.X.T
        u = (theta[:, 0][:, None] / v) * r
        g1 = self.g1(theta) * spec.m[None, :] ** 2
        mu = beta @ spec.k.T + spec.m[None, :] * u
        return beta, u, mu, g1

    def g1(self, theta):
        su = theta[:, 0][:, None]
        return su * self.s2e[None, :] / (su + self.s2e[None, :])


def _golden_section(f, lo, hi, iters: int = 60):
    """Vectorized golden-section maximisation of f on [lo, hi] per row."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo.astype(float).copy(), hi.astype(float).copy()
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        pick_c = fc >= fd
        # keep [a, d] when the left probe wins, [c, b] otherwise
        b = np.where(pick_c, d, b)
        a = np.where(pick_c, a, c)
        c_next = np.where(pick_c, b - invphi * (b - a), d)
        d_next = np.where(pick_c, c, a + invphi * (b - a))
        fresh = f(np.where(pick_c, c_next, d_next))
        fc, fd = np.where(pick_c, fresh, fd), np.where(pick_c, fc, fresh)
        c, d = c_next, d_next
    return a, b


def _fallback(core, st, rows):
    """Grid + golden-section search over the core's one-parameter profile."""
    sub = {k: v[rows] for k, v in st.items()}
    m = int(np.count_nonzero(rows))
    grid = core.profile_grid(sub)
    lls = np.stack([core.profile(sub, np.full(m, g))[0] for g in grid], axis=1)
    lls = np.where(np.isfinite(lls), lls, -np.inf)
    best = np.argmax(lls, axis=1)
    lo = grid[np.maximum(best - 1, 0)]
    hi = grid[np.minimum(best + 1, grid.size - 1)]
    lo, hi = _golden_section(lambda x: core.profile(sub, x)[0], lo, hi)
    ll, theta = core.profile(sub, 0.5 * (lo + hi))
    return theta, ll


def _core_for(data: BlockLmmData, s: float = 1.0):
    """Likelihood core for the response in units of s (known variances / s^2)."""
    if data.model_tag == NERM:
        return _NermCore(data)
    return _FhmCore(data, data.known_error_vars / s**2)


def _response_scale(y: np.ndarray) -> float:
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
    s = _response_scale(data.y)
    core = _core_for(data, s)
    return core, core.stats(Y / s), s


# ======================================================================
# batched REML driver
# ======================================================================

def _det(M: np.ndarray) -> np.ndarray:
    """Closed-form determinant of a batch of 1x1 or 2x2 matrices."""
    if M.shape[-1] == 1:
        return M[:, 0, 0]
    return M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]


def _fisher_scoring(core, st, theta0):
    """Fisher scoring with step halving; returns theta, ll, fallback mask."""
    m, k = theta0.shape
    theta = np.maximum(theta0, VAR_FLOOR)
    ll, _ = core.loglik(st, theta)
    active = np.isfinite(ll)
    needs_fallback = ~np.isfinite(ll)

    for _ in range(MAX_ITER):
        if not active.any():
            break
        score, info = core.score_info(st, theta)
        # Cramer's rule: step j = det(info, column j replaced by the score) / det(info)
        det = _det(info)
        ok = np.abs(det) > 1e-300
        numer = [_det(np.where(np.arange(k) == j, score[:, :, None], info)) for j in range(k)]
        step = np.stack(numer, axis=1) / np.where(ok, det, 1.0)[:, None]
        bad_info = ~ok | ~np.isfinite(step).all(axis=1)
        step = np.where((active & ~bad_info)[:, None], step, 0.0)
        needs_fallback |= active & bad_info
        active &= ~bad_info

        factor = np.ones(m)
        cand = theta
        ll_new = ll
        still_bad = active.copy()
        for _h in range(40):
            trial = np.maximum(theta + factor[:, None] * step, VAR_FLOOR)
            cand = np.where(still_bad[:, None], trial, cand)
            ll_try, _ = core.loglik(st, cand)
            ll_new = np.where(still_bad, ll_try, ll_new)
            still_bad = active & ~(ll_new >= ll - 1e-12)
            if not still_bad.any():
                break
            factor = np.where(still_bad, factor * 0.5, factor)
        needs_fallback |= still_bad
        active &= ~still_bad

        moved = np.abs(cand - theta).max(axis=1)
        gained = np.abs(ll_new - ll)
        done = active & (gained < LL_TOL) & (moved < PAR_TOL)
        theta = np.where(active[:, None], cand, theta)
        ll = np.where(active, ll_new, ll)
        active &= ~done

    needs_fallback |= active  # ran out of iterations
    return theta, ll, needs_fallback


def _batch_reml(core, st, s: float, spec: MixedParameterSpec | None = None) -> dict:
    """REML per row of a standardized problem, with results in the units of Y.

    Maps theta and g1 back by s^2, beta, u and mu by s, and the restricted
    loglik by -(n - q) log s; the boundary flag is read in standardized
    units.  Predictions are included when spec is given.
    """
    theta0, _ = core.start(st)
    theta, ll, fall = _fisher_scoring(core, st, theta0)
    if fall.any():
        theta_fb, ll_fb = _fallback(core, st, fall)
        # keep whichever of the two candidates scores higher
        better = ~np.isfinite(ll[fall]) | (ll_fb > ll[fall])
        idx = np.flatnonzero(fall)[better]
        theta[idx] = theta_fb[better]
        ll[idx] = ll_fb[better]
    theta = np.maximum(theta, VAR_FLOOR)
    out = {
        "theta": theta * s**2,
        "loglik": ll - (core.dof + 1) * math.log(s),  # core.dof + 1 = n - q
        "fallback": fall,
        "boundary": (theta <= VAR_FLOOR).any(axis=1),
    }
    if spec is not None:
        beta, u, mu, g1 = core.predictions(st, theta, spec)
        out.update(beta=beta * s, u=u * s, mu=mu * s, g1=g1 * s**2)
    return out


def batch_eblup(data: BlockLmmData, spec: MixedParameterSpec, Y: np.ndarray) -> dict:
    """Run the full REML + BLUP pipeline on every row of Y at once.

    Returns arrays keyed by name: theta (m, k), beta (m, p+1), u (m, D),
    mu (m, D), g1 (m, D), loglik (m,), plus bookkeeping masks `fallback`
    and `boundary`.  Row i depends only on Y[i], never on the rest of the
    batch, so results are identical however the batch is split.
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
    """REML variance components via Fisher scoring with a profiled fallback."""
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
    """REML + BLUP: row 0 of the batch fit of data.y[None, :], theta floored in data units."""
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

"""Output checks run on the program's files from outside the program.

Each check raises ``CheckFailed`` with a reason.  The corruption helpers at
the end make deliberately broken copies of a good output (swapped bounds, a
dropped rejection, a critical value scaled by 1e4, a missing or out-of-range
simulation row); the benchmark feeds those copies back through the checks
on every run, so a check that stops biting fails the run.
"""

from __future__ import annotations

import copy
import csv
import io
import math
from statistics import NormalDist

import numpy as np

REL_TOL = 1e-9
SCALE_TOL = 1e-6  # rescaled vs unit-scale answers, relative
MC_SLACK_SE = 6.0  # MC critical value may exceed Bonferroni by this many standard errors


class CheckFailed(Exception):
    pass


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _z(p: float) -> float:
    return NormalDist().inv_cdf(p)


def fit_arrays(fit: dict) -> tuple[np.ndarray, np.ndarray]:
    """(mu_hat, scale) per cluster from ``spimax fit`` JSON."""
    mu = np.array([c["mu_hat"] for c in fit["clusters"]])
    scale = np.array([c["scale"] for c in fit["clusters"]])
    return mu, scale


# ----------------------------------------------------------------------
# spi
# ----------------------------------------------------------------------

def mc_slack(alpha: float, D: int, K: int) -> float:
    """Allowance for Monte Carlo error of the (1-alpha) order statistic.

    Standard error of a sample quantile, sqrt(alpha(1-alpha)/K) / f(c), with
    f the density of the max of D independent |N(0,1)| at the Bonferroni
    height; positive dependence between clusters only lowers the true value.
    """
    c = _z(1.0 - alpha / (2.0 * D))
    density = 2.0 * D * NormalDist().pdf(c) * (1.0 - alpha)
    return MC_SLACK_SE * math.sqrt(alpha * (1.0 - alpha) / K) / density


def check_spi(out: dict, D: int, fit: dict) -> None:
    """Interval order, critical-value bounds, centres and widths against a fit."""
    alpha = out["alpha"]
    rows = out["intervals"]
    _require(len(rows) == D, f"expected {D} intervals, got {len(rows)}")
    lo = np.array([r["lower"] for r in rows])
    ce = np.array([r["center"] for r in rows])
    hi = np.array([r["upper"] for r in rows])
    _require(bool(np.isfinite([lo, ce, hi]).all()), "non-finite interval bound")
    _require(bool(np.all((lo <= ce) & (ce <= hi))), "lower <= center <= upper violated")
    cv = out["critical_value"]
    _require(cv >= _z(1.0 - alpha / 2.0), f"critical value {cv} below z_(1-alpha/2)")
    if out["method"] == "mc":
        cap = _z(1.0 - alpha / (2.0 * D)) + mc_slack(alpha, D, out["K"])
        _require(cv <= cap, f"MC critical value {cv} above Bonferroni + slack {cap}")
    mu, scale = fit_arrays(fit)
    _require(np.allclose(ce, mu, rtol=REL_TOL, atol=0.0), "centres differ from fit mu_hat")
    half = (hi - lo) / 2.0
    if out["method"] == "bs":
        _require(
            np.allclose(half, cv * scale, rtol=1e-7, atol=0.0),
            "half-widths differ from critical_value * fit scale",
        )
    else:
        # MC and VT scales are sqrt(g1 + g2), never below the fit's sqrt(g1)
        _require(
            bool(np.all(half >= cv * scale * (1.0 - 1e-7))),
            "half-widths below critical_value * fit scale",
        )


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------

def studentized(mu, scale, h, A=None) -> np.ndarray:
    """|A mu - h| over sqrt(sum_j A_dj^2 scale_j^2); A = I when None."""
    if A is None:
        return np.abs(mu - h) / scale
    return np.abs(A @ mu - h) / np.sqrt(scale**2 @ (A.T**2))


def single_step_rejections(mu, scale, h, cv, A=None) -> set[int]:
    """Components whose statistic clearly exceeds the single-step threshold."""
    t = studentized(mu, scale, h, A)
    return {int(i) for i in np.flatnonzero(t >= cv * (1.0 + REL_TOL))}


def check_test(out: dict, fit: dict, h: np.ndarray, A: np.ndarray | None = None) -> None:
    """The max statistic agrees with the fit, and the step-down rejected set
    contains every single-step rejection."""
    rejected = out["rejected_indices"]
    m = h.shape[0]
    _require(rejected == sorted(set(rejected)), "rejected indices not sorted and unique")
    _require(all(0 <= i < m for i in rejected), "rejected index out of range")
    _require(out["n_rejected"] == len(rejected), "n_rejected disagrees with the index list")
    _require(out["critical_value"] >= _z(1.0 - out["alpha"] / 2.0), "critical value below z_(1-alpha/2)")
    mu, scale = fit_arrays(fit)
    t_max = float(studentized(mu, scale, h, A).max())
    _require(
        math.isclose(out["statistic"], t_max, rel_tol=1e-7),
        f"statistic {out['statistic']} != max studentized value {t_max} from the fit",
    )
    single = single_step_rejections(mu, scale, h, out["critical_value"], A)
    missing = sorted(single - set(rejected))
    _require(not missing, f"single-step rejections missing from step-down set: {missing[:5]}")


def check_same_answer(scaled: dict, unit: dict, factor: float) -> None:
    """Rescaling the response rescales the answer and nothing else."""
    _require(
        math.isclose(scaled["critical_value"], unit["critical_value"], rel_tol=SCALE_TOL),
        f"critical value {scaled['critical_value']} != unit-scale {unit['critical_value']}",
    )
    if "rejected_indices" in unit:
        _require(
            scaled["rejected_indices"] == unit["rejected_indices"],
            "rejected set differs from the unit-scale run",
        )
    if "intervals" in unit:
        for key in ("lower", "center", "upper"):
            a = np.array([r[key] for r in scaled["intervals"]])
            b = factor * np.array([r[key] for r in unit["intervals"]])
            _require(
                np.allclose(a, b, rtol=SCALE_TOL, atol=SCALE_TOL * np.abs(b).max()),
                f"{key} bounds are not {factor:g} x the unit-scale bounds",
            )


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

POWER_DELTAS = ("-2", "-1", "-0.5", "0", "0.5", "1", "2")
SIM_EXPECTED = {
    "table1-row": {m: ("ecp", "ws", "vs") for m in ("BS", "MC", "BO", "BE")},
    "table2-row": {m: ("ecp", "ws", "vs") for m in ("BS", "MC", "BO", "BE")},
    "power": {m: tuple(f"power@{d}" for d in POWER_DELTAS) for m in ("BS", "MC")},
    "fwer": {m: ("fwer", "alt_rate") for m in ("BS", "BO")},
}
RATE_PREFIXES = ("ecp", "power@", "fwer", "alt_rate")


def parse_sim_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_sim(rows: list[dict], preset: str) -> None:
    """Every (method, criterion) row; rates in [0, 1]; widths finite."""
    seen = {(r["method"], r["criterion"]) for r in rows}
    want = {(m, c) for m, crits in SIM_EXPECTED[preset].items() for c in crits}
    _require(seen == want and len(rows) == len(want), f"rows {sorted(want ^ seen)} wrong")
    for r in rows:
        value, hw = float(r["value"]), float(r["mc_halfwidth"])
        _require(math.isfinite(value) and math.isfinite(hw) and hw >= 0, f"bad row {r}")
        if r["criterion"].startswith(RATE_PREFIXES):
            _require(0.0 <= value <= 1.0, f"rate outside [0, 1]: {r}")
        else:
            _require(value >= 0.0, f"negative width: {r}")


# ----------------------------------------------------------------------
# corruptions: each must be rejected by the check it targets
# ----------------------------------------------------------------------

def swap_bounds(out: dict) -> dict:
    bad = copy.deepcopy(out)
    first = bad["intervals"][0]
    first["lower"], first["upper"] = first["upper"], first["lower"]
    return bad


def scale_critical(out: dict) -> dict:
    bad = copy.deepcopy(out)
    bad["critical_value"] *= 1e4
    return bad


def drop_rejection(out: dict, fit: dict, h, A=None) -> dict:
    """Remove the first single-step rejection from the step-down set."""
    mu, scale = fit_arrays(fit)
    single = single_step_rejections(mu, scale, h, out["critical_value"], A)
    if not single:
        raise CheckFailed("no single-step rejection to drop: the check cannot be shown to bite")
    bad = copy.deepcopy(out)
    bad["rejected_indices"].remove(min(single))
    bad["n_rejected"] -= 1
    return bad


def drop_row(rows: list[dict]) -> list[dict]:
    return copy.deepcopy(rows[:-1])


def rate_out_of_range(rows: list[dict]) -> list[dict]:
    bad = copy.deepcopy(rows)
    rate = next(r for r in bad if r["criterion"].startswith(RATE_PREFIXES))
    rate["value"] = str(float(rate["value"]) * 1e4 + 1.5)
    return bad


def bites(check, corrupted) -> bool:
    """True when the check rejects the corrupted output."""
    try:
        check(corrupted)
    except CheckFailed:
        return True
    return False

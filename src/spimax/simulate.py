"""Scenario generation and simulation experiments.

Three experiment drivers share one replicate pipeline (generate, fit,
calibrate): simultaneous-interval comparison scored by coverage and
width criteria, power curves for the max-type test, and family-wise
error rates for step-down selection.  Every random ingredient is drawn
from a seed derived from (master_seed, replicate, role), so results are
bit-exact for a fixed configuration regardless of scheduling.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bootstrap import stepdown_quantile_provider
from .calibration import calibrate
from .errors import NonPositiveShift, ShapeMismatch, SpimaxError
from .estimation import eblup
from .maxstat import CriticalValue, build_spi, covers_all, step_down_test
from .model import FHM, NERM, BlockLmmData, ClusterBlock, cluster_mean_spec
from .util import check_alpha, check_seed, check_threads, derive_rng, derive_seed

SPI_METHODS = ("BS", "MC", "BO", "BE")


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell: model family, layout and experiment sizes.

    fhm_sigma_pattern holds the known error variances assigned blockwise,
    one value per fifth of the clusters (area-level model only).
    """

    model_tag: str = NERM
    D: int = 30
    n_d: int = 5
    sigma2_e: float = 0.5
    sigma2_u: float = 1.0
    fhm_sigma_pattern: tuple[float, ...] = (0.7, 0.6, 0.5, 0.4, 0.3)
    beta: tuple[float, ...] = (1.0, 1.0)
    n_sim: int = 500
    n_boot: int = 500
    n_mc: int = 2000
    alpha: float = 0.05
    master_seed: int = 20260819
    label: str = ""

    def __post_init__(self):
        check_alpha(self.alpha)
        check_seed(self.master_seed)
        if self.model_tag not in (NERM, FHM):
            raise ShapeMismatch(f"unknown model tag {self.model_tag!r}")
        if self.D < 2:
            raise ShapeMismatch("need at least two clusters")
        if min(self.n_sim, self.n_boot, self.n_mc) < 1:
            raise ShapeMismatch("n_sim, n_boot and n_mc must be at least 1")
        if self.sigma2_u <= 0 or self.sigma2_e <= 0:
            raise ShapeMismatch("variances must be positive")
        if len(self.beta) < 1:
            raise ShapeMismatch("beta needs at least the intercept coefficient")
        if self.model_tag == FHM:
            if any(v <= 0 for v in self.fhm_sigma_pattern):
                raise ShapeMismatch("error variance pattern must be positive")
            if self.D % len(self.fhm_sigma_pattern) != 0:
                raise ShapeMismatch(
                    f"D = {self.D} must be divisible by the pattern length "
                    f"{len(self.fhm_sigma_pattern)}"
                )
        elif self.n_d < 2:
            raise ShapeMismatch("unit-level clusters need at least two units")
        if not self.label:
            object.__setattr__(self, "label", f"{self.model_tag}-D{self.D}")

    @property
    def error_vars(self) -> np.ndarray:
        """Known error variances with the pattern applied per block."""
        pat = np.asarray(self.fhm_sigma_pattern, dtype=float)
        return np.repeat(pat, self.D // pat.size)


def generate_scenario(config: ScenarioConfig, replicate: int):
    """Dataset, true mixed parameters and target spec for one replicate.

    Draw order is covariates, then random effects, then errors; slope
    covariates are uniform on [0, 1].
    """
    rng = derive_rng(config.master_seed, replicate, 0)
    beta = np.asarray(config.beta, dtype=float)
    p = beta.size - 1
    D = config.D
    blocks = []
    if config.model_tag == NERM:
        n_d = config.n_d
        covs = rng.uniform(0.0, 1.0, size=(D * n_d, p))
        u = math.sqrt(config.sigma2_u) * rng.standard_normal(D)
        e = math.sqrt(config.sigma2_e) * rng.standard_normal(D * n_d)
        for d in range(D):
            sl = slice(d * n_d, (d + 1) * n_d)
            X = np.column_stack([np.ones(n_d), covs[sl]])
            blocks.append(
                ClusterBlock(cluster_id=d, y=X @ beta + u[d] + e[sl], X=X)
            )
        data = BlockLmmData(model_tag=NERM, clusters=tuple(blocks))
    else:
        ev = config.error_vars
        covs = rng.uniform(0.0, 1.0, size=(D, p))
        u = math.sqrt(config.sigma2_u) * rng.standard_normal(D)
        e = np.sqrt(ev) * rng.standard_normal(D)
        for d in range(D):
            X = np.concatenate([[1.0], covs[d]])[None, :]
            blocks.append(
                ClusterBlock(
                    cluster_id=d,
                    y=[float(X[0] @ beta + u[d] + e[d])],
                    X=X,
                    known_error_var=ev[d],
                )
            )
        data = BlockLmmData(model_tag=FHM, clusters=tuple(blocks))
    spec = cluster_mean_spec(data)
    mu = spec.k @ beta + spec.m * u
    return data, mu, spec


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated criteria plus the per-replicate records behind them.

    criteria[method] maps criterion names to values; halfwidths holds the
    matching 1.96-sigma Monte Carlo half-widths.  samples keeps the raw
    per-replicate arrays so any aggregate can be recomputed exactly.
    """

    kind: str
    config: ScenarioConfig
    methods: tuple[str, ...]
    criteria: dict
    halfwidths: dict
    n_failed: int
    n_fallback: int
    n_boundary: int
    runtime_seconds: float
    samples: dict = field(repr=False, default_factory=dict)

    def rows(self) -> list[tuple]:
        """(scenario, method, criterion, value, mc_halfwidth) records."""
        out = []
        for m in self.methods:
            for crit, val in self.criteria[m].items():
                out.append(
                    (self.config.label, m, crit, val, self.halfwidths[m].get(crit, 0.0))
                )
        return out


def _binomial_halfwidth(p: float, n: int) -> float:
    return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / n) if n > 0 else 0.0


def _run_replicates(kind, config, methods, threads, score, aggregate) -> ExperimentResult:
    """The one replicate loop: generate, fit, calibrate, score, aggregate.

    Replicate i draws its data from generate_scenario(config, i) and its
    calibration streams from (master_seed, i, 1) for the bootstrap (shared
    by BS and BE) and (master_seed, i, 2) for the direct simulation.
    score(fit, mu_true, calibrated, draws) turns the calibrated {method:
    (critical value, floored scales)} into one record; a replicate where
    any step raises SpimaxError is recorded as failed and left out.
    aggregate(records) returns (criteria, halfwidths, samples) from the
    records of the surviving replicates, in order.
    """
    check_threads(threads)  # before the loop, which records a SpimaxError as a failed replicate
    start_time = time.perf_counter()
    records: list = []
    failed: list[int] = []
    n_fallback = n_boundary = 0
    for i in range(config.n_sim):
        data, mu_true, spec = generate_scenario(config, i)
        draws = None
        try:
            fit = eblup(data, spec)
            calibrated = {}
            for m in methods:
                cv, scales, draws = calibrate(
                    m, data, spec, fit, alpha=config.alpha,
                    seed=derive_seed(config.master_seed, i, 2 if m == "MC" else 1),
                    B=config.n_boot, K=config.n_mc, draws=draws, threads=threads,
                )
                calibrated[m] = (cv, scales)
            records.append(score(fit, mu_true, calibrated, draws))
        except SpimaxError:
            failed.append(i)
        if draws is not None:
            n_fallback += draws.n_fallback
            n_boundary += draws.n_boundary
    if not records:
        raise ShapeMismatch("every simulation replicate failed")
    criteria, halfwidths, samples = aggregate(records)
    samples["failed_replicates"] = tuple(failed)
    return ExperimentResult(
        kind=kind,
        config=config,
        methods=tuple(criteria),
        criteria=criteria,
        halfwidths=halfwidths,
        n_failed=len(failed),
        n_fallback=n_fallback,
        n_boundary=n_boundary,
        runtime_seconds=time.perf_counter() - start_time,
        samples=samples,
    )


def _mean_halfwidth(values: np.ndarray) -> float:
    """1.96-sigma Monte Carlo half-width of the mean of values."""
    n = values.shape[0]
    return 1.96 * float(values.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0


def run_spi_experiment(
    config: ScenarioConfig,
    methods: tuple[str, ...] = SPI_METHODS,
    threads: int | None = None,
    extra_criticals: dict[str, CriticalValue] | None = None,
) -> ExperimentResult:
    """Coverage (ECP), mean width (WS) and width variance (VS) per method.

    All methods center intervals at the same predictions.  BS, BE and BO
    scale by the leading MSE term; the direct simulation calibrates and
    scales with its model-implied standard deviations.  extra_criticals
    injects fixed thresholds as additional pseudo-methods (for harness
    checks); they use the leading-term scales.
    """
    methods = tuple(methods)
    for m in methods:
        if m not in SPI_METHODS:
            raise ShapeMismatch(f"unknown method {m!r}; choose from {SPI_METHODS}")
    extra = dict(extra_criticals or {})
    all_methods = methods + tuple(extra)
    if len(set(all_methods)) != len(all_methods):
        raise ShapeMismatch("duplicate method names")

    def score(fit, mu_true, calibrated, draws):
        intervals = {m: build_spi(fit, cv, scales) for m, (cv, scales) in calibrated.items()}
        intervals.update((name, build_spi(fit, cv)) for name, cv in extra.items())
        return {m: (covers_all(iv, mu_true), iv.upper - iv.lower) for m, iv in intervals.items()}

    def aggregate(records):
        n_ok = len(records)
        criteria, halfwidths, samples = {}, {}, {}
        for m in all_methods:
            cov = np.array([r[m][0] for r in records])
            w = np.array([r[m][1] for r in records])
            per_cluster_var = (
                w.var(axis=0, ddof=1) if n_ok > 1 else np.zeros(config.D)
            )
            ecp = float(cov.mean())
            criteria[m] = {"ecp": ecp, "ws": float(w.mean()), "vs": float(per_cluster_var.mean())}
            halfwidths[m] = {
                "ecp": _binomial_halfwidth(ecp, n_ok),
                "ws": _mean_halfwidth(w.mean(axis=1)),
                "vs": 1.96 * float(per_cluster_var.std(ddof=1)) / math.sqrt(config.D),
            }
            samples[m] = {"covered": cov, "widths": w}
        return criteria, halfwidths, samples

    return _run_replicates("spi", config, methods, threads, score, aggregate)


def run_power_experiment(
    config: ScenarioConfig,
    delta_grid: tuple[float, ...] = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0),
    methods: tuple[str, ...] = ("BS", "MC"),
    threads: int | None = None,
) -> ExperimentResult:
    """Rejection rate of the global max-type test along a shift grid.

    Each replicate tests the targets mu = h with h = (realized mu) +
    delta for every delta, reusing one calibrated threshold per method,
    so the delta = 0 column is the empirical size.
    """
    methods = tuple(methods)
    for m in methods:
        if m not in ("BS", "MC"):
            raise ShapeMismatch(f"power experiment supports BS and MC, got {m!r}")
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.size < 1:
        raise ShapeMismatch("need at least one shift value")

    def score(fit, mu_true, calibrated, draws):
        return {
            m: np.array(
                [np.max(np.abs(fit.mu_hat - (mu_true + delta)) / scales) >= cv.value
                 for delta in deltas]
            )
            for m, (cv, scales) in calibrated.items()
        }

    def aggregate(records):
        criteria, halfwidths, samples = {}, {}, {"deltas": deltas}
        for m in methods:
            rej = np.column_stack([r[m] for r in records])
            criteria[m], halfwidths[m] = {}, {}
            for j, delta in enumerate(deltas):
                rate = float(rej[j].mean())
                key = f"power@{delta:g}"
                criteria[m][key] = rate
                halfwidths[m][key] = _binomial_halfwidth(rate, len(records))
            samples[m] = {"reject": rej}
        return criteria, halfwidths, samples

    return _run_replicates("power", config, methods, threads, score, aggregate)


def run_fwer_experiment(
    config: ScenarioConfig,
    shift: float = 1.0,
    n_alt: int | None = None,
    threads: int | None = None,
) -> ExperimentResult:
    """Family-wise error of step-down selection vs a fixed-threshold test.

    The first n_alt clusters (a fifth by default) get nulls shifted below
    the realized targets, the rest carry true nulls; FWER is the fraction
    of replicates rejecting at least one true null.  BS uses the
    step-down rule with shared-draw subset quantiles; BO applies the
    normal-quantile threshold in a single step.
    """
    if n_alt is None:
        if config.D % 5 != 0:
            raise ShapeMismatch("D must be divisible by 5 for the default split")
        n_alt = config.D // 5
    if not 0 <= n_alt <= config.D:
        raise ShapeMismatch(f"n_alt must lie in [0, {config.D}]")
    if n_alt > 0 and shift <= 0:
        raise NonPositiveShift("alternative shift must be positive")
    methods = ("BS", "BO")

    def score(fit, mu_true, calibrated, draws):
        h = mu_true.copy()
        h[:n_alt] -= shift
        # both methods studentize by the leading-term scales
        t = np.abs(fit.mu_hat - h) / calibrated["BS"][1]
        provider = stepdown_quantile_provider(draws, config.alpha)
        rejected = {
            "BS": step_down_test(t, provider, config.alpha),
            "BO": np.flatnonzero(t >= calibrated["BO"][0].value),
        }
        return {
            m: (bool(np.any(rej >= n_alt)), float(np.sum(rej < n_alt)) / n_alt if n_alt else 0.0)
            for m, rej in rejected.items()
        }

    def aggregate(records):
        n_ok = len(records)
        criteria, halfwidths, samples = {}, {}, {"n_alt": n_alt}
        for m in methods:
            false_rej = np.array([r[m][0] for r in records])
            alt_rate = np.array([r[m][1] for r in records])
            fw = float(false_rej.mean())
            criteria[m] = {"fwer": fw, "alt_rate": float(alt_rate.mean())}
            halfwidths[m] = {
                "fwer": _binomial_halfwidth(fw, n_ok),
                "alt_rate": _mean_halfwidth(alt_rate),
            }
            samples[m] = {"false_rejection": false_rej, "alt_rate": alt_rate}
        return criteria, halfwidths, samples

    return _run_replicates("fwer", config, methods, threads, score, aggregate)

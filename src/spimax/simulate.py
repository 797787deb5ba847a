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

from .analytic import bonferroni_cv
from .bootstrap import (
    beran_critical_values,
    critical_value_bs,
    parametric_bootstrap,
    stepdown_quantile_provider,
)
from .errors import NonPositiveShift, ShapeMismatch, SpimaxError
from .estimation import eblup
from .maxstat import SCALE_FLOOR, CriticalValue, build_spi, covers_all, step_down_test
from .mc import build_joint_normal, critical_value_mc, model_scales
from .model import FHM, NERM, BlockLmmData, ClusterBlock, cluster_mean_spec
from .util import check_alpha, check_seed, derive_rng, derive_seed

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


def _replicate_seeds(config: ScenarioConfig, i: int) -> tuple[int, int]:
    return (
        derive_seed(config.master_seed, i, 1),  # bootstrap stream
        derive_seed(config.master_seed, i, 2),  # direct-simulation stream
    )


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
    start_time = time.perf_counter()
    methods = tuple(methods)
    for m in methods:
        if m not in SPI_METHODS:
            raise ShapeMismatch(f"unknown method {m!r}; choose from {SPI_METHODS}")
    extra = dict(extra_criticals or {})
    all_methods = methods + tuple(extra)
    if len(set(all_methods)) != len(all_methods):
        raise ShapeMismatch("duplicate method names")

    I = config.n_sim
    covered = {m: np.zeros(I, dtype=bool) for m in all_methods}
    widths = {m: np.zeros((I, config.D)) for m in all_methods}
    ok = np.zeros(I, dtype=bool)
    failed: list[int] = []
    n_fallback = n_boundary = 0

    for i in range(I):
        data, mu_true, spec = generate_scenario(config, i)
        boot_seed, mc_seed = _replicate_seeds(config, i)
        try:
            fit = eblup(data, spec)
            intervals = {}
            if "BS" in methods or "BE" in methods:
                draws = parametric_bootstrap(
                    data, spec, fit, config.n_boot, boot_seed, threads=threads
                )
                n_fallback += draws.n_fallback
                n_boundary += draws.n_boundary
                if "BS" in methods:
                    intervals["BS"] = build_spi(fit, critical_value_bs(draws, config.alpha))
                if "BE" in methods:
                    intervals["BE"] = build_spi(fit, beran_critical_values(draws, config.alpha))
            if "MC" in methods:
                joint = build_joint_normal(data, fit.theta)
                mc_scales = model_scales(joint, spec)
                cv = critical_value_mc(
                    joint, spec, config.n_mc, config.alpha, mc_seed,
                    scales=mc_scales, threads=threads,
                )
                intervals["MC"] = build_spi(fit, cv, scales=mc_scales)
            if "BO" in methods:
                intervals["BO"] = build_spi(fit, bonferroni_cv(config.D, config.alpha))
            for name, cv in extra.items():
                intervals[name] = build_spi(fit, cv)
        except SpimaxError:
            failed.append(i)
            continue
        ok[i] = True
        for m in all_methods:
            iv = intervals[m]
            covered[m][i] = covers_all(iv, mu_true)
            widths[m][i] = iv.upper - iv.lower

    n_ok = int(ok.sum())
    if n_ok == 0:
        raise ShapeMismatch("every simulation replicate failed")
    criteria, halfwidths, samples = {}, {}, {"failed_replicates": tuple(failed)}
    for m in all_methods:
        cov = covered[m][ok]
        w = widths[m][ok]
        ecp = float(cov.mean())
        ws = float(w.mean())
        per_cluster_var = (
            w.var(axis=0, ddof=1) if n_ok > 1 else np.zeros(config.D)
        )
        vs = float(per_cluster_var.mean())
        criteria[m] = {"ecp": ecp, "ws": ws, "vs": vs}
        rep_means = w.mean(axis=1)
        halfwidths[m] = {
            "ecp": _binomial_halfwidth(ecp, n_ok),
            "ws": 1.96 * float(rep_means.std(ddof=1)) / math.sqrt(n_ok)
            if n_ok > 1
            else 0.0,
            "vs": 1.96 * float(per_cluster_var.std(ddof=1)) / math.sqrt(config.D),
        }
        samples[m] = {"covered": cov, "widths": w}
    return ExperimentResult(
        kind="spi",
        config=config,
        methods=all_methods,
        criteria=criteria,
        halfwidths=halfwidths,
        n_failed=len(failed),
        n_fallback=n_fallback,
        n_boundary=n_boundary,
        runtime_seconds=time.perf_counter() - start_time,
        samples=samples,
    )


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
    start_time = time.perf_counter()
    methods = tuple(methods)
    for m in methods:
        if m not in ("BS", "MC"):
            raise ShapeMismatch(f"power experiment supports BS and MC, got {m!r}")
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.size < 1:
        raise ShapeMismatch("need at least one shift value")

    I = config.n_sim
    reject = {m: np.zeros((deltas.size, I), dtype=bool) for m in methods}
    ok = np.zeros(I, dtype=bool)
    failed: list[int] = []
    n_fallback = n_boundary = 0

    for i in range(I):
        data, mu_true, spec = generate_scenario(config, i)
        boot_seed, mc_seed = _replicate_seeds(config, i)
        try:
            fit = eblup(data, spec)
            crit, scales = {}, {}
            if "BS" in methods:
                draws = parametric_bootstrap(
                    data, spec, fit, config.n_boot, boot_seed, threads=threads
                )
                n_fallback += draws.n_fallback
                n_boundary += draws.n_boundary
                crit["BS"] = critical_value_bs(draws, config.alpha).value
                scales["BS"] = np.maximum(fit.scale, SCALE_FLOOR)
            if "MC" in methods:
                joint = build_joint_normal(data, fit.theta)
                mc_scales = model_scales(joint, spec)
                crit["MC"] = critical_value_mc(
                    joint, spec, config.n_mc, config.alpha, mc_seed,
                    scales=mc_scales, threads=threads,
                ).value
                scales["MC"] = np.maximum(mc_scales, SCALE_FLOOR)
        except SpimaxError:
            failed.append(i)
            continue
        ok[i] = True
        for j, delta in enumerate(deltas):
            h = mu_true + delta
            for m in methods:
                t_max = np.max(np.abs(fit.mu_hat - h) / scales[m])
                reject[m][j, i] = t_max >= crit[m]

    n_ok = int(ok.sum())
    if n_ok == 0:
        raise ShapeMismatch("every simulation replicate failed")
    criteria, halfwidths, samples = {}, {}, {"failed_replicates": tuple(failed)}
    samples["deltas"] = deltas
    for m in methods:
        rej = reject[m][:, ok]
        criteria[m] = {}
        halfwidths[m] = {}
        for j, delta in enumerate(deltas):
            rate = float(rej[j].mean())
            key = f"power@{delta:g}"
            criteria[m][key] = rate
            halfwidths[m][key] = _binomial_halfwidth(rate, n_ok)
        samples[m] = {"reject": rej}
    return ExperimentResult(
        kind="power",
        config=config,
        methods=methods,
        criteria=criteria,
        halfwidths=halfwidths,
        n_failed=len(failed),
        n_fallback=n_fallback,
        n_boundary=n_boundary,
        runtime_seconds=time.perf_counter() - start_time,
        samples=samples,
    )


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
    start_time = time.perf_counter()
    if n_alt is None:
        if config.D % 5 != 0:
            raise ShapeMismatch("D must be divisible by 5 for the default split")
        n_alt = config.D // 5
    if not 0 <= n_alt <= config.D:
        raise ShapeMismatch(f"n_alt must lie in [0, {config.D}]")
    if n_alt > 0 and shift <= 0:
        raise NonPositiveShift("alternative shift must be positive")

    methods = ("BS", "BO")
    I = config.n_sim
    false_rej = {m: np.zeros(I, dtype=bool) for m in methods}
    alt_rate = {m: np.zeros(I) for m in methods}
    ok = np.zeros(I, dtype=bool)
    failed: list[int] = []
    n_fallback = n_boundary = 0
    c_bo = bonferroni_cv(config.D, config.alpha).value

    for i in range(I):
        data, mu_true, spec = generate_scenario(config, i)
        boot_seed, _ = _replicate_seeds(config, i)
        try:
            fit = eblup(data, spec)
            draws = parametric_bootstrap(
                data, spec, fit, config.n_boot, boot_seed, threads=threads
            )
            n_fallback += draws.n_fallback
            n_boundary += draws.n_boundary
            provider = stepdown_quantile_provider(draws, config.alpha)
        except SpimaxError:
            failed.append(i)
            continue
        ok[i] = True
        h = mu_true.copy()
        h[:n_alt] -= shift
        t = np.abs(fit.mu_hat - h) / np.maximum(fit.scale, SCALE_FLOOR)
        rejected = {
            "BS": step_down_test(t, provider, config.alpha),
            "BO": np.flatnonzero(t >= c_bo),
        }
        for m in methods:
            rej = rejected[m]
            false_rej[m][i] = bool(np.any(rej >= n_alt))
            alt_rate[m][i] = float(np.sum(rej < n_alt)) / n_alt if n_alt else 0.0

    n_ok = int(ok.sum())
    if n_ok == 0:
        raise ShapeMismatch("every simulation replicate failed")
    criteria, halfwidths, samples = {}, {}, {"failed_replicates": tuple(failed)}
    samples["n_alt"] = n_alt
    for m in methods:
        fw = float(false_rej[m][ok].mean())
        ar = float(alt_rate[m][ok].mean())
        criteria[m] = {"fwer": fw, "alt_rate": ar}
        halfwidths[m] = {
            "fwer": _binomial_halfwidth(fw, n_ok),
            "alt_rate": 1.96 * float(alt_rate[m][ok].std(ddof=1)) / math.sqrt(n_ok)
            if n_ok > 1
            else 0.0,
        }
        samples[m] = {"false_rejection": false_rej[m][ok], "alt_rate": alt_rate[m][ok]}
    return ExperimentResult(
        kind="fwer",
        config=config,
        methods=methods,
        criteria=criteria,
        halfwidths=halfwidths,
        n_failed=len(failed),
        n_fallback=n_fallback,
        n_boundary=n_boundary,
        runtime_seconds=time.perf_counter() - start_time,
        samples=samples,
    )

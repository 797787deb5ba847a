"""Scenario generation and simulation experiments.

Three experiments (coverage and width of the simultaneous intervals,
power of the max-type test, family-wise error of step-down selection)
share one replicate loop: generate, fit, calibrate, then score each
method as {criterion: value}.  Each criterion is the mean of its values
over the surviving replicates (see ExperimentResult).  Every random
ingredient is drawn from a seed derived from (master_seed, replicate,
role), so results are bit-exact for a fixed configuration regardless of
scheduling.  Replicates run on one forked worker process per usable CPU
(the CPU-affinity set, so ``taskset -c 0`` runs them inline): with k
workers, worker w runs replicates w, w + k, w + 2k, ... and sends its
pickled results through a pipe, and the calling process interleaves the
shares back into replicate order.  The output does not depend on the CPU
count, and no option sets it.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import util
from .bootstrap import stepdown_quantile_provider
from .calibration import calibrate
from .errors import NonPositiveShift, ShapeMismatch, SpimaxError
from .estimation import eblup
from .maxstat import build_spi, covers_all, single_step_test, step_down_test
from .model import FHM, NERM, BlockLmmData, cluster_mean_spec
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
        if not all(math.isfinite(v) and v > 0 for v in (self.sigma2_u, self.sigma2_e)):
            raise ShapeMismatch("variances must be positive and finite")
        if len(self.beta) < 1 or not all(map(math.isfinite, self.beta)):
            raise ShapeMismatch("beta needs at least the intercept coefficient, all finite")
        if self.model_tag == FHM:
            pattern = self.fhm_sigma_pattern
            if len(pattern) < 1 or not all(math.isfinite(v) and v > 0 for v in pattern):
                raise ShapeMismatch("error variance pattern must be nonempty, positive and finite")
            if self.D % len(pattern) != 0:
                raise ShapeMismatch(
                    f"D = {self.D} must be divisible by the pattern length {len(pattern)}"
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


# the model and variance settings of the command line's simulation presets
PRESETS = {
    "table1-row": dict(model_tag=NERM, D=30, sigma2_e=0.5, sigma2_u=1.0),
    "table2-row": dict(model_tag=FHM, D=60, sigma2_u=1.0),
    "power": dict(model_tag=NERM, D=30, sigma2_e=0.5, sigma2_u=1.0),
    "fwer": dict(model_tag=NERM, D=15, sigma2_e=1.0, sigma2_u=1.0),
}


def preset_config(preset: str, **overrides) -> ScenarioConfig:
    """The preset's ScenarioConfig, labelled "{preset}-D{D}"; overrides set or replace fields."""
    fields = {**PRESETS[preset], **overrides}
    return ScenarioConfig(**{"label": f"{preset}-D{fields['D']}", **fields})


def generate_scenario(config: ScenarioConfig, replicate: int):
    """Dataset, true mixed parameters and target spec for one replicate.

    Draw order is covariates, then random effects, then errors; slope
    covariates are uniform on [0, 1].
    """
    rng = derive_rng(config.master_seed, replicate, 0)
    beta = np.asarray(config.beta, dtype=float)
    p = beta.size - 1
    D = config.D
    fhm = config.model_tag == FHM
    sizes = np.full(D, 1 if fhm else config.n_d)
    n = int(sizes.sum())
    covs = rng.uniform(0.0, 1.0, size=(n, p))
    u = math.sqrt(config.sigma2_u) * rng.standard_normal(D)
    ev = config.error_vars if fhm else None
    e = (np.sqrt(ev) if fhm else math.sqrt(config.sigma2_e)) * rng.standard_normal(n)
    X = np.column_stack([np.ones(n), covs])
    # an area's fixed part is a 1-d dot of its lone row, whose rounding
    # differs from the matrix-vector product of the stacked rows
    xb = (X[:, None, :] @ beta)[:, 0] if fhm else X @ beta
    y = xb + np.repeat(u, sizes) + e
    data = BlockLmmData(config.model_tag, tuple(range(D)), sizes, y, X, ev)
    spec = cluster_mean_spec(data)
    mu = spec.k @ beta + spec.m * u
    return data, mu, spec


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated criteria plus the per-replicate samples behind them.

    samples[method][criterion] stacks one value per surviving replicate,
    replicates on axis 0: a bool for a rate (ecp, power@delta, fwer), a
    float (alt_rate) or the D interval widths (ws).  Each criterion is
    the mean of its own sample, with a 1.96-sigma Monte Carlo half-width:
    binomial for a bool sample, else from the per-replicate means.  The
    one exception is vs, whose value and sample run_spi_experiment
    describes.  samples also holds failed_replicates (indices of the
    replicates left out) and, per experiment, deltas (power) or n_alt (fwer).
    """

    config: ScenarioConfig
    methods: tuple[str, ...]
    criteria: dict
    halfwidths: dict
    n_failed: int
    n_fallback: int
    n_boundary: int
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


def _halfwidth(sample: np.ndarray) -> float:
    """1.96-sigma Monte Carlo half-width: binomial for a rate, else of the replicate means."""
    n = sample.shape[0]
    if sample.dtype == bool:
        p = float(sample.mean())
        return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / n)
    values = sample.mean(axis=1) if sample.ndim == 2 else sample
    return 1.96 * float(values.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0


def _replicate(config, methods, score, i):
    """(record or None, n_fallback, n_boundary) of replicate i.

    None marks a replicate where a fit, a calibration or the scoring raised
    SpimaxError; any other error propagates.
    """
    data, mu_true, spec = generate_scenario(config, i)
    draws = record = None
    try:
        fit = eblup(data, spec)
        calibrated = {}
        for m in methods:
            cv, scales, draws = calibrate(
                m, data, spec, fit, alpha=config.alpha,
                seed=derive_seed(config.master_seed, i, 2 if m == "MC" else 1),
                B=config.n_boot, K=config.n_mc, draws=draws,
            )
            calibrated[m] = (cv, scales)
        record = score(fit, mu_true, calibrated, draws)
    except SpimaxError:
        pass
    if draws is None:
        return record, 0, 0
    return record, draws.n_fallback, draws.n_boundary


def _map_replicates(task, n: int) -> list:
    """[task(i) for i in range(n)], on one forked worker per usable CPU.

    With k = min(n, usable CPUs) workers, worker w runs the strided share
    w, w + k, w + 2k, ... and sends the pickled list of its results, or
    its exception with the formatted traceback text, through a pipe of its
    own; it then leaves by os._exit, so it never returns into the caller's
    frames.  The calling process only forks, reads the pipes in share order
    and interleaves the shares, so results come back in replicate order.
    An exception is re-raised with its type, chained to a RuntimeError
    that holds the worker's traceback text; one that does not pickle
    arrives as a RuntimeError that names it.  A worker that exits without
    sending its results raises RuntimeError with its share and exit status.
    Every worker has been reaped when this returns or raises: on an error
    or an interrupt the workers still running are killed first.

    The replicates run inline with one usable CPU, without os.fork, and in
    a daemonic multiprocessing process (a Pool worker), whose termination
    would orphan the workers.  That case is found without importing
    multiprocessing: a process that has not loaded it is no such worker.
    """
    workers = min(n, util.usable_cpus())
    mp = sys.modules.get("multiprocessing")
    if workers < 2 or not hasattr(os, "fork") or (mp is not None and mp.current_process().daemon):
        return [task(i) for i in range(n)]
    import signal

    running: dict[int, int] = {}  # worker pid -> read end of its pipe, until reaped
    try:
        for w in range(workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(write)
                os.close(read)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(read)
                    _send_share(write, task, range(w, n, workers))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            running[pid] = read
        shares = [_receive_share(w, workers, pid, running) for w, pid in enumerate(list(running))]
    finally:
        for pid, read in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
    results = [None] * n
    for w, share in enumerate(shares):
        results[w::workers] = share
    return results


def _send_share(fd: int, task, indices) -> None:
    """Write (None, [task(i) for i in indices]), or (exception, traceback text), pickled to fd."""
    try:
        payload = pickle.dumps((None, [task(i) for i in indices]))
    except BaseException as exc:  # the caller re-raises it
        import traceback

        text = traceback.format_exc()
        try:
            payload = pickle.dumps((exc, text))
            pickle.loads(payload)
        except Exception:
            payload = pickle.dumps((RuntimeError(f"{exc!r}, which does not pickle"), text))
    with open(fd, "wb") as pipe:
        pipe.write(payload)


def _receive_share(w: int, k: int, pid: int, running: dict) -> list:
    """The results of worker w of k, read to the end of its pipe; the worker is then reaped."""
    with open(running[pid], "rb", closefd=False) as pipe:
        payload = pipe.read()
    os.close(running.pop(pid))
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise RuntimeError(
            f"the simulation worker of share {w} of {k} exited with status {status} "
            "before sending its results"
        )
    error, value = pickle.loads(payload)
    if error is not None:
        raise error from RuntimeError(f"in simulation worker {w}:\n{value}")
    return value


def _run_replicates(config, methods, score, **extras) -> ExperimentResult:
    """The one replicate loop: generate, fit, calibrate, score, aggregate.

    Replicate i draws its data from generate_scenario(config, i) and its
    calibration streams from (master_seed, i, 1) for the bootstrap (shared
    by BS and BE) and (master_seed, i, 2) for the direct simulation.
    score(fit, mu_true, calibrated, draws) turns the calibrated {method:
    (critical value, studentizing scales)} into {method: {criterion: value}};
    a replicate where any step raises SpimaxError is recorded as failed
    and left out.  Replicates run in strided shares on one forked worker
    process per usable CPU, or inline (_map_replicates); a replicate
    depends only on (config, i), so the worker count moves no bit.  The
    workers inherit score by the fork, so it need not pickle, but the
    records it returns travel back pickled.  The surviving replicates'
    values are stacked and averaged as ExperimentResult describes; extras
    are added to samples as they are.
    """
    if len(set(methods)) != len(methods):
        raise ShapeMismatch("duplicate method names")
    records: list = []
    failed: list[int] = []
    n_fallback = n_boundary = 0
    outcomes = _map_replicates(partial(_replicate, config, methods, score), config.n_sim)
    for i, (record, fallback, boundary) in enumerate(outcomes):
        if record is None:
            failed.append(i)
        else:
            records.append(record)
        n_fallback += fallback
        n_boundary += boundary
    if not records:
        raise ShapeMismatch("every simulation replicate failed")
    per_method = {
        m: {c: np.array([r[m][c] for r in records]) for c in records[0][m]} for m in methods
    }
    return ExperimentResult(
        config=config,
        methods=methods,
        criteria={m: {c: float(x.mean()) for c, x in s.items()} for m, s in per_method.items()},
        halfwidths={m: {c: _halfwidth(x) for c, x in s.items()} for m, s in per_method.items()},
        n_failed=len(failed),
        n_fallback=n_fallback,
        n_boundary=n_boundary,
        samples={**extras, **per_method, "failed_replicates": tuple(failed)},
    )


def _score_spi(fit, mu_true, calibrated, draws):
    """{method: {"ecp": covers every target, "ws": the interval widths}}."""
    out = {}
    for m, (cv, scales) in calibrated.items():
        iv = build_spi(fit, cv, scales)
        out[m] = {"ecp": covers_all(iv, mu_true), "ws": iv.upper - iv.lower}
    return out


def _score_power(shifts, fit, mu_true, calibrated, draws):
    """{method: {"power@delta": global-test rejection at that shift of the realized targets}}.

    shifts maps each criterion name to its shift delta.
    """
    return {
        m: {
            key: bool(single_step_test(fit.mu_hat, scales, mu_true + delta, cv).decisions.any())
            for key, delta in shifts.items()
        }
        for m, (cv, scales) in calibrated.items()
    }


def _score_fwer(n_alt, shift, alpha, fit, mu_true, calibrated, draws):
    """{method: {"fwer": any true null rejected, "alt_rate": share of alternatives rejected}}."""
    h = mu_true.copy()
    h[:n_alt] -= shift
    # both methods studentize by BO's scales, sqrt(g1 + g2), as the bootstrap does
    cv, scales = calibrated["BO"]
    test = single_step_test(fit.mu_hat, scales, h, cv)
    provider = stepdown_quantile_provider(draws, alpha)
    rejected = {
        "BS": step_down_test(test.t, provider, alpha),
        "BO": np.flatnonzero(test.decisions),
    }
    return {
        m: {
            "fwer": bool(np.any(rej >= n_alt)),
            "alt_rate": float(np.sum(rej < n_alt)) / n_alt if n_alt else 0.0,
        }
        for m, rej in rejected.items()
    }


def run_spi_experiment(
    config: ScenarioConfig,
    methods: tuple[str, ...] = SPI_METHODS,
) -> ExperimentResult:
    """Coverage (ECP), mean width (WS) and width variance (VS) per method.

    All methods center intervals at the same predictions and scale them by
    the same sqrt(g1 + g2); they differ only in the critical value.

    vs is the mean over clusters of the width variance over the I
    surviving replicates.  Its sample is z_i = I / (I - 1) * mean_d
    (w_id - wbar_d)^2, whose mean is vs, and its half-width is that of z.
    wbar_d averages every replicate, so the z_i are not independent; the
    effect on the half-width is O(1/I).
    """
    methods = tuple(methods)
    for m in methods:
        if m not in SPI_METHODS:
            raise ShapeMismatch(f"unknown method {m!r}; choose from {SPI_METHODS}")
    result = _run_replicates(config, methods, _score_spi)
    for m in methods:
        w = result.samples[m]["ws"]
        I = w.shape[0]
        per_cluster_var = w.var(axis=0, ddof=1) if I > 1 else np.zeros(config.D)
        result.criteria[m]["vs"] = float(per_cluster_var.mean())
        z = ((w - w.mean(axis=0)) ** 2).mean(axis=1) * (I / max(I - 1, 1))
        result.samples[m]["vs"] = z
        result.halfwidths[m]["vs"] = _halfwidth(z)
    return result


def run_power_experiment(
    config: ScenarioConfig,
    delta_grid: tuple[float, ...] = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0),
    methods: tuple[str, ...] = ("BS", "MC"),
) -> ExperimentResult:
    """Rejection rate of the global max-type test along a shift grid.

    Each replicate tests the targets mu = h with h = (realized mu) +
    delta for every delta, reusing one calibrated threshold per method,
    so power@0 is the empirical size.
    """
    methods = tuple(methods)
    for m in methods:
        if m not in ("BS", "MC"):
            raise ShapeMismatch(f"power experiment supports BS and MC, got {m!r}")
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.size < 1 or not np.all(np.isfinite(deltas)):
        raise ShapeMismatch("need at least one shift value, all finite")
    shifts = {f"power@{delta:g}": delta for delta in deltas}
    if len(shifts) < deltas.size:
        raise ShapeMismatch("shift values must differ in their first six significant digits")
    score = partial(_score_power, shifts)
    return _run_replicates(config, methods, score, deltas=deltas)


def run_fwer_experiment(
    config: ScenarioConfig,
    shift: float = 1.0,
    n_alt: int | None = None,
) -> ExperimentResult:
    """Family-wise error of step-down selection vs a fixed-threshold test.

    The first n_alt clusters (a fifth by default) get nulls shifted below
    the realized targets, the rest carry true nulls; FWER is the fraction
    of replicates rejecting at least one true null.  BS uses the
    step-down rule with shared-draw subset quantiles; BO applies the
    normal-quantile threshold in a single step.  No MC calibration runs,
    so config.n_mc is never read: the command line's fwer preset accepts
    --K and ignores it.
    """
    if n_alt is None:
        if config.D % 5 != 0:
            raise ShapeMismatch("D must be divisible by 5 for the default split")
        n_alt = config.D // 5
    if not 0 <= n_alt <= config.D:
        raise ShapeMismatch(f"n_alt must lie in [0, {config.D}]")
    if not math.isfinite(shift) or (n_alt > 0 and shift <= 0):
        raise NonPositiveShift("alternative shift must be positive and finite")
    score = partial(_score_fwer, n_alt, shift, config.alpha)
    return _run_replicates(config, ("BS", "BO"), score, n_alt=n_alt)

"""Benchmark of the ``spimax`` command line, run the way a user runs it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Inputs are generated from ``--seed`` by ``inputs.py`` and the
program sees only the files.  Each job is one fresh interpreter running the
``spimax`` console-script entry point.  A closed loop with a single client
runs the workload's steps back to back, round-robin: a fresh-interpreter
``import spimax`` (the set-up sample), then one job of each kind, for as
long as the next step still fits in ``--seconds``.
``--threads`` stays unset, so BLAS uses its default thread count (recorded).

Every output is checked from outside the program (``checks.py``), outputs
of one job kind are byte-identical across repeats, and on every run corrupted
copies of good outputs are fed back through the checks, which must reject
them.

``--trace 0`` prints the end-to-end metrics:

    setup_s        median of the set-up samples
    pass_s         one pass: sum over job kinds of the kind's median wall
    job_geomean_s  geometric mean over job kinds of the kind's median wall,
                   so a short job kind that slows shows beside a long one
    peak_rss_mb    largest peak resident set of any job

``--trace 1`` runs each job untraced and then under ``trace_child.py`` and
prints the per-layer metrics of ``layers.py``.  The last line of standard
output is the JSON result; lines before it give the per-kind medians with
the sample count, the environment, the checks and, when tracing, where each
kind's wall time goes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
from layers import LAYER_METRICS, TracedJob, attribution, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# what the ``spimax`` console script runs
LAUNCH = "import sys; from spimax.cli import main; main()"
CHILD_TIMEOUT_S = 120.0

DESK_B = 2000  # refits, not interpreter start-up, take most of each desk job
RESCALED_B = 100  # the fallback makes each refit ~25x dearer, so B is smaller
WIDE_K = 20_000
SIM_I, SIM_B, SIM_K = 40, 200, 2000
SIM_PRESETS = ("table1-row", "table2-row", "power", "fwer")

PROBE = r"""
import ctypes, json, os, platform, sys
import numpy, scipy, spimax
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
try:
    with open("/proc/self/maps") as fh:
        libs = sorted({l.split()[-1] for l in fh if "blas" in l.split()[-1].lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                threads = int(getattr(lib, fn)())
                break
except OSError:
    pass
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": threads,
    "nproc": len(os.sched_getaffinity(0)),
    "spimax_file": spimax.__file__,
}))
"""


class SetupError(Exception):
    pass


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

def _child_env() -> dict:
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def run_child(args: list[str], log: Path) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of one fresh interpreter."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=fh, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def reference(args: list[str], work: Path, name: str) -> str:
    """Untimed CLI run whose output the checks compare against."""
    out = work / f"{name}.ref"
    code, _, _ = run_child(["-c", LAUNCH, *args, "--out", str(out)], work / f"{name}.log")
    if code != 0:
        raise SetupError(f"reference run {name} exited {code}: {(work / f'{name}.log').read_text()}")
    return out.read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

@dataclass
class Job:
    kind: str  # metric stem, e.g. spi_bs -> spi_bs_s
    args: list[str]  # spimax arguments without --out
    check: Callable[[object], None]  # takes the parsed output; raises checks.CheckFailed
    corruptions: dict[str, Callable[[object], object]]  # name -> corrupted copy the check must reject
    parse: Callable[[str], object] = json.loads
    reps: int = 0  # simulation replicates per job


def _with_extra(check, extra_checks):
    def run(out):
        check(out)
        for extra in extra_checks:
            extra(out)

    return run


def _spi_job(kind, args, D, fit, extra_checks=()):
    check = _with_extra(lambda out: checks.check_spi(out, D, fit), extra_checks)
    return Job(kind, args, check, {
        "swapped bounds": checks.swap_bounds,
        "critical value x1e4": checks.scale_critical,
    })


def _test_job(kind, args, fit, h, A=None, extra_checks=()):
    check = _with_extra(lambda out: checks.check_test(out, fit, h, A), extra_checks)
    corrupt = {"dropped rejection": lambda out: checks.drop_rejection(out, fit, h, A)}
    if extra_checks:
        corrupt["critical value x1e4"] = checks.scale_critical
    return Job(kind, args, check, corrupt)


def _nerm(data: Path) -> list[str]:
    return ["--model", "nerm", "--data", str(data)]


def _bs(B: int, seed: int) -> list[str]:
    return ["--method", "bs", "--B", str(B), "--seed", str(seed)]


def plan_desk_nerm(work: Path, seed: int) -> list[Job]:
    f = inputs.write_desk(work / "desk", seed)
    fit = json.loads(reference(["fit", *_nerm(f["data"])], work, "fit"))
    h = np.loadtxt(f["h"], ndmin=1)
    A = np.loadtxt(f["contrasts"], delimiter=",", ndmin=2)
    hc = np.loadtxt(f["h_contrasts"], ndmin=1)
    bs = _bs(DESK_B, seed)
    return [
        _spi_job("spi_bs", ["spi", *_nerm(f["data"]), *bs], inputs.DESK_D, fit),
        _test_job("test_stepdown", ["test", *_nerm(f["data"]), "--h", str(f["h"]), *bs, "--stepdown"], fit, h),
        _test_job(
            "test_contrast",
            ["test", *_nerm(f["data"]), "--contrasts", str(f["contrasts"]),
             "--h", str(f["h_contrasts"]), *bs, "--stepdown"],
            fit, hc, A,
        ),
    ]


def plan_desk_rescaled(work: Path, seed: int) -> list[Job]:
    unit = inputs.write_desk(work / "desk", seed)
    f = inputs.write_desk(work / "rescaled", seed, inputs.RESCALE)
    fit = json.loads(reference(["fit", *_nerm(f["data"])], work, "fit"))
    h = np.loadtxt(f["h"], ndmin=1)
    bs = _bs(RESCALED_B, seed)
    spi_args = ["spi", *_nerm(f["data"]), *bs]
    test_args = ["test", *_nerm(f["data"]), "--h", str(f["h"]), *bs, "--stepdown"]
    # the same draws at unit scale give the reference answer (scale invariance)
    unit_spi = json.loads(reference(["spi", *_nerm(unit["data"]), *bs], work, "unit_spi"))
    unit_test = json.loads(
        reference(["test", *_nerm(unit["data"]), "--h", str(unit["h"]), *bs, "--stepdown"], work, "unit_test")
    )
    same_spi = lambda out: checks.check_same_answer(out, unit_spi, inputs.RESCALE)  # noqa: E731
    same_test = lambda out: checks.check_same_answer(out, unit_test, inputs.RESCALE)  # noqa: E731
    return [
        _spi_job("spi_bs", spi_args, inputs.DESK_D, fit, (same_spi,)),
        _test_job("test_stepdown", test_args, fit, h, extra_checks=(same_test,)),
    ]


def plan_wide_mc(work: Path, seed: int) -> list[Job]:
    f = inputs.write_wide(work / "wide", seed)
    fit = json.loads(reference(["fit", *_nerm(f["data"])], work, "fit"))
    return [
        _spi_job(
            "spi_mc",
            ["spi", *_nerm(f["data"]), "--method", "mc", "--K", str(WIDE_K), "--seed", str(seed)],
            inputs.WIDE_D, fit,
        ),
        _spi_job(
            "spi_vt",
            ["spi", *_nerm(f["data"]), "--method", "vt", "--tube-constants", str(f["tube"]), "--p", "1"],
            inputs.WIDE_D, fit,
        ),
    ]


def plan_sim_presets(work: Path, seed: int) -> list[Job]:
    jobs = []
    for preset in SIM_PRESETS:
        args = ["simulate", "--preset", preset, "--I", str(SIM_I), "--B", str(SIM_B),
                "--K", str(SIM_K), "--seed", str(seed)]
        jobs.append(Job(
            f"simulate_{preset}", args,
            lambda rows, preset=preset: checks.check_sim(rows, preset),
            {"missing row": checks.drop_row, "rate out of range": checks.rate_out_of_range},
            parse=checks.parse_sim_csv,
            reps=SIM_I,
        ))
    return jobs


WORKLOADS = {
    "desk-nerm": plan_desk_nerm,
    "desk-rescaled": plan_desk_rescaled,
    "wide-mc": plan_wide_mc,
    "sim-presets": plan_sim_presets,
}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

@dataclass
class Tally:
    walls: dict[str, list[float]] = field(default_factory=dict)
    imports: list[float] = field(default_factory=list)  # set-up samples
    first_output: dict[str, str] = field(default_factory=dict)
    traced: list[TracedJob] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def _run_job(job: Job, work: Path, tally: Tally, n: int, traced: bool) -> float | None:
    """Run one job, check its output; returns its wall time."""
    tag = f"{job.kind}.{n}{'.traced' if traced else ''}"
    out = work / f"{tag}.out"
    if traced:
        args = [str(BENCH / "trace_child.py"), str(work / f"{tag}.spans.json"), *job.args]
    else:
        args = ["-c", LAUNCH, *job.args]
    code, wall, rss = run_child([*args, "--out", str(out)], work / f"{tag}.log")
    tally.attempted += 1
    tally.peak_rss_mb = max(tally.peak_rss_mb, rss)
    try:
        if code != 0:
            raise checks.CheckFailed(f"exit code {code}: {(work / f'{tag}.log').read_text()[-500:]}")
        text = out.read_text(encoding="utf-8")
        job.check(job.parse(text))
        first = tally.first_output.setdefault(job.kind, text)
        if text != first:
            raise checks.CheckFailed("output differs from the first run of the same job")
    except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:  # malformed output fails the job
        tally.failed += 1
        tally.errors.append(f"{tag}: {exc}")
        return None
    return wall


def _measure_job(job: Job, work: Path, tally: Tally, n: int, trace: bool) -> None:
    wall = _run_job(job, work, tally, n, traced=False)
    if wall is not None:
        tally.walls.setdefault(job.kind, []).append(wall)
    if trace:
        traced_wall = _run_job(job, work, tally, n, traced=True)
        if traced_wall is not None and wall is not None:
            doc = json.loads((work / f"{job.kind}.{n}.traced.spans.json").read_text())
            tally.traced.append(TracedJob(job.kind, traced_wall, wall, doc["spans"], doc["calls"]))


def _time_import(work: Path, tally: Tally, n: int) -> None:
    code, wall, _ = run_child(["-c", "import spimax"], work / f"import.{n}.log")
    if code != 0:
        raise SetupError("import spimax failed")
    tally.imports.append(wall)


def measure(jobs: list[Job], work: Path, seconds: float, trace: bool) -> Tally:
    """Round-robin over the steps: a set-up sample (untraced runs only), then
    one job of each kind.  After the first round, the next step runs only if
    its previous duration still fits in ``seconds``, so step counts differ by
    at most one."""
    tally = Tally()
    steps = list(jobs) if trace else [None, *jobs]  # None: set-up sample
    took = [0.0] * len(steps)  # last duration of each step
    start = time.perf_counter()
    for n in itertools.count():
        i = n % len(steps)
        if n >= len(steps) and time.perf_counter() - start + took[i] > seconds:
            break
        began = time.perf_counter()
        if steps[i] is None:
            _time_import(work, tally, n)
        else:
            _measure_job(steps[i], work, tally, n, trace)
        took[i] = time.perf_counter() - began
    return tally


def check_corruptions(jobs: list[Job], tally: Tally) -> dict[str, bool]:
    """Feed corrupted copies of a good output of each kind through its check."""
    bites = {}
    for job in jobs:
        text = tally.first_output.get(job.kind)
        for name, corrupt in job.corruptions.items():
            try:
                bites[f"{job.kind}: {name}"] = text is not None and checks.bites(
                    job.check, corrupt(job.parse(text))
                )
            except checks.CheckFailed:  # nothing to corrupt: the check cannot be shown to bite
                bites[f"{job.kind}: {name}"] = False
    return bites


def probe(work: Path) -> dict:
    """Environment record; also the warm-up import."""
    code, _, _ = run_child(["-c", PROBE], work / "probe.log")
    text = (work / "probe.log").read_text()
    if code != 0:
        raise SetupError(f"cannot import spimax from {SRC}: {text[-500:]}")
    env = json.loads(text.strip().splitlines()[-1])
    if not Path(env["spimax_file"]).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"spimax imported from {env['spimax_file']}, not from {SRC}")
    return env


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spimax" / "__init__.py").is_file():
        print(f"error: no spimax sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = probe(work)
        jobs = WORKLOADS[args.workload](work, args.seed)
        tally = measure(jobs, work, args.seconds, bool(args.trace))
        bites = check_corruptions(jobs, tally)
    except (SetupError, checks.CheckFailed, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    medians = {k: statistics.median(v) for k, v in tally.walls.items()}
    complete = len(medians) == len(jobs)
    print(json.dumps({"env": env}))
    for kind, walls in tally.walls.items():
        print(f"{kind}_s: {medians[kind]:.4f} s median of {len(walls)} jobs ({' '.join(f'{w:.3f}' for w in walls)})")
    reps = sum(job.reps * len(tally.walls.get(job.kind, [])) for job in jobs)
    if reps:
        print(f"sim_reps_per_s: {reps / sum(sum(w) for w in tally.walls.values()):.4f} replicates/s")
    print(f"fail_ratio: {tally.failed / tally.attempted:.4f} ({tally.failed} of {tally.attempted} jobs)")
    for err in tally.errors:
        print(f"FAILED {err}")
    for name, ok in bites.items():
        print(f"check bites on {name}: {'yes' if ok else 'NO'}")

    if args.trace:
        for kind, row in attribution(tally.traced).items():
            parts = ", ".join(
                f"{layer} {secs:.3f} s ({secs / row['wall']:.0%})"
                for layer, secs in sorted(row.items(), key=lambda kv: -kv[1]) if layer != "wall"
            )
            print(f"where {kind} goes (traced wall {row['wall']:.3f} s): {parts}")
        values = layer_metrics(tally.traced) if tally.traced else {}
        metrics = {name: _metric(float(values.get(name, 0.0)), unit) for name, unit, _ in LAYER_METRICS}
    else:
        kinds = [medians[j.kind] for j in jobs if j.kind in medians]
        metrics = {
            "setup_s": _metric(statistics.median(tally.imports), "s"),
            "pass_s": _metric(sum(kinds), "s"),
            "job_geomean_s": _metric(math.exp(statistics.fmean(math.log(w) for w in kinds)) if kinds else 0.0, "s"),
            "peak_rss_mb": _metric(tally.peak_rss_mb, "MB"),
        }
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    correct = tally.failed == 0 and complete and all(bites.values())
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

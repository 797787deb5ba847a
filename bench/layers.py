"""Per-layer metrics from the spans that ``trace_child.py`` writes.

Layers are the ``spimax`` modules; a span is named ``<module>.<function>``.
A span's self time is its duration minus the durations of its direct
children.  Times and counts are per pass: the sum over job kinds of the
kind's mean per traced job.  Ratios and per-replicate figures pool every
traced job with the same weights, so each kind counts once.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

# (name, unit, better); BENCHMARK.json lists the same metrics
LAYER_METRICS = (
    ("cli.ingest_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("model.validate_s", "s", "lower"),
    ("estimation.fit_s", "s", "lower"),
    ("estimation.refit_s_per_rep", "s/rep", "lower"),
    ("estimation.fallback_ratio", "ratio", "lower"),
    ("estimation.boundary_ratio", "ratio", "lower"),
    ("bootstrap.draw_s_per_rep", "s/rep", "lower"),
    ("bootstrap.calibrate_s", "s", "lower"),
    ("bootstrap.stepdown_calls", "count", "lower"),
    ("bootstrap.stepdown_s", "s", "lower"),
    ("mc.joint_build_s", "s", "lower"),
    ("mc.draw_s_per_kdraw", "s/kdraw", "lower"),
    ("mc.dense_bytes", "bytes_computed", "lower"),
    ("analytic.ridge_scales_s", "s", "lower"),
    ("analytic.tube_cv_s", "s", "lower"),
    ("maxstat.step_down_s", "s", "lower"),
    ("maxstat.step_down_rounds", "count", "lower"),
    ("simulate.generate_s_per_rep", "s/rep", "lower"),
    ("simulate.self_s_per_rep", "s/rep", "lower"),
    ("simulate.failed_ratio", "ratio", "lower"),
    ("simulate.fallback_ratio", "ratio", "lower"),
    ("util.derive_rng_calls", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

INGEST = ("cli.ingest_unit_csv", "cli.ingest_area_csv", "cli.read_matrix_csv", "cli.read_tube_constants")
CALIBRATE = ("bootstrap.critical_value_bs", "bootstrap.critical_value_contrast", "bootstrap.beran_critical_values")
STEPDOWN = ("bootstrap.stepdown_quantile_provider", "bootstrap.stepdown_provider")
EXPERIMENTS = ("simulate.run_spi_experiment", "simulate.run_power_experiment", "simulate.run_fwer_experiment")


@dataclass(frozen=True)
class TracedJob:
    kind: str
    wall: float  # measured by the parent, which shares the span clock
    untraced_wall: float  # the same job run just before without tracing
    spans: list  # [id, parent, name, start, end, counts]
    calls: dict  # counted helper calls


def self_times(spans: list) -> dict[int, float]:
    child = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return {sid: (end - start) - child[sid] for sid, _, _, start, end, _ in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(jobs: list[TracedJob]) -> dict[str, float]:
    total = Counter()  # inclusive seconds by span name
    own = Counter()  # self seconds by span name
    calls = Counter()  # span count by name
    counts = Counter()  # "<span name>#<count>" totals read from return values
    dense_bytes = rounds = covered = 0
    per_kind = Counter(job.kind for job in jobs)
    for job in jobs:
        w = 1.0 / per_kind[job.kind]
        selfs = self_times(job.spans)
        names = {sid: name for sid, _, name, *_ in job.spans}
        for sid, parent, name, start, end, extra in job.spans:
            total[name] += w * (end - start)
            own[name] += w * selfs[sid]
            calls[name] += w
            for key, value in (extra or {}).items():
                counts[f"{name}#{key}"] += w * value
            if name == "mc.build_joint_normal":
                dense_bytes = max(dense_bytes, extra["dense_bytes"])
            if name == "bootstrap.stepdown_provider" and names.get(parent) == "maxstat.step_down_test":
                rounds += w
            if parent < 0:
                covered += end - start
        calls.update({f"calls:{k}": w * v for k, v in job.calls.items()})

    rows = counts["estimation.batch_eblup#rows"]
    reps = sum(counts[f"{e}#reps"] for e in EXPERIMENTS)
    wall = sum(j.wall for j in jobs)
    return {
        "cli.ingest_s": sum(total[n] for n in INGEST),
        "cli.self_s": own["cli.run_cli"],
        "model.validate_s": total["model.validate"],
        "estimation.fit_s": _ratio(total["estimation.eblup"], calls["estimation.eblup"]),
        "estimation.refit_s_per_rep": _ratio(total["estimation.batch_eblup"], rows),
        "estimation.fallback_ratio": _ratio(counts["estimation.batch_eblup#fallback"], rows),
        "estimation.boundary_ratio": _ratio(counts["estimation.batch_eblup#boundary"], rows),
        "bootstrap.draw_s_per_rep": _ratio(
            own["bootstrap.parametric_bootstrap"], counts["bootstrap.parametric_bootstrap#reps"]
        ),
        "bootstrap.calibrate_s": sum(total[n] for n in CALIBRATE),
        "bootstrap.stepdown_calls": calls["bootstrap.stepdown_provider"],
        "bootstrap.stepdown_s": sum(total[n] for n in STEPDOWN),
        "mc.joint_build_s": total["mc.build_joint_normal"],
        "mc.draw_s_per_kdraw": _ratio(
            total["mc.critical_value_mc"], counts["mc.critical_value_mc#draws"] / 1000.0
        ),
        "mc.dense_bytes": float(dense_bytes),
        "analytic.ridge_scales_s": total["analytic.ridge_interval_scales"],
        "analytic.tube_cv_s": total["analytic.tube_cv"],
        "maxstat.step_down_s": total["maxstat.step_down_test"],
        "maxstat.step_down_rounds": rounds,
        "simulate.generate_s_per_rep": _ratio(
            total["simulate.generate_scenario"], calls["simulate.generate_scenario"]
        ),
        "simulate.self_s_per_rep": _ratio(sum(own[n] for n in EXPERIMENTS), reps),
        "simulate.failed_ratio": _ratio(sum(counts[f"{e}#failed"] for e in EXPERIMENTS), reps),
        "simulate.fallback_ratio": _ratio(
            sum(counts[f"{e}#fallback"] for e in EXPERIMENTS),
            sum(counts[f"{e}#refits"] for e in EXPERIMENTS),
        ),
        "util.derive_rng_calls": _ratio(calls["calls:util.derive_rng"], len(per_kind)),
        "trace.coverage": _ratio(covered, wall),
        "trace.overhead_ratio": _ratio(wall, sum(j.untraced_wall for j in jobs)) - 1.0,
    }


def attribution(jobs: list[TracedJob]) -> dict[str, dict[str, float]]:
    """Mean seconds per job of each kind: wall, and self time by layer.

    ``outside`` is wall time no span covers (interpreter start and exit).
    """
    by_kind: dict[str, Counter] = defaultdict(Counter)
    n = Counter()
    for job in jobs:
        n[job.kind] += 1
        row = by_kind[job.kind]
        row["wall"] += job.wall
        covered = 0.0
        selfs = self_times(job.spans)
        for sid, parent, name, start, end, _ in job.spans:
            row[name.split(".")[0]] += selfs[sid]
            if parent < 0:
                covered += end - start
        row["outside"] += job.wall - covered
    return {k: {layer: v / n[k] for layer, v in row.items()} for k, row in by_kind.items()}

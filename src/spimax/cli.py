"""Command-line surface: ingestion, fitting, intervals, tests, simulations.

Design rules: every subcommand validates its inputs before computing,
output files are written only after all computation succeeds, and any
two identical invocations produce byte-identical outputs (no timestamps,
no machine-dependent fields).  There is no worker-count option: MC runs
its draw chunks on up to one thread per usable CPU, which never changes
a result.

Exit codes: 0 success, 1 usage error, 2 computation error (with a
machine-readable JSON error description when --error-json is given).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from .bootstrap import stepdown_quantile_provider
from .calibration import CONTRAST_METHODS, calibrate
from .dataio import (
    export_area_csv,
    export_unit_csv,
    ingest_area_csv,
    ingest_unit_csv,
    read_matrix_csv,
    read_tube_constants,
)
from .errors import EmptyGrid, ParseError, ShapeMismatch, SpimaxError
from .estimation import cholesky_residuals, eb_random_effects, eblup, log_shift_profile
from .maxstat import build_spi, single_step_test, step_down_test
from .model import FHM, NERM, BlockLmmData, cluster_mean_spec, replace_response
from .simulate import (
    ScenarioConfig,
    run_fwer_experiment,
    run_power_experiment,
    run_spi_experiment,
)
from .util import normal_quantile

MODEL_TAGS = {"nerm": NERM, "fhm": FHM}
SIM_PRESETS = ("table1-row", "table2-row", "power", "fwer")


# ----------------------------------------------------------------------
# input selection
# ----------------------------------------------------------------------

def ingest_data(model: str, path) -> BlockLmmData:
    if model not in MODEL_TAGS:
        raise ParseError(f"model must be one of {sorted(MODEL_TAGS)}, got {model!r}")
    return ingest_unit_csv(path) if model == "nerm" else ingest_area_csv(path)


# ----------------------------------------------------------------------
# output encoding
# ----------------------------------------------------------------------

def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv6(value: float) -> str:
    return f"{value:.6g}"


def sim_csv_text(rows: list[tuple]) -> str:
    lines = ["scenario,method,criterion,value,mc_halfwidth"]
    for scenario, method, criterion, value, hw in rows:
        lines.append(f"{scenario},{method},{criterion},{_csv6(value)},{_csv6(hw)}")
    return "\n".join(lines) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ----------------------------------------------------------------------
# subcommand implementations (return text to write *after* success)
# ----------------------------------------------------------------------

def _fit_payload(args) -> str:
    data = ingest_data(args.model, args.data)
    fit = eblup(data)
    out = {
        "model": args.model,
        "D": data.D,
        "n_total": data.n_total,
        "p": data.p,
        "beta": [float(b) for b in fit.beta_hat],
        "sigma2_u": float(fit.theta.sigma2_u),
        "sigma2_e": None if fit.theta.sigma2_e is None else float(fit.theta.sigma2_e),
        "loglik_restricted": float(fit.loglik_restricted),
        "clusters": [
            {
                "cluster": str(cid),
                "n": int(n),
                "mu_hat": float(mu),
                "u_hat": float(u),
                "scale": float(s),
            }
            for cid, n, mu, u, s in zip(
                data.cluster_ids, data.sizes, fit.mu_hat, fit.u_hat, fit.scale
            )
        ],
    }
    return _json_text(out)


def _calibrate(args, data, spec, fit, A=None):
    """calibrate() with the method options of the spi and test subcommands."""
    tube = None
    if args.method == "vt":
        constants = read_tube_constants(args.tube_constants)
        p = data.p if args.p is None else args.p
        if p < 1:
            raise ShapeMismatch(
                "tube bound needs manifold dimension p >= 1; pass --p explicitly"
            )
        tube = (p, constants)
    return calibrate(
        args.method.upper(), data, spec, fit, alpha=args.alpha, seed=args.seed,
        B=args.B, K=args.K, A=A, tube=tube,
    )


def _method_header(args, cv) -> dict:
    """Keys the spi and test payloads share: model, method and calibration settings."""
    out = {
        "model": args.model,
        "method": args.method,
        "alpha": args.alpha,
        "critical_value": float(cv.value),
        "seed": args.seed if args.method in ("bs", "be", "mc") else None,
        "B": args.B if args.method in ("bs", "be") else None,
    }
    if args.method == "mc":
        out["K"] = args.K
    return out


def _spi_payload(args) -> str:
    data = ingest_data(args.model, args.data)
    spec = cluster_mean_spec(data)
    fit = eblup(data, spec)
    cv, scales, _ = _calibrate(args, data, spec, fit)
    intervals = build_spi(fit, cv, scales=scales)
    out = {
        **_method_header(args, cv),
        "intervals": [
            {
                "cluster": str(cid),
                "center": float(c),
                "lower": float(lo),
                "upper": float(hi),
            }
            for cid, c, lo, hi in zip(
                data.cluster_ids, intervals.center, intervals.lower, intervals.upper
            )
        ],
    }
    if cv.per_cluster is not None:
        out["per_cluster_critical"] = [float(v) for v in cv.per_cluster]
    return _json_text(out)


def _test_payload(args) -> str:
    data = ingest_data(args.model, args.data)
    spec = cluster_mean_spec(data)
    fit = eblup(data, spec)
    alpha = args.alpha

    if args.contrasts is not None:
        A = read_matrix_csv(args.contrasts)
        if A.ndim != 2 or A.shape[1] != data.D:
            raise ShapeMismatch(f"contrast matrix must have {data.D} columns")
        if args.h is not None:
            h = read_matrix_csv(args.h).ravel()
        else:
            h = np.zeros(A.shape[0])
        if h.shape != (A.shape[0],):
            raise ShapeMismatch(f"h must have one value per contrast row ({A.shape[0]})")
        mu_hat = A @ fit.mu_hat
    else:
        A = None
        h = read_matrix_csv(args.h).ravel()
        if h.shape != (data.D,):
            raise ShapeMismatch(f"h must have {data.D} values, got {h.shape[0]}")
        mu_hat = fit.mu_hat
    cv, scales, draws = _calibrate(args, data, spec, fit, A=A)
    test = single_step_test(mu_hat, scales, h, cv)
    if args.stepdown:
        provider = stepdown_quantile_provider(draws, alpha, A=A)
        rejected = [int(i) for i in step_down_test(test.t, provider, alpha)]
    else:
        rejected = [int(i) for i in np.flatnonzero(test.decisions)]
    if A is None:
        labels = [str(data.cluster_ids[i]) for i in rejected]
    else:
        labels = [f"contrast{i}" for i in rejected]

    out = {
        **_method_header(args, cv),
        "stepdown": bool(args.stepdown),
        "statistic": float(test.statistic),
        "n_rejected": len(rejected),
        "rejected_indices": rejected,
        "rejected": labels,
    }
    return _json_text(out)


def _build_config(args) -> ScenarioConfig:
    preset = args.preset
    defaults = {
        "table1-row": dict(model_tag=NERM, D=30, sigma2_e=0.5, sigma2_u=1.0),
        "table2-row": dict(model_tag=FHM, D=60, sigma2_u=1.0),
        "power": dict(model_tag=NERM, D=30, sigma2_e=0.5, sigma2_u=1.0),
        "fwer": dict(model_tag=NERM, D=15, sigma2_e=1.0, sigma2_u=1.0),
    }[preset]
    if args.D is not None:
        defaults["D"] = args.D
    if args.sigma_e2 is not None:
        defaults["sigma2_e"] = args.sigma_e2
    if args.sigma_u2 is not None:
        defaults["sigma2_u"] = args.sigma_u2
    if args.pattern is not None:
        try:
            pattern = tuple(float(v) for v in args.pattern.split(","))
        except ValueError as exc:
            raise ParseError(f"--pattern must be comma-separated numbers: {exc}") from exc
        defaults["fhm_sigma_pattern"] = pattern
    label = f"{preset}-D{defaults['D']}"
    return ScenarioConfig(
        n_d=args.n_d,
        n_sim=args.I,
        n_boot=args.B,
        n_mc=args.K,
        alpha=args.alpha,
        master_seed=args.seed,
        label=label,
        **defaults,
    )


def _simulate_payload(args) -> str:
    config = _build_config(args)
    if args.preset in ("table1-row", "table2-row"):
        methods = tuple(m.strip().upper() for m in args.methods.split(","))
        result = run_spi_experiment(config, methods=methods)
    elif args.preset == "power":
        try:
            deltas = tuple(float(v) for v in args.deltas.split(","))
        except ValueError as exc:
            raise ParseError(f"--deltas must be comma-separated numbers: {exc}") from exc
        result = run_power_experiment(config, delta_grid=deltas)
    else:
        result = run_fwer_experiment(config, shift=args.shift)
    return sim_csv_text(result.rows())


def _default_grid(y: np.ndarray, count: int) -> np.ndarray:
    """count shifts from min(y) to max(y) for a positive response.

    Otherwise the same span is moved to (-min(y), max(y) - 2 min(y)], so
    that y + c stays positive at every candidate.
    """
    lo, hi = y.min(), y.max()
    if lo > 0:
        return np.linspace(lo, hi, count)
    return np.linspace(0.0, hi - lo, count + 1)[1:] - lo


def _transform_payload(args) -> tuple[str, str | None]:
    data = ingest_data(args.model, args.data)
    y = data.y
    if args.grid is None:
        grid = _default_grid(y, 25)
    else:
        try:
            count = int(args.grid)
        except ValueError:
            try:
                grid = np.array([float(v) for v in args.grid.split(",")])
            except ValueError as exc:
                raise ParseError(
                    f"--grid must be a point count or comma-separated shifts: {exc}"
                ) from exc
        else:
            if count < 1:
                raise EmptyGrid("grid needs at least one point")
            grid = _default_grid(y, count)
    grid, skews, best = log_shift_profile(data, grid)
    c_star = float(grid[best])
    report = _json_text(
        {
            "model": args.model,
            "c_star": c_star,
            "skewness_at_c_star": float(skews[best]),
            "grid": [float(g) for g in grid],
            "skewness": [float(s) for s in skews],
        }
    )
    data_text = None
    if args.out_data is not None:
        shifted = replace_response(data, np.log(y + c_star))
        data_text = (
            export_unit_csv(shifted) if args.model == "nerm" else export_area_csv(shifted)
        )
    return report, data_text


def _plot_positions(values: np.ndarray) -> np.ndarray:
    """Normal quantiles at the (rank - 0.5)/N plotting positions."""
    n = values.shape[0]
    ranks = np.empty(n, dtype=float)
    ranks[np.argsort(values, kind="stable")] = np.arange(1, n + 1)
    return normal_quantile((ranks - 0.5) / n)


def _residuals_payload(args) -> str:
    data = ingest_data(args.model, args.data)
    fit = eblup(data)
    resid = cholesky_residuals(data, fit)
    effects = eb_random_effects(data, fit)
    rq = _plot_positions(resid)
    eq = _plot_positions(effects)
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(["kind", "cluster", "unit", "value", "normal_quantile"])
    pos = 0
    for cid, n in zip(data.cluster_ids, data.sizes):
        for j in range(int(n)):
            out.writerow(["cholesky", cid, j, _csv6(resid[pos]), _csv6(rq[pos])])
            pos += 1
    for d, cid in enumerate(data.cluster_ids):
        out.writerow(["random_effect", cid, "", _csv6(effects[d]), _csv6(eq[d])])
    return buf.getvalue()


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting."""

    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _add_common(sub):
    sub.add_argument("--model", required=True, choices=sorted(MODEL_TAGS))
    sub.add_argument("--data", required=True)
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--error-json", default=None, dest="error_json")
    return sub


def _add_method(sub):
    sub.add_argument("--method", required=True, choices=["bs", "mc", "bo", "be", "vt"])
    sub.add_argument("--alpha", type=float, default=0.05)
    sub.add_argument("--B", type=int, default=1000)
    sub.add_argument("--K", type=int, default=100_000)
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--tube-constants", default=None, dest="tube_constants")
    sub.add_argument("--p", type=int, default=None, help="manifold dimension for vt")


def build_parser() -> _Parser:
    parser = _Parser(prog="spimax", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("fit", help="REML fit and predictions as JSON"))

    spi = _add_common(subs.add_parser("spi", help="simultaneous intervals as JSON"))
    _add_method(spi)

    test = _add_common(subs.add_parser("test", help="max-type multiple testing"))
    _add_method(test)
    test.add_argument("--h", default=None, help="CSV of null values")
    test.add_argument("--contrasts", default=None, help="CSV contrast matrix (rows)")
    test.add_argument("--stepdown", action="store_true")

    sim = subs.add_parser("simulate", help="simulation experiments as CSV")
    sim.add_argument("--preset", required=True, choices=SIM_PRESETS)
    sim.add_argument("--D", type=int, default=None)
    sim.add_argument("--n-d", type=int, default=5, dest="n_d")
    sim.add_argument("--sigma-e2", type=float, default=None, dest="sigma_e2")
    sim.add_argument("--sigma-u2", type=float, default=None, dest="sigma_u2")
    sim.add_argument("--pattern", default=None, help="FHM error variances, comma list")
    sim.add_argument("--I", type=int, default=500)
    sim.add_argument("--B", type=int, default=500)
    sim.add_argument("--K", type=int, default=2000)
    sim.add_argument("--alpha", type=float, default=0.05)
    sim.add_argument("--seed", type=int, default=20260819)
    sim.add_argument("--methods", default="BS,MC,BO,BE")
    sim.add_argument("--deltas", default="-2,-1,-0.5,0,0.5,1,2")
    sim.add_argument("--shift", type=float, default=1.0)
    sim.add_argument("--out", default=None)
    sim.add_argument("--error-json", default=None, dest="error_json")

    tr = _add_common(subs.add_parser("transform", help="log-shift response transform"))
    tr.add_argument("--grid", default=None, help="point count or comma list of shifts")
    tr.add_argument("--out-data", default=None, dest="out_data")

    _add_common(subs.add_parser("residuals", help="decorrelated residual CSV"))
    return parser


def _emit_error(args, exc: Exception) -> None:
    sys.stderr.write(f"error: {exc}\n")
    path = getattr(args, "error_json", None)
    if path is not None:
        text = _json_text({"error": type(exc).__name__, "message": str(exc)})
        _write_output(text, path)


def _validate_flag_combinations(args) -> None:
    for attr in ("out", "out_data", "error_json"):
        path = getattr(args, attr, None)
        if path is not None:
            parent = os.path.dirname(path) or "."
            if not os.path.isdir(parent):
                raise _UsageError(f"output directory does not exist: {parent}")
    if getattr(args, "method", None) == "vt" and args.tube_constants is None:
        raise _UsageError("--method vt requires --tube-constants")
    if args.command == "test":
        if args.h is None and args.contrasts is None:
            raise _UsageError("test needs --h, --contrasts, or both")
        if args.stepdown and args.method != "bs":
            raise _UsageError("--stepdown requires --method bs")
        if args.contrasts is not None and args.method.upper() not in CONTRAST_METHODS:
            raise _UsageError("contrast tests support methods bs, mc and bo")


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate_flag_combinations(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    try:
        if args.command == "fit":
            writes = [(args.out, _fit_payload(args))]
        elif args.command == "spi":
            writes = [(args.out, _spi_payload(args))]
        elif args.command == "test":
            writes = [(args.out, _test_payload(args))]
        elif args.command == "simulate":
            writes = [(args.out, _simulate_payload(args))]
        elif args.command == "transform":
            report, data_text = _transform_payload(args)
            writes = [(args.out, report)]
            if data_text is not None:
                writes.append((args.out_data, data_text))
        else:
            writes = [(args.out, _residuals_payload(args))]
    except SpimaxError as exc:
        _emit_error(args, exc)
        return 2
    try:
        for path, text in writes:
            _write_output(text, path)
    except OSError as exc:
        # directories are pre-checked, so only races/permissions land here
        _emit_error(args, exc)
        return 2
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

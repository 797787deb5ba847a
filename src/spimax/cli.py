"""Command-line surface: argument parsing and output encoding only.

Each subcommand reads its inputs, calls the library (eblup, calibrate,
calibration.max_test, the simulate presets and experiments,
log_shift_profile, the residual diagnostics) and encodes the result as
JSON or CSV.  Design rules: every subcommand validates its inputs before
computing, output files are written only after all computation
succeeds, and any two identical invocations produce byte-identical
outputs (no timestamps, no machine-dependent fields).  There is no
worker-count option: the bootstrap and MC run in the calling thread.

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

from .calibration import CONTRAST_METHODS, METHODS, calibrate, max_test
from .dataio import (
    export_area_csv,
    export_unit_csv,
    ingest_area_csv,
    ingest_unit_csv,
    read_matrix_csv,
    read_tube_constants,
)
from .errors import ParseError, SpimaxError
from .estimation import cholesky_residuals, eb_random_effects, eblup, log_shift, log_shift_profile
from .maxstat import build_spi
from .model import NERM, BlockLmmData, cluster_mean_spec
from .simulate import (
    PRESETS,
    preset_config,
    run_fwer_experiment,
    run_power_experiment,
    run_spi_experiment,
)
from .util import normal_scores

MODEL_TAGS = ("fhm", "nerm")
SIM_PRESETS = tuple(PRESETS)


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

def ingest_data(model: str, path) -> BlockLmmData:
    return ingest_unit_csv(path) if model == "nerm" else ingest_area_csv(path)


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


def _method_options(args, data) -> dict:
    """calibrate() keywords of the spi and test subcommands; VT's p defaults to data.p."""
    tube = None
    if args.method == "vt":
        tube = (data.p if args.p is None else args.p, read_tube_constants(args.tube_constants))
    return dict(alpha=args.alpha, seed=args.seed, B=args.B, K=args.K, tube=tube)


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
    cv, scales, _ = calibrate(args.method.upper(), data, spec, fit, **_method_options(args, data))
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
    A = None if args.contrasts is None else read_matrix_csv(args.contrasts)
    h = None if args.h is None else read_matrix_csv(args.h)
    test, rejected = max_test(
        args.method.upper(), data, spec, fit, h, A=A, stepdown=args.stepdown,
        **_method_options(args, data),
    )
    rejected = [int(i) for i in rejected]
    labels = [str(data.cluster_ids[i]) if A is None else f"contrast{i}" for i in rejected]
    out = {
        **_method_header(args, test.critical),
        "stepdown": bool(args.stepdown),
        "statistic": float(test.statistic),
        "n_rejected": len(rejected),
        "rejected_indices": rejected,
        "rejected": labels,
    }
    return _json_text(out)


def _numbers(text: str, flag: str, what: str = "comma-separated numbers") -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ParseError(f"{flag} must be {what}: {exc}") from exc


def _set(**flags) -> dict:
    """The flags a user set; None marks an unset flag, whose default the library owns."""
    return {name: value for name, value in flags.items() if value is not None}


def _simulate_payload(args) -> str:
    pattern = None if args.pattern is None else _numbers(args.pattern, "--pattern")
    config = preset_config(args.preset, **_set(
        D=args.D, n_d=args.n_d, sigma2_e=args.sigma_e2, sigma2_u=args.sigma_u2,
        fhm_sigma_pattern=pattern, n_sim=args.I, n_boot=args.B, n_mc=args.K,
        alpha=args.alpha, master_seed=args.seed,
    ))
    # _validate_flag_combinations has rejected every flag this preset does not read
    methods = None if args.methods is None else tuple(
        m.strip().upper() for m in args.methods.split(",")
    )
    deltas = None if args.deltas is None else _numbers(args.deltas, "--deltas")
    run = {"power": run_power_experiment, "fwer": run_fwer_experiment}.get(
        args.preset, run_spi_experiment
    )
    result = run(config, **_set(methods=methods, delta_grid=deltas, shift=args.shift))
    return sim_csv_text(result.rows())


def _transform_payload(args) -> tuple[str, str | None]:
    data = ingest_data(args.model, args.data)
    grid = None
    if args.grid is not None:
        try:
            grid = int(args.grid)
        except ValueError:
            grid = _numbers(args.grid, "--grid", "a point count or comma-separated shifts")
    grid, skews, best = log_shift_profile(data, **_set(grid=grid))
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
        shifted = log_shift(data, c_star)
        data_text = (
            export_unit_csv(shifted) if args.model == "nerm" else export_area_csv(shifted)
        )
    return report, data_text


def _residuals_payload(args) -> str:
    data = ingest_data(args.model, args.data)
    fit = eblup(data)
    resid = cholesky_residuals(data, fit)
    effects = eb_random_effects(data, fit)
    rq = normal_scores(resid)
    eq = normal_scores(effects)
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
    sub.add_argument("--model", required=True, choices=MODEL_TAGS)
    sub.add_argument("--data", required=True)
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--error-json", default=None, dest="error_json")
    return sub


def _add_method(sub):
    sub.add_argument("--method", required=True, choices=[m.lower() for m in METHODS])
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
    sim.add_argument("--n-d", type=int, default=None, dest="n_d")
    sim.add_argument("--sigma-e2", type=float, default=None, dest="sigma_e2")
    sim.add_argument("--sigma-u2", type=float, default=None, dest="sigma_u2")
    sim.add_argument("--pattern", default=None, help="FHM error variances, comma list")
    sim.add_argument("--I", type=int, default=None)
    sim.add_argument("--B", type=int, default=None)
    sim.add_argument("--K", type=int, default=None)
    sim.add_argument("--alpha", type=float, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--methods", default=None)
    sim.add_argument("--deltas", default=None)
    sim.add_argument("--shift", type=float, default=None)
    sim.add_argument("--out", default=None)
    sim.add_argument("--error-json", default=None, dest="error_json")

    tr = _add_common(subs.add_parser("transform", help="log-shift response transform"))
    tr.add_argument("--grid", default=None, help="point count or comma list of shifts")
    tr.add_argument("--out-data", default=None, dest="out_data")

    _add_common(subs.add_parser("residuals", help="decorrelated residual CSV"))
    return parser


def _emit_error(args, exc: Exception) -> None:
    """Report exc on stderr and, with --error-json, as JSON; never raises."""
    sys.stderr.write(f"error: {exc}\n")
    path = getattr(args, "error_json", None)
    if path is not None:
        text = _json_text({"error": type(exc).__name__, "message": str(exc)})
        try:
            _write_output(text, path)
        except OSError as write_exc:
            sys.stderr.write(f"error: cannot write the error report: {write_exc}\n")


def _destination(path: str | None) -> str:
    return "stdout" if path is None or path == "-" else os.path.realpath(path)


def _validate_flag_combinations(args) -> None:
    if getattr(args, "out_data", None) is not None:
        destination = _destination(args.out_data)
        if destination == _destination(args.out):
            raise _UsageError(f"--out and --out-data name the same destination: {destination}")
    for attr in ("out", "out_data", "error_json"):
        path = getattr(args, attr, None)
        if path is None or path == "-":
            continue
        if os.path.isdir(path):
            raise _UsageError(f"output path is a directory: {path}")
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise _UsageError(f"output directory does not exist: {parent}")
    method = getattr(args, "method", None)
    if method == "vt" and args.tube_constants is None:
        raise _UsageError("--method vt requires --tube-constants")
    # the flags only some presets or methods read, each with whether this one does
    owner, reads = None, {}
    if args.command == "simulate":
        nerm = PRESETS[args.preset]["model_tag"] == NERM
        owner, reads = f"--preset {args.preset}", {
            "--methods": args.preset != "fwer",
            "--deltas": args.preset == "power",
            "--shift": args.preset == "fwer",
            "--pattern": not nerm,
            "--n-d": nerm,
            "--sigma-e2": nerm,
        }
    elif method is not None:
        vt = method == "vt"
        owner, reads = f"--method {method}", {"--p": vt, "--tube-constants": vt}
    unread = [flag for flag, read in reads.items()
              if not read and getattr(args, flag[2:].replace("-", "_")) is not None]
    if unread:
        raise _UsageError(f"{owner} does not read {', '.join(unread)}")
    if args.command == "test":
        if args.h is None and args.contrasts is None:
            raise _UsageError("test needs --h, --contrasts, or both")
        if args.stepdown and args.method != "bs":
            raise _UsageError("--stepdown requires --method bs")
        if args.contrasts is not None and args.method.upper() not in CONTRAST_METHODS:
            *most, last = (m.lower() for m in CONTRAST_METHODS)
            raise _UsageError(f"contrast tests support methods {', '.join(most)} and {last}")


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

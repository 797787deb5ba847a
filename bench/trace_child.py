"""Run one ``spimax`` CLI job with spans around every layer boundary.

Usage: python3 bench/trace_child.py SPANS.json <spimax arguments...>

Nothing in the package is edited.  After import, every function that one
``spimax`` module imports from another is replaced, with ``setattr``, in
each module namespace that holds it, so calls across module boundaries
(and the defining module's own calls) go through a wrapper.  The CLI entry
points and scenario generation, which are called only inside their own
module, are wrapped by name.  Helpers
from ``spimax.util`` are counted, not timed, so their time stays in the
caller's self time.  Spans stay in memory and are written as JSON when the
job ends: one ``[id, parent, name, start, end, counts]`` list per span, on
the ``time.perf_counter`` clock, which the parent process shares.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

NAMED_ENTRY_POINTS = (
    "cli.run_cli", "cli.ingest_unit_csv", "cli.ingest_area_csv", "cli.read_matrix_csv",
    "cli.read_tube_constants", "simulate.generate_scenario",
)
COUNT_ONLY_MODULE = "spimax.util"


class Tracer:
    """Span store plus the stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.calls: dict[str, int] = {}

    def open(self, name: str, start: float) -> list:
        span = [len(self.spans), self.stack[-1], name, start, None, None]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def close(self, span: list, counts: dict | None = None) -> None:
        span[4] = time.perf_counter()
        span[5] = counts
        self.stack.pop()

    def timed(self, name: str, func, counter=None):
        def wrapper(*args, **kwargs):
            span = self.open(name, time.perf_counter())
            counts = None
            try:
                result = func(*args, **kwargs)
                if counter is not None:
                    counts, result = counter(self, args, kwargs, result)
                return result
            finally:
                self.close(span, counts)

        wrapper.__wrapped__ = func
        return wrapper

    def counted(self, name: str, func):
        def wrapper(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper


# ----------------------------------------------------------------------
# counts read from return values
# ----------------------------------------------------------------------

def _batch_counts(tracer, args, kwargs, result):
    fallback = result["fallback"]
    return {
        "rows": int(fallback.shape[0]),
        "fallback": int(fallback.sum()),
        "boundary": int(result["boundary"].sum()),
    }, result


def _bootstrap_counts(tracer, args, kwargs, result):
    return {"reps": int(result.b_reps)}, result


def _joint_counts(tracer, args, kwargs, result):
    dense = result.precision.nbytes + result.covariance.nbytes + result.cov_factor.nbytes
    return {"dense_bytes": int(dense)}, result


def _mc_counts(tracer, args, kwargs, result):
    k_draws = args[2] if len(args) > 2 else kwargs["k_draws"]
    return {"draws": int(k_draws)}, result


def _experiment_counts(tracer, args, kwargs, result):
    config = result.config
    return {
        "reps": int(config.n_sim),
        "failed": int(result.n_failed),
        "fallback": int(result.n_fallback),
        "refits": int((config.n_sim - result.n_failed) * config.n_boot),
    }, result


def _provider_counts(tracer, args, kwargs, provider):
    return None, tracer.timed("bootstrap.stepdown_provider", provider)


COUNTERS = {
    "estimation.batch_eblup": _batch_counts,
    "bootstrap.parametric_bootstrap": _bootstrap_counts,
    "bootstrap.stepdown_quantile_provider": _provider_counts,
    "mc.build_joint_normal": _joint_counts,
    "mc.critical_value_mc": _mc_counts,
    "simulate.run_spi_experiment": _experiment_counts,
    "simulate.run_power_experiment": _experiment_counts,
    "simulate.run_fwer_experiment": _experiment_counts,
}


def boundary_functions(modules) -> dict:
    """{function: span name} for every cross-module import plus named entries.

    The package namespace only re-exports, so it is not searched for imports.
    """
    targets = {}
    for mod in modules:
        if mod.__name__ == "spimax":
            continue
        for value in vars(mod).values():
            if (
                inspect.isfunction(value)
                and value.__module__.startswith("spimax.")
                and value.__module__ != mod.__name__
            ):
                targets[value] = f"{value.__module__.split('.')[1]}.{value.__name__}"
    for name in NAMED_ENTRY_POINTS:
        module, _, attr = name.partition(".")
        targets[getattr(sys.modules[f"spimax.{module}"], attr)] = name
    return targets


def install(tracer: Tracer) -> None:
    modules = [m for n, m in sorted(sys.modules.items()) if n == "spimax" or n.startswith("spimax.")]
    for func, name in boundary_functions(modules).items():
        if func.__module__ == COUNT_ONLY_MODULE:
            wrapper = tracer.counted(name, func)
        else:
            wrapper = tracer.timed(name, func, COUNTERS.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, attr, wrapper)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    span = tracer.open("setup.import", time.perf_counter())
    import spimax  # noqa: F401  (timed: this is the interpreter's set-up)
    import spimax.cli

    tracer.close(span)
    install(tracer)
    try:
        return spimax.cli.run_cli(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "calls": tracer.calls}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

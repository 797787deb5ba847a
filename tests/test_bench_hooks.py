"""The benchmark tracer's hooks still name functions of the package.

``bench/trace_child.py`` wraps functions by ``module.function`` name and
``bench/layers.py`` reads spans by those names, so a renamed or rerouted
function would silently turn a per-layer metric into 0.  The bench files
are read here, never changed.
"""

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import numpy as np

import spimax.cli  # noqa: F401  (loads every module the tracer wraps)
from spimax.bootstrap import parametric_bootstrap
from spimax.estimation import batch_eblup, eblup
from spimax.mc import build_joint_normal
from spimax.model import cluster_mean_spec

from conftest import make_fhm, make_nerm

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPAN_NAME = re.compile(r"^(?:calls:)?([a-z]+)\.([a-z_0-9]+)(?:#\w+)?$")
# a span the tracer opens around the provider it returns, not a function
SYNTHETIC = {"bootstrap.stepdown_provider"}


def _module_constants(path: Path) -> dict:
    """Literal values (dict keys for a dict) of a bench file's module-level assignments."""
    out = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            value = node.value
            if isinstance(value, ast.Dict):  # the keys only; values name counters
                value = ast.List(elts=value.keys, ctx=ast.Load())
            try:
                out[node.targets[0].id] = ast.literal_eval(value)
            except ValueError:
                continue
    return out


def _span_names_in_layers() -> set:
    """Every ``module.function`` string in layers.py other than a metric name."""
    tree = ast.parse((BENCH / "layers.py").read_text())
    metrics = {name for name, _, _ in _module_constants(BENCH / "layers.py")["LAYER_METRICS"]}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = SPAN_NAME.match(node.value)
            if match and node.value not in metrics:
                names.add(".".join(match.groups()))
    return names


def _traced_span_names() -> set:
    sys.path.insert(0, str(BENCH))
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        trace_child = importlib.import_module("trace_child")
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = writes_bytecode
    modules = [m for n, m in sorted(sys.modules.items()) if n == "spimax" or n.startswith("spimax.")]
    return set(trace_child.boundary_functions(modules).values())


def _resolve(name: str):
    module, _, attr = name.partition(".")
    return getattr(importlib.import_module(f"spimax.{module}"), attr, None)


def test_every_hook_names_a_traced_function():
    consts = _module_constants(BENCH / "trace_child.py")
    hooks = set(consts["NAMED_ENTRY_POINTS"]) | set(consts["COUNTERS"]) | _span_names_in_layers()
    assert {"estimation.eblup", "estimation.batch_eblup", "model.validate"} <= hooks
    traced = _traced_span_names()
    for name in sorted(hooks - SYNTHETIC):
        assert inspect.isfunction(_resolve(name)), name
        assert name in traced, name


def test_joint_normal_exposes_the_counted_arrays():
    data = make_nerm(D=6, seed=1)[0]
    spec = cluster_mean_spec(data)
    model = build_joint_normal(data, eblup(data, spec).theta)
    for attr in ("precision", "covariance", "cov_factor"):
        assert isinstance(getattr(model, attr).nbytes, (int, np.integer)), attr


def test_refits_expose_the_counted_masks_and_counts():
    # trace_child.py sums result["fallback"] and result["boundary"] of every
    # batch_eblup call, and reads the draws' n_fallback / n_boundary
    for data in (make_nerm(D=6, seed=1)[0], make_fhm(D=12, seed=1)[0]):
        spec = cluster_mean_spec(data)
        Y = data.y[None, :] + np.random.default_rng(2).normal(0.0, 0.5, (5, data.n_total))
        result = batch_eblup(data, spec, Y)
        for key in ("fallback", "boundary"):
            assert result[key].dtype == bool and result[key].shape == (5,), key
        draws = parametric_bootstrap(data, spec, eblup(data, spec), b_reps=20, master_seed=3)
        for attr in ("n_fallback", "n_boundary"):
            assert type(getattr(draws, attr)) is int, attr

"""File formats: data CSVs, headerless matrices and tube-constant files.

Readers validate as they parse and raise ParseError/EmptyFile with the
offending row; exporters write full-precision CSV text through
csv.writer, so every dataset re-ingests to the same values and ids with
commas or quotes survive.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .analytic import TubeConstants
from .errors import EmptyFile, ParseError
from .model import FHM, NERM, BlockLmmData, ClusterBlock, validate

TUBE_KEYS = ("kappa0", "zeta0", "kappa2", "zeta1", "m0", "euler", "xi0", "eta0", "nu")


def _read_rows(path) -> list[list[str]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise EmptyFile(f"{path} has no content")
    return rows


def _float_cell(text: str, row: int, col: str, path) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ParseError(
            f"{path}: row {row}, column {col!r}: {text!r} is not a number"
        ) from exc


def _check_header(header: list[str], expected: list[str], path) -> None:
    if [h.strip() for h in header] != expected:
        raise ParseError(
            f"{path}: header must be {','.join(expected)!r}, got {','.join(header)!r}"
        )


def _covariate_names(header: list[str], tail: int) -> list[str]:
    p = len(header) - 2 - tail
    if p < 0:
        raise ParseError(f"header has {len(header)} columns, need at least {2 + tail}")
    return [f"x{i + 1}" for i in range(p)]


def ingest_unit_csv(path) -> BlockLmmData:
    """Unit-level CSV (header cluster,y,x1,...,xp), grouped by cluster.

    Clusters keep first-appearance order; an intercept column is
    prepended to the covariates.
    """
    rows = _read_rows(path)
    names = _covariate_names(rows[0], 0)
    _check_header(rows[0], ["cluster", "y"] + names, path)
    if len(rows) == 1:
        raise EmptyFile(f"{path} has a header but no data rows")
    groups: dict[str, list[list[float]]] = {}
    order: list[str] = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise ParseError(f"{path}: row {r} has {len(row)} fields, expected {len(rows[0])}")
        cid = row[0].strip()
        rec = [_float_cell(row[1], r, "y", path)] + [
            _float_cell(cell, r, name, path) for cell, name in zip(row[2:], names)
        ]
        if cid not in groups:
            groups[cid] = []
            order.append(cid)
        groups[cid].append(rec)
    blocks = []
    for cid in order:
        arr = np.array(groups[cid])
        X = np.column_stack([np.ones(arr.shape[0]), arr[:, 1:]])
        blocks.append(ClusterBlock(cluster_id=cid, y=arr[:, 0], X=X))
    data = BlockLmmData(model_tag=NERM, clusters=tuple(blocks))
    validate(data)
    return data


def ingest_area_csv(path) -> BlockLmmData:
    """Area-level CSV (header area,y,x1,...,xp,error_var), one row per area."""
    rows = _read_rows(path)
    names = _covariate_names(rows[0], 1)
    _check_header(rows[0], ["area", "y"] + names + ["error_var"], path)
    if len(rows) == 1:
        raise EmptyFile(f"{path} has a header but no data rows")
    blocks = []
    seen = set()
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise ParseError(f"{path}: row {r} has {len(row)} fields, expected {len(rows[0])}")
        cid = row[0].strip()
        if cid in seen:
            raise ParseError(f"{path}: row {r}: duplicate area {cid!r}")
        seen.add(cid)
        y = _float_cell(row[1], r, "y", path)
        covs = [_float_cell(cell, r, nm, path) for cell, nm in zip(row[2:-1], names)]
        ev = _float_cell(row[-1], r, "error_var", path)
        X = np.array([[1.0] + covs])
        blocks.append(ClusterBlock(cluster_id=cid, y=[y], X=X, known_error_var=ev))
    data = BlockLmmData(model_tag=FHM, clusters=tuple(blocks))
    validate(data)
    return data


def export_unit_csv(data: BlockLmmData) -> str:
    """Full-precision unit CSV text that re-ingests to the same dataset."""
    names = [f"x{i + 1}" for i in range(data.p)]
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(["cluster", "y"] + names)
    for c in data.clusters:
        for j in range(c.n):
            covs = [repr(float(v)) for v in c.X[j, 1:]]
            out.writerow([str(c.cluster_id), repr(float(c.y[j]))] + covs)
    return buf.getvalue()


def export_area_csv(data: BlockLmmData) -> str:
    names = [f"x{i + 1}" for i in range(data.p)]
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(["area", "y"] + names + ["error_var"])
    for c in data.clusters:
        covs = [repr(float(v)) for v in c.X[0, 1:]]
        out.writerow(
            [str(c.cluster_id), repr(float(c.y[0]))] + covs + [repr(float(c.known_error_var))]
        )
    return buf.getvalue()


def read_matrix_csv(path) -> np.ndarray:
    """Headerless numeric CSV as a 2-d array."""
    rows = _read_rows(path)
    width = len(rows[0])
    out = []
    for r, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ParseError(f"{path}: row {r} has {len(row)} fields, expected {width}")
        out.append([_float_cell(cell, r, f"col{i + 1}", path) for i, cell in enumerate(row)])
    return np.array(out)


def read_tube_constants(path) -> TubeConstants:
    """Flat key=value file with exactly the nine geometric constants."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    values: dict[str, float] = {}
    for ln, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ParseError(f"{path}: line {ln}: expected key=value, got {text!r}")
        key, _, val = text.partition("=")
        key = key.strip()
        if key not in TUBE_KEYS:
            raise ParseError(f"{path}: line {ln}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"{path}: line {ln}: duplicate key {key!r}")
        values[key] = _float_cell(val.strip(), ln, key, path)
    missing = [k for k in TUBE_KEYS if k not in values]
    if missing:
        raise ParseError(f"{path}: missing keys: {', '.join(missing)}")
    return TubeConstants(**values)

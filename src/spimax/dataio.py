"""File formats: data CSVs, headerless matrices and tube-constant files.

Readers validate as they parse and raise ParseError/EmptyFile with the
file line of the offending row; exporters write full-precision CSV text
through csv.writer, so every dataset re-ingests to the same values and ids
with commas or quotes survive.
"""

from __future__ import annotations

import csv
import dataclasses
import io

import numpy as np

from .analytic import TubeConstants
from .errors import EmptyFile, ParseError
from .model import FHM, NERM, BlockLmmData, validate

TUBE_KEYS = tuple(f.name for f in dataclasses.fields(TubeConstants))


def _read_rows(path) -> list[tuple[int, list[str]]]:
    """Non-blank CSV records, each with the file line it ends on."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader if row]
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


def _read_table(path, id_col: str, tail: list[str]):
    """Parse a data CSV (header id_col,y,x1,...,xp,*tail) row by row.

    Returns the distinct ids in first-appearance order, each row's index
    into them, and the numeric cells as a matrix.  An area file may not
    repeat an id.
    """
    (_, header), *rows = _read_rows(path)
    cols = ["y"] + _covariate_names(header, len(tail)) + tail
    _check_header(header, [id_col] + cols, path)
    if not rows:
        raise EmptyFile(f"{path} has a header but no data rows")
    codes: dict[str, int] = {}
    row_codes, recs = [], []
    for r, row in rows:
        if len(row) != len(header):
            raise ParseError(f"{path}: row {r} has {len(row)} fields, expected {len(header)}")
        cid = row[0].strip()
        if id_col == "area" and cid in codes:
            raise ParseError(f"{path}: row {r}: duplicate area {cid!r}")
        row_codes.append(codes.setdefault(cid, len(codes)))
        recs.append([_float_cell(cell, r, col, path) for cell, col in zip(row[1:], cols)])
    return tuple(codes), np.array(row_codes), np.array(recs)


def _with_intercept(covs: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(covs.shape[0]), covs])


def ingest_unit_csv(path) -> BlockLmmData:
    """Unit-level CSV (header cluster,y,x1,...,xp), grouped by cluster.

    Clusters keep first-appearance order, and rows keep file order within
    a cluster; an intercept column is prepended to the covariates.
    """
    ids, codes, recs = _read_table(path, "cluster", [])
    recs = recs[np.argsort(codes, kind="stable")]
    data = BlockLmmData(NERM, ids, np.bincount(codes), recs[:, 0], _with_intercept(recs[:, 1:]))
    validate(data)
    return data


def ingest_area_csv(path) -> BlockLmmData:
    """Area-level CSV (header area,y,x1,...,xp,error_var), one row per area."""
    ids, _, recs = _read_table(path, "area", ["error_var"])
    data = BlockLmmData(
        FHM, ids, np.ones(len(ids)), recs[:, 0], _with_intercept(recs[:, 1:-1]), recs[:, -1]
    )
    validate(data)
    return data


def _export_csv(data: BlockLmmData, id_col: str, extra: dict) -> str:
    """Full-precision CSV text, one line per unit; extra maps trailing column names to values."""
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow([id_col, "y"] + [f"x{i + 1}" for i in range(data.p)] + list(extra))
    ids = [str(cid) for cid in data.cluster_ids]
    table = np.column_stack([data.y, data.X[:, 1:]] + list(extra.values())).tolist()
    units = np.repeat(np.arange(data.D), data.sizes).tolist()
    out.writerows([ids[d]] + [repr(v) for v in row] for d, row in zip(units, table))
    return buf.getvalue()


def export_unit_csv(data: BlockLmmData) -> str:
    """Full-precision unit CSV text that re-ingests to the same dataset."""
    return _export_csv(data, "cluster", {})


def export_area_csv(data: BlockLmmData) -> str:
    return _export_csv(data, "area", {"error_var": data.known_error_vars})


def read_matrix_csv(path) -> np.ndarray:
    """Headerless numeric CSV as a 2-d array."""
    rows = _read_rows(path)
    width = len(rows[0][1])
    out = []
    for r, row in rows:
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

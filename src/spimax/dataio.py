"""File formats: data CSVs, headerless matrices and tube-constant files.

Readers stream a file through csv.reader, holding at most BLOCK_ROWS
records as text, and parse numbers by float()'s rules.  They validate as
they parse and raise ParseError/EmptyFile with the file line of the first
offending row; a leading UTF-8 byte-order mark is skipped.  Exporters
write full-precision CSV text through csv.writer, so every dataset
re-ingests to the same values and ids with commas or quotes survive.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import itertools

import numpy as np

from .analytic import TubeConstants
from .errors import EmptyFile, ParseError
from .model import FHM, NERM, BlockLmmData, validate

TUBE_KEYS = tuple(f.name for f in dataclasses.fields(TubeConstants))
# records held as text at a time, their numeric cells cast by one call; a
# block of wide records stops at BLOCK_CELLS cells, but holds one at least
BLOCK_ROWS = 1024
BLOCK_CELLS = 4 * BLOCK_ROWS


def _records(path):
    """Non-blank CSV records, each with the file line it ends on, as they are read."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if row:
                    yield reader.line_num, row
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _first_record(records, path) -> tuple[int, list[str]]:
    first = next(records, None)
    if first is None:
        raise EmptyFile(f"{path} has no content")
    return first


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


def _cast_block(lines: list[int], cells: list[list[str]], cols: list[str], path) -> np.ndarray:
    """One block of numeric cells as floats.

    np.array applies float() to each string, so the accepted syntax and the
    values are float()'s.  Only a block it refuses is cast cell by cell,
    which raises the ParseError of the first bad cell in file order.
    """
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        return np.array([[_float_cell(cell, r, col, path) for cell, col in zip(row, cols)]
                         for r, row in zip(lines, cells)])


def _read_cells(records, width: int, cols: list[str], path, unique: bool = False):
    """Stream records of width fields: an id (when width > len(cols)), then the numeric cells.

    Returns the distinct ids in first-appearance order, each record's index
    into them, and the numeric cells as a matrix.  At most BLOCK_ROWS
    records, and BLOCK_CELLS cells of them, are held as text; each full
    block is cast at once.  A ragged record, or a repeated id when unique,
    ends the read, but the records before it are cast first, so the first
    fault in file order is raised.
    """
    keyed = width > len(cols)
    block = max(1, min(BLOCK_ROWS, BLOCK_CELLS // len(cols)))
    codes: dict[str, int] = {}
    row_codes, blocks, lines, cells = [], [], [], []
    fault = None
    for r, row in records:
        if len(row) != width:
            fault = ParseError(f"{path}: row {r} has {len(row)} fields, expected {width}")
            break
        if keyed:
            cid = row[0].strip()
            if unique and cid in codes:
                fault = ParseError(f"{path}: row {r}: duplicate area {cid!r}")
                break
            row_codes.append(codes.setdefault(cid, len(codes)))
        lines.append(r)
        cells.append(row[1:] if keyed else row)
        if len(cells) == block:
            blocks.append(_cast_block(lines, cells, cols, path))
            lines, cells = [], []
    if cells:
        blocks.append(_cast_block(lines, cells, cols, path))
    if fault is not None:
        raise fault
    if not blocks:
        raise EmptyFile(f"{path} has a header but no data rows")
    return tuple(codes), np.array(row_codes), np.concatenate(blocks)


def _read_table(path, id_col: str, tail: list[str]):
    """Parse a data CSV (header id_col,y,x1,...,xp,*tail) as it is read.

    Returns what _read_cells returns; an area file may not repeat an id.
    """
    with contextlib.closing(_records(path)) as records:
        _, header = _first_record(records, path)
        cols = ["y"] + _covariate_names(header, len(tail)) + tail
        _check_header(header, [id_col] + cols, path)
        return _read_cells(records, len(header), cols, path, unique=id_col == "area")


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
    with contextlib.closing(_records(path)) as records:
        first = _first_record(records, path)
        width = len(first[1])
        cols = [f"col{i + 1}" for i in range(width)]
        return _read_cells(itertools.chain([first], records), width, cols, path)[2]


def read_tube_constants(path) -> TubeConstants:
    """Flat key=value file with exactly the nine geometric constants."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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

"""The streamed readers: float() values bit for bit, fault order across blocks, byte-order marks, memory."""

import codecs
import csv
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spimax import dataio
from spimax.dataio import (
    BLOCK_ROWS,
    export_area_csv,
    export_unit_csv,
    ingest_area_csv,
    ingest_unit_csv,
    read_matrix_csv,
    read_tube_constants,
)
from spimax.errors import ParseError

from conftest import make_fhm, make_nerm

# ------------------------------------------------------- values and ids

finite = st.floats(allow_nan=False, allow_infinity=False)
number_texts = st.one_of(
    finite.map(repr),
    st.builds("{}e{}".format, st.integers(-10**6, 10**6), st.integers(-400, 400)),
    st.builds("{}.{}E{:+d}".format, st.integers(0, 99), st.integers(0, 99), st.integers(-30, 30)),
    st.floats(min_value=0.0, allow_infinity=False).map(lambda v: "+" + repr(v)),
    st.builds(lambda lead, v, trail: " " * lead + repr(v) + " " * trail,
              st.integers(0, 2), finite, st.integers(0, 2)),
    st.integers(-10**9, 10**9).map("{:_}".format),
    st.sampled_from(["nan", "NaN", "-nan", "+nan", "inf", "-inf", "+Infinity", "INF",
                     "-0", "-0.0", "+0", "0_0.5_0", "1_0e1_0"]),
)
# ids with commas, quotes and spaces; the readers trim surrounding whitespace
cluster_ids = st.text(alphabet='ab1,"\' ', min_size=1, max_size=6).filter(
    lambda text: text == text.strip()
)
row_counts = st.one_of(
    st.integers(1, 4),
    st.integers(BLOCK_ROWS - 2, BLOCK_ROWS + 2),
    st.integers(2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS + 1),
)


@settings(max_examples=25, deadline=None)
@given(
    area=st.booleans(),
    p=st.integers(0, 2),
    n=row_counts,
    texts=st.lists(number_texts, min_size=1, max_size=12),
    ids=st.lists(cluster_ids, min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_streamed_cells_equal_float_bit_for_bit(tmp_path_factory, area, p, n, texts, ids, seed):
    rng = np.random.default_rng(seed)
    tail = ["error_var"] if area else []
    header = ["area" if area else "cluster", "y"] + [f"x{i + 1}" for i in range(p)] + tail
    cells = [[texts[i] for i in row] for row in rng.integers(len(texts), size=(n, len(header) - 1))]
    if area:  # unique: the index follows the last '#'
        row_ids = [f"{ids[k % len(ids)]}#{k}" for k in range(n)]
    else:
        row_ids = [ids[i] for i in rng.integers(len(ids), size=n)]
    blank = rng.random(n) < 0.05
    table, matrix = io.StringIO(), io.StringIO()
    csv.writer(table, lineterminator="\n").writerow(header)
    for cid, row, skip in zip(row_ids, cells, blank):
        for out, record in ((table, [cid, *row]), (matrix, row)):
            if skip:
                out.write("\n")
            csv.writer(out, lineterminator="\n").writerow(record)
    folder = tmp_path_factory.mktemp("cells")
    (folder / "data.csv").write_text(table.getvalue(), encoding="utf-8")
    (folder / "matrix.csv").write_text(matrix.getvalue(), encoding="utf-8")

    want = np.array([[float(text) for text in row] for row in cells]).view(np.int64)
    got_ids, codes, recs = dataio._read_table(folder / "data.csv", header[0], tail)
    np.testing.assert_array_equal(recs.view(np.int64), want)
    np.testing.assert_array_equal(read_matrix_csv(folder / "matrix.csv").view(np.int64), want)
    distinct = list(dict.fromkeys(row_ids))
    assert got_ids == tuple(distinct)
    np.testing.assert_array_equal(codes, [distinct.index(cid) for cid in row_ids])


# ------------------------------------------------ first fault in file order

def _unit_rows(n):
    return [f"c{k % 7},{k}.5,0.{k}" for k in range(n)]


def _area_rows(n):
    return [f"a{k},{k}.5,0.{k},1.{k}" for k in range(n)]


def _matrix_rows(n):
    return [f"{k}.5,0.{k}" for k in range(n)]


# (reader, header, rows, {file line: replacement row}, message after the path);
# a data file's row k sits on file line k + 2, a matrix's on line k + 1
B = BLOCK_ROWS
FAULT_ORDER = {
    "bad-cell-then-ragged": (
        ingest_unit_csv, "cluster,y,x1", _unit_rows,
        {B + 2: "c1,oops,0.5", B + 5: "c1,1.0"},
        f"row {B + 2}, column 'y': 'oops' is not a number",
    ),
    "ragged-then-bad-cell": (
        ingest_unit_csv, "cluster,y,x1", _unit_rows,
        {B + 2: "c1,1.0", B + 5: "c1,oops,0.5"},
        f"row {B + 2} has 2 fields, expected 3",
    ),
    "bad-cell-in-a-cast-block-then-ragged": (
        ingest_unit_csv, "cluster,y,x1", _unit_rows,
        {3: "c1,1.0,x", B + 2: "c1,1.0"},
        "row 3, column 'x1': 'x' is not a number",
    ),
    "bad-cell-then-repeated-area": (
        ingest_area_csv, "area,y,x1,error_var", _area_rows,
        {B + 2: f"a{B},1.0,0.5,bad", B + 5: "a5,1.0,0.5,0.5"},
        f"row {B + 2}, column 'error_var': 'bad' is not a number",
    ),
    "repeated-area-then-bad-cell": (
        ingest_area_csv, "area,y,x1,error_var", _area_rows,
        {B + 2: "a5,1.0,0.5,0.5", B + 5: f"a{B + 3},1.0,bad,0.5"},
        f"row {B + 2}: duplicate area 'a5'",
    ),
    "bad-matrix-cell-then-ragged": (
        read_matrix_csv, None, _matrix_rows,
        {B + 1: "1.0,x", B + 3: "1.0"},
        f"row {B + 1}, column 'col2': 'x' is not a number",
    ),
}


@pytest.mark.parametrize("case", FAULT_ORDER.values(), ids=FAULT_ORDER.keys())
def test_the_first_fault_in_file_order_is_raised_across_a_block_boundary(tmp_path, case):
    reader, header, rows, faults, message = case
    lines = ([header] if header else []) + rows(B + 20)
    for line, text in faults.items():
        lines[line - 1] = text
    path = tmp_path / "faulty.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as info:
        reader(path)
    assert str(info.value) == f"{path}: {message}"


# ------------------------------------------------------- byte-order mark

def test_byte_order_marked_files_read_as_their_unmarked_copies(tmp_path):
    # a spreadsheet's "CSV UTF-8" starts with U+FEFF
    unit, _ = make_nerm(D=6, n_d=3, seed=4)
    area, _ = make_fhm(D=6, seed=4)
    texts = {
        "unit.csv": export_unit_csv(unit),
        "area.csv": export_area_csv(area),
        "matrix.csv": "1.5,2\n-3,4e-2\n",
        "tube.txt": "".join(f"{key}={k + 1}.5\n" for k, key in enumerate(dataio.TUBE_KEYS)),
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        (tmp_path / f"bom-{name}").write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    for reader in (ingest_unit_csv, ingest_area_csv):
        name = "unit.csv" if reader is ingest_unit_csv else "area.csv"
        plain, marked = reader(tmp_path / name), reader(tmp_path / f"bom-{name}")
        assert marked.cluster_ids == plain.cluster_ids
        for field in ("sizes", "y", "X", "known_error_vars"):
            np.testing.assert_array_equal(getattr(marked, field), getattr(plain, field))
    np.testing.assert_array_equal(
        read_matrix_csv(tmp_path / "bom-matrix.csv"), read_matrix_csv(tmp_path / "matrix.csv")
    )
    assert read_tube_constants(tmp_path / "bom-tube.txt") == read_tube_constants(tmp_path / "tube.txt")


def test_undecodable_or_unparsable_files_are_parse_errors(tmp_path):
    # bytes that are not UTF-8, and a field over the csv module's size limit
    cases = [
        (ingest_unit_csv, b"cluster,y,x1\na,1.0,0.5\n\xff,2.0,0.1\n"),
        (ingest_area_csv, b"area,y,x1,error_var\n\xfe,1.0,0.5,0.4\n"),
        (read_matrix_csv, b"1,2\n3,\xff\n"),
        (read_tube_constants, b"kappa0=2.5\xff\n"),
        (ingest_unit_csv, b"cluster,y,x1\na," + b"1" * (csv.field_size_limit() + 1) + b",0.5\n"),
    ]
    for reader, raw in cases:
        path = tmp_path / "unreadable.csv"
        path.write_bytes(raw)
        with pytest.raises(ParseError, match=re.escape(f"cannot read {path}: ")):
            reader(path)


# ---------------------------------------------------------------- memory

# the readers' traced peak, over the bytes of the arrays they return; holding
# the whole file as lists of strings and of Python floats costs over 14 times
PEAK_OVER_RESULT = 4.0


def _traced_peak(read, path):
    tracemalloc.start()
    try:
        result = read(path)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_readers_peak_memory_is_a_small_multiple_of_their_arrays(tmp_path):
    data, _ = make_nerm(D=1000, n_d=20, p=2, seed=3)
    unit = tmp_path / "unit.csv"
    unit.write_text(export_unit_csv(data))
    peak, back = _traced_peak(ingest_unit_csv, unit)
    held = back.y.nbytes + back.X.nbytes + back.sizes.nbytes
    assert back.n_total == 20_000 and peak < PEAK_OVER_RESULT * held, (peak, held)

    matrix = tmp_path / "matrix.csv"
    rows = np.random.default_rng(1).standard_normal((50, 2000)).tolist()
    matrix.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
    peak, back = _traced_peak(read_matrix_csv, matrix)
    assert back.shape == (50, 2000) and peak < PEAK_OVER_RESULT * back.nbytes, (peak, back.nbytes)

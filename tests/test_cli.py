"""Command-line surface: formats, exit codes, determinism."""

import ast
import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spimax
from spimax import cli, simulate, util
from spimax.bootstrap import (
    critical_value_bs,
    critical_value_contrast,
    parametric_bootstrap,
    stepdown_quantile_provider,
)
from spimax.calibration import max_test
from spimax.cli import SIM_PRESETS, run_cli, sim_csv_text
from spimax.dataio import (
    export_area_csv,
    export_unit_csv,
    ingest_area_csv,
    ingest_unit_csv,
    read_matrix_csv,
    read_tube_constants,
)
from spimax.errors import (
    EmptyFile,
    EmptyGrid,
    NonPositiveShift,
    ParseError,
    ShapeMismatch,
)
from spimax.estimation import eblup, log_shift, log_shift_profile
from spimax.maxstat import single_step_test, step_down_test
from spimax.model import FHM, cluster_mean_spec, replace_response
from spimax.simulate import (
    ScenarioConfig,
    generate_scenario,
    preset_config,
    run_fwer_experiment,
    run_power_experiment,
    run_spi_experiment,
)
from spimax.util import floor_scales, normal_scores

from conftest import make_fhm, make_nerm


@pytest.fixture()
def unit_csv(tmp_path):
    data, _ = make_nerm(D=8, n_d=4, seed=2)
    path = tmp_path / "unit.csv"
    path.write_text(export_unit_csv(data))
    return path


@pytest.fixture()
def area_csv(tmp_path):
    data, _ = make_fhm(D=10, seed=2)
    path = tmp_path / "area.csv"
    path.write_text(export_area_csv(data))
    return path


@pytest.fixture()
def tube_file(tmp_path):
    path = tmp_path / "tube.txt"
    path.write_text(
        "# band geometry\n"
        "kappa0=2.5\nzeta0=3.0\nkappa2=0.5\nzeta1=0.2\nm0=0.3\n"
        "euler=0.5\nxi0=1.0\neta0=0.3\nnu=25.0\n"
    )
    return path


# ---------------------------------------------------------------- ingestion


def test_unit_csv_round_trip_is_byte_stable(tmp_path, unit_csv):
    text = unit_csv.read_text()
    data = ingest_unit_csv(unit_csv)
    assert export_unit_csv(data) == text
    again = tmp_path / "again.csv"
    again.write_text(export_unit_csv(data))
    back = ingest_unit_csv(again)
    np.testing.assert_array_equal(back.y, data.y)
    np.testing.assert_array_equal(back.X, data.X)
    assert back.cluster_ids == data.cluster_ids


def test_area_csv_round_trip(area_csv):
    data = ingest_area_csv(area_csv)
    assert export_area_csv(data) == area_csv.read_text()
    assert data.model_tag == FHM
    assert np.all(data.known_error_vars > 0)


# ids with commas, quotes and spaces; the readers trim surrounding whitespace,
# so an id starts and ends with a visible character
cluster_ids = st.text(alphabet='ab1,"\' ', min_size=1, max_size=8).filter(
    lambda text: text == text.strip()
)


@settings(max_examples=50, deadline=None)
@given(
    ids=st.lists(cluster_ids, min_size=3, max_size=8, unique=True),
    area=st.booleans(),
    intercept_only=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_arbitrary_ids_survive_csv_round_trip(tmp_path_factory, ids, area, intercept_only, seed):
    if area:
        data, _ = make_fhm(D=len(ids), p=0 if intercept_only else 1, seed=seed)
    else:
        data, _ = make_nerm(
            D=len(ids), n_d=2, p=0 if intercept_only else 2, seed=seed, unbalanced=True
        )
    named = dataclasses.replace(data, cluster_ids=tuple(ids))
    export, ingest = (
        (export_area_csv, ingest_area_csv) if area else (export_unit_csv, ingest_unit_csv)
    )
    path = tmp_path_factory.mktemp("ids") / "data.csv"
    path.write_text(export(named), encoding="utf-8")
    back = ingest(path)
    assert back.cluster_ids == tuple(ids)
    np.testing.assert_array_equal(back.y, named.y)
    np.testing.assert_array_equal(back.X, named.X)
    if area:
        np.testing.assert_array_equal(back.known_error_vars, named.known_error_vars)


def test_ingest_groups_by_first_appearance(tmp_path):
    path = tmp_path / "interleaved.csv"
    path.write_text(
        "cluster,y,x1\nb,1.0,0.1\na,2.0,0.2\nb,3.0,0.3\na,4.0,0.4\n"
    )
    data = ingest_unit_csv(path)
    assert data.cluster_ids == ("b", "a")
    np.testing.assert_array_equal(data.y, [1.0, 3.0, 2.0, 4.0])


def test_ingest_diagnostics(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("id,y,x1\na,1.0,0.5\n")
    with pytest.raises(ParseError, match="header"):
        ingest_unit_csv(bad_header)

    bad_cell = tmp_path / "c.csv"
    bad_cell.write_text("cluster,y,x1\na,1.0,0.5\na,oops,0.6\nb,2.0,0.1\nb,2.0,0.2\n")
    with pytest.raises(ParseError, match="row 3.*'y'"):
        ingest_unit_csv(bad_cell)

    ragged = tmp_path / "r.csv"
    ragged.write_text("cluster,y,x1\na,1.0,0.5\na,1.0\n")
    with pytest.raises(ParseError, match="row 3"):
        ingest_unit_csv(ragged)

    # rows are numbered by file line, blank lines included
    blank_lines = tmp_path / "b.csv"
    blank_lines.write_text("cluster,y,x1\n\na,1,2\n\nb,x,2\n")
    with pytest.raises(ParseError, match="row 5, column 'y'"):
        ingest_unit_csv(blank_lines)
    blank_matrix = tmp_path / "bm.csv"
    blank_matrix.write_text("1,2\n\n3,x\n")
    with pytest.raises(ParseError, match="row 3, column 'col2'"):
        read_matrix_csv(blank_matrix)

    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(EmptyFile):
        ingest_unit_csv(empty)

    header_only = tmp_path / "ho.csv"
    header_only.write_text("cluster,y,x1\n")
    with pytest.raises(EmptyFile):
        ingest_unit_csv(header_only)

    dup = tmp_path / "d.csv"
    dup.write_text("area,y,x1,error_var\na,1.0,0.5,0.4\na,2.0,0.6,0.3\n")
    with pytest.raises(ParseError, match="duplicate area"):
        ingest_area_csv(dup)

    # intercept-only files are valid; a header shorter than that is not
    for ingest, text in [(ingest_unit_csv, "cluster\na\n"), (ingest_area_csv, "area,y\na,1.0\n")]:
        short = tmp_path / "s.csv"
        short.write_text(text)
        with pytest.raises(ParseError, match="need at least"):
            ingest(short)


def test_tube_constants_file(tmp_path, tube_file):
    k = read_tube_constants(tube_file)
    assert k.kappa0 == 2.5 and k.nu == 25.0

    missing = tmp_path / "m.txt"
    missing.write_text("kappa0=2.5\n")
    with pytest.raises(ParseError, match="missing keys"):
        read_tube_constants(missing)

    unknown = tmp_path / "u.txt"
    unknown.write_text(tube_file.read_text() + "extra=1\n")
    with pytest.raises(ParseError, match="unknown key"):
        read_tube_constants(unknown)

    dup = tmp_path / "dup.txt"
    dup.write_text(tube_file.read_text() + "nu=30\n")
    with pytest.raises(ParseError, match="duplicate key"):
        read_tube_constants(dup)


# ------------------------------------------------------------- transform


def _positive_data(seed=5):
    data, _ = make_nerm(D=6, n_d=5, seed=seed)
    return replace_response(data, np.exp(0.7 * data.y) + 0.3)


def test_log_shift_transform_minimizes_abs_skewness():
    from scipy import stats

    from spimax.estimation import cholesky_residuals

    data = _positive_data()
    grid = np.linspace(data.y.min(), data.y.max(), 9)
    got_grid, got_skews, best = log_shift_profile(data, grid)
    np.testing.assert_array_equal(got_grid, grid)
    # recompute the profile; the reported shift must attain the minimum
    skews = []
    for c in grid:
        shifted = log_shift(data, c)
        skews.append(abs(stats.skew(cholesky_residuals(shifted, eblup(shifted)))))
    assert np.argmin(skews) == best
    np.testing.assert_allclose(np.abs(got_skews), skews, rtol=1e-12)


def test_log_shift_transform_validation():
    data = _positive_data()
    for grid in ([], 0, -3):  # no shifts, or a point count below one
        with pytest.raises(EmptyGrid):
            log_shift_profile(data, grid)
    shifted = replace_response(data, data.y - data.y.min() - 1.0)  # y min is -1
    with pytest.raises(NonPositiveShift):
        log_shift_profile(shifted, [0.5])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ShapeMismatch, match=f"transform shifts must be finite, got {bad:g}$"):
            log_shift_profile(data, [1.0, bad])


@pytest.mark.parametrize("centred", [False, True], ids=["positive", "nonpositive"])
def test_count_grid_spans_the_response(centred):
    data = _positive_data()
    if centred:
        data = replace_response(data, data.y - data.y.mean())
    lo, hi = data.y.min(), data.y.max()
    # the grid the command line has always used
    expected = np.linspace(lo, hi, 5) if lo > 0 else np.linspace(0.0, hi - lo, 6)[1:] - lo
    grid, _, _ = log_shift_profile(data, 5)
    assert grid.tobytes() == expected.tobytes()
    assert np.all(data.y[:, None] + grid > 0)
    assert log_shift_profile(data)[0].size == 25


def test_normal_scores_rank_ties_in_order():
    values = np.array([0.3, -1.2, 0.3, 2.0, -1.2, 0.0, 0.3])
    n = values.size
    order = sorted(range(n), key=lambda i: (values[i], i))
    expected = [NormalDist().inv_cdf((order.index(i) + 0.5) / n) for i in range(n)]
    assert normal_scores(values).tolist() == expected


def test_replace_response_shape_guard():
    data = _positive_data()
    with pytest.raises(ShapeMismatch):
        replace_response(data, np.ones(data.n_total + 1))


# ----------------------------------------------------------------- run_cli


def test_spi_bs_outputs_match_library_and_are_deterministic(tmp_path, unit_csv):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = [
        "spi", "--model", "nerm", "--data", str(unit_csv),
        "--method", "bs", "--alpha", "0.05", "--B", "120", "--seed", "11",
    ]
    assert run_cli(argv + ["--out", str(out1)]) == 0
    assert run_cli(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    payload = json.loads(out1.read_text())
    assert payload["method"] == "bs" and payload["B"] == 120 and payload["seed"] == 11
    data = ingest_unit_csv(unit_csv)
    fit = eblup(data, cluster_mean_spec(data))
    centers = [iv["center"] for iv in payload["intervals"]]
    np.testing.assert_allclose(centers, fit.mu_hat, rtol=0, atol=1e-12)
    for iv in payload["intervals"]:
        assert iv["lower"] <= iv["center"] <= iv["upper"]


def test_spi_all_methods_run(tmp_path, unit_csv, area_csv, tube_file):
    for model, path, method, extra in [
        ("nerm", unit_csv, "mc", ["--K", "2000"]),
        ("nerm", unit_csv, "bo", []),
        ("nerm", unit_csv, "be", ["--B", "120"]),
        ("nerm", unit_csv, "vt", ["--tube-constants", str(tube_file)]),
        ("fhm", area_csv, "bs", ["--B", "120"]),
        ("fhm", area_csv, "mc", ["--K", "2000"]),
    ]:
        out = tmp_path / f"{model}-{method}.json"
        code = run_cli(
            ["spi", "--model", model, "--data", str(path), "--method", method,
             "--seed", "4", "--out", str(out)] + extra
        )
        assert code == 0, (model, method)
        payload = json.loads(out.read_text())
        assert payload["critical_value"] > 0
        if method == "be":
            assert len(payload["per_cluster_critical"]) == len(payload["intervals"])


def test_intercept_only_files_run(tmp_path, tube_file):
    unit = tmp_path / "unit.csv"
    unit.write_text(export_unit_csv(make_nerm(D=8, n_d=4, p=0, seed=2)[0]))
    area = tmp_path / "area.csv"
    area.write_text(export_area_csv(make_fhm(D=10, p=0, seed=2)[0]))
    for model, path in [("nerm", unit), ("fhm", area)]:
        common = ["--model", model, "--data", str(path), "--out", str(tmp_path / "out.json")]
        assert run_cli(["fit"] + common) == 0
        assert run_cli(["spi"] + common + ["--method", "bs", "--B", "120"]) == 0
    # the tube bound takes its dimension from p, so p = 0 needs an explicit --p
    assert run_cli(
        ["spi", "--model", "nerm", "--data", str(unit), "--method", "vt",
         "--tube-constants", str(tube_file)]
    ) == 2


def test_vt_overflowing_dimension_is_a_computation_error(tmp_path, capsys, unit_csv, tube_file):
    # Gamma((p + 1) / 2) overflows from p = 343 up: a reported error, not a traceback
    err_path = tmp_path / "err.json"
    code = run_cli(
        ["spi", "--model", "nerm", "--data", str(unit_csv), "--method", "vt",
         "--tube-constants", str(tube_file), "--p", "344", "--error-json", str(err_path)]
    )
    assert code == 2
    report = json.loads(err_path.read_text())
    assert report["error"] == "BoundUnattainable"
    assert "p = 344" in report["message"]
    assert capsys.readouterr().err == f"error: {report['message']}\n"


def test_vt_rejected_for_area_model(tmp_path, area_csv, tube_file):
    # ridge scales are defined through the unit-level error variance
    code = run_cli(
        ["spi", "--model", "fhm", "--data", str(area_csv), "--method", "vt",
         "--tube-constants", str(tube_file), "--out", str(tmp_path / "x.json")]
    )
    assert code == 2
    assert not (tmp_path / "x.json").exists()


def _write_matrix(path, M):
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in M) + "\n")
    return str(path)


@pytest.mark.parametrize("contrasts", [False, True], ids=["clusters", "contrasts"])
def test_stepdown_max_test_matches_primitives_and_cli(tmp_path, unit_csv, contrasts):
    data = ingest_unit_csv(unit_csv)
    spec = cluster_mean_spec(data)
    fit = eblup(data, spec)
    # two targets pushed well off their nulls, the rest exactly on them
    A = np.eye(data.D)[:-1] - np.eye(data.D, k=1)[:-1] if contrasts else None
    mu_hat = fit.mu_hat if A is None else A @ fit.mu_hat
    h = mu_hat + np.where(np.arange(mu_hat.size) < 2, 1.5, 0.0)
    kw = {"alpha": 0.05, "seed": 21, "B": 150, "K": 100_000, "A": A}
    test, rejected = max_test("BS", data, spec, fit, h, stepdown=True, **kw)

    draws = parametric_bootstrap(data, spec, fit, 150, 21, A)
    scales = fit.scale
    if A is None:
        single_cv = critical_value_bs(draws, 0.05)
    else:
        single_cv = critical_value_contrast(draws, A, 0.05)
        scales = np.sqrt(scales**2 @ (A.T**2))
    t = np.abs(mu_hat - h) / floor_scales(scales)
    expected = step_down_test(t, stepdown_quantile_provider(draws, 0.05), 0.05)
    np.testing.assert_array_equal(rejected, expected)
    np.testing.assert_array_equal(test.t, t)
    assert (test.statistic, test.critical.value) == (t.max(), single_cv.value)
    # step-down can only add rejections over the single-step test
    single = np.flatnonzero(single_step_test(mu_hat, scales, h, single_cv).decisions)
    np.testing.assert_array_equal(max_test("BS", data, spec, fit, h, **kw)[1], single)
    assert set(single) <= set(rejected)

    # the command line reports the same test
    out = tmp_path / "t.json"
    argv = ["test", "--model", "nerm", "--data", str(unit_csv),
            "--h", _write_matrix(tmp_path / "h.csv", h[:, None]),
            "--method", "bs", "--B", "150", "--seed", "21", "--stepdown", "--out", str(out)]
    if contrasts:
        argv += ["--contrasts", _write_matrix(tmp_path / "A.csv", A)]
    assert run_cli(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["stepdown"] is True
    assert payload["rejected_indices"] == [int(i) for i in rejected]
    assert payload["statistic"] == test.statistic
    assert payload["critical_value"] == test.critical.value


def test_contrast_test_cli(tmp_path, unit_csv):
    data = ingest_unit_csv(unit_csv)
    A = np.eye(data.D)[:-1] - np.eye(data.D, k=1)[:-1]
    out = tmp_path / "ct.json"
    code = run_cli(
        ["test", "--model", "nerm", "--data", str(unit_csv),
         "--contrasts", _write_matrix(tmp_path / "A.csv", A), "--method", "bs", "--B", "120",
         "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["statistic"] > 0
    assert all(label.startswith("contrast") for label in payload["rejected"])
    # without --h the nulls are zero differences
    spec = cluster_mean_spec(data)
    test = max_test("BS", data, spec, eblup(data, spec), np.zeros(len(A)), alpha=0.05, seed=3,
                    B=120, K=1, A=A)[0]
    assert payload["statistic"] == test.statistic


@pytest.mark.parametrize("preset", SIM_PRESETS)
def test_simulate_csv_does_not_depend_on_the_worker_count(tmp_path, monkeypatch, preset):
    argv = ["simulate", "--preset", preset, "--D", "10", "--I", "7", "--B", "40", "--K", "200",
            "--seed", "11"]
    outputs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(util, "usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"{cpus}.csv"
        assert run_cli(argv + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("preset", SIM_PRESETS)
def test_simulate_defaults_are_the_library_defaults(tmp_path, preset):
    # the command line restates no default: methods, shifts and the sizes it
    # does not set come from the preset's config and the experiment runner
    run = {"table1-row": run_spi_experiment, "table2-row": run_spi_experiment,
           "power": run_power_experiment, "fwer": run_fwer_experiment}[preset]
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--preset", preset, "--I", "3", "--B", "20", "--K", "200"]
    assert run_cli(argv + ["--out", str(out)]) == 0
    expected = run(preset_config(preset, n_sim=3, n_boot=20, n_mc=200))
    assert out.read_text() == sim_csv_text(expected.rows())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--preset", "table1-row", "--sigma-u2", "nan"], "variances must be positive and finite"),
        (["--preset", "table2-row", "--pattern", "nan,1,1,1,1"],
         "error variance pattern must be nonempty, positive and finite"),
        (["--preset", "fwer", "--shift", "nan"], "alternative shift must be positive and finite"),
        (["--preset", "power", "--deltas", "nan,0"], "need at least one shift value, all finite"),
        (["--preset", "power", "--deltas", "0,0,0.5,0.5000001"],
         "shift values must differ in their first six significant digits"),
        (["--preset", "power", "--methods", "BO"],
         "power experiment supports BS and MC, got 'BO'"),
    ],
    ids=["nan-sigma-u2", "nan-pattern", "nan-shift", "nan-delta", "colliding-deltas",
         "power-methods"],
)
def test_simulate_settings_are_checked_before_any_replicate(monkeypatch, capsys, argv, message):
    monkeypatch.setattr(simulate, "_map_replicates", None)  # calling it would fail
    assert run_cli(["simulate", *argv, "--I", "2", "--B", "5", "--K", "50"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_csv_format_and_determinism(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    argv = [
        "simulate", "--preset", "table1-row", "--D", "10", "--sigma-e2", "0.5",
        "--sigma-u2", "1", "--I", "6", "--B", "60", "--K", "300", "--seed", "7",
    ]
    assert run_cli(argv + ["--out", str(out1)]) == 0
    assert run_cli(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().strip().split("\n")
    assert lines[0] == "scenario,method,criterion,value,mc_halfwidth"
    assert len(lines) == 1 + 4 * 3  # four methods, three criteria
    for line in lines[1:]:
        scenario, method, criterion, value, hw = line.split(",")
        assert scenario == "table1-row-D10"
        assert method in ("BS", "MC", "BO", "BE")
        assert criterion in ("ecp", "ws", "vs")
        float(value), float(hw)
        # 6 significant digits max in the CSV surface
        for cell in (value, hw):
            digits = "".join(ch for ch in cell.split("e")[0] if ch.isdigit()).lstrip("0")
            assert len(digits) <= 6


def test_residuals_csv_layout(tmp_path, unit_csv):
    out = tmp_path / "r.csv"
    assert run_cli(
        ["residuals", "--model", "nerm", "--data", str(unit_csv), "--out", str(out)]
    ) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "kind,cluster,unit,value,normal_quantile"
    data = ingest_unit_csv(unit_csv)
    body = [line.split(",") for line in lines[1:]]
    chol = [row for row in body if row[0] == "cholesky"]
    eff = [row for row in body if row[0] == "random_effect"]
    assert len(chol) == data.n_total and len(eff) == data.D
    # plotting positions are a monotone relabeling of the values
    for rows in (chol, eff):
        vals = np.array([float(r[3]) for r in rows])
        quants = np.array([float(r[4]) for r in rows])
        order = np.argsort(vals)
        assert np.all(np.diff(quants[order]) > 0)


@pytest.mark.parametrize("model", ["nerm", "fhm"])
def test_quoted_ids_survive_transform_round_trip(tmp_path, model):
    # ids with a comma and a quote must be quoted on the way out
    data = _positive_data() if model == "nerm" else make_fhm(D=6, seed=5)[0]
    shift = 0.0 if model == "nerm" else 1.0 - float(data.y.min())
    odd = ('a,"b', 'say "hi"', "plain")
    ids = {cid: odd[i % len(odd)] + str(i) for i, cid in enumerate(data.cluster_ids)}
    renamed = dataclasses.replace(data, cluster_ids=tuple(ids.values()), y=data.y + shift)
    export = export_unit_csv if model == "nerm" else export_area_csv
    ingest = ingest_unit_csv if model == "nerm" else ingest_area_csv
    src = tmp_path / "ids.csv"
    src.write_text(export(renamed))
    assert ingest(src).cluster_ids == tuple(ids.values())
    out, out_data = tmp_path / "t.json", tmp_path / "t.csv"
    code = run_cli(
        ["transform", "--model", model, "--data", str(src), "--grid", "4",
         "--out", str(out), "--out-data", str(out_data)]
    )
    assert code == 0
    assert ingest(out_data).cluster_ids == tuple(ids.values())
    if model == "nerm":
        resid = tmp_path / "r.csv"
        assert run_cli(["residuals", "--model", model, "--data", str(src),
                        "--out", str(resid)]) == 0
        rows = list(csv.reader(resid.read_text().splitlines()))
        assert {row[1] for row in rows[1:]} == set(ids.values())


def test_transform_cli_writes_data_only_on_success(tmp_path):
    data = _positive_data()
    src = tmp_path / "pos.csv"
    src.write_text(export_unit_csv(data))
    out, out_data = tmp_path / "t.json", tmp_path / "t.csv"
    code = run_cli(
        ["transform", "--model", "nerm", "--data", str(src), "--grid", "6",
         "--out", str(out), "--out-data", str(out_data)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["c_star"] in payload["grid"]
    assert len(payload["skewness"]) == 6
    transformed = ingest_unit_csv(out_data)
    np.testing.assert_allclose(
        transformed.y, np.log(data.y + payload["c_star"]), rtol=0, atol=1e-15
    )

    # a grid candidate that makes y + c nonpositive must leave no files
    bad_out, bad_data = tmp_path / "bad.json", tmp_path / "bad.csv"
    code = run_cli(
        ["transform", "--model", "nerm", "--data", str(src), "--grid",
         f"{-2 * float(data.y.max())}", "--out", str(bad_out),
         "--out-data", str(bad_data)]
    )
    assert code == 2
    assert not bad_out.exists() and not bad_data.exists()


@pytest.mark.parametrize("grid, shown", [("nan,1", "nan"), ("inf", "inf")])
def test_transform_cli_rejects_non_finite_shifts(tmp_path, capsys, grid, shown):
    src = tmp_path / "pos.csv"
    src.write_text(export_unit_csv(_positive_data()))
    out = tmp_path / "t.json"
    argv = ["transform", "--model", "nerm", "--data", str(src), "--grid", grid, "--out", str(out)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == f"error: transform shifts must be finite, got {shown}\n"
    assert not out.exists()


@pytest.mark.parametrize("grid", [None, "7"])
def test_transform_default_grid_accepts_nonpositive_response(tmp_path, grid):
    data, _ = make_nerm(D=6, n_d=5, seed=5)
    data = replace_response(data, data.y - data.y.mean())
    src = tmp_path / "centered.csv"
    src.write_text(export_unit_csv(data))
    out = tmp_path / "t.json"
    argv = ["transform", "--model", "nerm", "--data", str(src), "--out", str(out)]
    assert run_cli(argv + ([] if grid is None else ["--grid", grid])) == 0
    payload = json.loads(out.read_text())
    assert len(payload["grid"]) == (25 if grid is None else 7)
    assert min(payload["grid"]) > -data.y.min()
    assert payload["c_star"] in payload["grid"]


def test_fit_payload_fields(tmp_path, area_csv):
    out = tmp_path / "fit.json"
    assert run_cli(
        ["fit", "--model", "fhm", "--data", str(area_csv), "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["sigma2_e"] is None  # area model has known error variances
    assert payload["sigma2_u"] > 0
    assert len(payload["clusters"]) == payload["D"]
    assert {"cluster", "n", "mu_hat", "u_hat", "scale"} <= set(payload["clusters"][0])


def test_exit_codes_and_error_json(tmp_path, capsys, unit_csv, tube_file):
    nerm = ["--model", "nerm", "--data", str(unit_csv)]
    absent = str(tmp_path / "absent.csv")
    usage_errors = [
        ["spi", "--nope"],  # unknown option, then bad combinations
        ["spi", *nerm, "--method", "vt"],
        # the tube flags with a method that does not read them: caught before
        # the constants file is opened
        ["spi", *nerm, "--method", "bs", "--p", "3", "--tube-constants", absent],
        ["test", *nerm, "--method", "mc", "--h", absent, "--p", "1"],
        ["test", *nerm, "--method", "bs"],
        ["test", *nerm, "--method", "mc", "--h", "x.csv", "--stepdown"],
        ["test", *nerm, "--method", "be", "--contrasts", "A.csv"],
        ["fit", *nerm, "--out", str(tmp_path / "no_such_dir" / "x.json")],
        # an output path that is a directory: caught before the data or h is read
        ["fit", "--model", "nerm", "--data", absent, "--out", str(tmp_path)],
        ["test", *nerm, "--h", absent, "--method", "bs", "--error-json", str(tmp_path)],
        ["transform", "--model", "nerm", "--data", absent, "--out-data", str(tmp_path)],
        # two outputs to one destination: caught before the data is read
        ["transform", "--model", "nerm", "--data", absent,
         "--out", str(tmp_path / "t.out"), "--out-data", str(tmp_path / "." / "t.out")],
        ["transform", "--model", "nerm", "--data", absent, "--out-data", "-"],
        ["transform", "--model", "nerm", "--data", absent, "--out", "-", "--out-data", "-"],
        # there is no worker-count option: MC picks its own workers
        ["spi", *nerm, "--method", "mc", "--threads", "2"],
        ["simulate", "--preset", "fwer", "--threads", "2"],
        # a simulate flag that the preset does not read
        ["simulate", "--preset", "fwer", "--methods", "XX", "--deltas", "1"],
        ["simulate", "--preset", "table2-row", "--n-d", "9", "--sigma-e2", "7"],
        ["simulate", "--preset", "table1-row", "--pattern", "1,2"],
        ["simulate", "--preset", "power", "--shift", "2"],
        ["simulate", "--preset", "table1-row", "--deltas", "0"],
    ]
    assert [run_cli(argv) for argv in usage_errors] == [1] * len(usage_errors)
    err = capsys.readouterr().err
    assert err.count(f"output path is a directory: {tmp_path}\n") == 3
    assert err.count("--out and --out-data name the same destination: ") == 3
    assert "usage error: --preset fwer does not read --methods, --deltas\n" in err
    assert "usage error: --preset table2-row does not read --n-d, --sigma-e2\n" in err
    assert "usage error: --method bs does not read --p, --tube-constants\n" in err
    assert "usage error: --method mc does not read --p\n" in err
    assert err.count(" does not read ") == 7
    assert not (tmp_path / "t.out").exists()

    # computation: missing file, with machine-readable report
    err_path = tmp_path / "err.json"
    assert run_cli(["fit", "--model", "nerm", "--data", absent, "--error-json", str(err_path)]) == 2
    report = json.loads(err_path.read_text())
    assert report["error"] == "ParseError"
    assert "absent.csv" in report["message"]


def test_a_failed_error_report_keeps_the_stderr_line(tmp_path, capsys, monkeypatch):
    err_path = tmp_path / "err.json"

    def fails_after_the_checks(path):
        err_path.mkdir()  # the report can no longer be written
        raise ParseError("bad data")

    monkeypatch.setattr(cli, "ingest_unit_csv", fails_after_the_checks)
    code = run_cli(["fit", "--model", "nerm", "--data", "x.csv", "--error-json", str(err_path)])
    assert code == 2
    first, second = capsys.readouterr().err.splitlines()
    assert first == "error: bad data"
    assert second.startswith("error: cannot write the error report: ")


@pytest.mark.parametrize(
    "model, text, message",
    [
        ("nerm", "cluster,y,x1\na,1.0,0.1\na,nan,0.2\nb,2.0,0.3\nb,1.5,0.5\n",
         "y contains non-finite entries"),
        ("nerm", "cluster,y,x1\na,1.0,0.1\na,1.2,inf\nb,2.0,0.3\nb,1.5,0.5\n",
         "X contains non-finite entries"),
        ("fhm", "area,y,x1,error_var\na,1.0,0.1,nan\nb,2.0,0.3,0.5\nc,1.5,0.5,0.5\n",
         "cluster 'a': known_error_var must be positive, got nan"),
    ],
    ids=["nan-y", "inf-x", "nan-error-var"],
)
def test_non_finite_cells_are_data_errors(tmp_path, capsys, model, text, message):
    path = tmp_path / "data.csv"
    path.write_text(text)
    err_path = tmp_path / "err.json"
    code = run_cli(
        ["fit", "--model", model, "--data", str(path), "--error-json", str(err_path)]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert json.loads(err_path.read_text())["message"] == message


def test_one_row_per_cluster_is_a_data_error(tmp_path, capsys):
    # n - D = 0 leaves nothing to estimate sigma2_e from; no answer, no warning
    data, _ = make_nerm(D=50, n_d=1, seed=0)
    path, err_path = tmp_path / "single.csv", tmp_path / "err.json"
    path.write_text(export_unit_csv(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(
            ["fit", "--model", "nerm", "--data", str(path), "--error-json", str(err_path)]
        )
    assert code == 2
    report = json.loads(err_path.read_text())
    assert report["error"] == "DegenerateData"
    assert capsys.readouterr().err == f"error: {report['message']}\n"


def test_generated_scenario_survives_csv_round_trip(tmp_path):
    config = ScenarioConfig(D=10, n_d=3, n_sim=1, master_seed=31)
    data, _, _ = generate_scenario(config, 0)
    path = tmp_path / "gen.csv"
    path.write_text(export_unit_csv(data))
    back = ingest_unit_csv(path)
    np.testing.assert_array_equal(back.y, data.y)
    np.testing.assert_array_equal(back.X, data.X)
    # identifiers come back as text; re-export is the fixed point
    assert export_unit_csv(back) == path.read_text()


def test_the_cli_module_imports_no_numpy():
    # the command line only parses and encodes; array work belongs to the library
    nodes = list(ast.walk(ast.parse(Path(cli.__file__).read_text())))
    names = [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in nodes if isinstance(node, ast.ImportFrom) and not node.level]
    assert [name for name in names if name.split(".")[0] == "numpy"] == []


def _fresh_interpreter(code: str) -> None:
    """Run code in a new interpreter that imports the same spimax this suite imports."""
    src = str(Path(spimax.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_importing_the_package_does_not_load_the_cli():
    _fresh_interpreter(
        "import sys, spimax; assert 'spimax.cli' not in sys.modules, sorted(sys.modules)"
    )


NO_SCIPY = "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], sorted(sys.modules)"


def test_importing_the_package_and_cli_does_not_load_scipy():
    _fresh_interpreter("import sys, spimax, spimax.cli\n" + NO_SCIPY)


def test_the_cli_and_its_fit_spi_and_test_jobs_load_no_worker_pools(tmp_path, unit_csv):
    # neither multiprocessing nor concurrent: only a simulate run with more
    # than one usable CPU imports them, and MC runs its chunks inline
    h_path = tmp_path / "h.csv"
    h_path.write_text("\n".join(["0.0"] * 8) + "\n")
    data = ["--model", "nerm", "--data", str(unit_csv)]
    jobs = [
        ["fit", *data, "--out", str(tmp_path / "fit.json")],
        ["spi", *data, "--method", "mc", "--K", "20000", "--out", str(tmp_path / "spi.json")],
        ["test", *data, "--h", str(h_path), "--method", "bs", "--B", "20", "--stepdown",
         "--out", str(tmp_path / "test.json")],
    ]
    no_mp = ("assert not [m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')], sorted(sys.modules)\n")
    _fresh_interpreter(
        "import sys\nimport spimax.cli\n" + no_mp
        + f"assert [spimax.cli.run_cli(job) for job in {jobs!r}] == [0, 0, 0]\n" + no_mp
    )


def _jobs_do_not_load_scipy(jobs: list[list[str]]) -> None:
    """Run the CLI jobs in one fresh interpreter; each must exit 0 without loading scipy."""
    _fresh_interpreter(
        "import sys\n"
        "from spimax.cli import run_cli\n"
        f"assert [run_cli(job) for job in {jobs!r}] == [0] * {len(jobs)}\n" + NO_SCIPY
    )


def test_bootstrap_jobs_do_not_load_scipy(tmp_path, unit_csv):
    h_path = tmp_path / "h.csv"
    h_path.write_text("\n".join(["0.0"] * 8) + "\n")
    _jobs_do_not_load_scipy([
        ["spi", "--model", "nerm", "--data", str(unit_csv), "--method", "bs", "--B", "20",
         "--out", str(tmp_path / "spi.json")],
        ["test", "--model", "nerm", "--data", str(unit_csv), "--h", str(h_path),
         "--method", "bs", "--B", "20", "--stepdown", "--out", str(tmp_path / "test.json")],
    ])
    assert json.loads((tmp_path / "test.json").read_text())["stepdown"] is True


def test_fit_vt_transform_and_simulate_jobs_do_not_load_scipy(tmp_path, unit_csv, tube_file):
    h_path = tmp_path / "h.csv"
    h_path.write_text("\n".join(["0.0"] * 8) + "\n")
    data = ["--model", "nerm", "--data", str(unit_csv)]
    vt = ["--method", "vt", "--tube-constants", str(tube_file)]
    positive = tmp_path / "pos.csv"
    positive.write_text(export_unit_csv(_positive_data()))
    pos = ["--model", "nerm", "--data", str(positive)]
    _jobs_do_not_load_scipy([
        ["fit", *data, "--out", str(tmp_path / "fit.json")],
        ["spi", *data, *vt, "--out", str(tmp_path / "vt.json")],
        ["test", *data, "--h", str(h_path), *vt, "--out", str(tmp_path / "vt_test.json")],
        ["transform", *pos, "--out", str(tmp_path / "tr.json")],
        ["transform", *pos, "--grid", "5", "--out", str(tmp_path / "tr5.json"),
         "--out-data", str(tmp_path / "tr5.csv")],
    ] + [
        ["simulate", "--preset", preset, "--D", "10", "--I", "2", "--B", "5", "--K", "50",
         "--out", str(tmp_path / f"{preset}.csv")]
        for preset in SIM_PRESETS
    ])
    assert json.loads((tmp_path / "vt.json").read_text())["method"] == "vt"
    assert len(json.loads((tmp_path / "tr5.json").read_text())["skewness"]) == 5
    assert (tmp_path / "tr5.csv").exists()
    assert "BO" in (tmp_path / "table1-row.csv").read_text()


def test_bonferroni_and_residual_jobs_do_not_load_scipy(tmp_path, unit_csv):
    h_path = tmp_path / "h.csv"
    h_path.write_text("\n".join(["0.0"] * 8) + "\n")
    data = ["--model", "nerm", "--data", str(unit_csv)]
    _jobs_do_not_load_scipy([
        ["spi", *data, "--method", "bo", "--out", str(tmp_path / "spi.json")],
        ["test", *data, "--h", str(h_path), "--method", "bo", "--out", str(tmp_path / "test.json")],
        ["residuals", *data, "--out", str(tmp_path / "resid.csv")],
    ])
    assert json.loads((tmp_path / "spi.json").read_text())["method"] == "bo"


def test_mc_bonferroni_and_residual_jobs_do_not_load_statistics(tmp_path, unit_csv):
    # the normal quantiles (MC's censoring threshold, BO, the residual plot
    # positions) come from util's own AS241, not from the statistics module
    data = ["--model", "nerm", "--data", str(unit_csv)]
    jobs = [
        ["spi", *data, "--method", "mc", "--K", "2000", "--out", str(tmp_path / "mc.json")],
        ["spi", *data, "--method", "bo", "--out", str(tmp_path / "bo.json")],
        ["residuals", *data, "--out", str(tmp_path / "resid.csv")],
    ]
    _fresh_interpreter(
        "import sys\n"
        "from spimax.cli import run_cli\n"
        f"assert [run_cli(job) for job in {jobs!r}] == [0, 0, 0]\n"
        "assert 'statistics' not in sys.modules, sorted(sys.modules)\n"
    )

import argparse
import contextlib
import csv
import io
import json
import os
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duracast import data as dcdata, models
from duracast.cli import _FLAGS, _build_parser, run_cli
from oracles import simulate_first_order


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv("DURACAST_SEED", raising=False)


@pytest.fixture
def mix_files(tmp_path):
    schema = tmp_path / "mix.schema.csv"
    schema.write_text(
        "wb,continuous,input\n"
        "binder,nominal,input,opc;ggbs\n"
        "age,continuous,input\n"
        "depth,continuous,target\n"
    )
    rng = np.random.Generator(np.random.PCG64(0))
    lines = ["wb,binder,age,depth"]
    for i in range(48):
        wb = 0.4 + 0.3 * rng.uniform()
        binder = "opc" if i % 2 == 0 else "ggbs"
        age = float(rng.integers(1, 26))
        k = 6.0 * wb + (1.5 if binder == "ggbs" else 0.0)
        depth = k * np.sqrt(age) + rng.normal(scale=0.2)
        lines.append("%.6f,%s,%g,%.6f" % (wb, binder, age, max(depth, 0.0)))
    data = tmp_path / "mix.csv"
    data.write_text("\n".join(lines) + "\n")
    return str(data), str(schema)


@pytest.fixture
def series_files(tmp_path):
    rng = np.random.Generator(np.random.PCG64(7))
    u = rng.uniform(0.0, 1.0, size=60)
    y = simulate_first_order(u, a=0.6, b=0.4)
    schema = tmp_path / "series.schema.csv"
    schema.write_text("u,continuous,input\ny,continuous,target\n")
    data = tmp_path / "series.csv"
    data.write_text(
        "u,y\n" + "\n".join("%.9f,%.9f" % (a, b) for a, b in zip(u, y)) + "\n"
    )
    return str(data), str(schema)


def run(args):
    return run_cli(list(args))


def test_ingest_writes_clean_copy_and_summary(mix_files, tmp_path, capsys):
    data, schema = mix_files
    out = tmp_path / "run"
    assert run(["ingest", "--data", data, "--schema", schema, "--out", str(out)]) == 0
    assert (out / "clean.csv").exists()
    info = json.loads((out / "ingest.json").read_text())
    assert info["rows"] == 48
    assert info["missing_cells"] == 0
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["command"] == "ingest"
    assert capsys.readouterr().err == ""


def test_train_bagged_model_and_report(mix_files, tmp_path):
    data, schema = mix_files
    out = tmp_path / "run"
    code = run([
        "train", "--model", "bag", "--trees", "10", "--branch", "6",
        "--data", data, "--schema", schema, "--out", str(out), "--seed", "3",
    ])
    assert code == 0
    assert (out / "model.txt").read_text().startswith("ensemble v1")
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "metric,value"
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["seed"] == 3
    assert cfg["trees"] == 10


def test_training_is_byte_identical_across_reruns(mix_files, tmp_path):
    data, schema = mix_files
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run([
            "train", "--model", "bag", "--trees", "8",
            "--data", data, "--schema", schema, "--out", str(out), "--seed", "5",
        ])
        outs.append(out)
    assert (outs[0] / "model.txt").read_bytes() == (outs[1] / "model.txt").read_bytes()
    assert (outs[0] / "report.csv").read_bytes() == (outs[1] / "report.csv").read_bytes()


def test_explicit_flags_override_the_preset(mix_files, tmp_path):
    data, schema = mix_files
    out = tmp_path / "run"
    run([
        "train", "--preset", "caprm-bag", "--trees", "5",
        "--data", data, "--schema", schema, "--out", str(out),
    ])
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["preset"] == "caprm-bag"
    assert cfg["model"] == "bag"
    assert cfg["trees"] == 5


def test_environment_seed_wins_over_the_flag(mix_files, tmp_path, monkeypatch):
    data, schema = mix_files
    monkeypatch.setenv("DURACAST_SEED", "99")
    out = tmp_path / "run"
    run([
        "train", "--model", "tree",
        "--data", data, "--schema", schema, "--out", str(out), "--seed", "3",
    ])
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["seed"] == 99


def test_predict_from_a_saved_model(mix_files, tmp_path):
    data, schema = mix_files
    train_out = tmp_path / "train"
    run([
        "train", "--model", "boost", "--trees", "12", "--rate", "0.2",
        "--data", data, "--schema", schema, "--out", str(train_out),
    ])
    pred_out = tmp_path / "pred"
    code = run([
        "predict", "--model-file", str(train_out / "model.txt"),
        "--data", data, "--schema", schema, "--out", str(pred_out),
    ])
    assert code == 0
    lines = (pred_out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "row,prediction"
    assert len(lines) == 49
    # targets are present, so the run also scores itself
    assert (pred_out / "report.csv").exists()


def test_predict_with_a_corrupt_model_file_is_a_parse_error(mix_files, tmp_path, capsys):
    data, schema = mix_files
    train_out = tmp_path / "train"
    run([
        "train", "--model", "bag", "--trees", "3",
        "--data", data, "--schema", schema, "--out", str(train_out),
    ])
    model = train_out / "model.txt"
    model.write_text(model.read_text().replace(" left 1 ", " left 9999 ", 1))
    code = run([
        "predict", "--model-file", str(model),
        "--data", data, "--schema", schema, "--out", str(tmp_path / "pred"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:parse-error:")


def _corrupt_model(tmp_path, model_args, data, schema, old, new):
    train_out = tmp_path / "train"
    code = run([
        "train", *model_args, "--data", data, "--schema", schema,
        "--out", str(train_out), "--seed", "1",
    ])
    assert code == 0
    model = train_out / "model.txt"
    text = model.read_text()
    assert old in text
    model.write_text(text.replace(old, new, 1))
    return model


@pytest.mark.parametrize("line", ["norm_y x y", "norm_y 1", "norm_x_min a b c d"])
def test_predict_with_a_corrupt_mlpreg_file_is_a_parse_error(mix_files, tmp_path, capsys,
                                                             line):
    data, schema = mix_files
    model = _corrupt_model(
        tmp_path, ["--model", "mlp", "--hidden", "2", "--epochs", "3"], data, schema,
        "\nnorm_y ", "\n%s\nnorm_y " % line,
    )
    code = run([
        "predict", "--model-file", str(model),
        "--data", data, "--schema", schema, "--out", str(tmp_path / "pred"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:parse-error:")


@pytest.mark.parametrize("old,new", [
    ("\nq 2\n", "\nq x\n"),
    ("\nq 2\n", "\nq\n"),
    ("\nsizes ", "\nsizes 4 x\nsizes "),
    ("\nbias 0 ", "\nbias 0 nope "),
    ("\nactivation 0 ", "\nactivation x "),
])
def test_predict_with_a_corrupt_narx_file_is_a_parse_error(series_files, tmp_path, capsys,
                                                           old, new):
    data, schema = series_files
    model = _corrupt_model(
        tmp_path,
        ["--model", "narx", "--delays", "2", "--hidden", "2", "--epochs", "3"],
        data, schema, old, new,
    )
    code = run([
        "predict", "--model-file", str(model), "--data", data, "--schema", schema,
        "--out", str(tmp_path / "pred"), "--horizon", "5", "--mode", "closed",
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:parse-error:")


def test_train_and_predict_mlp(mix_files, tmp_path):
    data, schema = mix_files
    out = tmp_path / "run"
    code = run([
        "train", "--model", "mlp", "--hidden", "4", "--epochs", "30",
        "--data", data, "--schema", schema, "--out", str(out), "--seed", "1",
    ])
    assert code == 0
    assert (out / "model.txt").read_text().startswith("mlpreg v1")
    pred_out = tmp_path / "pred"
    code = run([
        "predict", "--model-file", str(out / "model.txt"),
        "--data", data, "--schema", schema, "--out", str(pred_out),
    ])
    assert code == 0
    assert (pred_out / "predictions.csv").exists()


def test_train_and_forecast_narx(series_files, tmp_path):
    data, schema = series_files
    out = tmp_path / "run"
    code = run([
        "train", "--model", "narx", "--delays", "2", "--hidden", "3",
        "--epochs", "40", "--data", data, "--schema", schema,
        "--out", str(out), "--seed", "2",
    ])
    assert code == 0
    assert (out / "model.txt").read_text().startswith("narx v1")
    pred_out = tmp_path / "pred"
    code = run([
        "predict", "--model-file", str(out / "model.txt"),
        "--data", data, "--schema", schema, "--out", str(pred_out),
        "--horizon", "10", "--mode", "closed",
    ])
    assert code == 0
    lines = (pred_out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "row,prediction"
    assert len(lines) == 11


def test_crossval_reports_per_fold_errors(mix_files, tmp_path):
    data, schema = mix_files
    out = tmp_path / "run"
    code = run([
        "crossval", "--model", "bag", "--trees", "6", "--folds", "3",
        "--data", data, "--schema", schema, "--out", str(out), "--seed", "4",
    ])
    assert code == 0
    lines = (out / "crossval.csv").read_text().splitlines()
    assert lines[0] == "metric,value"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert "cv_mse" in names
    assert "folds" in names
    assert names.count("fold_0_mse") == 1
    assert names.count("fold_2_mse") == 1


def test_importance_with_kept_and_dropped_variables(mix_files, tmp_path):
    data, schema = mix_files
    out = tmp_path / "run"
    code = run([
        "importance", "--trees", "10", "--iterations", "2",
        "--keep", "wb,age", "--data", data, "--schema", schema,
        "--out", str(out), "--seed", "6",
    ])
    assert code == 0
    lines = (out / "importance.csv").read_text().splitlines()
    assert lines[0] == "variable,permutation_score,splitgain_score,rank"
    names = {ln.split(",")[0] for ln in lines[1:]}
    assert names == {"wb", "age"}
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "rank,variable,splitgain_share,cumulative_share"


def test_baseline_comparison_command(mix_files, tmp_path):
    data, schema = mix_files
    train_out = tmp_path / "train"
    run([
        "train", "--model", "bag", "--trees", "10",
        "--data", data, "--schema", schema, "--out", str(train_out),
    ])
    out = tmp_path / "cmp"
    code = run([
        "baseline", "--model-file", str(train_out / "model.txt"),
        "--specimen", "binder", "--age", "age", "--ages", "4,9,16,25",
        "--data", data, "--schema", schema, "--out", str(out),
    ])
    assert code == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == "model,age,mse,mae,rmse,median_resid,q1,q3"
    assert any(ln.startswith("baseline,all,") for ln in lines)


@pytest.fixture
def hygro_file(tmp_path):
    path = tmp_path / "hygro.csv"
    rows = ["element,timestamp,t_celsius,rh"]
    for day in range(10):
        rows.append("wall,%d,%g,%g" % (day, 15 + day, 0.80 + 0.02 * day))
        if day == 4:
            rows.append("deck,%d,," % day)
        else:
            rows.append("deck,%d,%g,%g" % (day, 5 + day, 0.99))
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_risk_renders_every_grid_kind(hygro_file, tmp_path):
    out = tmp_path / "run"
    code = run(["risk", "--series", hygro_file, "--out", str(out)])
    assert code == 0
    for kind in ("corrosion", "frost", "chemical"):
        assert (out / ("grid_%s.ppm" % kind)).exists()
        assert (out / ("grid_%s.csv" % kind)).exists()
    header = (out / "grid_frost.ppm").read_text().splitlines()[:3]
    assert header[0] == "P3"
    assert header[1] == "100 20"  # 10 bins x 2 elements at the default scale


def test_risk_single_kind_and_scale(hygro_file, tmp_path):
    out = tmp_path / "run"
    code = run([
        "risk", "--series", hygro_file, "--kind", "frost",
        "--scale", "1", "--out", str(out),
    ])
    assert code == 0
    assert (out / "grid_frost.ppm").exists()
    assert not (out / "grid_corrosion.ppm").exists()
    assert (out / "grid_frost.ppm").read_text().splitlines()[1] == "10 2"


def test_risk_accepts_percent_humidity(tmp_path):
    path = tmp_path / "hygro.csv"
    path.write_text(
        "element,timestamp,t_celsius,rh\nwall,0,20,99\nwall,1,20,99\n"
    )
    out = tmp_path / "run"
    code = run([
        "risk", "--series", str(path), "--rh-percent", "--kind", "frost",
        "--scale", "1", "--out", str(out),
    ])
    assert code == 0
    rows = (out / "grid_frost.csv").read_text().splitlines()
    assert rows[1].endswith(",High")


@pytest.mark.parametrize("row,code", [
    ("wall,2,20,1.5", "error:domain-error:"),
    ("wall,inf,20,0.5", "error:domain-error:"),
    ("wall,2,nan,0.5", "error:domain-error:"),
    ("wall,2,20,wet", "error:parse-error:series row 4 "),
    ("wall,later,20,0.5", "error:parse-error:series row 4 "),
    ("wall,2,20", "error:parse-error:series row 4 "),
])
def test_risk_rejects_bad_series_rows(tmp_path, capsys, row, code):
    path = tmp_path / "hygro.csv"
    path.write_text(
        "element,timestamp,t_celsius,rh\nwall,0,20,0.5\nwall,1,,\n%s\n" % row
    )
    assert run(["risk", "--series", str(path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.startswith(code)


def test_risk_renders_are_byte_identical(hygro_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run(["risk", "--series", hygro_file, "--out", str(out)])
        outs.append(out)
    for kind in ("corrosion", "frost", "chemical"):
        assert (outs[0] / ("grid_%s.ppm" % kind)).read_bytes() == (
            outs[1] / ("grid_%s.ppm" % kind)
        ).read_bytes()


def test_report_scores_a_saved_model(mix_files, tmp_path):
    data, schema = mix_files
    train_out = tmp_path / "train"
    run([
        "train", "--model", "bag", "--trees", "8",
        "--data", data, "--schema", schema, "--out", str(train_out),
    ])
    out = tmp_path / "report"
    code = run([
        "report", "--model-file", str(train_out / "model.txt"),
        "--data", data, "--schema", schema, "--out", str(out),
    ])
    assert code == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "metric,value"
    assert lines[1].startswith("mse,")


def test_report_refuses_series_models(series_files, tmp_path, capsys):
    data, schema = series_files
    train_out = tmp_path / "train"
    run([
        "train", "--model", "narx", "--hidden", "3", "--epochs", "20",
        "--data", data, "--schema", schema, "--out", str(train_out),
    ])
    out = tmp_path / "report"
    code = run([
        "report", "--model-file", str(train_out / "model.txt"),
        "--data", data, "--schema", schema, "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:config-error:")


def _write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _mix_rows(wb, binder, depth, levels=("opc", "ggbs")):
    """Schema and data rows of a 48-row mix table under the given names."""
    schema = [[wb, "continuous", "input"], [binder, "nominal", "input", ";".join(levels)],
              ["age", "continuous", "input"], [depth, "continuous", "target"]]
    rng = np.random.Generator(np.random.PCG64(0))
    rows = [[wb, binder, "age", depth]]
    for i in range(48):
        w, age = 0.4 + 0.3 * rng.uniform(), (1, 4, 9, 16, 25)[i % 5]
        rows.append(["%.6f" % w, levels[i % 2], age, "%.6f" % (6.0 * w * age ** 0.5)])
    return schema, rows


def _hostile_files(tmp_path, *names, levels=("opc", "ggbs")):
    schema_rows, data_rows = _mix_rows(*names, levels=levels)
    schema, data = tmp_path / "mix.schema.csv", tmp_path / "mix.csv"
    _write_rows(schema, schema_rows)
    _write_rows(data, data_rows)
    return ["--data", str(data), "--schema", str(schema)]


def _one_error_line(capsys, code):
    err = capsys.readouterr().err
    assert err.startswith("error:%s:" % code) and err.count("\n") == 1, err


# Names that a bare comma join splits or misquotes.
WB, BINDER, DEPTH, WALL = "w,b", 'binder "type"', "depth, mm", 'wall, "north"'


def test_names_with_commas_and_quotes_round_trip_through_every_table(tmp_path):
    flags = _hostile_files(tmp_path, WB, BINDER, DEPTH)
    series = tmp_path / "hygro.csv"
    _write_rows(series, [["element", "timestamp", "t_celsius", "rh"]]
                + [[name, day, 15 + day, 0.9] for day in range(6) for name in (WALL, "deck")])
    assert run(["ingest", *flags, "--out", str(tmp_path / "ingest")]) == 0
    assert run(["importance", "--trees", "5", "--iterations", "2", *flags,
                "--out", str(tmp_path / "importance")]) == 0
    assert run(["train", "--model", "bag", "--trees", "5", *flags,
                "--out", str(tmp_path / "train")]) == 0
    assert run(["baseline", "--model-file", str(tmp_path / "train" / "model.txt"),
                "--specimen", BINDER, "--age", "age", "--ages", "4,9,16,25", *flags,
                "--out", str(tmp_path / "baseline")]) == 0
    assert run(["risk", "--series", str(series), "--out", str(tmp_path / "risk")]) == 0
    tables = {}
    for path in sorted(tmp_path.glob("*/*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert [len(row) for row in rows] == [len(header)] * len(rows), path
        tables[path.relative_to(tmp_path).as_posix()] = rows
    assert len(tables) == 8
    assert tables["ingest/clean.csv"][0][1] in ("opc", "ggbs")
    assert {row[0] for row in tables["importance/importance.csv"]} == {WB, BINDER, "age"}
    assert {row[1] for row in tables["importance/summary.csv"]} == {WB, BINDER, "age"}
    assert {row[0] for row in tables["baseline/comparison.csv"]} == {"baseline", "model"}
    for kind in ("corrosion", "frost", "chemical"):
        assert {row[0] for row in tables["risk/grid_%s.csv" % kind]} == {WALL, "deck"}


@pytest.mark.parametrize("name", ["", "a\nb", "a\x1cb", "a\x85b", "a\u2028b"])
def test_a_column_name_that_is_not_one_line_is_a_schema_violation(tmp_path, capsys, name):
    flags = _hostile_files(tmp_path, name, "binder", "depth")
    assert run(["train", "--model", "bag", "--trees", "3", *flags,
                "--out", str(tmp_path / "run")]) == 1
    _one_error_line(capsys, "schema-violation")


@pytest.mark.parametrize("level", ["gg\rbs", "gg\nbs", "gg\x1cbs", ""],
                         ids=["cr", "lf", "fs", "empty"])
def test_a_level_that_is_not_one_non_empty_line_is_a_schema_violation(tmp_path, capsys,
                                                                       level):
    """Such a level would split its row of clean.csv or a one-of-N column name."""
    flags = _hostile_files(tmp_path, "wb", "binder", "depth")
    # quoted by hand: csv.writer leaves a bare "\r" unquoted
    with open(flags[3], "wb") as fh:
        fh.write(('wb,continuous,input\nbinder,nominal,input,"opc;%s"\nage,continuous,input\n'
                  'depth,continuous,target\n' % level).encode())
    assert run(["train", "--model", "mlp", "--hidden", "2", "--epochs", "2", *flags,
                "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err == ("error:schema-violation:column 'binder' has a level %r that is not one "
                   "non-empty line\n" % level)


@pytest.mark.parametrize("name", ["", "wall\rx", "wall\nx"])
def test_an_element_name_that_is_not_one_line_is_a_parse_error(tmp_path, capsys, name):
    series = tmp_path / "hygro.csv"
    # quoted by hand: csv.writer leaves a bare "\r" unquoted
    series.write_bytes(('element,timestamp,t_celsius,rh\ndeck,0,20,0.5\n"%s",1,20,0.5\n'
                        % name).encode())
    assert run(["risk", "--series", str(series), "--out", str(tmp_path / "run")]) == 1
    _one_error_line(capsys, "parse-error")
    assert not (tmp_path / "run" / "grid_frost.csv").exists()


@pytest.mark.parametrize("command", [
    ["train", "--model", "tree"],
    ["train", "--model", "bag", "--trees", "2"],
    ["train", "--model", "boost"],
    ["crossval", "--folds", "2"],
    ["importance", "--trees", "2"],
])
def test_a_schema_without_inputs_is_a_shape_error_for_trees(tmp_path, capsys, command):
    schema, data = tmp_path / "s.csv", tmp_path / "d.csv"
    _write_rows(schema, [["depth", "continuous", "target"], ["note", "continuous", "ignored"]])
    _write_rows(data, [["depth", "note"]] + [[i % 7, i] for i in range(40)])
    assert run([*command, "--data", str(data), "--schema", str(schema),
                "--out", str(tmp_path / "run")]) == 1
    _one_error_line(capsys, "shape-error")


def test_missing_data_file_reports_io_error(mix_files, tmp_path, capsys):
    _, schema = mix_files
    code = run([
        "ingest", "--data", str(tmp_path / "nope.csv"), "--schema", schema,
        "--out", str(tmp_path / "run"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:io-error:")


def test_schema_violations_surface_their_code(tmp_path, capsys):
    schema = tmp_path / "s.csv"
    schema.write_text("x,continuous,input\ny,continuous,target\n")
    data = tmp_path / "d.csv"
    data.write_text("x,y\n1,2\nbad,4\n")
    code = run([
        "ingest", "--data", str(data), "--schema", str(schema),
        "--out", str(tmp_path / "run"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:parse-error:")


def test_bad_flags_are_config_errors(mix_files, tmp_path, capsys):
    data, schema = mix_files
    code = run([
        "train", "--model", "warp",
        "--data", data, "--schema", schema, "--out", str(tmp_path / "run"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:config-error:")


def test_bad_split_text_is_a_config_error(mix_files, tmp_path, capsys):
    data, schema = mix_files
    code = run([
        "train", "--model", "mlp", "--split", "0.5,0.5",
        "--data", data, "--schema", schema, "--out", str(tmp_path / "run"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:config-error:")


# ---------------------------------------------------------------------------
# run configuration and flag surface

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
TAB = ["--data", os.path.join(DATA_DIR, "cli.train.csv"),
       "--schema", os.path.join(DATA_DIR, "cli.schema.csv")]
ABSENT = ["--data", os.path.join(DATA_DIR, "absent.csv"),
          "--schema", os.path.join(DATA_DIR, "absent.schema.csv")]
SERIES = ["--data", os.path.join(DATA_DIR, "cli.series.csv"),
          "--schema", os.path.join(DATA_DIR, "cli.series.schema.csv")]


def _model(run):
    return ["--model-file", os.path.join(DATA_DIR, "cli.%s.model.txt" % run)]


_TREE_KEYS = "model preset leaf branch surrogates"
_DATA_KEYS = "command out data schema"
# (argv, the keys config.json holds besides command, out and the inputs)
CONFIG_KEYS = [
    (["train", *TAB, "--model", "tree", "--m", "2"], "seed split " + _TREE_KEYS),
    (["train", *TAB, "--model", "bag", "--trees", "2"], "seed split trees m " + _TREE_KEYS),
    (["train", *TAB, "--model", "boost", "--trees", "2", "--m", "2"],
     "seed split trees rate " + _TREE_KEYS),
    (["train", *TAB, "--model", "mlp", "--hidden", "2", "--epochs", "2"],
     "seed model preset split hidden epochs patience"),
    (["train", *SERIES, "--model", "narx", "--hidden", "2", "--epochs", "2", "--fill", "3"],
     "seed model preset split delays hidden epochs patience u_column y_column fill"),
    (["crossval", *TAB, "--model", "tree", "--folds", "2", "--m", "2", "--surrogates", "1"],
     "seed folds " + _TREE_KEYS),
    (["crossval", *TAB, "--model", "bag", "--folds", "2", "--trees", "2"],
     "seed folds trees m " + _TREE_KEYS),
    (["crossval", *TAB, "--model", "mlp", "--folds", "2", "--hidden", "2", "--epochs", "2"],
     "seed folds model preset hidden epochs"),
    (["importance", *TAB, "--trees", "2", "--iterations", "1"],
     "seed preset trees leaf branch surrogates m iterations scaling keep drop top"),
    (["predict", *TAB, *_model("train_tree")], "model_file model_kind"),
    (["predict", *SERIES, *_model("train_narx"), "--horizon", "5"],
     "model_file model_kind horizon mode u_column y_column"),
    (["baseline", *TAB, *_model("train_bag"), "--specimen", "specimen", "--age", "age",
      "--ages", "2,4"], "model_file specimen age ages"),
    (["report", *TAB, *_model("train_boost")], "model_file"),
    (["ingest", *TAB], ""),
]


def _run_id(argv):
    """command plus the model kind or the train run of the model file."""
    for flag in ("--model", "--model-file"):
        if flag in argv:
            value = argv[argv.index(flag) + 1]
            return "%s-%s" % (argv[0], os.path.basename(value).split(".")[1]
                              if flag == "--model-file" else value)
    return argv[0]


@pytest.mark.parametrize("argv,keys", CONFIG_KEYS, ids=[_run_id(a) for a, _ in CONFIG_KEYS])
def test_config_records_exactly_the_knobs_the_run_consumed(tmp_path, argv, keys):
    out = tmp_path / "run"
    assert run(argv + ["--out", str(out)]) == 0
    cfg = json.loads((out / "config.json").read_text())
    assert set(cfg) == set((_DATA_KEYS + " " + keys).split())
    assert cfg["command"] == argv[0]


@pytest.mark.parametrize("argv,flag", [
    (["train", "--model", "boost", "--m", "2", "--trees", "2"], "--m"),
    (["train", "--model", "tree", "--trees", "9"], "--trees"),
    (["crossval", "--model", "tree", "--m", "2", "--folds", "2"], "--m"),
])
def test_a_flag_the_model_kind_does_not_use_warns(tmp_path, argv, flag):
    kind = argv[argv.index("--model") + 1]
    with pytest.warns(UserWarning, match="a %s model ignores %s$" % (kind, flag)):
        assert run(argv + TAB + ["--out", str(tmp_path / "run")]) == 0
    assert flag[2:] not in json.loads((tmp_path / "run" / "config.json").read_text())


def test_a_flag_the_model_kind_uses_does_not_warn(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["train", "--model", "bag", "--m", "2", "--trees", "2"]
        assert run(argv + TAB + ["--out", str(tmp_path / "run")]) == 0


def test_predict_warns_on_narx_flags_a_tabular_model_ignores(tmp_path):
    out = tmp_path / "run"
    argv = ["predict", *TAB, *_model("train_tree"), "--horizon", "5", "--mode", "closed"]
    with pytest.warns(UserWarning, match="a tree model ignores --horizon, --mode$"):
        assert run(argv + ["--out", str(out)]) == 0
    cfg = json.loads((out / "config.json").read_text())
    assert set(cfg) == set((_DATA_KEYS + " model_file model_kind").split())


def test_train_grows_a_tree_deeper_than_the_recursion_limit(tmp_path):
    # y alternates along x, so every split peels off one or two rows.
    data = tmp_path / "deep.csv"
    data.write_text("x,y\n" + "".join("%d,%d\n" % (i, i % 2) for i in range(3000)))
    schema = tmp_path / "deep.schema.csv"
    schema.write_text("x,continuous,input\ny,continuous,target\n")
    out = tmp_path / "run"
    assert run(["train", "--data", str(data), "--schema", str(schema), "--model", "tree",
                "--out", str(out)]) == 0
    kind, model = models.load_model(str(out / "model.txt"))
    depth, stack = 0, [(0, 1)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if model.left[node] >= 0:
            stack += [(model.left[node], d + 1), (model.right[node], d + 1)]
    assert depth > sys.getrecursionlimit()


def test_config_holds_the_resolved_values(tmp_path):
    out = tmp_path / "run"
    argv = ["crossval", *TAB, "--preset", "caprm-boost", "--folds", "2", "--trees", "3",
            "--surrogates", "1", "--seed", "4", "--out", str(out)]
    assert run(argv) == 0
    cfg = json.loads((out / "config.json").read_text())
    assert cfg == {
        "command": "crossval", "out": str(out), "data": TAB[1], "schema": TAB[3],
        "seed": 4, "model": "boost", "preset": "caprm-boost", "folds": 2,
        "trees": 3, "rate": 0.1, "leaf": 1, "branch": 10, "surrogates": 1,
    }
    out = tmp_path / "narx"
    assert run(["train", *SERIES, "--model", "narx", "--hidden", "2", "--epochs", "2",
                "--fill", "3", "--out", str(out)]) == 0
    cfg = json.loads((out / "config.json").read_text())
    assert (cfg["fill"], cfg["u_column"], cfg["y_column"], cfg["split"]) == (
        3, "u", "y", [0.7, 0.15, 0.15])


@pytest.mark.parametrize("argv", [
    ["crossval", "--preset", "hygro-narx"],
    ["importance", "--preset", "caprm-boost"],
])
def test_a_preset_naming_a_model_the_command_cannot_run_is_a_config_error(
        tmp_path, capsys, argv):
    code = run(argv + TAB + ["--out", str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:config-error:")


@pytest.mark.parametrize("command", ["ingest", "train", "predict", "crossval", "importance",
                                     "baseline", "risk", "report"])
def test_a_malformed_seed_variable_is_a_config_error_on_every_command(
        tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("DURACAST_SEED", "seven")
    # the files do not exist: the seed is resolved before anything is read
    required = {"data": "d.csv", "schema": "s.csv", "model_file": "m.txt", "specimen": "s",
                "age": "a", "ages": "1", "series": "h.csv"}
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    argv = [command, "--out", str(tmp_path / "run")]
    for action in sub.choices[command]._actions:
        if action.required and action.dest in required:
            value = required[action.dest]
            if value.endswith((".csv", ".txt")):
                value = str(tmp_path / value)
            argv += [action.option_strings[0], value]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error:config-error:DURACAST_SEED")
    assert not (tmp_path / "run").exists()


# Each subcommand's options: "!" marks a required flag, ":type" a converted
# value, "{...}" the choices and "?" a switch.
FLAG_SURFACE = {
    "ingest": "--data! --out! --schema! --seed:int",
    "train": "--branch:int --data! --delays:int --epochs:int --fill:int --hidden:int "
             "--leaf:int --m:int --model{tree,bag,boost,mlp,narx} --out! --patience:int "
             "--preset{caprm-bag,caprm-boost,chloride-vi,hygro-narx} --rate:float --schema! "
             "--seed:int --split --surrogates:int --trees:int --u-column --y-column",
    "predict": "--data! --horizon:int --model-file! --mode{open,closed} --out! --schema! "
               "--seed:int --u-column --y-column",
    "crossval": "--branch:int --data! --epochs:int --folds:int --hidden:int --leaf:int "
                "--m:int --model{tree,bag,boost,mlp} --out! "
                "--preset{caprm-bag,caprm-boost,chloride-vi,hygro-narx} --rate:float "
                "--schema! --seed:int --surrogates:int --trees:int",
    "importance": "--branch:int --data! --drop --iterations:int --keep --leaf:int --m:int "
                  "--out! --preset{caprm-bag,caprm-boost,chloride-vi,hygro-narx} "
                  "--scaling{std,stderr} --schema! --seed:int --top:int --trees:int",
    "baseline": "--age! --ages! --data! --model-file! --out! --schema! --seed:int "
                "--specimen!",
    "risk": "--bin-width:float --fill:int --kind{all,corrosion,frost,chemical} --out! "
            "--rh-percent? --scale:int --seed:int --series!",
    "report": "--data! --model-file! --out! --schema! --seed:int",
}


def _describe(action):
    text = action.option_strings[0]
    if action.required:
        text += "!"
    if action.type:
        text += ":" + action.type.__name__
    if action.choices:
        text += "{%s}" % ",".join(action.choices)
    if action.const is True:
        text += "?"
    return text


def test_each_subcommand_keeps_its_flags():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(FLAG_SURFACE)
    for name, sp in sub.choices.items():
        got = sorted(_describe(a) for a in sp._actions if a.dest != "help")
        assert " ".join(got) == FLAG_SURFACE[name], name


_CHOICES = ("(choose from 'ingest', 'train', 'predict', 'crossval', 'importance', "
            "'baseline', 'risk', 'report')")


@pytest.mark.parametrize("argv, message", [
    ([], "no command given; see --help"),
    (["bogus", "--out", "x"], "argument command: invalid choice: 'bogus' " + _CHOICES),
    (["--out", "x"], "argument command: invalid choice: 'x' " + _CHOICES),
    (["risk", "--data", "x", "--out", "y"], "the following arguments are required: --series"),
    (["train", "--out", "x", "--data", "d", "--schema", "s", "--series", "h"],
     "unrecognized arguments: --series h"),
])
def test_a_command_line_error_names_what_is_wrong(capsys, argv, message):
    assert run(argv) == 1
    assert capsys.readouterr().err == "error:config-error:%s\n" % message


def test_a_crossval_fold_without_complete_training_rows_is_a_shape_error(tmp_path, capsys):
    schema = tmp_path / "s.csv"
    schema.write_text("a,continuous,input\nb,continuous,input\ny,continuous,target\n")
    rows = ["a,b,y"] + ["%s,%d,%d" % ("1" if i == 4 else "", i, i % 3) for i in range(30)]
    data = tmp_path / "d.csv"
    data.write_text("\n".join(rows) + "\n")
    code = run(["crossval", "--data", str(data), "--schema", str(schema), "--model", "mlp",
                "--folds", "2", "--epochs", "3", "--seed", "0", "--out", str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:shape-error:")


def _run_with_second_line(tmp_path, kind, edit):
    """(exit code, path) of a command reading a copy of a tests/data file of
    the given kind whose second line edit rewrote."""
    sources = {"data": "cli.train.csv", "schema": "cli.schema.csv",
               "series": "risk.logger.csv", "model": "models/cli.train_tree.model.txt"}
    with open(os.path.join(DATA_DIR, sources[kind]), "rb") as fh:
        lines = fh.read().split(b"\n")
    lines[1] = edit(lines[1])
    bad = str(tmp_path / "bad.txt")
    with open(bad, "wb") as fh:
        fh.write(b"\n".join(lines))
    argv = {
        "data": ["ingest", "--data", bad, "--schema", TAB[3]],
        "schema": ["ingest", "--data", TAB[1], "--schema", bad],
        "series": ["risk", "--series", bad],
        "model": ["predict", *TAB, "--model-file", bad],
    }[kind]
    return run(argv + ["--out", str(tmp_path / "run")]), bad


@pytest.mark.parametrize("kind", ["data", "schema", "series", "model"])
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, kind):
    code, bad = _run_with_second_line(tmp_path, kind, lambda line: line[:3] + b"\xff" + line[3:])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:parse-error:%s is not UTF-8 text" % bad)


@pytest.mark.parametrize("kind", ["data", "schema", "series"])
def test_a_field_over_the_csv_limit_is_a_parse_error_naming_its_line(tmp_path, capsys, kind):
    code, bad = _run_with_second_line(tmp_path, kind, lambda line: line + b"x" * 200000)
    assert code == 1
    assert capsys.readouterr().err == (
        "error:parse-error:%s line 2: field larger than field limit (131072)\n" % bad)
    assert not (tmp_path / "run" / "config.json").exists()


def test_a_short_schema_record_is_a_parse_error_naming_the_file_and_its_line(tmp_path, capsys):
    # the first record holds a quoted line break, so the short record is line 4
    schema = tmp_path / "s.csv"
    schema.write_text('x,"continuous\n",input\ny,continuous,target\nz\n')
    assert run(["ingest", "--data", TAB[1], "--schema", str(schema),
                "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == (
        "error:parse-error:%s line 4: a schema record needs name,kind,role\n" % schema)


@pytest.mark.parametrize("argv, code", [
    pytest.param(["train", *TAB, "--model", "mlp", "--hidden", "0"], "domain-error",
                 id="mlp-hidden-0"),
    pytest.param(["train", *SERIES, "--model", "narx", "--delays", "0"], "domain-error",
                 id="narx-delays-0"),
    pytest.param(["train", *TAB, "--seed", "-1"], "config-error", id="seed-minus-1"),
    pytest.param(["risk", "--series", os.path.join(DATA_DIR, "risk.logger.csv"),
                  "--bin-width", "nan"], "domain-error", id="bin-width-nan"),
    pytest.param(["train", *TAB, "--model", "mlp", "--epochs", "0"], "config-error",
                 id="mlp-epochs-0"),
    pytest.param(["importance", *TAB, "--top", "0"], "config-error", id="importance-top-0"),
    # absent files: a non-finite number is refused before any file is read
    pytest.param(["train", *ABSENT, "--split", "0.7,nan,0.2"], "config-error", id="split-nan"),
    pytest.param(["train", *ABSENT, "--split", "inf,0,0.2"], "config-error", id="split-inf"),
    pytest.param(["train", *ABSENT, "--model", "mlp", "--patience", "0"], "config-error",
                 id="mlp-patience-0"),
    pytest.param(["train", *ABSENT, "--model", "narx", "--patience", "-3"], "config-error",
                 id="narx-patience-minus-3"),
    pytest.param(["baseline", *ABSENT, *_model("train_bag"), "--specimen", "specimen",
                  "--age", "age", "--ages", "1,nan"], "config-error", id="ages-nan"),
])
def test_a_knob_outside_its_domain_ends_in_one_typed_error(tmp_path, capsys, argv, code):
    assert run(argv + ["--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error:%s:" % code), err
    assert "Traceback" not in err


def test_the_readme_knob_table_names_every_numeric_flag():
    with open(os.path.join(os.path.dirname(DATA_DIR), os.pardir, "README.md")) as fh:
        table = fh.read().split("| knob | domain | error |", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"`(--[a-z-]+)`", table))
    numeric = {"--" + key.replace("_", "-") for key, spec in _FLAGS.items()
               if spec.get("type") in (int, float)}
    assert sorted((numeric | {"--split", "--ages"}) - named) == []


def test_a_bin_whose_corrosion_rate_overflows_is_one_domain_error(tmp_path, capsys):
    series = tmp_path / "logger.csv"
    series.write_text("element,timestamp,t_celsius,rh\nw,0,1e300,0.5\nw,1,20,0.5\n")
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run(["risk", "--series", str(series), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error:domain-error:corrosion rate must be finite and >= 0"]
    assert "Traceback" not in err
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("model", ["tree", "narx"])
def test_a_zero_test_fraction_is_a_config_error_before_any_file_is_read(tmp_path, capsys,
                                                                           model):
    out = tmp_path / "run"
    argv = ["train", "--data", str(tmp_path / "absent.csv"), "--schema",
            str(tmp_path / "absent.schema.csv"), "--model", model, "--split", "0.5,0.5,0",
            "--out", str(out)]
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        "error:config-error:--split needs a positive test fraction, got 0.0\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, marked", [
    pytest.param(["train", "--data", "cli.train.csv", "--schema", "cli.schema.csv",
                  "--model", "bag", "--trees", "3"], "cli.train.csv", id="train-data"),
    pytest.param(["train", "--data", "cli.train.csv", "--schema", "cli.schema.csv",
                  "--model", "bag", "--trees", "3"], "cli.schema.csv", id="train-schema"),
    pytest.param(["risk", "--series", "risk.logger.csv", "--fill", "2"], "risk.logger.csv",
                 id="risk"),
])
def test_a_byte_order_mark_gives_the_same_artifacts(tmp_path, argv, marked):
    """A file saved with a UTF-8 byte-order mark, as spreadsheets export CSV,
    reads as the same file without one."""
    plain = _artifacts(tmp_path / "plain", argv, marked, lambda text: text)
    assert len(plain) >= 2
    assert _artifacts(tmp_path / "bom", argv, marked, lambda text: b"\xef\xbb\xbf" + text) == plain


def _artifacts(root, argv, marked, edit):
    """{name: bytes} of the artifacts but config.json of argv, whose file
    names are in tests/data, run with the file `marked` rewritten by edit."""
    root.mkdir()
    args = [os.path.join(DATA_DIR, a) if a.endswith(".csv") else a for a in argv]
    with open(os.path.join(DATA_DIR, marked), "rb") as fh:
        copy = root / marked
        copy.write_bytes(edit(fh.read()))
    args[argv.index(marked)] = str(copy)
    out = root / "run"
    assert run(args + ["--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "config.json"}


_TREE_RUN = ["train", "--data", "cli.train.csv", "--schema", "cli.schema.csv",
             "--model", "tree"]
_INGEST = ["ingest", "--data", "cli.train.csv", "--schema", "cli.schema.csv"]


@pytest.mark.parametrize("end", [b"\r", b"\r\n"], ids=["cr", "crlf"])
@pytest.mark.parametrize("argv, marked", [
    pytest.param(_INGEST, "cli.train.csv", id="ingest-data"),
    pytest.param(_INGEST, "cli.schema.csv", id="ingest-schema"),
    pytest.param(_TREE_RUN, "cli.train.csv", id="train-data"),
    pytest.param(_TREE_RUN, "cli.schema.csv", id="train-schema"),
    pytest.param(["risk", "--series", "risk.logger.csv", "--fill", "2"], "risk.logger.csv",
                 id="risk"),
])
def test_every_line_end_gives_the_same_artifacts(tmp_path, argv, marked, end):
    plain = _artifacts(tmp_path / "plain", argv, marked, lambda text: text)
    assert _artifacts(tmp_path / "ends", argv, marked,
                      lambda text: text.replace(b"\n", end)) == plain


@pytest.mark.parametrize("blank", ["\n", "\n\r\n\n"])
def test_blank_lines_end_a_data_file_but_do_not_split_it(tmp_path, capsys, blank):
    with open(TAB[1], "rb") as fh:
        text = fh.read().decode()
    runs = {"plain": text, "trailing": text + blank,
            "inner": text.replace("\n", "\n" + blank, 1)}
    codes = {}
    for name, body in runs.items():
        path = tmp_path / ("%s.csv" % name)
        path.write_bytes(body.encode())
        codes[name] = run(["ingest", "--data", str(path), "--schema", TAB[3],
                           "--out", str(tmp_path / name)])
    assert codes == {"plain": 0, "trailing": 0, "inner": 1}
    assert capsys.readouterr().err.startswith("error:parse-error:row 1 has 0 fields")
    assert ((tmp_path / "trailing" / "clean.csv").read_bytes()
            == (tmp_path / "plain" / "clean.csv").read_bytes())


@pytest.mark.parametrize("flag, value", [("--bin-width", "1e-9"), ("--scale", "100000")])
def test_an_oversized_risk_grid_fails_before_it_is_allocated(tmp_path, capsys, flag, value):
    # Either grid would take gigabytes; the check sees its size first.
    argv = ["risk", "--series", os.path.join(DATA_DIR, "risk.logger.csv"), "--fill", "2"]
    assert run(argv + ["--scale", "1", "--out", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        code = run(argv + [flag, value, "--out", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err.startswith("error:domain-error:")
    assert peak < 2 ** 20


# ---------------------------------------------------------------------------
# properties over drawn and mutated input files

# Names and levels: one line, stripped, with the characters a CSV writer quotes.
_LABEL = st.text(st.sampled_from('ab ,"'), min_size=1, max_size=4).map(str.strip).filter(bool)


@st.composite
def _tables(draw):
    """(schema rows, data rows, line end) of a small table with 0-30 % empty
    cells and at least one input column."""
    names = draw(st.lists(_LABEL, min_size=2, max_size=4, unique=True))
    schema = []
    for name in names[:-1]:
        levels = draw(st.none() | st.lists(_LABEL, min_size=1, max_size=3, unique=True))
        schema.append([name, "continuous", "input"] if levels is None
                      else [name, "nominal", "input", ";".join(levels)])
    schema.append([names[-1], "continuous", "target"])
    rows, empty = [names], draw(st.integers(0, 30))
    for _ in range(draw(st.integers(1, 8))):
        row = []
        for spec in schema:
            if draw(st.integers(0, 99)) < empty:
                row.append("")
            elif spec[1] == "nominal":
                row.append(draw(st.sampled_from(spec[3].split(";"))))
            else:
                row.append(repr(draw(st.floats(allow_nan=False, allow_infinity=False))))
        rows.append(row)
    return schema, rows, draw(st.sampled_from(["\n", "\r\n", "\r"]))


@settings(max_examples=60, deadline=None)
@given(table=_tables())
def test_a_clean_copy_ingests_to_the_same_values_and_the_same_bytes(tmp_path_factory, table):
    schema_rows, data_rows, end = table
    root = tmp_path_factory.mktemp("round")
    schema, data = root / "s.csv", root / "d.csv"
    for path, rows in ((schema, schema_rows), (data, data_rows)):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator=end).writerows(rows)
    clean = root / "first" / "clean.csv"
    for source, out in ((data, "first"), (clean, "second")):
        assert run(["ingest", "--data", str(source), "--schema", str(schema),
                    "--out", str(root / out)]) == 0
    assert (root / "second" / "clean.csv").read_bytes() == clean.read_bytes()
    sch = dcdata.read_schema(str(schema))
    before, after = dcdata.ingest_csv(str(data), sch), dcdata.ingest_csv(str(clean), sch)
    assert np.array_equal(before.missing, after.missing)
    assert np.array_equal(before.values, after.values)


def _mutate(text, kind, at):
    """text with one hostile edit at a place chosen by at."""
    lines, pos = text.split(b"\n"), at % (len(text) + 1)
    i = at % len(lines)
    if kind in ("cr", "crlf"):
        return text.replace(b"\n", {"cr": b"\r", "crlf": b"\r\n"}[kind])
    if kind == "blank":
        return text + b"\n"
    if kind == "truncated":
        last = text.rstrip(b"\n").rfind(b"\n") + 1
        return text[:last + at % max(len(text) - last, 1)]
    if kind in ("nul", "byte"):
        return text[:pos] + {"nul": b"\x00", "byte": b"\xff"}[kind] + text[pos:]
    if kind == "quoted":
        lines[i] = b",".join(b'"%s"' % cell for cell in lines[i].split(b","))
    elif kind == "header":
        lines.insert(1, lines[0])
    elif kind == "field":
        lines[i] += b"x" * 200000
    return b"\n".join(lines)


_MUTATIONS = ["cr", "crlf", "blank", "quoted", "header", "truncated", "nul", "field", "byte"]
_ARTIFACTS = {"ingest": ["clean.csv"], "train": ["model.txt", "report.csv"],
              "risk": ["grid_%s.%s" % (k, ext) for k in ("corrosion", "frost", "chemical")
                       for ext in ("ppm", "csv")]}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["data", "schema", "series"]),
       edits=st.lists(st.tuples(st.sampled_from(_MUTATIONS), st.integers(0, 10 ** 6)),
                      min_size=1, max_size=2))
def test_a_mutated_input_file_ends_in_artifacts_or_one_typed_error(tmp_path_factory, kind,
                                                                   edits):
    root = tmp_path_factory.mktemp("hostile")
    source = {"data": TAB[1], "schema": TAB[3],
              "series": os.path.join(DATA_DIR, "risk.logger.csv")}[kind]
    with open(source, "rb") as fh:
        text = fh.read()
    for mutation, at in edits:
        text = _mutate(text, mutation, at)
    path = root / "mutated.csv"
    path.write_bytes(text)
    files = {"data": ["--data", str(path), "--schema", TAB[3]],
             "schema": ["--data", TAB[1], "--schema", str(path)],
             "series": ["--series", str(path), "--fill", "2"]}[kind]
    commands = [["risk"]] if kind == "series" else [["ingest"], ["train", "--model", "tree"]]
    for command in commands:
        out = root / command[0]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_cli(command + files + ["--out", str(out)])
        if code == 0:
            assert all((out / name).exists() for name in _ARTIFACTS[command[0]] + ["config.json"])
        else:
            assert code == 1
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, \
                err.getvalue()
            assert not (out / "config.json").exists()

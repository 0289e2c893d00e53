import argparse
import json
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from duracast import models
from duracast.cli import _build_parser, run_cli
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


@pytest.mark.parametrize("kind", ["data", "schema", "series", "model"])
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, kind):
    sources = {"data": "cli.train.csv", "schema": "cli.schema.csv",
               "series": "risk.logger.csv", "model": "models/cli.train_tree.model.txt"}
    with open(os.path.join(DATA_DIR, sources[kind]), "rb") as fh:
        lines = fh.read().split(b"\n")
    lines[1] = lines[1][:3] + b"\xff" + lines[1][3:]
    bad = str(tmp_path / "bad.txt")
    with open(bad, "wb") as fh:
        fh.write(b"\n".join(lines))
    argv = {
        "data": ["ingest", "--data", bad, "--schema", TAB[3]],
        "schema": ["ingest", "--data", TAB[1], "--schema", bad],
        "series": ["risk", "--series", bad],
        "model": ["predict", *TAB, "--model-file", bad],
    }[kind]
    assert run(argv + ["--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:parse-error:%s is not UTF-8 text" % bad)


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
])
def test_a_knob_outside_its_domain_ends_in_one_typed_error(tmp_path, capsys, argv, code):
    assert run(argv + ["--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error:%s:" % code), err
    assert "Traceback" not in err


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
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        args = [os.path.join(DATA_DIR, a) if a.endswith(".csv") else a for a in argv]
        with open(os.path.join(DATA_DIR, marked), "rb") as fh:
            copy = tmp_path / ("%d.%s" % (len(bom), marked))
            copy.write_bytes(bom + fh.read())
        args[argv.index(marked)] = str(copy)
        out = tmp_path / ("run%d" % len(bom))
        assert run(args + ["--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                        if p.name != "config.json"})
    assert len(outputs[0]) >= 2
    assert outputs[0] == outputs[1]


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

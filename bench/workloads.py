"""The benchmark's command sequences and the checks on their outputs.

Each workload is one closed-loop client: it runs its steps one after
another, each a ``duracast`` command, and starts the next only when the
previous one has finished.

A check returns (problems, values): problems is a list of strings, empty
when the artifacts are correct, and values holds the quality numbers read
from the artifacts.
"""

import csv
import math
import os
from collections import namedtuple

import gen

Step = namedtuple("Step", "label argv out check")

# Quality ceilings, as multiples of the generator's noise standard deviation.
# They sit well above what the models reach on every seed and well below
# what a model that ignores its inputs scores.
CEILINGS = {
    "bag_rmse": 6.0 * gen.DEPTH_SIGMA,
    # The bag's own test split has only 60 rows, so its RMSE scatters more.
    "bag_split_rmse": 8.0 * gen.DEPTH_SIGMA,
    "boost_rmse": 5.0 * gen.DEPTH_SIGMA,
    "cv_rmse": 6.0 * gen.DEPTH_SIGMA,
    "mlp_rmse": 3.0 * gen.DEPTH_SIGMA,
    "narx_rmse": 2.0 * gen.NARX_SIGMA,
    "forecast_rmse": 5.0 * gen.NARX_SIGMA,
}

FOREST_TREES = 12
# Network training runs a fixed epoch budget (patience equal to the budget
# never stops it early), so its work does not depend on where early stopping
# would land for a given seed.
FIXED_EPOCHS = ("--epochs", "30", "--patience", "30")
BASELINE_AGES = ("1", "2", "4")
GRID_KINDS = ("corrosion", "frost", "chemical")
GRID_SCALE = 2


def _read_metrics(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["metric", "value"]:
        raise ValueError("%s: bad header" % path)
    return {name: float(value) for name, value in rows[1:]}


def _ceiling(path, value, ceiling_name, value_name):
    if not (math.isfinite(value) and value <= CEILINGS[ceiling_name]):
        return ["%s: %s = %r exceeds ceiling %r"
                % (path, ceiling_name, value, CEILINGS[ceiling_name])], {}
    return [], ({value_name: value} if value_name else {})


def _quality(out, filename, key, ceiling_name, value_name=None, transform=None):
    """Read one quality number and test it against its ceiling."""
    path = os.path.join(out, filename)
    try:
        value = _read_metrics(path)[key]
    except (OSError, KeyError, ValueError) as exc:
        return ["%s: %s" % (path, exc)], {}
    if transform is not None:
        value = transform(value)
    return _ceiling(path, value, ceiling_name, value_name)


def _count_rows(path):
    with open(path, newline="") as fh:
        return sum(1 for _ in fh) - 1


def check_predictions(out, expected_rows):
    """One finite prediction per row, numbered from the first predicted row."""
    path = os.path.join(out, "predictions.csv")
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [str(exc)]
    if not rows or rows[0] != ["row", "prediction"]:
        return ["%s: bad header" % path]
    if len(rows) - 1 != expected_rows:
        return ["%s: %d predictions for %d rows" % (path, len(rows) - 1, expected_rows)]
    for rec in rows[1:]:
        try:
            ok = len(rec) == 2 and math.isfinite(float(rec[1]))
        except ValueError:
            ok = False
        if not ok:
            return ["%s: bad prediction row %r" % (path, rec)]
    return []


def check_importance(out):
    """The permutation ranking puts age above the pure-noise column."""
    path = os.path.join(out, "importance.csv")
    try:
        with open(path, newline="") as fh:
            rank = {r["variable"]: int(r["rank"]) for r in csv.DictReader(fh)}
        if rank["age"] < rank["noise"]:
            return []
        return ["%s: age ranked %d, noise ranked %d" % (path, rank["age"], rank["noise"])]
    except (OSError, KeyError, ValueError) as exc:
        return ["%s: %s" % (path, exc)]


def check_comparison(out):
    """comparison.csv has a baseline and a model row for every requested age
    and for all ages pooled; the pooled model RMSE is under its ceiling."""
    path = os.path.join(out, "comparison.csv")
    try:
        with open(path, newline="") as fh:
            rmse = {(r["model"], r["age"]): float(r["rmse"]) for r in csv.DictReader(fh)}
    except (OSError, KeyError, ValueError) as exc:
        return ["%s: %s" % (path, exc)], {}
    missing = [(m, a) for a in BASELINE_AGES + ("all",) for m in ("baseline", "model")
               if (m, a) not in rmse]
    if missing:
        return ["%s: no row for %r" % (path, missing)], {}
    return _ceiling(path, rmse[("model", "all")], "bag_rmse", "holdout_rmse")


def check_grids(out, elements, bins):
    """Each PPM is bins*scale wide and elements*scale high; each grid CSV has
    one row per element and bin."""
    problems = []
    for kind in GRID_KINDS:
        ppm = os.path.join(out, "grid_%s.ppm" % kind)
        grid_csv = os.path.join(out, "grid_%s.csv" % kind)
        try:
            with open(ppm) as fh:
                header = [fh.readline().strip() for _ in range(3)]
            rows = _count_rows(grid_csv)
        except OSError as exc:
            problems.append(str(exc))
            continue
        want = ["P3", "%d %d" % (bins * GRID_SCALE, elements * GRID_SCALE), "255"]
        if header != want:
            problems.append("%s: header %r, expected %r" % (ppm, header, want))
        if rows != elements * bins:
            problems.append("%s: %d rows, expected %d" % (grid_csv, rows, elements * bins))
    return problems


def steps(workload, files, out_root, size="full"):
    """The ordered steps of one session of the workload."""
    s = gen.SIZES[size]

    def step(label, argv, check):
        out = os.path.join(out_root, label)
        return Step(label, argv + ["--out", out], out, check)

    def model(label):
        return os.path.join(out_root, label, "model.txt")

    if workload == "forest":
        data = ["--data", files["train"], "--schema", files["schema"]]
        score_rows = s["score_specimens"] * len(gen.AGES)
        return [
            step("train_bag",
                 ["train", *data, "--model", "bag", "--trees", str(FOREST_TREES)],
                 lambda o: _quality(o, "report.csv", "rmse", "bag_split_rmse")),
            step("predict",
                 ["predict", "--data", files["score"], "--schema", files["schema"],
                  "--model-file", model("train_bag")],
                 lambda o: _merge(check_predictions(o, score_rows),
                                  _quality(o, "report.csv", "rmse", "bag_rmse", "test_rmse"))),
            step("importance",
                 ["importance", *data, "--trees", str(FOREST_TREES), "--iterations", "3"],
                 lambda o: (check_importance(o), {})),
            step("baseline",
                 ["baseline", *data, "--model-file", model("train_bag"),
                  "--specimen", "specimen", "--age", "age", "--ages", ",".join(BASELINE_AGES)],
                 check_comparison),
        ]
    if workload == "fit":
        data = ["--data", files["train"], "--schema", files["schema"]]
        rows = s["fit_specimens"] * len(gen.AGES)
        return [
            step("crossval",
                 ["crossval", *data, "--model", "tree", "--folds", "5"],
                 lambda o: _quality(o, "crossval.csv", "cv_mse", "cv_rmse", "holdout_rmse",
                                    transform=math.sqrt)),
            step("train_boost",
                 ["train", *data, "--model", "boost", "--trees", "5", "--rate", "0.5",
                  "--split", "0.6,0.1,0.3"],
                 lambda o: _quality(o, "report.csv", "rmse", "boost_rmse", "test_rmse")),
            step("train_mlp",
                 ["train", *data, "--model", "mlp", *FIXED_EPOCHS],
                 lambda o: _quality(o, "report.csv", "rmse", "mlp_rmse")),
            step("predict",
                 ["predict", *data, "--model-file", model("train_mlp")],
                 lambda o: (check_predictions(o, rows), {})),
        ]
    if workload == "hygro":
        data = ["--data", files["series"], "--schema", files["series_schema"]]
        return [
            step("risk",
                 ["risk", "--series", files["logger"], "--kind", "all", "--bin-width", "1",
                  "--fill", "2", "--scale", str(GRID_SCALE)],
                 lambda o: (check_grids(o, s["elements"], s["days"]), {})),
            step("train_narx",
                 ["train", *data, "--model", "narx", *FIXED_EPOCHS],
                 lambda o: _quality(o, "report.csv", "rmse", "narx_rmse", "test_rmse")),
            step("predict",
                 ["predict", *data, "--model-file", model("train_narx"), "--mode", "closed",
                  "--horizon", str(s["horizon"])],
                 lambda o: _merge(check_predictions(o, s["horizon"]),
                                  _quality(o, "report.csv", "rmse", "forecast_rmse",
                                           "holdout_rmse"))),
        ]
    raise ValueError("unknown workload %r" % workload)


def _merge(problems, checked):
    more, values = checked
    return problems + more, values


# The step each workload reruns into a second directory for the byte-for-byte
# determinism check; the two network trainings depend on the BLAS threads.
RERUN = {"forest": "train_bag", "fit": "train_mlp", "hygro": "train_narx"}


def artifacts(directory):
    """{file name: bytes} of a step's outputs, config.json excluded."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name != "config.json":
            with open(os.path.join(directory, name), "rb") as fh:
                out[name] = fh.read()
    return out

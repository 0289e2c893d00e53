"""Golden tree and forest artifacts on three seeded datasets.

Each dataset mixes continuous columns (some on coarse grids, so values
repeat), a 4-level and a 12-level nominal column (levels ranked by mean
target, so a split may group any of them), and missing input cells, so
growth exercises surrogate search and routing exercises every surrogate
fallback. The files under tests/data/ hold the artifacts as the package
wrote them; test_golden.py regenerates them and requires exact equality.

The risk fixture is a small hourly logger file (risk.logger.csv) with
elements of different time spans, scattered and day-long gaps, cold spells
below -30 C and days of constant humidity exactly on the 0.85, 0.98 and 1.0
cut points. risk.<flags>.grid_<kind>.{csv,ppm} are the grids `duracast risk`
wrote from it before the risk path became columnar.

The CLI fixtures are a seeded carbonation table with missing input cells
(cli.train.csv), a complete scoring table (cli.score.csv) and a first-order
series pair with and without gaps (cli.series_gaps.csv, cli.series.csv).
cli.<run>.<file> are the outputs, config.json aside, that each run in
CLI_RUNS wrote, including the model files of all five kinds. cli.help.txt
and cli.help.<command>.txt are the --help texts of duracast and of each
command at 80 columns, as argparse of Python 3.11 formats them. The runs that
read a model (predict, baseline, report) read the fixed model files in
tests/data/models/ instead: the files `train` wrote before nominal levels
were ranked by mean and sums were centred. They are inputs, so those runs
keep scoring files an earlier version wrote, and their outputs move only
when scoring does, not when training does.

Regenerate the files (only when an output value is meant to change, and
say which in CHANGES.md) with:

    PYTHONPATH=src python tests/golden.py
"""

import contextlib
import io
import os

# Network results depend on the BLAS thread count; fix it before numpy loads
# so the narx and mlp goldens do not depend on the host's core count.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import tempfile  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402

import duracast as dc  # noqa: E402
from duracast import ensemble, tree  # noqa: E402
from duracast._io import fmt_float  # noqa: E402
from duracast.cli import KNOBS, run_cli  # noqa: E402

from helpers import make_ds  # noqa: E402

SEEDS = (11, 12, 13)
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
MODELS_DIR = os.path.join(DATA_DIR, "models")

COLUMNS = [
    ("w", "continuous", "input"),
    ("binder", "nominal", "input", ("opc", "ggbs", "fa", "sf")),
    ("cover", "continuous", "input"),
    ("site", "nominal", "input", tuple("s%d" % v for v in range(12))),
    ("w2", "continuous", "input"),
    ("age", "continuous", "input"),
    ("y", "continuous", "target"),
]


def _inputs(rng, n):
    w = np.round(rng.uniform(0.35, 0.7, size=n), 2)
    binder = rng.integers(0, 4, size=n).astype(float)
    cover = rng.integers(0, 9, size=n) * 5.0
    site = rng.integers(0, 12, size=n).astype(float)
    w2 = np.round(w + rng.normal(scale=0.03, size=n), 3)
    age = rng.integers(1, 7, size=n).astype(float)
    return np.column_stack([w, binder, cover, site, w2, age])


def dataset(seed, n=140, missing_share=0.1):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = _inputs(rng, n)
    y = (
        8.0 * x[:, 0] * np.sqrt(x[:, 5])
        + np.array([0.0, 1.5, 0.8, -0.5])[x[:, 1].astype(int)]
        - 0.04 * x[:, 2]
        + rng.normal(scale=0.2, size=n)
    )
    missing = np.zeros((n, x.shape[1] + 1), dtype=bool)
    missing[:, :-1] = rng.uniform(size=x.shape) < missing_share
    return make_ds(COLUMNS, np.column_stack([x, y]), missing)


def scoring_matrix(seed, n=200, missing_share=0.25):
    """Inputs with more missing cells than training saw, plus rows that
    miss everything (majority fallback) or only the first columns."""
    rng = np.random.Generator(np.random.PCG64(seed + 1000))
    x = _inputs(rng, n)
    x[rng.uniform(size=x.shape) < missing_share] = np.nan
    x[:5] = np.nan
    x[5:10, :3] = np.nan
    return x


def _vector_lines(values):
    return "\n".join(fmt_float(v) for v in values) + "\n"


def artifacts(seed):
    """{file name: text} for one dataset seed."""
    ds = dataset(seed)
    x = scoring_matrix(seed)
    single = dc.grow(ds, stop=dc.StoppingCriteria(min_branch=4, surrogates=5))
    bagged = dc.train_bagged(
        ds,
        n_trees=4,
        stop=dc.StoppingCriteria(min_branch=6, surrogates=3),
        m=3,
        seed=seed,
    )
    boosted = dc.train_lsboost(
        ds,
        n_trees=4,
        lam=0.3,
        stop=dc.StoppingCriteria(max_splits=8, min_branch=6),
        seed=seed,
    )
    report = dc.permutation_importance(bagged, ds, iterations=2, seed=seed)
    importance = ["variable,permutation,splitgain,degenerate"]
    for j, name in enumerate(report.names):
        importance.append(
            "%s,%s,%s,%d"
            % (
                name,
                fmt_float(report.permutation[j]),
                fmt_float(report.splitgain[j]),
                int(j in report.degenerate),
            )
        )
    importance.append("oob_mse,%s" % fmt_float(dc.oob_error(bagged, ds).mse))
    return {
        "s%d.tree.txt" % seed: tree.to_text(single),
        "s%d.bagged.txt" % seed: ensemble.to_text(bagged),
        "s%d.boosted.txt" % seed: ensemble.to_text(boosted),
        "s%d.tree.predict.txt" % seed: _vector_lines(tree.predict_batch(single, x)),
        "s%d.bagged.predict.txt" % seed: _vector_lines(
            ensemble.predict_batch(bagged, x)
        ),
        "s%d.boosted.predict.txt" % seed: _vector_lines(
            ensemble.predict_batch(boosted, x)
        ),
        "s%d.importance.csv" % seed: "\n".join(importance) + "\n",
    }


RISK_SEED = 21
RISK_LOGGER = "risk.logger.csv"
# (file name tag, extra `duracast risk` flags)
RISK_RUNS = (
    ("fill2", ["--fill", "2"]),
    ("fill2_bin0.25", ["--fill", "2", "--bin-width", "0.25"]),
)


def logger_csv(seed=RISK_SEED):
    """Hourly readings of five elements, header element,timestamp,t_celsius,rh."""
    rng = np.random.Generator(np.random.PCG64(seed))
    lines = ["element,timestamp,t_celsius,rh"]
    # (name, first hour, last hour, temperature centre, humidity centre)
    elements = [
        ("wall", 0, 7 * 24, 12.0, 0.80),
        ("deck", 36, 5 * 24, 25.0, 0.93),
        ("pier", 0, 4 * 24, 20.0, 0.85),
        ("beam", 10, 6 * 24 + 5, 33.0, 0.95),
        ("slab", 0, 7 * 24, -28.0, 0.70),
    ]
    for name, first, last, t_mid, rh_mid in elements:
        hours = np.arange(first, last)
        temp = t_mid + 6.0 * np.sin(2 * np.pi * hours / 24.0) + rng.normal(0.0, 2.0, hours.size)
        rh = np.clip(rh_mid + rng.normal(0.0, 0.06, hours.size), 0.0, 1.0)
        if name == "pier":
            # constant days on the band edges, then a day at saturation
            rh = np.select([hours < 24, hours < 48, hours < 72], [0.85, 0.98, 1.0], rh)
            temp = np.where(hours < 72, 20.0, temp)
        miss = rng.uniform(size=hours.size) < 0.2
        if name == "wall":
            miss[(hours >= 72) & (hours < 96)] = True  # a whole day missing
        if name == "deck":
            miss[(hours >= 60) & (hours < 66)] = True  # wider than the fill window
        for h, t, r, gone in zip(hours, temp, rh, miss):
            if gone:
                lines.append("%s,%.6f,," % (name, h / 24.0))
            else:
                lines.append("%s,%.6f,%.3f,%.4f" % (name, h / 24.0, t, r))
    return "\n".join(lines) + "\n"


def risk_artifacts(logger_path):
    """{file name: text} of the grids `duracast risk` writes for each run."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for tag, flags in RISK_RUNS:
            run_dir = os.path.join(tmp, tag)
            code = run_cli(["risk", "--series", logger_path, "--scale", "1",
                            "--out", run_dir] + flags)
            if code != 0:
                raise RuntimeError("risk run %s failed" % tag)
            for kind in ("corrosion", "frost", "chemical"):
                for ext in ("csv", "ppm"):
                    name = "grid_%s.%s" % (kind, ext)
                    with open(os.path.join(run_dir, name), newline="") as fh:
                        out["risk.%s.%s" % (tag, name)] = fh.read()
    return out


CLI_SCHEMA = (
    "specimen,continuous,ignored\n"
    "binder,nominal,input,opc;ggbs;fa\n"
    "wc,continuous,input\n"
    "cover,continuous,input\n"
    "age,continuous,input\n"
    "depth,continuous,target\n"
)
CLI_SERIES_SCHEMA = "u,continuous,input\ny,continuous,target\n"
CLI_AGES = (0.5, 1.0, 2.0, 4.0)


def carbonation_csv(seed, n_specimens, missing_share):
    """depth = k sqrt(age) + noise per specimen and age; a share of the
    binder, wc and cover cells is left empty."""
    rng = np.random.Generator(np.random.PCG64(seed))
    lines = ["specimen,binder,wc,cover,age,depth"]
    for s in range(n_specimens):
        binder = int(rng.integers(0, 3))
        wc = rng.uniform(0.35, 0.7)
        cover = 5.0 * int(rng.integers(2, 9))
        k = 6.0 * wc + (0.0, 1.2, 0.7)[binder] - 0.03 * cover
        for age in CLI_AGES:
            depth = k * np.sqrt(age) + rng.normal(scale=0.2)
            cells = ["opc;ggbs;fa".split(";")[binder], "%.4f" % wc, "%g" % cover]
            gone = rng.uniform(size=3) < missing_share
            cells = ["" if g else c for g, c in zip(gone, cells)]
            lines.append("%d,%s,%g,%.6f" % (s, ",".join(cells), age, max(depth, 0.0)))
    return "\n".join(lines) + "\n"


def series_csv(seed, n, gaps):
    """u,y of a noisy first-order system; `gaps` cells of each column empty."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.uniform(0.0, 1.0, size=n)
    y = np.zeros(n)
    for t in range(n - 1):
        y[t + 1] = 0.6 * y[t] + 0.4 * u[t] + rng.normal(scale=0.01)
    cells = [["%.9f" % a, "%.9f" % b] for a, b in zip(u, y)]
    for col in (0, 1):
        for t in rng.choice(np.arange(5, n - 5), size=gaps, replace=False):
            cells[t][col] = ""
    return "u,y\n" + "\n".join(",".join(c) for c in cells) + "\n"


CLI_INPUTS = {
    "cli.schema.csv": lambda: CLI_SCHEMA,
    "cli.train.csv": lambda: carbonation_csv(31, 30, 0.08),
    "cli.score.csv": lambda: carbonation_csv(32, 10, 0.0),
    "cli.series.schema.csv": lambda: CLI_SERIES_SCHEMA,
    "cli.series_gaps.csv": lambda: series_csv(33, 160, 4),
    "cli.series.csv": lambda: series_csv(34, 160, 0),
}

_TAB = ("--schema", "cli.schema.csv")
_SER = ("--schema", "cli.series.schema.csv")
# (run name, argv with input file names, train run whose model.txt it reads)
CLI_RUNS = (
    ("train_tree", ("train", "--data", "cli.train.csv", *_TAB, "--model", "tree",
                    "--leaf", "2", "--branch", "6", "--surrogates", "2", "--seed", "3"), None),
    ("train_bag", ("train", "--data", "cli.train.csv", *_TAB, "--model", "bag",
                   "--trees", "4", "--m", "2", "--seed", "3"), None),
    ("train_boost", ("train", "--data", "cli.train.csv", *_TAB, "--model", "boost",
                     "--trees", "4", "--rate", "0.3", "--split", "0.6,0.2,0.2",
                     "--seed", "3"), None),
    ("train_mlp", ("train", "--data", "cli.train.csv", *_TAB, "--model", "mlp",
                   "--hidden", "3", "--epochs", "15", "--patience", "4", "--seed", "3"), None),
    ("train_narx", ("train", "--data", "cli.series_gaps.csv", *_SER, "--model", "narx",
                    "--delays", "2", "--hidden", "3", "--epochs", "15", "--fill", "2",
                    "--seed", "3"), None),
    ("predict_tree", ("predict", "--data", "cli.score.csv", *_TAB), "train_tree"),
    ("predict_bag", ("predict", "--data", "cli.score.csv", *_TAB), "train_bag"),
    ("predict_mlp", ("predict", "--data", "cli.score.csv", *_TAB), "train_mlp"),
    ("predict_narx", ("predict", "--data", "cli.series.csv", *_SER, "--mode", "closed",
                      "--horizon", "30"), "train_narx"),
    ("crossval_tree", ("crossval", "--data", "cli.train.csv", *_TAB, "--model", "tree",
                       "--folds", "3", "--surrogates", "1", "--seed", "4"), None),
    ("crossval_mlp", ("crossval", "--data", "cli.train.csv", *_TAB, "--model", "mlp",
                      "--folds", "3", "--hidden", "2", "--epochs", "8", "--seed", "4"), None),
    ("importance", ("importance", "--data", "cli.train.csv", *_TAB, "--trees", "5",
                    "--iterations", "2", "--drop", "cover", "--top", "2", "--seed", "5"), None),
    ("baseline", ("baseline", "--data", "cli.train.csv", *_TAB, "--specimen", "specimen",
                  "--age", "age", "--ages", "2,4"), "train_bag"),
    ("report", ("report", "--data", "cli.score.csv", *_TAB), "train_boost"),
)


def cli_artifacts(inputs_dir):
    """{file name: text} of every output but config.json of each CLI run.

    Runs that read a model read cli.<train run>.model.txt from MODELS_DIR.
    """
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, model_run in CLI_RUNS:
            argv = [os.path.join(inputs_dir, a) if a.startswith("cli.") else a
                    for a in argv]
            if model_run is not None:
                argv += ["--model-file",
                         os.path.join(MODELS_DIR, "cli.%s.model.txt" % model_run)]
            run_dir = os.path.join(tmp, name)
            if run_cli(argv + ["--out", run_dir]) != 0:
                raise RuntimeError("cli run %s failed" % name)
            for file_name in sorted(os.listdir(run_dir)):
                if file_name != "config.json":
                    with open(os.path.join(run_dir, file_name), newline="") as fh:
                        out["cli.%s.%s" % (name, file_name)] = fh.read()
    return out


def help_texts():
    """{file name: text} of `duracast --help` and of each command's --help."""
    out = {}
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for command in (None,) + tuple(KNOBS):
            argv = ["--help"] if command is None else [command, "--help"]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.suppress(SystemExit):
                run_cli(argv)
            out["cli.help.txt" if command is None else "cli.help.%s.txt" % command] = (
                stdout.getvalue())
    return out


def _write(name, text):
    with open(os.path.join(DATA_DIR, name), "w", newline="") as fh:
        fh.write(text)


def write_all():
    os.makedirs(DATA_DIR, exist_ok=True)
    for seed in SEEDS:
        for name, text in artifacts(seed).items():
            _write(name, text)
    _write(RISK_LOGGER, logger_csv())
    for name, text in risk_artifacts(os.path.join(DATA_DIR, RISK_LOGGER)).items():
        _write(name, text)
    for name, make in CLI_INPUTS.items():
        _write(name, make())
    for name, text in cli_artifacts(DATA_DIR).items():
        _write(name, text)
    for name, text in help_texts().items():
        _write(name, text)


if __name__ == "__main__":
    write_all()

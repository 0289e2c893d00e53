"""Golden tree and forest artifacts on three seeded datasets.

Each dataset mixes continuous columns (some on coarse grids, so values
repeat), a 4-level and a 12-level nominal column (exhaustive subsets and
one-level-versus-rest), and missing input cells, so growth exercises
surrogate search and routing exercises every surrogate fallback. The files
under tests/data/ hold the artifacts as the package wrote them before the
tree hot path was vectorised; test_golden.py regenerates them and requires
exact equality.

The risk fixture is a small hourly logger file (risk.logger.csv) with
elements of different time spans, scattered and day-long gaps, cold spells
below -30 C and days of constant humidity exactly on the 0.85, 0.98 and 1.0
cut points. risk.<flags>.grid_<kind>.{csv,ppm} are the grids `duracast risk`
wrote from it before the risk path became columnar.

Regenerate the files (only when an output value is meant to change, and
say which in CHANGES.md) with:

    PYTHONPATH=src python tests/golden.py
"""

import os
import tempfile

import numpy as np

import duracast as dc
from duracast import ensemble, tree
from duracast._io import fmt_float
from duracast.cli import run_cli

from helpers import make_ds

SEEDS = (11, 12, 13)
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

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


if __name__ == "__main__":
    write_all()

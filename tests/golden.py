"""Golden tree and forest artifacts on three seeded datasets.

Each dataset mixes continuous columns (some on coarse grids, so values
repeat), a 4-level and a 12-level nominal column (exhaustive subsets and
one-level-versus-rest), and missing input cells, so growth exercises
surrogate search and routing exercises every surrogate fallback. The files
under tests/data/ hold the artifacts as the package wrote them before the
tree hot path was vectorised; test_golden.py regenerates them and requires
exact equality.

Regenerate the files (only when an output value is meant to change, and
say which in CHANGES.md) with:

    PYTHONPATH=src python tests/golden.py
"""

import os

import numpy as np

import duracast as dc
from duracast import ensemble, tree
from duracast._io import fmt_float

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


def write_all():
    os.makedirs(DATA_DIR, exist_ok=True)
    for seed in SEEDS:
        for name, text in artifacts(seed).items():
            with open(os.path.join(DATA_DIR, name), "w", newline="") as fh:
                fh.write(text)


if __name__ == "__main__":
    write_all()

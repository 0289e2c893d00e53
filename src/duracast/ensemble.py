"""Tree ensembles: bootstrap aggregation, least-squares boosting, out-of-bag
error, and variable importance.

A bagged model averages trees grown on bootstrap samples of size N drawn
with replacement; the expected in-bag fraction is about 0.63. A boosted
model starts from a zero predictor, fits each tree to the current residuals
and adds it scaled by the shrinkage lam, so the prediction is the sum of
lam times every tree.

Per-tree randomness derives from seed + tree index, so results do not depend
on evaluation order and could be reproduced by a parallel scheduler.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import tree as tree_mod
# atomic_write_text is bound here so profiling shims (bench/tracing.py) can wrap
# it on every module.
from ._io import atomic_write_text, fmt_float, read_model, word, write_table
from .errors import DomainError, NoCoverage, ParseError, ShapeError

BAGGED = "bagged"
BOOSTED = "boosted"


@dataclass(frozen=True)
class EnsembleModel:
    kind: str
    trees: tuple
    seed: int
    in_bag: np.ndarray = None
    lam: float = None
    feature_names: tuple = ()

    @property
    def n_trees(self):
        return len(self.trees)

    @functools.cached_property
    def table(self):
        """One node table of every tree, routed in one descent."""
        return tree_mod.join(self.trees)


@dataclass(frozen=True)
class ImportanceReport:
    """Per-variable importance scores over the model's input columns.

    permutation is None for boosted models (no bootstrap, so no out-of-bag
    rows to permute); splitgain is always available. degenerate flags
    variables whose per-tree error differences had zero spread while their
    mean was nonzero; their permutation score falls back to the raw mean."""

    names: tuple
    permutation: np.ndarray = None
    splitgain: np.ndarray = None
    iterations: int = 0
    seeds: tuple = ()
    degenerate: tuple = ()


def _input_names(ds):
    return tuple(ds.schema.columns[i].name for i in ds.schema.input_indices)


def train_bagged(ds, n_trees=150, stop=None, m=None, seed=0, rows=None):
    """Grow n_trees trees on seeded bootstrap samples and record in-bag masks.

    Args:
        ds: training dataset.
        n_trees: ensemble size (default mirrors the reference configuration).
        stop: StoppingCriteria shared by every tree.
        m: feature-subset size per split; None considers all features.
        seed: base seed; tree t uses seed + t for its bootstrap and subsets.
        rows: training row indices (all rows when None).

    Returns:
        EnsembleModel with kind "bagged".
    """
    if n_trees < 1:
        raise DomainError("need at least one tree")
    rows = np.arange(ds.n_rows) if rows is None else np.asarray(rows, dtype=int)
    n = rows.size
    stop = stop or tree_mod.StoppingCriteria()
    if m is not None:
        m, p = int(m), len(ds.schema.input_indices)
        if m > p:
            raise DomainError("subset size m=%d exceeds feature count %d" % (m, p))
        stop = replace(stop, m=m)
    rngs = [np.random.Generator(np.random.PCG64(seed + t)) for t in range(n_trees)]
    samples = [rows[rng.integers(0, n, size=n)] for rng in rngs]
    in_bag = np.zeros((n_trees, ds.n_rows), dtype=bool)
    for t, sample in enumerate(samples):
        in_bag[t, sample] = True
    return EnsembleModel(
        kind=BAGGED,
        trees=tuple(tree_mod.grower(ds)(samples, stop, rngs)),
        seed=seed,
        in_bag=in_bag,
        feature_names=_input_names(ds),
    )


def train_lsboost(ds, n_trees=150, lam=0.1, stop=None, seed=0, rows=None):
    """Least-squares boosting: each stage fits a tree to the residuals.

    The model starts at zero; stage t adds lam times its tree and shrinks
    the residuals accordingly. Shrinkage must lie in (0, 2] (the interval on
    which the stage update cannot increase the training error).
    """
    if n_trees < 1:
        raise DomainError("need at least one tree")
    if not 0.0 < lam <= 2.0:
        raise DomainError("shrinkage must be in (0, 2], got %r" % lam)
    rows = np.arange(ds.n_rows) if rows is None else np.asarray(rows, dtype=int)
    stop = stop or tree_mod.StoppingCriteria()
    residual = np.zeros(ds.n_rows)
    # the grower refuses a missing target in the training rows
    residual[rows] = ds.target_vector(rows)
    x = ds.input_matrix(rows)
    grow_trees = tree_mod.grower(ds)
    trees = []
    for t in range(n_trees):
        rng = np.random.Generator(np.random.PCG64(seed + t))
        fitted = grow_trees([rows], stop, [rng], residual)[0]
        step = tree_mod.predict_batch(fitted, x)
        residual[rows] -= lam * step
        trees.append(fitted)
    return EnsembleModel(
        kind=BOOSTED,
        trees=tuple(trees),
        seed=seed,
        lam=float(lam),
        feature_names=_input_names(ds),
    )


def predict(model, x):
    """Aggregate the member trees on one input vector."""
    x = np.asarray(x, dtype=float)
    return float(_combine(model, tree_mod.predict_batch(model.table, x[None])))


def predict_batch(model, x_matrix):
    x_matrix = np.asarray(x_matrix, dtype=float)
    per_tree = tree_mod.predict_batch(model.table, x_matrix)
    return _combine(model, per_tree.reshape(model.n_trees, x_matrix.shape[0]))


def _combine(model, per_tree):
    """Bagged mean or boosted shrunken sum over the trees (axis 0), added in
    turn as numpy adds the rows of a matrix of two or more columns; it sums
    one column pairwise, which could move a row's last bit with the rows
    routed beside it."""
    total = functools.reduce(np.add, per_tree)
    return total / len(per_tree) if model.kind == BAGGED else model.lam * total


def predict_dataset(model, ds, rows=None):
    """Predictions for the dataset rows (all rows when None)."""
    x = ds.input_matrix(rows)
    if model.feature_names and x.shape[1] != len(model.feature_names):
        raise ShapeError(
            "dataset has %d input columns, model expects %d"
            % (x.shape[1], len(model.feature_names))
        )
    return predict_batch(model, x)


@dataclass(frozen=True)
class OobReport:
    mse: float
    n_covered: int
    n_uncovered: int


def _out_of_bag(model, ds, what):
    """Out-of-bag masks (trees x rows) of a bagged model over its training rows ds."""
    if model.kind != BAGGED or model.in_bag is None:
        raise DomainError("%s needs a bagged model with in-bag masks" % what)
    if model.in_bag.shape[1] != ds.n_rows:
        raise ShapeError("in-bag masks cover %d rows, the dataset has %d"
                         % (model.in_bag.shape[1], ds.n_rows))
    return ~model.in_bag


def oob_error(model, ds):
    """Mean squared error using, per row, only the trees that did not see it.

    Rows that are in-bag for every tree are skipped and counted; when no row
    has coverage the estimate is undefined and NoCoverage is raised.
    """
    oob = _out_of_bag(model, ds, "out-of-bag error")
    x = ds.input_matrix()
    y = ds.target_vector()
    # Only the out-of-bag pairs are routed; the others count as 0.
    trees, rows = np.nonzero(oob)
    per_tree = np.zeros(oob.shape)
    per_tree[trees, rows] = tree_mod.predict_batch(model.table, x[rows], trees)
    covered = oob.any(axis=0)
    n_uncovered = int(np.count_nonzero(~covered))
    if not covered.any():
        raise NoCoverage("no row is out-of-bag for any tree")
    counts = oob.sum(axis=0)[covered]
    sums = (per_tree * oob)[:, covered].sum(axis=0)
    preds = sums / counts
    mse = float(np.mean((y[covered] - preds) ** 2))
    return OobReport(mse=mse, n_covered=int(np.count_nonzero(covered)), n_uncovered=n_uncovered)


def permutation_importance(model, ds, iterations=10, seed=0, scaling="std"):
    """Out-of-bag permutation importance, averaged over seeded iterations.

    For each tree and variable, the variable's values are permuted within the
    tree's out-of-bag rows and the increase of the tree's out-of-bag error is
    recorded; a variable that no primary split of the tree uses scores zero
    for that tree without permutation. Per-variable scores are the mean of
    the per-tree differences divided by their spread over trees, and the
    whole procedure is repeated `iterations` times with fresh permutations
    and averaged.

    Args:
        scaling: "std" divides the mean by the standard deviation over trees;
            "stderr" divides by std / sqrt(T) instead.
    """
    oob_masks = _out_of_bag(model, ds, "permutation importance")
    if scaling not in ("std", "stderr"):
        raise DomainError("scaling must be 'std' or 'stderr'")
    if iterations < 1:
        raise DomainError("iterations must be >= 1")
    x_all = ds.input_matrix()
    y_all = ds.target_vector()
    p = x_all.shape[1]
    n_trees = model.n_trees

    # Each tree routes one block: its out-of-bag rows, then one copy per
    # variable it splits on, with that column permuted (drawn in column
    # order, tree after tree). Every block of an iteration is one call.
    routed = [t for t in range(n_trees) if oob_masks[t].any()]
    used = [sorted(tree_mod.tree_features(model.trees[t])) for t in routed]
    x_oob = [x_all[oob_masks[t]] for t in routed]
    y_oob = [y_all[oob_masks[t]] for t in routed]
    sizes = [x.shape[0] * (len(u) + 1) for x, u in zip(x_oob, used)]
    owner = np.repeat(routed, sizes)
    ends = np.cumsum(sizes).tolist()
    # Every iteration permutes the same cells, so it overwrites the last one's.
    x_stack = np.concatenate([np.zeros((0, p))]
                             + [np.tile(x, (len(u) + 1, 1)) for x, u in zip(x_oob, used)])

    iter_scores = np.zeros((iterations, p))
    seeds = tuple(seed + i for i in range(iterations))
    degenerate = set()
    for i, it_seed in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(it_seed))
        diffs = np.zeros((n_trees, p))
        for start, x, u in zip([0] + ends, x_oob, used):
            n_oob = x.shape[0]
            for b, j in enumerate(u, start=1):
                at = start + b * n_oob
                x_stack[at:at + n_oob, j] = x[rng.permutation(n_oob), j]
        preds = tree_mod.predict_batch(model.table, x_stack, owner)
        for t_idx, start, end, y, u in zip(routed, [0] + ends, ends, y_oob, used):
            # Each row's mean has the bits of np.mean of that row alone.
            mses = ((y - preds[start:end].reshape(-1, y.size)) ** 2).mean(axis=1)
            diffs[t_idx, u] = mses[1:] - mses[0]
        mean = diffs.mean(axis=0)
        std = diffs.std(axis=0, ddof=1) if n_trees > 1 else np.zeros(p)
        if scaling == "stderr":
            std = std / np.sqrt(n_trees)
        iter_scores[i] = np.divide(mean, std, out=mean.copy(), where=std > 0.0)
        degenerate.update(np.flatnonzero(~(std > 0.0) & (mean != 0.0)).tolist())

    return ImportanceReport(
        names=model.feature_names,
        permutation=iter_scores.mean(axis=0),
        splitgain=splitgain_importance(model, ds).splitgain,
        iterations=iterations,
        seeds=seeds,
        degenerate=tuple(sorted(degenerate)),
    )


def splitgain_importance(model, ds=None):
    """Risk-reduction importance: each split credits its gain to the primary
    variable and gain times the association to each surrogate variable;
    per-tree credits are averaged over trees and scaled to sum to one."""
    p = len(model.feature_names)
    t = model.table
    split = np.flatnonzero(t.left >= 0)
    count = (t.surr[1:] - t.surr[:-1])[split]
    delta = t.risk[split] - t.risk[t.left[split]] - t.risk[t.right[split]]
    base = (np.searchsorted(t.roots, split, side="right") - 1) * p
    # Split after split in preorder, its own variable before its surrogates',
    # the order that fixes the bits of each sum.
    order = np.argsort(np.concatenate([split, np.repeat(split, count)]), kind="stable")
    cell = np.concatenate([base + t.feature[split], np.repeat(base, count) + t.surr_feature])
    gain = np.concatenate([delta, np.repeat(delta, count) * np.maximum(t.xi, 0.0)])
    credits = np.zeros(model.n_trees * p)
    np.add.at(credits, cell[order], gain[order])
    mean = credits.reshape(model.n_trees, p).mean(axis=0)
    total = mean.sum()
    if total > 0.0:
        mean = mean / total
    return ImportanceReport(names=model.feature_names, splitgain=mean)


def ranked_rows(report):
    """Rows (name, permutation, splitgain, rank) ranked by the primary score.

    The primary score is the permutation measure when present, else the
    split-gain measure. Rank 1 is the most important variable.
    """
    primary = report.permutation if report.permutation is not None else report.splitgain
    if primary is None:
        raise DomainError("report carries no scores")
    order = sorted(
        range(len(report.names)), key=lambda j: (-primary[j], report.names[j])
    )
    rows = []
    for rank, j in enumerate(order, start=1):
        rows.append(
            (
                report.names[j],
                None if report.permutation is None else float(report.permutation[j]),
                None if report.splitgain is None else float(report.splitgain[j]),
                rank,
            )
        )
    return rows


def write_importance_csv(path, report):
    write_table(path, ("variable", "permutation_score", "splitgain_score", "rank"),
                ranked_rows(report))


# ---------------------------------------------------------------------------
# persistence


def to_text(model):
    lines = [
        "ensemble v1",
        "kind %s" % model.kind,
        "T %d" % model.n_trees,
        "lambda %s" % ("-" if model.lam is None else fmt_float(model.lam)),
        "seed %d" % model.seed,
    ]
    lines += ["feature %d %s" % (j, name) for j, name in enumerate(model.feature_names)]
    for t_idx, t in enumerate(model.trees):
        lines.append("tree %d" % t_idx)
        lines += tree_mod.tree_lines(t)
    return "\n".join(lines) + "\n"


def from_text(text):
    """Rebuild an ensemble for prediction.

    In-bag masks are not part of the interchange format, so reloaded models
    predict but do not support out-of-bag estimates; retrain with the stored
    seed to recover those.
    """
    return read_model(text.splitlines(), "ensemble v1", _ENSEMBLE_FIELDS, _build_ensemble,
                      indexed=("feature",), body="tree")


_ENSEMBLE_FIELDS = {
    "kind": word,
    "T": int,
    "lambda": lambda text: None if text.strip() == "-" else float(text),
    "seed": int,
    "feature": str,
}


def _build_ensemble(v, body):
    kind, n_trees, features = v["kind"], v["T"], v["feature"]
    if kind not in (BAGGED, BOOSTED):
        raise ParseError("unknown ensemble kind %r" % kind)
    if kind == BOOSTED and (v["lambda"] is None or not 0.0 < v["lambda"] <= 2.0):
        raise ParseError("a boosted ensemble needs lambda in (0, 2], got %r" % v["lambda"])
    blocks = []
    current = None
    for line in body:
        if line.startswith("tree "):
            current = []
            blocks.append(current)
        elif current is not None and line.strip():
            current.append(line)
    if len(blocks) != n_trees:
        raise ParseError("header says %d trees, file has %d" % (n_trees, len(blocks)))
    if not blocks:
        raise ParseError("an ensemble needs at least one tree")
    return EnsembleModel(
        kind=kind,
        trees=tuple(tree_mod.tree_from_lines(block) for block in blocks),
        seed=v["seed"],
        lam=v["lambda"],
        feature_names=tuple(features[j] for j in range(len(features))),
    )

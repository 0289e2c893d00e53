import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import duracast as dc
from duracast import ensemble, tree
from duracast.errors import DomainError, NoCoverage, ParseError, ShapeError

from helpers import continuous_ds, make_ds


def nonlinear_ds(n=80, seed=0, p=3):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.uniform(-2, 2, size=(n, p))
    y = np.sin(x[:, 0]) + 0.5 * x[:, 1] + rng.normal(scale=0.1, size=n)
    return continuous_ds(x, y)


def stop(**kw):
    kw.setdefault("min_branch", 6)
    kw.setdefault("min_leaf", 2)
    return dc.StoppingCriteria(**kw)


def test_bagged_prediction_is_the_tree_mean():
    ds = nonlinear_ds()
    model = dc.train_bagged(ds, n_trees=12, stop=stop(), seed=4)
    grid = np.linspace(-2, 2, 25).reshape(-1, 1).repeat(3, axis=1)
    per_tree = np.array([tree.predict_batch(t, grid) for t in model.trees])
    assert np.array_equal(ensemble.predict_batch(model, grid), per_tree.mean(axis=0))


def test_bagging_is_deterministic_in_the_seed():
    ds = nonlinear_ds()
    a = dc.train_bagged(ds, n_trees=6, stop=stop(), seed=7)
    b = dc.train_bagged(ds, n_trees=6, stop=stop(), seed=7)
    c = dc.train_bagged(ds, n_trees=6, stop=stop(), seed=8)
    grid = ds.input_matrix()
    assert np.array_equal(ensemble.predict_batch(a, grid), ensemble.predict_batch(b, grid))
    assert not np.array_equal(ensemble.predict_batch(a, grid), ensemble.predict_batch(c, grid))


def test_each_tree_gets_its_own_bootstrap():
    ds = nonlinear_ds(n=50)
    model = dc.train_bagged(ds, n_trees=5, stop=stop(), seed=0)
    masks = {mask.tobytes() for mask in model.in_bag}
    assert len(masks) == 5


def test_in_bag_matches_the_seeded_draw():
    ds = nonlinear_ds(n=30)
    model = dc.train_bagged(ds, n_trees=3, stop=stop(), seed=11)
    for t in range(3):
        rng = np.random.Generator(np.random.PCG64(11 + t))
        draw = rng.integers(0, 30, size=30)
        expect = np.zeros(30, dtype=bool)
        expect[np.unique(draw)] = True
        assert np.array_equal(model.in_bag[t], expect)


def forest_ds(n=400, seed=0):
    """Forest-sized data: 7 continuous and 2 nominal inputs, 5% cells empty."""
    rng = np.random.Generator(np.random.PCG64(seed))
    cols = [("x%d" % j, "continuous", "input") for j in range(7)]
    cols += [("b", "nominal", "input", ("p", "q", "r")),
             ("e", "nominal", "input", ("s", "t", "u", "v"))]
    x = np.column_stack([rng.normal(size=(n, 7)), rng.integers(0, 3, n), rng.integers(0, 4, n)])
    y = x[:, 0] + np.sin(x[:, 1]) + x[:, 7] + rng.normal(scale=0.3, size=n)
    missing = np.zeros((n, 10), dtype=bool)
    missing[:, :9] = rng.uniform(size=(n, 9)) < 0.05
    return make_ds(cols + [("y", "continuous", "target")], np.column_stack([x, y]), missing)


@pytest.mark.parametrize("m, max_splits", [(None, None), (3, None), (None, 9)])
def test_a_bag_grown_at_once_equals_its_trees_grown_one_by_one(m, max_splits):
    ds = forest_ds(n=120)
    limits = stop(max_splits=max_splits, surrogates=3)
    model = dc.train_bagged(ds, n_trees=6, stop=limits, m=m, seed=5)
    trees = []
    for t in range(6):
        rng = np.random.Generator(np.random.PCG64(5 + t))
        sample = rng.integers(0, ds.n_rows, size=ds.n_rows)
        trees.append(dc.grow(ds, rows=sample, stop=replace(limits, m=m), rng=rng))
    assert ensemble.to_text(model) == ensemble.to_text(replace(model, trees=tuple(trees)))


def test_growing_a_forest_sized_bag_stays_within_the_block_cap():
    # Beyond the trees it returns, growth holds one padded block and the
    # level it came from at a time: under 80 bytes per cell of a block.
    ds = forest_ds()
    tracemalloc.start()
    try:
        model = dc.train_bagged(ds, n_trees=12, seed=1)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.n_trees == 12
    assert peak - kept < 80 * tree._BLOCK_CELLS


def test_boosted_prediction_is_the_shrunk_stage_sum():
    ds = nonlinear_ds()
    lam = 0.3
    model = dc.train_lsboost(ds, n_trees=8, lam=lam, stop=stop(), seed=2)
    grid = ds.input_matrix()
    per_tree = np.array([tree.predict_batch(t, grid) for t in model.trees])
    assert np.allclose(
        ensemble.predict_batch(model, grid), lam * per_tree.sum(axis=0), atol=1e-12
    )


def test_single_full_shrinkage_stage_equals_one_tree():
    ds = nonlinear_ds()
    model = dc.train_lsboost(ds, n_trees=1, lam=1.0, stop=stop(), seed=0)
    alone = dc.grow(ds, stop=stop())
    grid = ds.input_matrix()
    assert np.array_equal(
        ensemble.predict_batch(model, grid), tree.predict_batch(alone, grid)
    )


def test_boosting_training_error_never_increases():
    ds = nonlinear_ds(n=120)
    y = ds.target_vector()
    grid = ds.input_matrix()
    last = np.inf
    for n in (1, 5, 15, 40):
        model = dc.train_lsboost(ds, n_trees=n, lam=0.1, stop=stop(), seed=0)
        mse = float(np.mean((ensemble.predict_batch(model, grid) - y) ** 2))
        assert mse <= last + 1e-12
        last = mse


def test_boosting_refuses_a_missing_target_in_its_training_rows_only():
    ds = nonlinear_ds(n=40)
    missing = ds.missing.copy()
    missing[7, ds.schema.target_index] = True
    ds = dc.Dataset(ds.schema, ds.values, missing)
    with pytest.raises(DomainError, match="^target has missing values in the training rows$"):
        dc.train_lsboost(ds, n_trees=2, stop=stop())
    rows = np.delete(np.arange(40), 7)
    assert dc.train_lsboost(ds, n_trees=2, stop=stop(), rows=rows).n_trees == 2


def test_ensemble_prediction_needs_a_matrix():
    model = dc.train_lsboost(nonlinear_ds(n=40), n_trees=2, stop=stop())
    with pytest.raises(ShapeError, match="^prediction input must be a matrix$"):
        ensemble.predict_batch(model, np.zeros(3))


@pytest.mark.parametrize("lam", [0.0, -0.1, 2.0001])
def test_shrinkage_outside_unit_interval_is_rejected(lam):
    ds = nonlinear_ds(n=20)
    with pytest.raises(DomainError):
        dc.train_lsboost(ds, n_trees=2, lam=lam, stop=stop())


def test_shrinkage_boundary_two_is_allowed():
    ds = nonlinear_ds(n=20)
    dc.train_lsboost(ds, n_trees=2, lam=2.0, stop=stop())


def test_predict_dataset_checks_input_arity():
    ds = nonlinear_ds()
    model = dc.train_bagged(ds, n_trees=2, stop=stop())
    wide = nonlinear_ds(n=10, p=7)
    with pytest.raises(dc.DuracastError):
        ensemble.predict_dataset(model, wide)


# ---------------------------------------------------------------------------
# out-of-bag error


def test_oob_uses_only_trees_that_skipped_the_row():
    ds = nonlinear_ds(n=25)
    model = dc.train_bagged(ds, n_trees=4, stop=stop(), seed=3)
    report = dc.oob_error(model, ds)
    x = ds.input_matrix()
    y = ds.target_vector()
    per_tree = np.array([tree.predict_batch(t, x) for t in model.trees])
    errs = []
    skipped = 0
    for i in range(25):
        oob = ~model.in_bag[:, i]
        if not oob.any():
            skipped += 1
            continue
        errs.append((per_tree[oob, i].mean() - y[i]) ** 2)
    assert report.mse == pytest.approx(np.mean(errs))
    assert report.n_covered == len(errs)
    assert report.n_uncovered == skipped


def test_oob_with_no_coverage_raises():
    ds = continuous_ds([[1.0]], [2.0])
    model = dc.train_bagged(ds, n_trees=3, stop=dc.StoppingCriteria())
    with pytest.raises(NoCoverage):
        dc.oob_error(model, ds)


def test_oob_requires_a_bagged_model():
    ds = nonlinear_ds(n=20)
    model = dc.train_lsboost(ds, n_trees=2, stop=stop())
    with pytest.raises(DomainError):
        dc.oob_error(model, ds)


@pytest.mark.parametrize("n", [15, 30])
def test_out_of_bag_scores_need_the_training_rows(n):
    model = dc.train_bagged(nonlinear_ds(n=20), n_trees=2, stop=stop())
    other = nonlinear_ds(n=n)
    with pytest.raises(dc.DuracastError, match="in-bag masks cover 20 rows"):
        dc.oob_error(model, other)
    with pytest.raises(dc.DuracastError, match="in-bag masks cover 20 rows"):
        dc.permutation_importance(model, other)


# ---------------------------------------------------------------------------
# variable importance


def importance_ds(n=90, seed=5):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.normal(size=(n, 3))
    x[:, 2] = 1.0
    y = 2.0 * x[:, 0] + rng.normal(scale=0.2, size=n)
    return continuous_ds(x, y, names=["signal", "noise", "flat"])


def test_permutation_scores_rank_the_signal_first():
    ds = importance_ds()
    model = dc.train_bagged(ds, n_trees=30, stop=stop(), seed=1)
    report = dc.permutation_importance(model, ds, iterations=4, seed=9)
    scores = dict(zip(report.names, report.permutation))
    assert scores["signal"] > scores["noise"]


def test_unused_variable_scores_exactly_zero():
    ds = importance_ds()
    model = dc.train_bagged(ds, n_trees=10, stop=stop(), seed=1)
    report = dc.permutation_importance(model, ds, iterations=3, seed=0)
    assert report.permutation[list(report.names).index("flat")] == 0.0
    sg = dc.splitgain_importance(model, ds)
    assert sg.splitgain[list(sg.names).index("flat")] == 0.0


def test_permutation_is_deterministic_and_seed_sensitive():
    ds = importance_ds()
    model = dc.train_bagged(ds, n_trees=10, stop=stop(), seed=1)
    a = dc.permutation_importance(model, ds, iterations=2, seed=3)
    b = dc.permutation_importance(model, ds, iterations=2, seed=3)
    c = dc.permutation_importance(model, ds, iterations=2, seed=4)
    assert np.array_equal(a.permutation, b.permutation)
    assert not np.array_equal(a.permutation, c.permutation)
    assert a.seeds == (3, 4)


def test_stderr_scaling_inflates_std_scores():
    ds = importance_ds()
    model = dc.train_bagged(ds, n_trees=16, stop=stop(), seed=1)
    by_std = dc.permutation_importance(model, ds, iterations=2, seed=0, scaling="std")
    by_se = dc.permutation_importance(model, ds, iterations=2, seed=0, scaling="stderr")
    j = list(by_std.names).index("signal")
    assert by_se.permutation[j] == pytest.approx(by_std.permutation[j] * 4.0)


def test_permutation_rejects_bad_arguments():
    ds = importance_ds()
    model = dc.train_bagged(ds, n_trees=4, stop=stop(), seed=1)
    with pytest.raises(DomainError):
        dc.permutation_importance(model, ds, scaling="median")
    with pytest.raises(DomainError):
        dc.permutation_importance(model, ds, iterations=0)
    boosted = dc.train_lsboost(ds, n_trees=2, stop=stop())
    with pytest.raises(DomainError):
        dc.permutation_importance(boosted, ds)


def test_degenerate_spread_falls_back_to_the_raw_mean():
    # a single tree gives zero spread over trees, triggering the fallback
    ds = importance_ds(n=40)
    model = dc.train_bagged(ds, n_trees=1, stop=stop(), seed=2)
    report = dc.permutation_importance(model, ds, iterations=1, seed=0)
    j = list(report.names).index("signal")
    assert j in report.degenerate
    assert report.permutation[j] > 0.0


def test_splitgain_shares_sum_to_one():
    ds = importance_ds()
    model = dc.train_bagged(ds, n_trees=8, stop=stop(), seed=1)
    report = dc.splitgain_importance(model, ds)
    assert report.splitgain.sum() == pytest.approx(1.0)
    assert (report.splitgain >= 0.0).all()


def test_splitgain_credits_surrogates_too():
    rng = np.random.Generator(np.random.PCG64(3))
    n = 80
    x0 = rng.uniform(size=n)
    x1 = x0 + rng.normal(scale=0.08, size=n)
    y = np.where(x0 < 0.5, 0.0, 5.0)
    ds = continuous_ds(np.column_stack([x0, x1]), y, names=["a", "mimic"])
    t = dc.grow(ds, stop=stop(max_splits=1))
    model = ensemble.EnsembleModel(
        kind=ensemble.BAGGED,
        trees=(t,),
        seed=0,
        in_bag=np.ones((1, n), dtype=bool),
        feature_names=("a", "mimic"),
    )
    report = dc.splitgain_importance(model)
    a, mimic = report.splitgain
    assert a > mimic > 0.0
    assert mimic / a == pytest.approx(t.xi[0])


def test_ranked_rows_sort_by_score_then_name():
    report = ensemble.ImportanceReport(
        names=("b", "a", "c"),
        permutation=np.array([2.0, 2.0, 1.0]),
        splitgain=np.array([0.5, 0.3, 0.2]),
    )
    rows = ensemble.ranked_rows(report)
    assert [r[0] for r in rows] == ["a", "b", "c"]
    assert [r[3] for r in rows] == [1, 2, 3]


def test_importance_csv_round_trip(tmp_path):
    ds = importance_ds()
    model = dc.train_bagged(ds, n_trees=8, stop=stop(), seed=1)
    report = dc.permutation_importance(model, ds, iterations=2, seed=0)
    path = tmp_path / "imp.csv"
    ensemble.write_importance_csv(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "variable,permutation_score,splitgain_score,rank"
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# persistence


def test_ensemble_text_round_trip(tmp_path):
    ds = nonlinear_ds()
    model = dc.train_bagged(ds, n_trees=5, stop=stop(), seed=6)
    path = tmp_path / "model.txt"
    path.write_text(ensemble.to_text(model))
    again = ensemble.from_text(path.read_text())
    grid = ds.input_matrix()
    assert np.array_equal(
        ensemble.predict_batch(model, grid), ensemble.predict_batch(again, grid)
    )
    assert again.kind == model.kind
    assert again.seed == model.seed
    assert again.feature_names == model.feature_names


def test_boosted_round_trip_keeps_shrinkage(tmp_path):
    ds = nonlinear_ds(n=40)
    model = dc.train_lsboost(ds, n_trees=4, lam=0.25, stop=stop(), seed=1)
    path = tmp_path / "boost.txt"
    path.write_text(ensemble.to_text(model))
    again = ensemble.from_text(path.read_text())
    assert again.lam == 0.25
    grid = ds.input_matrix()
    assert np.array_equal(
        ensemble.predict_batch(model, grid), ensemble.predict_batch(again, grid)
    )


def test_saved_ensembles_are_byte_stable(tmp_path):
    ds = nonlinear_ds(n=40)
    model = dc.train_bagged(ds, n_trees=3, stop=stop(), seed=2)
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    p1.write_text(ensemble.to_text(model))
    p2.write_text(ensemble.to_text(model))
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_malformed_ensemble_text():
    with pytest.raises(dc.DuracastError):
        ensemble.from_text("ensemble v2\n")


def test_an_ensemble_without_trees_is_a_parse_error():
    with pytest.raises(ParseError):
        ensemble.from_text("ensemble v1\nkind bagged\nT 0\nlambda -\nseed 0\nfeature 0 x\n")


@pytest.mark.parametrize("lam", ["-", "0", "2.5", "nan", "inf"],
                         ids=["none", "zero", "above-two", "nan", "inf"])
def test_a_boosted_ensemble_needs_a_shrinkage_in_range(lam):
    text = ensemble.to_text(dc.train_lsboost(nonlinear_ds(n=40), n_trees=2, stop=stop()))
    assert "\nlambda 0.10000000000000001\n" in text
    with pytest.raises(ParseError, match="lambda in"):
        ensemble.from_text(text.replace("lambda 0.10000000000000001", "lambda " + lam))


def test_large_level_codes_cost_memory_in_proportion_to_the_text():
    # Every tree lists one level code of a million; a table that held a
    # (rule x level) mask would need about 3 MB per tree, 60 MB in all.
    lines = ["ensemble v1", "kind bagged", "T 20", "lambda -", "seed 0", "feature 0 c"]
    for t in range(20):
        lines += ["tree %d" % t, "node 0 split 0 in:%d left 1 right 2" % (999_980 + t),
                  "node 1 leaf %d 1" % t, "node 2 leaf -1 1"]
    text = "\n".join(lines) + "\n"
    tracemalloc.start()
    try:
        model = ensemble.from_text(text)
        x = np.array([[999_980.0], [999_999.0], [3.0], [np.nan]])
        pred = ensemble.predict_batch(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert list(pred) == [(0 - 19) / 20, (19 - 19) / 20, -1.0, 9.5]


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(("feature 0 ", "feature x "), id="bad-feature-index"),
        pytest.param((" left 1 ", " left 99 "), id="missing-child"),
        pytest.param((" left 1 ", " left 0 "), id="cycle"),
    ],
)
def test_corrupt_ensemble_text_raises_parse_error(edit):
    ds = nonlinear_ds(n=40)
    text = ensemble.to_text(dc.train_bagged(ds, n_trees=2, stop=stop(), seed=2))
    assert edit[0] in text
    with pytest.raises(ParseError):
        ensemble.from_text(text.replace(edit[0], edit[1], 1))

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import duracast as dc
from duracast import tree
from duracast.errors import DuracastError, ParseError, ShapeError

from helpers import continuous_ds, make_ds
from oracles import (
    best_level_association,
    best_level_split_gain,
    best_mean_ordered_split_gain,
    grow_preorder,
    grow_reference,
    predict_reference,
)


def small_stop(**kw):
    kw.setdefault("min_branch", 2)
    return dc.StoppingCriteria(**kw)


def is_leaf(t):
    return t.left[0] < 0


def root_gain(t):
    return t.risk[0] - t.risk[t.left[0]] - t.risk[t.right[0]]


def root_levels(t):
    return tuple(t.codes[t.levels[0]:t.levels[1]].tolist())


def test_single_obvious_split():
    ds = continuous_ds([[1.0], [2.0], [10.0], [11.0]], [0.0, 0.0, 8.0, 8.0])
    t = dc.grow(ds, stop=small_stop())
    assert not is_leaf(t)
    assert t.feature[0] == 0
    assert t.threshold[0] == pytest.approx(6.0)
    assert dc.predict(t, np.array([0.0])) == 0.0
    assert dc.predict(t, np.array([100.0])) == 8.0


def test_threshold_is_a_midpoint_of_observed_values():
    ds = continuous_ds([[1.0], [3.0], [3.0], [9.0]], [0.0, 0.0, 10.0, 10.0])
    t = dc.grow(ds, stop=small_stop())
    # candidates are midpoints of distinct consecutive values: 2 and 6
    assert t.threshold[0] in (2.0, 6.0)


def test_tie_breaks_toward_lower_feature_index():
    x = [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]
    ds = continuous_ds(x, [0.0, 0.0, 4.0, 4.0], names=["a", "b"])
    t = dc.grow(ds, stop=small_stop())
    assert t.feature[0] == 0


@pytest.mark.parametrize("nominal_first", [False, True])
def test_exact_tie_between_continuous_and_nominal_picks_the_lower_index(nominal_first):
    # Both columns separate {0, 0} from {4, 4}: each gain is exactly 16.
    cols = [("x", "continuous", "input"), ("c", "nominal", "input", ("p", "q"))]
    values = [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]
    if nominal_first:
        cols = cols[::-1]
    ds = make_ds(cols + [("y", "continuous", "target")],
                 [row + [y] for row, y in zip(values, [0.0, 0.0, 4.0, 4.0])])
    t = dc.grow(ds, stop=small_stop())
    assert t.feature[0] == 0
    assert t.nominal[0] == nominal_first
    assert root_gain(t) == 16.0


def test_min_leaf_blocks_small_children():
    ds = continuous_ds([[1.0], [2.0], [3.0], [4.0]], [0.0, 0.0, 0.0, 9.0])
    t = dc.grow(ds, stop=small_stop(min_leaf=2, min_branch=4))
    # the gain-optimal 3-vs-1 cut is forbidden, only 2-vs-2 remains
    assert not is_leaf(t)
    assert t.threshold[0] == pytest.approx(2.5)


def test_min_branch_keeps_node_unsplit():
    ds = continuous_ds([[1.0], [2.0], [3.0]], [0.0, 5.0, 9.0])
    t = dc.grow(ds, stop=dc.StoppingCriteria(min_branch=4))
    assert is_leaf(t)
    assert t.value[0] == pytest.approx(14.0 / 3)


def test_split_budget_limits_tree_size():
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.normal(size=(40, 2))
    y = x[:, 0] + 0.5 * x[:, 1] + rng.normal(scale=0.05, size=40)
    ds = continuous_ds(x, y)
    t = dc.grow(ds, stop=small_stop(max_splits=3))
    assert np.count_nonzero(t.left >= 0) == 3


def test_pure_node_becomes_leaf():
    ds = continuous_ds([[1.0], [2.0], [3.0], [4.0]], [5.0, 5.0, 5.0, 5.0])
    t = dc.grow(ds, stop=small_stop())
    assert is_leaf(t)


def test_nominal_split_groups_levels():
    ds = make_ds(
        [("c", "nominal", "input", ("a", "b", "d")), ("y", "continuous", "target")],
        [[0.0, 1.0], [1.0, 9.0], [2.0, 1.1], [0.0, 0.9], [1.0, 9.2], [2.0, 1.0]],
    )
    t = dc.grow(ds, stop=small_stop())
    assert t.nominal[0]
    assert root_levels(t) == (0, 2)
    assert dc.predict(t, np.array([1.0])) == pytest.approx(9.1)


def test_bootstrap_rows_allow_duplicates():
    ds = continuous_ds([[1.0], [2.0], [10.0]], [0.0, 0.0, 9.0])
    t = dc.grow(ds, rows=[0, 0, 0, 2, 2, 2], stop=small_stop())
    assert not is_leaf(t)
    assert dc.predict(t, np.array([1.0])) == 0.0


def test_targets_override_fits_residuals():
    ds = continuous_ds([[0.0], [1.0], [2.0], [3.0]], [5.0, 5.0, 5.0, 5.0])
    t = dc.grow(ds, targets=np.array([1.0, 1.0, -1.0, -1.0]), stop=small_stop())
    assert dc.predict(t, np.array([0.0])) == 1.0
    assert dc.predict(t, np.array([3.0])) == -1.0


def test_grow_rejects_missing_targets():
    ds = make_ds(
        [("x", "continuous", "input"), ("y", "continuous", "target")],
        [[1.0, 0.0], [2.0, 1.0]],
        missing=[[False, True], [False, False]],
    )
    with pytest.raises(DuracastError):
        dc.grow(ds, stop=small_stop())


def test_grow_rejects_zero_rows():
    ds = continuous_ds([[1.0]], [1.0])
    with pytest.raises(DuracastError):
        dc.grow(ds, rows=[])


def test_a_grower_needs_one_generator_per_sample():
    ds = continuous_ds(np.arange(24.0).reshape(12, 2), np.arange(12.0))
    with pytest.raises(ShapeError):
        tree.grower(ds)([np.arange(12)] * 2, tree.StoppingCriteria(m=1), [])


def test_a_grower_reused_across_targets_grows_what_grow_grows():
    rng = np.random.Generator(np.random.PCG64(4))
    cols = [("x%d" % j, "continuous", "input") for j in range(3)]
    missing = np.zeros((40, 4), dtype=bool)
    missing[:, :3] = rng.uniform(size=(40, 3)) < 0.1
    ds = make_ds(cols + [("y", "continuous", "target")], rng.normal(size=(40, 4)), missing)
    grow_trees = tree.grower(ds)
    for seed in range(3):
        targets = rng.normal(size=40)
        rows = rng.integers(0, 40, size=40)
        limits = tree.StoppingCriteria(min_branch=4, min_leaf=2, m=2)
        got = grow_trees([rows], limits, [np.random.Generator(np.random.PCG64(seed))], targets)
        want = dc.grow(ds, rows=rows, stop=limits, seed=seed, targets=targets)
        assert tree.tree_lines(got[0]) == tree.tree_lines(want)


@pytest.mark.parametrize("offset", [1e6, 1e8, 1e12])
def test_splits_do_not_depend_on_the_target_offset(offset):
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.uniform(0.0, 1.0, size=(200, 1))
    y = 2.0 * x[:, 0] + rng.normal(scale=0.1, size=200)
    stop = dc.StoppingCriteria(min_leaf=1, min_branch=10, surrogates=0)
    base = dc.grow(continuous_ds(x, y), stop=stop)
    moved = dc.grow(continuous_ds(x, y + offset), stop=stop)
    assert base.feature.size > 50

    def shape(t):
        return [(t.feature[i], t.threshold[i], t.missing_left[i]) if t.left[i] >= 0 else t.n[i]
                for i in range(t.feature.size)]

    assert shape(moved) == shape(base)


@pytest.mark.parametrize("value", [0.1, 1.0 / 3, -2.2, 7.7, 123.456, 1e6 + 0.1, 1e12 + 0.3])
def test_equal_targets_never_split(value):
    rng = np.random.Generator(np.random.PCG64(1))
    for n in range(2, 40):
        t = dc.grow(continuous_ds(rng.uniform(size=(n, 2)), np.full(n, value)),
                    stop=small_stop())
        assert is_leaf(t)
        assert t.risk[0] == 0.0


# ---------------------------------------------------------------------------
# oracle agreement (the full 50-dataset sweep runs in the acceptance suite)


def _random_problem(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(4, 13))
    p = int(rng.integers(1, 4))
    cols = []
    xcols = []
    nominal = []
    for j in range(p):
        if rng.uniform() < 0.3:
            n_levels = int(rng.integers(2, 5))
            cols.append(("c%d" % j, "nominal", "input",
                         tuple("v%d" % v for v in range(n_levels))))
            xcols.append(rng.integers(0, n_levels, size=n).astype(float))
            nominal.append(True)
        else:
            cols.append(("x%d" % j, "continuous", "input"))
            # duplicate-heavy grid keeps threshold handling honest
            xcols.append(rng.integers(0, 6, size=n) / 2.0)
            nominal.append(False)
    cols.append(("y", "continuous", "target"))
    y = rng.normal(size=n)
    ds = make_ds(cols, np.column_stack(xcols + [y]))
    return ds, [list(row) for row in np.column_stack(xcols)], list(y), nominal


@pytest.mark.parametrize("seed", range(8))
def test_matches_brute_force_reference(seed):
    ds, x, y, nominal = _random_problem(seed)
    rng = np.random.Generator(np.random.PCG64(seed + 1000))
    min_leaf = int(rng.integers(1, 3))
    min_branch = max(2 * min_leaf, int(rng.integers(2, 7)))
    t = dc.grow(ds, stop=dc.StoppingCriteria(min_leaf=min_leaf, min_branch=min_branch))
    ref = grow_reference(x, y, nominal, min_leaf=min_leaf, min_branch=min_branch)
    ours = dc.predict_batch(t, ds.input_matrix())
    theirs = np.array([predict_reference(ref, row) for row in x])
    assert float(np.mean((ours - np.array(y)) ** 2)) == float(
        np.mean((theirs - np.array(y)) ** 2)
    )


def _nominal_problem(seed, n_levels, n):
    """A nominal column over n rows that uses at least two of its levels."""
    rng = np.random.Generator(np.random.PCG64(seed))
    codes = rng.integers(0, n_levels, size=n)
    codes[:2] = rng.choice(n_levels, size=2, replace=False)
    return rng, codes


_LEVELS = st.one_of(st.integers(2, 8), st.just(12))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_levels=_LEVELS, n=st.integers(12, 60))
def test_nominal_root_split_is_the_exhaustive_optimum(seed, n_levels, n):
    rng, codes = _nominal_problem(seed, n_levels, n)
    y = rng.normal(size=n) + rng.normal(scale=2.0, size=n_levels)[codes]
    cols = [("c", "nominal", "input", tuple("v%d" % v for v in range(n_levels))),
            ("y", "continuous", "target")]
    t = dc.grow(make_ds(cols, np.column_stack([codes, y])), stop=small_stop(max_splits=1))
    best = best_level_split_gain(codes.tolist(), y.tolist())
    assert root_gain(t) == pytest.approx(best, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_levels=_LEVELS, n=st.integers(12, 60))
def test_nominal_surrogate_is_the_best_level_set(seed, n_levels, n):
    rng, codes = _nominal_problem(seed, n_levels, n)
    # The target is the continuous column itself, so no level set beats its
    # split; one that ties it to the last bit may still be chosen.
    x0 = rng.uniform(size=n_levels)[codes] + rng.uniform(0.0, 1.0) * rng.normal(size=n)
    cols = [("x", "continuous", "input"),
            ("c", "nominal", "input", tuple("v%d" % v for v in range(n_levels))),
            ("y", "continuous", "target")]
    ds = make_ds(cols, np.column_stack([x0, codes, x0]))
    t = dc.grow(ds, stop=small_stop(max_splits=1))
    assume(t.feature[0] == 0)
    best = best_level_association(codes.tolist(), (x0 < t.threshold[0]).tolist())
    if best <= 0.0:
        assert t.surr[1] == 0
        return
    assert t.surr[1] == 1
    xi = t.xi[0]
    assert t.surr_nominal[0] and xi == pytest.approx(best, rel=1e-9)
    levels = t.surr_codes[t.surr_levels[0]:t.surr_levels[1]].tolist()
    assert xi == dc.association(ds, (0, t.threshold[0], None),
                                (t.surr_feature[0], np.nan, levels))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_levels=st.integers(3, 6), n=st.integers(10, 29),
       min_leaf=st.integers(2, 4))
def test_with_min_leaf_a_nominal_split_is_the_best_contiguous_in_mean_order(
        seed, n_levels, n, min_leaf):
    # With min_leaf above 1 the best allowed split need not be contiguous in
    # mean order; the search keeps to those that are (see the module doc).
    rng, codes = _nominal_problem(seed, n_levels, n)
    y = rng.normal(size=n) + rng.normal(scale=2.0, size=n_levels)[codes]
    cols = [("c", "nominal", "input", tuple("v%d" % v for v in range(n_levels))),
            ("y", "continuous", "target")]
    stop = dc.StoppingCriteria(min_leaf=min_leaf, min_branch=2 * min_leaf, max_splits=1)
    t = dc.grow(make_ds(cols, np.column_stack([codes, y])), stop=stop)
    best = best_mean_ordered_split_gain(codes.tolist(), y.tolist(), min_leaf)
    if best is None or best <= 0.0:
        assert is_leaf(t)
    else:
        assert root_gain(t) == pytest.approx(best, rel=1e-9)


# ---------------------------------------------------------------------------
# the level-wise kernel against the preorder reference grower


@st.composite
def growth_problems(draw):
    """A dataset with nan cells and nominal columns of 2-6 levels, training
    rows (all, or a bootstrap draw with duplicates), limits and a seed."""
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    n, p = draw(st.integers(2, 40)), draw(st.integers(1, 4))
    cols, xcols = [], []
    for j in range(p):
        n_levels = draw(st.sampled_from([0, 2, 3, 4, 5, 6]))
        if n_levels:
            cols.append(("c%d" % j, "nominal", "input",
                         tuple("v%d" % v for v in range(n_levels))))
            xcols.append(rng.integers(0, n_levels, size=n).astype(float))
        else:
            cols.append(("x%d" % j, "continuous", "input"))
            xcols.append(rng.integers(0, draw(st.integers(2, 12)), size=n) / 2.0)
    y = rng.normal(size=n).round(draw(st.sampled_from([1, 8])))
    values = np.column_stack(xcols + [y])
    missing = np.zeros(values.shape, dtype=bool)
    missing[:, :-1] = rng.uniform(size=(n, p)) < draw(st.sampled_from([0.0, 0.1, 0.3]))
    ds = make_ds(cols + [("y", "continuous", "target")], values, missing)
    rows = rng.integers(0, n, size=n) if draw(st.booleans()) else None
    min_leaf = draw(st.integers(1, 4))
    stop = dc.StoppingCriteria(
        min_leaf=min_leaf, min_branch=draw(st.integers(2 * min_leaf, 2 * min_leaf + 8)),
        surrogates=draw(st.integers(0, 5)), m=draw(st.one_of(st.none(), st.integers(1, p))),
        max_splits=draw(st.one_of(st.none(), st.integers(0, 8))))
    return ds, rows, stop, draw(st.integers(0, 1000))


@settings(max_examples=200, deadline=None)
@given(growth_problems())
def test_the_kernel_grows_the_preorder_reference_tree(problem):
    ds, rows, stop, seed = problem
    grown = tree.grow(ds, rows=rows, stop=stop, seed=seed)
    reference = grow_preorder(ds, rows=rows, stop=stop, seed=seed)
    assert tree.tree_lines(grown) == tree.tree_lines(reference)


# ---------------------------------------------------------------------------
# surrogates and missing values


def _correlated_ds():
    rng = np.random.Generator(np.random.PCG64(3))
    n = 60
    x0 = rng.uniform(0, 1, size=n)
    x1 = x0 + rng.normal(scale=0.01, size=n)
    y = np.where(x0 < 0.5, 0.0, 10.0) + rng.normal(scale=0.1, size=n)
    return continuous_ds(np.column_stack([x0, x1]), y, names=["a", "b"])


def test_surrogate_tracks_a_correlated_feature():
    t = dc.grow(_correlated_ds(), stop=small_stop(max_splits=1))
    assert t.feature[0] == 0
    assert t.surr[1] == 1
    assert t.surr_feature[0] == 1
    assert t.xi[0] > 0.9


def test_missing_primary_routes_through_surrogate():
    t = dc.grow(_correlated_ds(), stop=small_stop(max_splits=1))
    low = dc.predict(t, np.array([np.nan, 0.1]))
    high = dc.predict(t, np.array([np.nan, 0.9]))
    assert low < 1.0
    assert high > 9.0


def test_missing_everything_falls_back_to_majority():
    ds = continuous_ds([[1.0], [2.0], [3.0], [10.0]], [0.0, 0.0, 0.0, 9.0])
    t = dc.grow(ds, stop=small_stop())
    # three of four observed rows go left, so missing goes left
    assert t.missing_left[0]
    assert dc.predict(t, np.array([np.nan])) == 0.0


def test_association_of_perfect_and_inverted_mimics():
    ds = continuous_ds(
        [[0.0, 0.0, 1.0], [0.2, 0.1, 0.9], [0.8, 0.9, 0.2], [1.0, 1.0, 0.0]],
        [0.0, 0.0, 1.0, 1.0],
        names=["a", "b", "anti"],
    )
    best, agree, invert = (0, 0.5, None), (1, 0.5, None), (2, 0.5, None)
    assert dc.association(ds, best, agree) == pytest.approx(1.0)
    assert dc.association(ds, best, invert) == pytest.approx(-1.0)


def test_association_excludes_rows_missing_either_feature():
    ds = make_ds(
        [
            ("a", "continuous", "input"),
            ("b", "continuous", "input"),
            ("y", "continuous", "target"),
        ],
        [[0.0, 0.0, 0.0], [0.4, 0.3, 0.0], [0.6, 0.9, 1.0], [1.0, 1.0, 1.0]],
        missing=[
            [False, False, False],
            [False, True, False],
            [False, False, False],
            [False, False, False],
        ],
    )
    best, cand = (0, 0.5, None), (1, 0.5, None)
    # only 3 rows count: halves are 1/3 and 2/3, and the candidate agrees
    # everywhere, so the association is 1
    assert dc.association(ds, best, cand) == pytest.approx(1.0)


def test_association_undefined_for_one_sided_rule():
    ds = continuous_ds([[0.0, 0.5], [1.0, 0.5]], [0.0, 1.0], names=["a", "b"])
    one_sided, cand = (0, 5.0, None), (1, 0.5, None)
    with pytest.raises(DuracastError) as err:
        dc.association(ds, one_sided, cand)
    assert err.value.code == "undefined-association"


# ---------------------------------------------------------------------------
# persistence


def test_text_round_trip_preserves_predictions():
    ds = _correlated_ds()
    t = dc.grow(ds, stop=small_stop())
    text = tree.to_text(t)
    again = tree.from_text(text)
    grid = np.column_stack([
        np.linspace(-0.2, 1.2, 101),
        np.linspace(1.2, -0.2, 101),
    ])
    assert np.array_equal(dc.predict_batch(t, grid), dc.predict_batch(again, grid))
    # missing-value routing survives the round trip too
    probe = np.array([np.nan, 0.05])
    assert dc.predict(t, probe) == dc.predict(again, probe)


def test_serialized_trees_are_byte_stable(tmp_path):
    ds = _correlated_ds()
    t = dc.grow(ds, stop=small_stop())
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    p1.write_text(tree.to_text(t))
    p2.write_text(tree.to_text(t))
    assert p1.read_bytes() == p2.read_bytes()


def test_nominal_rules_round_trip():
    ds = make_ds(
        [("c", "nominal", "input", ("a", "b", "d")), ("y", "continuous", "target")],
        [[0.0, 1.0], [1.0, 9.0], [2.0, 1.1], [0.0, 0.9], [1.0, 9.2], [2.0, 1.0]],
    )
    t = dc.grow(ds, stop=small_stop())
    again = tree.from_text(tree.to_text(t))
    for level in (0.0, 1.0, 2.0):
        assert dc.predict(t, np.array([level])) == dc.predict(again, np.array([level]))


def test_rejects_malformed_tree_text():
    with pytest.raises(DuracastError):
        tree.from_text("not a tree\n")


LEAF_LINES = "node 1 leaf 0 1\nnode 2 leaf 1 1\n"


@pytest.mark.parametrize(
    "body",
    [
        pytest.param("node 0 split 0 0.5 left 1 right 3\n" + LEAF_LINES, id="missing-child"),
        pytest.param("node 0 split 0 0.5 left 0 right 1\nnode 1 leaf 0 1\n", id="self-cycle"),
        pytest.param("node 0 split 0 0.5 left 1 right 1\nnode 1 leaf 0 1\n", id="shared-child"),
        pytest.param("node x leaf 0 1\n", id="bad-id"),
        pytest.param("node 0 leaf 0\n", id="short-leaf"),
        pytest.param("node 0 split 0 0.5 left 1\n" + LEAF_LINES, id="short-split"),
        pytest.param("node 0 split -1 0.5 left 1 right 2\n" + LEAF_LINES, id="negative-feature"),
        pytest.param("node 0 split 0 in:a|b left 1 right 2\n" + LEAF_LINES, id="bad-levels"),
        pytest.param("node 0 split 0 in:0|-1 left 1 right 2\n" + LEAF_LINES,
                     id="negative-level"),
        pytest.param("node 0 split 0 in:2147483648 left 1 right 2\n" + LEAF_LINES,
                     id="huge-level"),
        pytest.param("node 0 split 0 0.5 left 1 right 2\n" + LEAF_LINES + "surrogate 0 1\n",
                     id="short-surrogate"),
        pytest.param("node 0 split 0 0.5 left 1 right 2\n" + LEAF_LINES + "info 0 risk\n",
                     id="short-info"),
        pytest.param("node 0 bud 0 1\n", id="bad-node-kind"),
        pytest.param("leaf\n", id="unknown-line"),
        pytest.param("node 1 leaf 0 1\n", id="no-root"),
    ],
)
def test_malformed_tree_text_raises_parse_error(body):
    with pytest.raises(ParseError):
        tree.from_text("tree v1\n" + body)


@pytest.mark.parametrize("body, message", [
    ("node 0 split 0 0.5 left 1 right 3\n" + LEAF_LINES, "serialized tree has no node 3"),
    ("node 0 split 0 0.5 left 0 right 1\nnode 1 leaf 0 1\n", "node 0 is reached twice"),
    ("node 0 split 0 0.5 left 1 right 1\nnode 1 leaf 0 1\n", "node 1 is reached twice"),
    ("node 0 split -1 0.5 left 1 right 2\n" + LEAF_LINES,
     "bad tree line 'node 0 split -1 0.5 left 1 right 2': negative feature index"),
    ("node 0 leaf 0\n", "bad tree line 'node 0 leaf 0': list index out of range"),
    ("node 0 split 0 in:1|x left 1 right 2\n" + LEAF_LINES,
     "bad split rule 'in:1|x': invalid literal for int() with base 10: 'x'"),
    ("node 0 leaf 0 1\nnode 3 leaf 1 1\ninfo 3 risk 0.5\n",
     "info or surrogate line for node 3, unreached or a leaf"),
    ("node 0 split 0 0.5 left 1 right 2\n" + LEAF_LINES + "surrogate 4 1 0.5 0.9\n",
     "info or surrogate line for node 4, unreached or a leaf"),
    ("node 0 split 0 0.5 left 1 right 2\n" + LEAF_LINES + "surrogate 2 1 0.5 0.9\n",
     "info or surrogate line for node 2, unreached or a leaf"),
], ids=["missing-child", "cycle", "shared-child", "negative-feature", "short-line", "bad-levels",
        "info-of-unreached-node", "surrogate-of-unreached-node", "surrogate-of-leaf"])
def test_hostile_tree_text_names_its_fault(body, message):
    with pytest.raises(ParseError) as err:
        tree.from_text("tree v1\n" + body)
    assert str(err.value) == message


def test_deep_trees_parse_walk_and_route_without_recursion():
    depth = 3000
    lines = ["tree v1"]
    for d in range(depth):
        lines.append("node %d split 0 %d left %d right %d" % (2 * d, d, 2 * d + 1, 2 * d + 2))
        lines.append("node %d leaf %d 1" % (2 * d + 1, d))
    lines.append("node %d leaf %d 1" % (2 * depth, depth))
    text = "\n".join(lines) + "\n"
    t = tree.from_text(text)
    assert t.feature.size == 2 * depth + 1
    x = np.array([[-1.0], [10.5], [depth + 1.0]])
    assert list(dc.predict_batch(t, x)) == [0.0, 11.0, float(depth)]
    again = tree.from_text(tree.to_text(t))
    assert list(dc.predict_batch(again, x)) == [0.0, 11.0, float(depth)]


def test_a_tree_grown_on_a_wide_nominal_reloads():
    rng = np.random.Generator(np.random.PCG64(5))
    n = 1200
    codes = rng.permutation(n).astype(float)
    x0 = rng.normal(size=n)
    cols = [("x", "continuous", "input"),
            ("c", "nominal", "input", tuple("v%d" % v for v in range(n))),
            ("y", "continuous", "target")]
    ds = make_ds(cols, np.column_stack([x0, codes, codes % 7 + 0.1 * x0]))
    t = dc.grow(ds, stop=small_stop(surrogates=3))
    assert t.nominal.any() and t.surr_nominal.any()
    again = tree.from_text(tree.to_text(t))
    assert tree.to_text(again) == tree.to_text(t)
    x = ds.input_matrix()
    assert np.array_equal(dc.predict_batch(again, x), dc.predict_batch(t, x))


def test_predict_batch_rejects_inputs_narrower_than_the_splits():
    t = dc.grow(_correlated_ds(), stop=small_stop(max_splits=1))
    with pytest.raises(ShapeError):
        dc.predict_batch(t, np.zeros((3, 1)))

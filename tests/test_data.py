import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import duracast as dc
from duracast.data import segment_means, segment_sums
from duracast.errors import DomainError, DuracastError, UnfillableGap

from helpers import continuous_ds, make_ds
from oracles import moving_average_fill_reference


# ---------------------------------------------------------------------------
# schema and ingestion


def test_schema_round_trip_with_comma_levels(tmp_path):
    sch = dc.schema([
        ("binder", "nominal", "input", ("CEM I 52,5 N", "CEM III/A")),
        ("depth", "continuous", "target"),
    ])
    path = tmp_path / "s.csv"
    path.write_text('binder,nominal,input,"CEM I 52,5 N;CEM III/A"\ndepth,continuous,target\n')
    again = dc.read_schema(path)
    assert again == sch


def test_schema_requires_exactly_one_target():
    with pytest.raises(DuracastError):
        dc.schema([("a", "continuous", "input")])
    with pytest.raises(DuracastError):
        dc.schema([
            ("a", "continuous", "target"),
            ("b", "continuous", "target"),
        ])


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_ingest_round_trip(tmp_path):
    sch = dc.schema([
        ("x", "continuous", "input"),
        ("y", "continuous", "target"),
    ])
    p = _write(tmp_path / "d.csv", "x,y\n1,2\n3,4\n5.5,6\n")
    ds = dc.ingest_csv(p, sch)
    assert ds.n_rows == 3
    assert ds.values[2, 0] == 5.5


def test_ingest_quoted_nominal_level_with_comma(tmp_path):
    sch = dc.schema([
        ("binder", "nominal", "input", ("CEM I 52,5 N", "other")),
        ("y", "continuous", "target"),
    ])
    p = _write(tmp_path / "d.csv", 'binder,y\n"CEM I 52,5 N",1\nother,2\n')
    ds = dc.ingest_csv(p, sch)
    assert ds.values[0, 0] == 0.0
    assert ds.values[1, 0] == 1.0


def test_ingest_empty_cell_is_missing(tmp_path):
    sch = dc.schema([
        ("x", "continuous", "input"),
        ("y", "continuous", "target"),
    ])
    ds = dc.ingest_csv(_write(tmp_path / "d.csv", "x,y\n,2\n3,4\n"), sch)
    assert ds.missing[0, 0]
    assert not ds.missing[1, 0]


def test_ingest_unknown_level_names_row_and_column(tmp_path):
    sch = dc.schema([
        ("c", "nominal", "input", ("a", "b")),
        ("y", "continuous", "target"),
    ])
    with pytest.raises(DuracastError) as err:
        dc.ingest_csv(_write(tmp_path / "d.csv", "c,y\na,1\nz,2\n"), sch)
    assert err.value.code == "schema-violation"
    assert "c" in str(err.value) and "2" in str(err.value)


def test_ingest_bad_number_names_row_and_column(tmp_path):
    sch = dc.schema([
        ("x", "continuous", "input"),
        ("y", "continuous", "target"),
    ])
    with pytest.raises(DuracastError) as err:
        dc.ingest_csv(_write(tmp_path / "d.csv", "x,y\nabc,1\n"), sch)
    assert err.value.code == "parse-error"
    assert "x" in str(err.value)


def test_ingest_missing_file_is_io_error(tmp_path):
    sch = dc.schema([("y", "continuous", "target")])
    with pytest.raises(DuracastError) as err:
        dc.ingest_csv(str(tmp_path / "absent.csv"), sch)
    assert err.value.code == "io-error"


def test_ingest_header_must_match(tmp_path):
    sch = dc.schema([
        ("x", "continuous", "input"),
        ("y", "continuous", "target"),
    ])
    with pytest.raises(DuracastError):
        dc.ingest_csv(_write(tmp_path / "d.csv", "x,z\n1,2\n"), sch)


_THREE = [("x", "continuous", "input"), ("c", "nominal", "input", ("a", "b")),
          ("y", "continuous", "target")]


@pytest.mark.parametrize("body, code, message", [
    ("1,a,abc\n2,b\n", "parse-error", "row 1, column 'y': cannot parse 'abc' as a number"),
    ("1,a\n2,b,abc\n", "parse-error", "row 1 has 2 fields, expected 3"),
    ("1,a,2\n3,z,4\n5,b\n", "schema-violation", "row 2, column 'c': unknown level 'z'"),
    ("1,a,inf\nnan,z,4\n", "parse-error", "row 1, column 'y': non-finite value 'inf'"),
    ("1,a,2\nx,z,nan\n", "parse-error", "row 2, column 'x': cannot parse 'x' as a number"),
    ("1,a,2\n3,z,nan\n", "schema-violation", "row 2, column 'c': unknown level 'z'"),
    ("1,a,2\n3, b ,1e400\n", "parse-error", "row 2, column 'y': non-finite value '1e400'"),
], ids=["bad-cell-before-short-row", "short-row-before-bad-cell", "level-before-short-row",
        "first-row-wins", "first-column-wins", "level-before-number", "overflow"])
def test_ingest_reports_the_first_fault_in_row_order(tmp_path, body, code, message):
    with pytest.raises(DuracastError) as err:
        dc.ingest_csv(_write(tmp_path / "d.csv", "x,c,y\n" + body), dc.schema(_THREE))
    assert (err.value.code, str(err.value)) == (code, message)


def test_ingest_reads_levels_numbers_and_empty_cells_by_column(tmp_path):
    ds = dc.ingest_csv(_write(tmp_path / "d.csv", "x,c,y\n1, a ,2\n,b,\n"), dc.schema(_THREE))
    assert ds.values.tolist() == [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]
    assert ds.missing.tolist() == [[False, False, False], [True, False, True]]


# ---------------------------------------------------------------------------
# indicator encoding


def test_indicator_encoding_first_of_eight_levels():
    levels = tuple("level%d" % i for i in range(8))
    ds = make_ds(
        [("binder", "nominal", "input", levels), ("y", "continuous", "target")],
        [[0.0, 1.0]],
    )
    enc = dc.encode_one_of_n(ds)
    row = enc.values[0, :8]
    assert list(row) == [1, 0, 0, 0, 0, 0, 0, 0]


def test_indicator_encoding_last_of_three_levels():
    ds = make_ds(
        [
            ("curing", "nominal", "input", ("Uncontrolled", "Controlled", "Wet")),
            ("y", "continuous", "target"),
        ],
        [[2.0, 1.0]],
    )
    enc = dc.encode_one_of_n(ds)
    assert list(enc.values[0, :3]) == [0, 0, 1]
    assert enc.schema.names[:3] == (
        "curing=Uncontrolled",
        "curing=Controlled",
        "curing=Wet",
    )


def test_indicator_encoding_missing_cell_stays_missing():
    ds = make_ds(
        [("c", "nominal", "input", ("a", "b")), ("y", "continuous", "target")],
        [[0.0, 1.0]],
        missing=[[True, False]],
    )
    enc = dc.encode_one_of_n(ds)
    assert enc.missing[0, 0] and enc.missing[0, 1]


def test_indicator_encoding_identity_without_nominals():
    ds = continuous_ds([[1.0], [2.0]], [3.0, 4.0])
    enc = dc.encode_one_of_n(ds)
    assert enc.schema == ds.schema
    assert np.array_equal(enc.values, ds.values)


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=30))
def test_indicator_rows_sum_to_one(codes):
    ds = make_ds(
        [("c", "nominal", "input", ("p", "q", "r", "s")), ("y", "continuous", "target")],
        [[float(c), 0.0] for c in codes],
    )
    enc = dc.encode_one_of_n(ds)
    assert np.all(enc.values[:, :4].sum(axis=1) == 1.0)


# ---------------------------------------------------------------------------
# normalization


def test_normalization_maps_train_extremes_to_bounds():
    ds = continuous_ds([[0.0], [5.0], [10.0]], [0.0, 0.0, 0.0])
    spec = dc.fit_normalization(ds, train_rows=[0, 1, 2])
    scaled = dc.apply_normalization(spec, ds.values)
    assert scaled[0, 0] == -1.0
    assert scaled[2, 0] == 1.0
    assert scaled[1, 0] == 0.0


def test_normalization_learned_from_train_rows_only():
    ds = continuous_ds([[0.0], [10.0], [20.0]], [0.0, 0.0, 0.0])
    spec = dc.fit_normalization(ds, train_rows=[0, 1])
    scaled = dc.apply_normalization(spec, ds.values)
    # the row outside the training range maps beyond the nominal bounds
    assert scaled[2, 0] == pytest.approx(3.0)


def test_degenerate_column_passes_through():
    ds = continuous_ds([[7.0], [7.0]], [1.0, 2.0])
    spec = dc.fit_normalization(ds, train_rows=[0, 1])
    scaled = dc.apply_normalization(spec, ds.values)
    assert scaled[0, 0] == 7.0


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=30,
    )
)
def test_normalization_round_trip(values):
    vals = np.array(values)
    ds = continuous_ds(vals[:, None], np.zeros(len(vals)))
    spec = dc.fit_normalization(ds, train_rows=list(range(len(vals))))
    back = dc.invert_normalization(spec, dc.apply_normalization(spec, ds.values))
    assert np.allclose(back[:, 0], vals, rtol=0, atol=1e-9 * max(1.0, np.abs(vals).max()))


# ---------------------------------------------------------------------------
# moving-average fill


def test_fill_replaces_gap_with_window_mean():
    out = dc.moving_average_fill(np.array([1.0, np.nan, 3.0]), 1)
    assert out[1] == pytest.approx(2.0)


def test_fill_never_alters_observed_values():
    series = np.array([1.0, np.nan, 3.0, 9.0, np.nan, 2.0, 1.0])
    out = dc.moving_average_fill(series, 1)
    obs = ~np.isnan(series)
    assert np.array_equal(out[obs], series[obs])


def test_fill_window_truncates_at_the_boundary():
    series = np.array([np.nan, 4.0, 8.0, 1.0, 1.0])
    # radius at index 0 truncates to 0, so the window holds only the
    # missing cell itself
    assert np.isnan(dc.moving_average_fill(series, 2, empty_window="keep")[0])
    with pytest.raises(DuracastError) as err:
        dc.moving_average_fill(series, 2)
    assert err.value.code == "unfillable-gap"


def test_fill_rejects_short_series():
    with pytest.raises(DuracastError):
        dc.moving_average_fill(np.array([1.0, 2.0]), 1)


def test_fill_smooth_mode_touches_everything():
    series = np.array([0.0, 3.0, 0.0, 3.0, 0.0])
    out = dc.moving_average_fill(series, 1, smooth=True)
    assert out[2] == pytest.approx(2.0)


def test_unfillable_gap_names_the_point_and_the_gap_span():
    series = np.array([1.0, 2.0, np.nan, np.nan, np.nan, np.nan, np.nan, 7.0, 8.0])
    with pytest.raises(UnfillableGap) as err:
        dc.moving_average_fill(series, 1)
    # point 2 still reaches index 1; point 3 is the first with no neighbour
    assert str(err.value) == (
        "no observed value within the window of point 3 (gap spans 2..6)"
    )
    with pytest.raises(UnfillableGap) as err:
        dc.moving_average_fill(np.array([np.nan, np.nan, np.nan, 4.0, 5.0]), 1)
    assert str(err.value) == (
        "no observed value within the window of point 0 (gap spans 0..2)"
    )


def _wide_range_series(rng, n, nan_share):
    """Values spread over nine decades with both signs, so a sum taken in
    another order would round differently."""
    x = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 6.0, size=n)
    x[rng.uniform(size=n) < nan_share] = np.nan
    return x


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_extra=st.integers(0, 280),
    m=st.integers(1, 12),
    nan_share=st.floats(0.0, 0.6),
    smooth=st.booleans(),
    empty_window=st.sampled_from(["keep", "error"]),
)
def test_fill_equals_the_pointwise_loop_bit_for_bit(seed, n_extra, m, nan_share, smooth,
                                                    empty_window):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = _wide_range_series(rng, 2 * m + 1 + n_extra, nan_share)
    try:
        expected = moving_average_fill_reference(x, m, smooth, empty_window)
    except UnfillableGap as exc:
        with pytest.raises(UnfillableGap) as err:
            dc.moving_average_fill(x, m, smooth, empty_window)
        assert str(err.value) == str(exc)
        return
    out = dc.moving_average_fill(x, m, smooth, empty_window)
    assert np.array_equal(out, expected, equal_nan=True)
    assert np.array_equal(np.signbit(out), np.signbit(expected))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_len=st.integers(1, 300))
def test_segment_sums_equal_slice_sums(seed, max_len):
    rng = np.random.Generator(np.random.PCG64(seed))
    # Few distinct lengths, so that runs of equal lengths share a block.
    lengths = np.sort(rng.choice(rng.integers(1, max_len + 1, size=3), size=rng.integers(1, 30)))
    values = np.stack([_wide_range_series(rng, int(lengths.sum()), 0.0) for _ in range(2)])
    sums = segment_sums(values, lengths)
    for k, s in enumerate(np.cumsum(lengths) - lengths):
        window = values[:, s:s + lengths[k]]
        assert np.array_equal(sums[:, k], window.sum(-1))
        assert [sums[0, k], sums[1, k]] == [window[0].sum(), window[1].sum()]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_len=st.integers(1, 300), size=st.integers(0, 30))
def test_segment_means_equal_slice_means(seed, max_len, size):
    """Windows in any order, overlapping or none at all, of one series and
    of a two-row stack."""
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = rng.integers(1, max_len + 1, size=size)
    values = np.stack([_wide_range_series(rng, max_len + 5, 0.0) for _ in range(2)])
    starts = rng.integers(0, values.shape[1] - counts + 1)
    means = segment_means(values, starts, counts)
    assert means.shape == (2, size)
    assert np.array_equal(segment_means(values[1], starts, counts), means[1])
    for k, (s, c) in enumerate(zip(starts, counts)):
        window = values[:, s:s + c]
        assert np.array_equal(means[:, k], window.mean(-1))
        assert [means[0, k], means[1, k]] == [window[0].mean(), window[1].mean()]


# ---------------------------------------------------------------------------
# partitioning


def test_holdout_uses_largest_remainder_sizes():
    part = dc.split_holdout(10, (0.6, 0.2, 0.2), seed=0)
    assert (len(part.train), len(part.validation), len(part.test)) == (6, 2, 2)


def test_holdout_parts_cover_and_never_overlap():
    part = dc.split_holdout(23, (0.5, 0.3, 0.2), seed=5)
    rows = sorted(part.train + part.validation + part.test)
    assert rows == list(range(23))


def test_holdout_zero_fraction_gives_empty_part():
    part = dc.split_holdout(8, (0.75, 0.0, 0.25), seed=1)
    assert part.validation == ()


def test_holdout_rejects_bad_fractions():
    with pytest.raises(DuracastError):
        dc.split_holdout(10, (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(DuracastError):
        dc.split_holdout(2, (0.4, 0.3, 0.3), seed=0)
    with pytest.raises(DomainError):
        dc.split_holdout(10, (0.7, float("nan"), 0.3), seed=0)


@pytest.mark.parametrize("n, fractions", [(10, (0.5, 0.5, 0.0)), (10, (0.98, 0.01, 0.01))])
def test_holdout_rejects_an_empty_test_part(n, fractions):
    with pytest.raises(DuracastError) as err:
        dc.split_holdout(n, fractions, seed=0)
    assert err.value.code == "domain-error" and "test split empty" in str(err.value)


def test_holdout_is_deterministic():
    a = dc.split_holdout(40, (0.7, 0.15, 0.15), seed=7)
    b = dc.split_holdout(40, (0.7, 0.15, 0.15), seed=7)
    assert a == b


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=12, max_value=60))
def test_kfold_sizes_differ_by_at_most_one(k, n):
    assign = np.asarray(dc.kfold(n, k, seed=3).folds)
    sizes = [int(np.sum(assign == f)) for f in range(k)]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1


def test_kfold_rejects_out_of_range_k():
    with pytest.raises(DuracastError) as err:
        dc.kfold(5, 6)
    assert err.value.code == "invalid-k"
    with pytest.raises(DuracastError):
        dc.kfold(5, 1)


# ---------------------------------------------------------------------------
# row and column selection


def test_drop_columns_protects_the_target():
    ds = continuous_ds([[1.0, 2.0]], [3.0], names=["a", "b"])
    sub = dc.drop_columns(ds, ["b"])
    assert sub.schema.names == ("a", "y")
    with pytest.raises(DuracastError):
        dc.drop_columns(ds, ["y"])

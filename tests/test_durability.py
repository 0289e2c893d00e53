import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duracast import durability as dur
from duracast.errors import DomainError, ShapeError

from oracles import ppm_reference, risk_grid_reference


def sample(ts, t=10.0, rh=0.5, missing=False):
    if missing:
        return dur.HygroSample(timestamp=ts, missing=True)
    return dur.HygroSample(timestamp=ts, t_celsius=t, rh=rh)


# ---------------------------------------------------------------------------
# factors


def test_temperature_factor_reference_points():
    assert dur.temperature_factor(20.0) == pytest.approx(1.0)
    assert dur.temperature_factor(0.0) == pytest.approx(1.6e-7 * 30.0**4)
    assert dur.temperature_factor(-30.0) == 0.0


def test_temperature_factor_clamps_below_minus_thirty():
    # the quartic would rise again for colder values; it must stay at zero
    assert dur.temperature_factor(-60.0) == 0.0
    arr = dur.temperature_factor(np.array([-60.0, -30.0, 20.0]))
    assert np.array_equal(arr, [0.0, 0.0, 1.0])


def test_humidity_factor_branches():
    assert dur.humidity_factor(0.95) == pytest.approx(190.0 * 0.95**26)
    assert dur.humidity_factor(0.96) == pytest.approx(2000.0 * 0.04**2)
    assert dur.humidity_factor(1.0) == 0.0
    assert dur.humidity_factor(0.0) == 0.0


def test_humidity_factor_rejects_out_of_range_values():
    with pytest.raises(DomainError):
        dur.humidity_factor(1.2)
    with pytest.raises(DomainError):
        dur.humidity_factor(-0.1)


def test_corrosion_rate_is_the_factor_product():
    t, rh = 25.0, 0.9
    rate = dur.corrosion_rate(t, rh)
    assert rate == pytest.approx(dur.temperature_factor(t) * dur.humidity_factor(rh))


def test_corrosion_rate_warns_when_clamping():
    import warnings as w

    with pytest.warns(UserWarning):
        dur.corrosion_rate(-45.0, 0.9)
    with w.catch_warnings(record=True) as record:
        w.simplefilter("always")
        dur.corrosion_rate(-20.0, 0.9)
    assert record == []


# ---------------------------------------------------------------------------
# classification


def test_corrosion_bands_and_boundaries():
    cases = {
        0.5: dur.CorrosionStatus.Passive,
        0.999: dur.CorrosionStatus.Passive,
        1.0: dur.CorrosionStatus.Low,
        5.0: dur.CorrosionStatus.Low,
        5.001: dur.CorrosionStatus.Moderate,
        7.0: dur.CorrosionStatus.Moderate,
        10.0: dur.CorrosionStatus.Moderate,
        10.001: dur.CorrosionStatus.High,
        12.0: dur.CorrosionStatus.High,
    }
    for rate, expect in cases.items():
        assert dur.classify_corrosion(rate) is expect


def test_corrosion_band_input_validation():
    with pytest.raises(DomainError):
        dur.classify_corrosion(-0.5)
    with pytest.raises(DomainError):
        dur.classify_corrosion(float("nan"))


def test_frost_bands():
    assert dur.classify_frost(0.5) is dur.RiskLevel.Insignificant
    assert dur.classify_frost(0.8499) is dur.RiskLevel.Insignificant
    assert dur.classify_frost(0.85) is dur.RiskLevel.Medium
    assert dur.classify_frost(0.90) is dur.RiskLevel.Medium
    assert dur.classify_frost(0.9799) is dur.RiskLevel.Medium
    assert dur.classify_frost(0.98) is dur.RiskLevel.High
    assert dur.classify_frost(0.99) is dur.RiskLevel.High


def test_chemical_bands_use_the_slight_middle():
    assert dur.classify_chemical(0.5) is dur.RiskLevel.Insignificant
    assert dur.classify_chemical(0.90) is dur.RiskLevel.Slight
    assert dur.classify_chemical(0.99) is dur.RiskLevel.High


@given(st.floats(min_value=0.0, max_value=1.0))
def test_humidity_classifiers_are_total_on_the_unit_interval(rh):
    assert dur.classify_frost(rh) in dur.RiskLevel
    assert dur.classify_chemical(rh) in dur.RiskLevel


@given(st.floats(-40.0, 60.0), st.floats(0.0, 1.0))
def test_scalar_and_array_rates_agree_bit_for_bit(t, rh):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scalar = dur.corrosion_rate(t, rh)
        array = dur.corrosion_rate(np.array([t]), np.array([rh]))
    assert scalar == array[0]


def test_factors_of_a_long_array_equal_the_scalar_calls():
    rng = np.random.Generator(np.random.PCG64(5))
    t = rng.uniform(-40.0, 60.0, size=4000)
    rh = rng.uniform(0.0, 1.0, size=4000)
    c_t = dur.temperature_factor(t)
    r_o = dur.humidity_factor(rh)
    assert all(c_t[i] == dur.temperature_factor(t[i]) for i in range(t.size))
    assert all(r_o[i] == dur.humidity_factor(rh[i]) for i in range(rh.size))


@given(st.floats(min_value=-100.0, max_value=100.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_corrosion_rate_is_finite_and_nonnegative(t, rh):
    import warnings as w

    with w.catch_warnings():
        w.simplefilter("ignore")
        rate = dur.corrosion_rate(t, rh)
    assert np.isfinite(rate)
    assert rate >= 0.0


def test_sample_validation():
    with pytest.raises(DomainError):
        dur.HygroSample(timestamp=float("inf"), t_celsius=1.0, rh=0.5)
    with pytest.raises(DomainError):
        dur.HygroSample(timestamp=0.0, t_celsius=float("nan"), rh=0.5)
    with pytest.raises(DomainError):
        dur.HygroSample(timestamp=0.0, t_celsius=1.0, rh=1.5)
    # a flagged-missing sample may omit both readings
    dur.HygroSample(timestamp=0.0, missing=True)


def test_series_validation_matches_the_sample_checks():
    ok = dict(ts=[0.0, 1.0], t_celsius=[1.0, 2.0], rh=[0.5, 0.6], missing=[False, False])
    dur.HygroSeries(**ok)
    for field, value in [
        ("ts", [0.0, float("inf")]),
        ("t_celsius", [1.0, float("nan")]),
        ("rh", [0.5, 1.5]),
        ("rh", [-0.1, 0.5]),
    ]:
        with pytest.raises(DomainError):
            dur.HygroSeries(**dict(ok, **{field: value}))
    with pytest.raises(ShapeError):
        dur.HygroSeries(**dict(ok, rh=[0.5]))
    # flagged-missing readings may hold anything; they read back as nan
    gone = dur.HygroSeries(ts=[0.0, 1.0], t_celsius=[float("nan"), 3.0],
                           rh=[7.0, 0.5], missing=[True, False])
    assert np.isnan(gone.t_celsius[0]) and np.isnan(gone.rh[0])
    assert gone.rh[1] == 0.5


def test_series_from_samples_keeps_every_column():
    samples = [sample(0.0, t=3.0, rh=0.4), sample(0.5, missing=True), sample(2.0, t=-1.0, rh=1.0)]
    hs = dur.HygroSeries.from_samples(samples)
    assert np.array_equal(hs.ts, [0.0, 0.5, 2.0])
    assert np.array_equal(hs.t_celsius, [3.0, np.nan, -1.0], equal_nan=True)
    assert np.array_equal(hs.rh, [0.4, np.nan, 1.0], equal_nan=True)
    assert hs.missing.tolist() == [False, True, False]


# ---------------------------------------------------------------------------
# risk grids


def test_grid_bins_anchor_at_the_earliest_timestamp():
    series = {
        "wall": [sample(2.0), sample(3.5), sample(9.9)],
        "deck": [sample(4.0), sample(7.0)],
    }
    grid = dur.build_risk_grid(series, bin_width=2.0)
    assert grid.elements == ("wall", "deck")
    assert grid.bin_starts[0] == 2.0
    # floor((9.9 - 2.0) / 2) + 1 = 4 bins
    assert grid.n_bins == 4
    assert np.allclose(grid.bin_starts, [2.0, 4.0, 6.0, 8.0])


def test_grid_cells_classify_the_bin_means():
    series = {
        "wall": [
            sample(0.0, t=10.0, rh=0.90),
            sample(0.5, t=30.0, rh=0.96),
            sample(1.0, t=20.0, rh=0.99),
        ]
    }
    grid = dur.build_risk_grid(series, kind=dur.CORROSION, bin_width=1.0)
    assert grid.n_bins == 2
    rate0 = dur.corrosion_rate(20.0, 0.93)
    assert grid.cells[0, 0] is dur.classify_corrosion(rate0)
    rate1 = dur.corrosion_rate(20.0, 0.99)
    assert grid.cells[0, 1] is dur.classify_corrosion(rate1)

    frost = dur.build_risk_grid(series, kind=dur.FROST, bin_width=1.0)
    assert frost.cells[0, 0] is dur.classify_frost(0.93)
    chem = dur.build_risk_grid(series, kind=dur.CHEMICAL, bin_width=1.0)
    assert chem.cells[0, 0] is dur.classify_chemical(0.93)


def test_bins_without_readings_are_missing():
    series = {"wall": [sample(0.0), sample(6.0)]}
    grid = dur.build_risk_grid(series, bin_width=2.0)
    assert grid.n_bins == 4
    assert grid.cells[0, 0] is not None
    assert grid.cells[0, 1] is None
    assert grid.cells[0, 2] is None
    assert grid.cells[0, 3] is not None


def test_all_original_missing_bins_stay_missing_even_after_filling():
    series = {
        "wall": [
            sample(0.0, t=10.0, rh=0.9),
            sample(1.0, missing=True),
            sample(2.0, t=10.0, rh=0.9),
        ]
    }
    grid = dur.build_risk_grid(series, bin_width=1.0, fill_radius=1)
    # middle bin holds only the flagged-missing reading; imputation feeds
    # the classifier but cannot resurrect the cell
    assert grid.cells[0, 1] is None
    assert grid.cells[0, 0] is not None


def test_filled_readings_join_their_bins_mean():
    series = {
        "wall": [
            sample(0.0, t=10.0, rh=0.90),
            sample(1.0, missing=True),
            sample(2.0, t=20.0, rh=0.70),
            sample(3.0, t=30.0, rh=0.50),
        ]
    }
    filled = dur.build_risk_grid(series, kind=dur.FROST, bin_width=4.0, fill_radius=1)
    plain = dur.build_risk_grid(series, kind=dur.FROST, bin_width=4.0)
    # fill imputes rh 0.80 at t=1: mean 0.725 with it, 0.70 without
    assert filled.cells[0, 0] is dur.classify_frost((0.90 + 0.80 + 0.70 + 0.50) / 4)
    assert plain.cells[0, 0] is dur.classify_frost((0.90 + 0.70 + 0.50) / 3)


def test_grid_rejects_bad_input():
    with pytest.raises(ShapeError):
        dur.build_risk_grid({})
    with pytest.raises(ShapeError):
        dur.build_risk_grid({"wall": []})
    with pytest.raises(DomainError):
        dur.build_risk_grid({"wall": [sample(0.0)]}, kind="sunshine")
    with pytest.raises(DomainError):
        dur.build_risk_grid({"wall": [sample(0.0)]}, bin_width=0.0)
    with pytest.raises(DomainError):
        dur.build_risk_grid({"wall": [sample(1.0), sample(1.0)]})


def _random_history(rng, n, start, missing_share, gap_days):
    """Irregular strictly increasing timestamps from start, readings that
    sometimes sit exactly on a band edge, scattered missing readings and
    one run of consecutive missing readings."""
    ts = start + np.cumsum(rng.uniform(0.02, 0.4, size=n))
    temp = rng.uniform(-45.0, 45.0, size=n)
    rh = rng.uniform(0.0, 1.0, size=n)
    edges = rng.uniform(size=n) < 0.3
    rh[edges] = rng.choice([0.0, 0.85, 0.95, 0.98, 1.0], size=int(edges.sum()))
    miss = rng.uniform(size=n) < missing_share
    gap_start = rng.uniform(ts[0], ts[-1] + 1e-9)
    miss |= (ts >= gap_start) & (ts < gap_start + gap_days)
    return [
        sample(float(t), missing=True) if gone else sample(float(t), t=float(c), rh=float(r))
        for t, c, r, gone in zip(ts, temp, rh, miss)
    ]


def _same_cells(a, b):
    return a.shape == b.shape and all(x is y for x, y in zip(a.flat, b.flat))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_elements=st.integers(1, 4),
    kind=st.sampled_from(dur.GRID_KINDS),
    bin_width=st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.5]),
    fill_radius=st.one_of(st.none(), st.integers(1, 12)),
    missing_share=st.floats(0.0, 0.7),
    gap_days=st.floats(0.0, 3.0),
)
def test_grid_equals_the_per_bin_scan(seed, n_elements, kind, bin_width, fill_radius,
                                      missing_share, gap_days):
    rng = np.random.Generator(np.random.PCG64(seed))
    series = {
        "e%d" % e: _random_history(
            rng, int(rng.integers(1, 120)), float(rng.uniform(0.0, 6.0)),
            missing_share, gap_days,
        )
        for e in range(n_elements)
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            expected = risk_grid_reference(series, kind, bin_width, fill_radius)
        except DomainError as exc:
            # a fill window longer than a short history
            with pytest.raises(DomainError, match=str(exc)):
                dur.build_risk_grid(series, kind, bin_width, fill_radius)
            return
        grid = dur.build_risk_grid(series, kind, bin_width, fill_radius)
        columnar = dur.build_risk_grid(
            {k: dur.HygroSeries.from_samples(v) for k, v in series.items()},
            kind, bin_width, fill_radius,
        )
    assert _same_cells(grid.cells, expected)
    assert _same_cells(columnar.cells, expected)


@pytest.mark.parametrize("rh", [0.0, 0.85, 0.95, 0.98, 1.0])
@pytest.mark.parametrize("count", [1, 3, 8, 9, 24, 200])
def test_constant_bins_on_the_band_edges_classify_like_the_scan(rh, count):
    # a bin of identical readings: its mean is whatever the summation gives,
    # and both paths must band that same value
    ts = np.arange(count) / count
    series = {"wall": [sample(float(t), t=20.0, rh=rh) for t in ts]}
    for kind in dur.GRID_KINDS:
        grid = dur.build_risk_grid(series, kind=kind, bin_width=1.0)
        assert _same_cells(grid.cells, risk_grid_reference(series, kind, 1.0))


# humidities on the two cut points, a few ulps either side of them, and anywhere
_BAND_RH = st.one_of(
    st.builds(lambda edge, ulps: edge + ulps * float(np.spacing(edge)),
              st.sampled_from([0.85, 0.98]), st.integers(-3, 3)),
    st.floats(0.8, 1.0),
    st.floats(0.0, 1.0),
)


@settings(max_examples=300, deadline=None)
@given(st.floats(-30.0, 60.0), _BAND_RH)
def test_a_one_reading_bin_is_banded_as_the_scalar_classifiers_band(t, rh):
    series = {"wall": [sample(0.0, t=t, rh=rh)]}
    cells = {kind: dur.build_risk_grid(series, kind=kind).cells[0, 0] for kind in dur.GRID_KINDS}
    assert cells[dur.CORROSION] is dur.classify_corrosion(dur.corrosion_rate(t, rh))
    assert cells[dur.FROST] is dur.classify_frost(rh)
    assert cells[dur.CHEMICAL] is dur.classify_chemical(rh)


def test_grid_keeps_all_missing_bins_of_elements_with_other_spans():
    series = {
        "early": [sample(0.0), sample(0.5, missing=True), sample(1.2, missing=True)],
        "late": [sample(2.5, rh=0.99), sample(3.1, rh=0.9)],
    }
    grid = dur.build_risk_grid(series, kind=dur.FROST, bin_width=1.0, fill_radius=1)
    assert grid.cells.tolist() == [
        [dur.RiskLevel.Insignificant, None, None, None],
        [None, None, dur.RiskLevel.High, dur.RiskLevel.Medium],
    ]


def test_grid_rows_are_row_major():
    series = {
        "a": [sample(0.0, rh=0.5), sample(1.0, rh=0.5)],
        "b": [sample(0.0, rh=0.99), sample(1.0, rh=0.99)],
    }
    grid = dur.build_risk_grid(series, kind=dur.FROST, bin_width=1.0)
    rows = dur.grid_rows(grid)
    assert rows == [
        ("a", 0.0, "Insignificant"),
        ("a", 1.0, "Insignificant"),
        ("b", 0.0, "High"),
        ("b", 1.0, "High"),
    ]


# ---------------------------------------------------------------------------
# rendering


def _two_by_two_grid():
    series = {
        "a": [sample(0.0, t=20.0, rh=0.5), sample(1.0, t=20.0, rh=0.99)],
        "b": [sample(0.0, t=20.0, rh=0.93), sample(1.0, missing=True)],
    }
    return dur.build_risk_grid(series, kind=dur.FROST, bin_width=1.0)


def test_render_writes_plain_ppm(tmp_path):
    grid = _two_by_two_grid()
    ppm = tmp_path / "grid.ppm"
    dur.render_grid(grid, ppm)
    lines = ppm.read_text().splitlines()
    assert lines[0] == "P3"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    assert lines[3] == "0 128 0 255 0 0"      # Insignificant, High
    assert lines[4] == "255 165 0 255 255 255"  # Medium, Missing


def test_render_scales_cells_into_blocks(tmp_path):
    grid = _two_by_two_grid()
    ppm = tmp_path / "grid.ppm"
    dur.render_grid(grid, ppm, scale=3)
    lines = ppm.read_text().splitlines()
    assert lines[1] == "6 6"
    assert len(lines) == 3 + 6
    assert lines[3] == lines[4] == lines[5]
    first = lines[3].split()
    assert first[:9] == ["0", "128", "0"] * 3


def test_render_is_byte_stable(tmp_path):
    grid = _two_by_two_grid()
    p1 = tmp_path / "one.ppm"
    p2 = tmp_path / "two.ppm"
    dur.render_grid(grid, p1)
    dur.render_grid(grid, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_render_rejects_bad_scale(tmp_path):
    with pytest.raises(DomainError):
        dur.render_grid(_two_by_two_grid(), tmp_path / "x.ppm", scale=0)


def test_grid_csv_round_trip(tmp_path):
    grid = _two_by_two_grid()
    csv_path = tmp_path / "grid.csv"
    dur.render_grid(grid, tmp_path / "grid.ppm", csv_path=csv_path)
    with open(csv_path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["element", "bin_start", "category"]
    # Each bin start parses back to the exact float that was written.
    assert [(e, float(s), c) for e, s, c in rows] == dur.grid_rows(grid)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([dur.CorrosionStatus, dur.RiskLevel]), st.integers(1, 4),
       st.integers(1, 4), st.integers(1, 7), st.data())
def test_render_equals_the_per_pixel_loop(tmp_path_factory, levels, scale, n_elements, n_bins,
                                          data):
    values = st.sampled_from([None] + list(levels))
    cells = np.array([[data.draw(values) for _ in range(n_bins)] for _ in range(n_elements)],
                     dtype=object)
    grid = dur.RiskGrid(kind=dur.FROST, elements=tuple("e%d" % i for i in range(n_elements)),
                        bin_starts=0.1 * np.arange(n_bins), bin_width=0.1, cells=cells)
    out = tmp_path_factory.mktemp("render")
    dur.render_grid(grid, out / "grid.ppm", out / "grid.csv", scale=scale)
    ppm, grid_csv = ppm_reference(grid, scale)
    assert (out / "grid.ppm").read_bytes() == ppm.encode()
    assert (out / "grid.csv").read_bytes() == grid_csv.encode()


def test_palette_values():
    assert dur.PALETTE[0] == (0, 128, 0)
    assert dur.PALETTE[1] == (255, 255, 0)
    assert dur.PALETTE[2] == (255, 165, 0)
    assert dur.PALETTE[3] == (255, 0, 0)
    assert dur.PALETTE[None] == (255, 255, 255)

import csv
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from duracast import baselines
from duracast.errors import (
    DivisionError,
    DomainError,
    DuracastError,
    ShapeError,
    SingularTime,
    UnitMismatch,
)

from helpers import make_ds
from oracles import erf_reference


# ---------------------------------------------------------------------------
# error function


def test_erf_tracks_the_reference_series():
    xs = np.linspace(0.0, 6.0, 241)
    worst = max(abs(baselines.erf(x) - erf_reference(x)) for x in xs)
    assert worst <= 1.5e-7


def test_erf_tracks_the_library_function():
    xs = np.linspace(-6.0, 6.0, 481)
    assert [baselines.erf(x) for x in xs] == [math.erf(x) for x in xs]
    assert baselines.erf(xs).tolist() == [math.erf(x) for x in xs]


def test_erf_fixed_points():
    assert baselines.erf(0.0) == 0.0
    assert baselines.erf(10.0) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=8.0))
def test_erf_is_odd(x):
    assert baselines.erf(-x) == -baselines.erf(x)


def test_erf_broadcasts_and_keeps_scalars_scalar():
    out = baselines.erf(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert out.shape == (2, 2)
    assert isinstance(baselines.erf(0.5), float)


# ---------------------------------------------------------------------------
# carbonation


def test_sqrt_law_round_trip():
    coef = baselines.fit_k(depth=10.0, t=25.0)
    assert coef.k == pytest.approx(2.0)
    assert baselines.carbonation_sqrt(coef, 25.0) == pytest.approx(10.0)
    assert baselines.carbonation_sqrt(coef, 100.0) == pytest.approx(20.0)


def test_sqrt_law_accepts_plain_coefficients_and_arrays():
    depths = baselines.carbonation_sqrt(3.0, np.array([0.0, 1.0, 4.0]))
    assert np.allclose(depths, [0.0, 3.0, 6.0])


def test_fit_rejects_degenerate_observations():
    with pytest.raises(DivisionError):
        baselines.fit_k(depth=5.0, t=0.0)
    with pytest.raises(DomainError):
        baselines.fit_k(depth=-1.0, t=1.0)
    with pytest.raises(DomainError):
        baselines.fit_k(depth=1.0, t=-2.0)


def test_front_form_places_weather_outside_the_radical():
    params = baselines.FibCarbonationParams(k_e=1.0, k_c=1.0, r_inv=1.0, c_a=0.5, w=0.8)
    outside = baselines.carbonation_fib(params, 4.0)
    nested = baselines.carbonation_fib(params, 4.0, nested_time=True)
    assert outside == pytest.approx(0.8 * 2.0)
    assert nested == pytest.approx(math.sqrt(1.0 * 0.8 * 2.0))
    assert outside != nested


def test_front_accepts_a_time_dependent_weather_function():
    params = baselines.FibCarbonationParams(
        k_e=0.7, k_c=1.2, r_inv=2.0, c_a=0.3, w=lambda t: np.asarray(t) ** -0.1
    )
    t = np.array([1.0, 16.0])
    expected = math.sqrt(2 * 0.7 * 1.2 * 2.0 * 0.3) * t ** -0.1 * np.sqrt(t)
    assert np.allclose(baselines.carbonation_fib(params, t), expected)


def test_front_rejects_negative_inputs():
    with pytest.raises(DomainError):
        baselines.FibCarbonationParams(k_e=-1.0, k_c=1.0, r_inv=1.0, c_a=1.0)
    params = baselines.FibCarbonationParams(k_e=1.0, k_c=1.0, r_inv=1.0, c_a=1.0)
    with pytest.raises(DomainError):
        baselines.carbonation_fib(params, -1.0)


# ---------------------------------------------------------------------------
# chloride profile


def chloride_params(**kw):
    kw.setdefault("c_i", 0.0)
    kw.setdefault("c_s", 1.0)
    kw.setdefault("d_nss", 1e-12)
    return baselines.ChlorideErfParams(**kw)


def test_chloride_profile_point_value():
    # x / (2 sqrt(D t)) = 0.5, so the content is 1 - erf(0.5)
    c = baselines.chloride_erf(chloride_params(), x=0.01, t=1e8)
    assert c == pytest.approx(1.0 - math.erf(0.5), abs=2e-7)


def test_chloride_profile_boundary_values():
    params = chloride_params(c_i=0.1, c_s=2.5)
    assert baselines.chloride_erf(params, x=0.0, t=1e7) == pytest.approx(2.5)
    assert baselines.chloride_erf(params, x=10.0, t=1e7) == pytest.approx(0.1, abs=1e-9)


def test_chloride_profile_decreases_with_depth():
    xs = np.linspace(0.0, 0.1, 50)
    profile = baselines.chloride_erf(chloride_params(), x=xs, t=3e8)
    assert np.all(np.diff(profile) < 0)


def test_chloride_units_must_agree():
    params = chloride_params(units=("mm", "yr"))
    with pytest.raises(UnitMismatch):
        baselines.chloride_erf(params, x=1.0, t=1.0, units=("m", "s"))
    baselines.chloride_erf(params, x=1.0, t=1.0, units=("mm", "yr"))


def test_chloride_time_zero_is_singular():
    with pytest.raises(SingularTime):
        baselines.chloride_erf(chloride_params(), x=0.01, t=0.0)


def test_chloride_validates_concentrations():
    with pytest.raises(DomainError):
        chloride_params(c_i=2.0, c_s=1.0)
    with pytest.raises(DomainError):
        chloride_params(d_nss=0.0)


# ---------------------------------------------------------------------------
# aging diffusion coefficient


def test_aging_coefficient_point_value():
    params = baselines.DnssAgingParams(
        k_e=1.0, k_t=1.0, k_c=1.0, d0=1e-11, t0=0.0767, n=0.5
    )
    assert baselines.dnss_at(params, 10.0) == pytest.approx(
        1e-11 * math.sqrt(0.0767 / 10.0), rel=1e-12
    )
    assert baselines.dnss_at(params, 0.0767) == pytest.approx(1e-11, rel=1e-12)


def test_aging_exponent_zero_freezes_the_coefficient():
    params = baselines.DnssAgingParams(
        k_e=0.9, k_t=1.1, k_c=0.8, d0=2e-11, t0=0.0767, n=0.0
    )
    ref = 0.9 * 1.1 * 0.8 * 2e-11
    assert baselines.dnss_at(params, 1.0) == pytest.approx(ref)
    assert baselines.dnss_at(params, 50.0) == pytest.approx(ref)


def test_aging_coefficient_rejects_nonpositive_age():
    params = baselines.DnssAgingParams(
        k_e=1.0, k_t=1.0, k_c=1.0, d0=1e-11, t0=0.0767, n=0.3
    )
    with pytest.raises(DuracastError):
        baselines.dnss_at(params, 0.0)


# ---------------------------------------------------------------------------
# comparison harness


def _comparison_ds():
    # two specimens following the square-root law at age 1, drifting later
    cols = [
        ("specimen", "nominal", "input", ("a", "b")),
        ("age", "continuous", "input"),
        ("depth", "continuous", "target"),
    ]
    values = [
        [0.0, 1.0, 2.0],   # fit row for a: k = 2
        [0.0, 4.0, 5.0],   # law predicts 4
        [1.0, 1.0, 3.0],   # fit row for b: k = 3
        [1.0, 4.0, 6.5],   # law predicts 6
    ]
    return make_ds(cols, values)


def test_comparison_scores_baseline_on_held_out_ages():
    ds = _comparison_ds()
    rows = baselines.baseline_comparison(
        ds, "specimen", "age", eval_ages=[1.0, 4.0],
        model_predict=lambda d: d.target_vector(),
    )
    by_key = {(r.model, r.age): r for r in rows}
    # age-1 rows are fit rows, so only age 4 and the pooled group remain
    assert set(by_key) == {
        ("baseline", "4"), ("model", "4"), ("baseline", "all"), ("model", "all")
    }
    base = by_key[("baseline", "4")]
    assert base.mse == pytest.approx(((4.0 - 5.0) ** 2 + (6.0 - 6.5) ** 2) / 2)
    assert by_key[("model", "4")].mse == 0.0
    assert by_key[("baseline", "all")].mse == base.mse


def test_comparison_skips_specimens_that_start_at_age_zero():
    cols = [
        ("specimen", "nominal", "input", ("a", "b")),
        ("age", "continuous", "input"),
        ("depth", "continuous", "target"),
    ]
    values = [
        [0.0, 0.0, 0.0],
        [0.0, 4.0, 5.0],
        [1.0, 1.0, 3.0],
        [1.0, 4.0, 6.5],
    ]
    ds = make_ds(cols, values)
    with pytest.warns(UserWarning):
        rows = baselines.baseline_comparison(
            ds, "specimen", "age", eval_ages=[4.0],
            model_predict=lambda d: d.target_vector(),
        )
    base = [r for r in rows if r.model == "baseline" and r.age == "4"]
    assert len(base) == 1
    # only specimen b survives: its law predicts 6 against a depth of 6.5
    assert base[0].mse == pytest.approx(0.25)


def test_comparison_rejects_misshapen_model_output():
    ds = _comparison_ds()
    with pytest.raises(ShapeError):
        baselines.baseline_comparison(
            ds, "specimen", "age", eval_ages=[4.0],
            model_predict=lambda d: np.zeros(99),
        )


def test_comparison_csv_round_trip(tmp_path):
    ds = _comparison_ds()
    rows = baselines.baseline_comparison(
        ds, "specimen", "age", eval_ages=[4.0],
        model_predict=lambda d: d.target_vector() + 0.25,
    )
    path = tmp_path / "comparison.csv"
    baselines.write_comparison_csv(path, rows)
    scores = ["mse", "mae", "rmse", "median_resid", "q1", "q3"]
    with open(path, newline="") as fh:
        header, *again = csv.reader(fh)
    assert header == ["model", "age"] + scores
    assert [rec[:2] for rec in again] == [[r.model, r.age] for r in rows]
    # Every score parses back to the exact float that was written.
    assert [[float(v) for v in rec[2:]] for rec in again] == [
        [getattr(r, f) for f in scores] for r in rows]

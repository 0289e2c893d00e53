import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import duracast as dc
from duracast import metrics
from duracast.errors import DuracastError


def test_basic_error_measures():
    pred = np.array([1.0, 2.0, 3.0])
    target = np.array([1.0, 4.0, 2.0])
    rep = dc.evaluate(pred, target)
    assert rep.mse == pytest.approx((0 + 4 + 1) / 3)
    assert rep.rmse == pytest.approx(math.sqrt(5 / 3))
    assert rep.mae == pytest.approx((0 + 2 + 1) / 3)
    assert rep.n == 3


def test_residuals_are_target_minus_prediction():
    rep = dc.evaluate(np.array([1.0, 1.0]), np.array([3.0, 0.0]))
    assert rep.residuals.mean == pytest.approx((2.0 + -1.0) / 2)


def test_correlation_of_exact_fit_is_one():
    y = np.array([1.0, 2.0, 5.0, -3.0])
    rep = dc.evaluate(y, y)
    assert rep.r == pytest.approx(1.0)
    assert rep.r_defined


def test_correlation_undefined_when_one_side_is_constant():
    rep = dc.evaluate(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]))
    assert not rep.r_defined
    assert math.isnan(rep.r)


def test_median_interpolates_between_closest_ranks():
    rep = dc.evaluate(np.zeros(4), np.array([1.0, 2.0, 3.0, 4.0]))
    assert rep.residuals.median == pytest.approx(2.5)


def test_quartiles_and_whiskers_with_an_outlier():
    resid = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
    rep = dc.evaluate(np.zeros(5), resid)
    s = rep.residuals
    q1 = np.quantile(resid, 0.25)
    q3 = np.quantile(resid, 0.75)
    assert s.q1 == pytest.approx(q1)
    assert s.q3 == pytest.approx(q3)
    # whiskers sit on the most extreme points inside the 1.5 IQR fences
    assert s.whisker_lo == 1.0
    assert s.whisker_hi == 4.0
    assert s.outliers == 1


def test_shape_mismatch_rejected():
    with pytest.raises(DuracastError):
        dc.evaluate(np.zeros(3), np.zeros(4))


def test_non_finite_rejected():
    with pytest.raises(DuracastError):
        dc.evaluate(np.array([np.nan]), np.array([1.0]))


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(st.lists(st.tuples(finite, finite), min_size=2, max_size=40))
def test_mae_never_exceeds_rmse(pairs):
    pred = np.array([p for p, _ in pairs])
    target = np.array([t for _, t in pairs])
    rep = dc.evaluate(pred, target)
    assert rep.mae <= rep.rmse + 1e-9


@given(
    st.lists(st.tuples(finite, finite), min_size=2, max_size=20),
    st.floats(min_value=0.25, max_value=8.0),
)
def test_rmse_scales_with_the_data(pairs, c):
    pred = np.array([p for p, _ in pairs])
    target = np.array([t for _, t in pairs])
    a = dc.evaluate(pred, target)
    b = dc.evaluate(c * pred, c * target)
    assert b.rmse == pytest.approx(c * a.rmse, rel=1e-9, abs=1e-9)


@given(st.lists(st.tuples(finite, finite), min_size=3, max_size=40))
def test_correlation_bounded(pairs):
    pred = np.array([p for p, _ in pairs])
    target = np.array([t for _, t in pairs])
    rep = dc.evaluate(pred, target)
    if rep.r_defined:
        assert -1.0 <= rep.r <= 1.0


def test_report_csv_layout(tmp_path):
    rep = dc.evaluate(np.array([1.0, 2.0]), np.array([1.5, 1.5]))
    path = tmp_path / "report.csv"
    dc.write_report_csv(path, rep)
    lines = path.read_text().splitlines()
    assert lines[0] == "metric,value"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names[:5] == ["mse", "rmse", "mae", "r", "n"]
    assert float(lines[1].split(",")[1]) == pytest.approx(rep.mse)

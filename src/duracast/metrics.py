"""Evaluation statistics: MSE, RMSE, MAE, correlation, and boxplot residual
summaries.

Residuals are defined as target minus prediction. Quartiles use linear
interpolation between closest ranks (so the median of [1, 2, 3, 4] is 2.5)
and whiskers reach the most extreme residual within 1.5 interquartile ranges
of the box, points beyond them counting as outliers.
"""

import math
from dataclasses import dataclass

import numpy as np

# atomic_write_text is bound here so profiling shims (bench/tracing.py) can wrap
# it on every module.
from ._io import atomic_write_text, write_table
from .errors import ShapeError


@dataclass(frozen=True)
class ResidualSummary:
    mean: float
    std: float
    median: float
    q1: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    outliers: int


@dataclass(frozen=True)
class EvalReport:
    mse: float
    rmse: float
    mae: float
    r: float
    n: int
    residuals: ResidualSummary
    r_defined: bool = True


_QUARTILES = np.array([0.25, 0.5, 0.75])


def _quartiles(values):
    """np.quantile(values, [0.25, 0.5, 0.75]) bit for bit, from one sort:
    numpy's default linear method, with its virtual index (n - 1) * q and
    its interpolation, which for a weight g >= 0.5 computes b - (b - a) *
    (1 - g). np.quantile itself imports numpy.ma, which costs a command
    more than the sort."""
    ordered = np.sort(values)
    virtual = (ordered.size - 1) * _QUARTILES
    below = np.floor(virtual)
    above = np.where(virtual >= ordered.size - 1, -1.0, below + 1)
    below[virtual >= ordered.size - 1] = -1.0
    gamma = virtual - below
    a, b = ordered[below.astype(np.intp)], ordered[above.astype(np.intp)]
    diff = b - a
    out = np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
    if np.isnan(ordered[-1]):
        out[:] = np.nan
    return out


def _boxplot_stats(values):
    q1, median, q3 = _quartiles(values)
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = values[(values >= lo_fence) & (values <= hi_fence)]
    whisker_lo = float(inside.min())
    whisker_hi = float(inside.max())
    outliers = int(np.sum((values < whisker_lo) | (values > whisker_hi)))
    return float(median), float(q1), float(q3), whisker_lo, whisker_hi, outliers


def evaluate(pred, target):
    """Compute error statistics for one prediction vector.

    Args:
        pred: predicted values, length n >= 1.
        target: observed values, same length.

    Returns:
        EvalReport. When either vector has zero variance the correlation is
        undefined; it is reported as nan with r_defined False.
    """
    pred = np.asarray(pred, dtype=float).ravel()
    target = np.asarray(target, dtype=float).ravel()
    if pred.shape != target.shape:
        raise ShapeError(
            "prediction and target lengths differ: %d vs %d"
            % (pred.size, target.size)
        )
    if pred.size < 1:
        raise ShapeError("need at least one prediction")
    if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(target))):
        raise ShapeError("non-finite values in evaluation input")

    residuals = target - pred
    mse = float(np.mean(residuals ** 2))
    rmse = math.sqrt(mse)
    mae = float(np.mean(np.abs(residuals)))

    sp = pred - pred.mean()
    st = target - target.mean()
    denom = math.sqrt(float(np.sum(sp ** 2)) * float(np.sum(st ** 2)))
    if denom == 0.0:
        r = float("nan")
        r_defined = False
    else:
        r = float(np.sum(sp * st)) / denom
        r = max(-1.0, min(1.0, r))
        r_defined = True

    median, q1, q3, wlo, whi, outliers = _boxplot_stats(residuals)
    summary = ResidualSummary(
        mean=float(residuals.mean()),
        std=float(residuals.std()),
        median=median,
        q1=q1,
        q3=q3,
        whisker_lo=wlo,
        whisker_hi=whi,
        outliers=outliers,
    )
    return EvalReport(
        mse=mse, rmse=rmse, mae=mae, r=r, n=int(pred.size),
        residuals=summary, r_defined=r_defined,
    )


def report_rows(report):
    """Flatten an EvalReport to (metric, value) rows for the report CSV."""
    res = report.residuals
    return [
        ("mse", report.mse),
        ("rmse", report.rmse),
        ("mae", report.mae),
        ("r", report.r),
        ("n", report.n),
        ("residual_mean", res.mean),
        ("residual_std", res.std),
        ("residual_median", res.median),
        ("residual_q1", res.q1),
        ("residual_q3", res.q3),
        ("whisker_lo", res.whisker_lo),
        ("whisker_hi", res.whisker_hi),
        ("outliers", res.outliers),
    ]


def write_report_csv(path, report):
    """Write the report as `metric,value` rows."""
    write_table(path, ("metric", "value"), report_rows(report))

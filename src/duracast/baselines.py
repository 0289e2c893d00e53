"""Closed-form ingress baselines: square-root-of-time carbonation, the
fib-style carbonation front, and the error-function chloride profile with an
aging diffusion coefficient. The profile's erf is the stdlib's math.erf.

These are the physics yardsticks the learned models are compared against.
"""

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

# atomic_write_text is bound here so profiling shims (bench/tracing.py) can wrap
# it on every module.
from ._io import atomic_write_text, fmt_float, write_table
from .errors import (
    DivisionError,
    DomainError,
    ShapeError,
    SingularTime,
    UnitMismatch,
)
from .metrics import evaluate

# math.erf applied elementwise; otypes lets it take an empty array.
_erf = np.vectorize(math.erf, otypes=[float])


def erf(x):
    """Gauss error function, elementwise: math.erf on every element."""
    out = _erf(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# carbonation


@dataclass(frozen=True)
class CarbonationCoefficient:
    """Front coefficient in mm per sqrt(time unit)."""

    k: float

    def __post_init__(self):
        if not math.isfinite(self.k) or self.k < 0:
            raise DomainError("carbonation coefficient must be finite and >= 0")


def fit_k(depth, t):
    """Coefficient of the square-root law from one (depth, age) observation."""
    depth = float(depth)
    t = float(t)
    if depth < 0:
        raise DomainError("carbonation depth cannot be negative")
    if t < 0:
        raise DomainError("age cannot be negative")
    if t == 0:
        raise DivisionError("cannot fit a square-root law at age zero")
    return CarbonationCoefficient(k=depth / math.sqrt(t))


def carbonation_sqrt(k, t):
    """Front depth k * sqrt(t); k may be a float or a fitted coefficient."""
    if isinstance(k, CarbonationCoefficient):
        k = k.k
    k = float(k)
    if k < 0:
        raise DomainError("carbonation coefficient must be >= 0")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("age cannot be negative")
    out = k * np.sqrt(t)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class FibCarbonationParams:
    """Environmental, curing, resistance and CO2 terms of the design-code
    carbonation front. w is the weather function, a float or a callable of
    time (default 1, no driving-rain reduction)."""

    k_e: float
    k_c: float
    r_inv: float
    c_a: float
    w: object = 1.0

    def __post_init__(self):
        for name in ("k_e", "k_c", "r_inv", "c_a"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise DomainError("%s must be finite and >= 0" % name)
        if not callable(self.w) and float(self.w) < 0:
            raise DomainError("weather factor must be >= 0")

    def weather(self, t):
        if callable(self.w):
            return np.asarray(self.w(t), dtype=float)
        return np.full_like(np.asarray(t, dtype=float), float(self.w))


def carbonation_fib(params, t, nested_time=False):
    """Design-code carbonation depth at age t.

    The default form applies the weather term and sqrt(t) outside the
    radical: sqrt(2 k_e k_c r_inv c_a) * W(t) * sqrt(t). With
    nested_time=True both factors move inside the radical, matching the
    printed layout some references use; the two differ whenever
    W(t) * sqrt(t) != 1.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("age cannot be negative")
    base = 2.0 * params.k_e * params.k_c * params.r_inv * params.c_a
    w = params.weather(t)
    if nested_time:
        out = np.sqrt(base * w * np.sqrt(t))
    else:
        out = np.sqrt(base) * w * np.sqrt(t)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# chloride


@dataclass(frozen=True)
class ChlorideErfParams:
    """Boundary conditions for the semi-infinite diffusion profile.

    units records (depth unit, time unit) the diffusion coefficient was
    expressed in, e.g. ("m", "s") for m^2/s.
    """

    c_i: float
    c_s: float
    d_nss: float
    units: tuple = ("m", "s")

    def __post_init__(self):
        if self.c_i < 0 or self.c_s < self.c_i:
            raise DomainError("need surface content >= initial content >= 0")
        if not (math.isfinite(self.d_nss) and self.d_nss > 0):
            raise DomainError("diffusion coefficient must be finite and > 0")
        object.__setattr__(self, "units", (str(self.units[0]), str(self.units[1])))


def chloride_erf(params, x, t, units=("m", "s")):
    """Chloride content at depth x and age t.

    C(x, t) = c_i + (c_s - c_i) * (1 - erf(x / (2 sqrt(D t)))). The units
    tuple must match the one the parameters were declared with; x and t are
    interpreted in those units.
    """
    if tuple(units) != params.units:
        raise UnitMismatch(
            "arguments in %r but coefficient declared in %r"
            % (tuple(units), params.units)
        )
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(x < 0):
        raise DomainError("depth cannot be negative")
    if np.any(t < 0):
        raise DomainError("age cannot be negative")
    if np.any(t == 0):
        raise SingularTime("profile is undefined at age zero")
    arg = x / (2.0 * np.sqrt(params.d_nss * t))
    out = np.asarray(params.c_i + (params.c_s - params.c_i) * (1.0 - erf(arg)))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DnssAgingParams:
    """Aging law for the non-steady-state diffusion coefficient: the
    reference value d0 measured at age t0 decays as (t0/t)^n, scaled by
    environment, test-method and curing factors."""

    k_e: float
    k_t: float
    k_c: float
    d0: float
    t0: float
    n: float

    def __post_init__(self):
        for name in ("k_e", "k_t", "k_c"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise DomainError("%s must be finite and >= 0" % name)
        if not (math.isfinite(self.d0) and self.d0 > 0):
            raise DomainError("reference coefficient d0 must be > 0")
        if not (math.isfinite(self.t0) and self.t0 > 0):
            raise DomainError("reference age t0 must be > 0")


def dnss_at(params, t):
    """Aged diffusion coefficient at time t (same unit as t0)."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise DomainError("age must be positive")
    out = (
        params.k_e * params.k_t * params.k_c * params.d0
        * (params.t0 / t) ** params.n
    )
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# comparison harness


# its fields are the comparison table's header
ComparisonRow = namedtuple("ComparisonRow", "model age mse mae rmse median_resid q1 q3")


def _comparison_row(name, age_label, pred, target):
    rep = evaluate(pred, target)
    return ComparisonRow(
        model=name,
        age=age_label,
        mse=rep.mse,
        mae=rep.mae,
        rmse=rep.rmse,
        median_resid=rep.residual_median,
        q1=rep.residual_q1,
        q3=rep.residual_q3,
    )


def baseline_comparison(ds, specimen_column, age_column, eval_ages, model_predict):
    """Score a learned model against the per-specimen square-root law.

    For every specimen the square-root coefficient is fitted from its
    earliest-aged observation; later observations are predicted as
    k * sqrt(age). The learned model is queried through model_predict, a
    callable mapping the dataset to one prediction per row. Rows are grouped
    by the ages in eval_ages (fit rows are never evaluated) and pooled into
    a final "all" group.

    Returns:
        list of ComparisonRow, baseline and model per age group.
    """
    spec_j = ds.schema.column_index(specimen_column)
    age_j = ds.schema.column_index(age_column)
    target_j = ds.schema.target_index
    if spec_j == target_j or age_j == target_j:
        raise ShapeError("specimen and age columns cannot be the target")

    ages = ds.values[:, age_j].astype(float)
    target = ds.values[:, target_j].astype(float)
    usable = ~(ds.missing[:, spec_j] | ds.missing[:, age_j] | ds.missing[:, target_j])

    fit_row = {}
    for i in range(ds.n_rows):
        if not usable[i]:
            continue
        key = ds.values[i, spec_j]
        if key not in fit_row or ages[i] < ages[fit_row[key]]:
            fit_row[key] = i
    coeffs = {}
    skipped = []
    for key, i in fit_row.items():
        if ages[i] <= 0:
            skipped.append(key)
            continue
        coeffs[key] = fit_k(target[i], ages[i])
    if skipped:
        warnings.warn(
            "excluded %d specimen(s) whose earliest age is not positive" % len(skipped)
        )

    model_pred = np.asarray(model_predict(ds), dtype=float)
    if model_pred.shape != (ds.n_rows,):
        raise ShapeError("model_predict must return one value per row")

    rows = []
    pooled_base = []
    pooled_model = []
    pooled_target = []
    for age in eval_ages:
        age = float(age)
        sel = []
        for i in range(ds.n_rows):
            if not usable[i] or abs(ages[i] - age) > 1e-9:
                continue
            key = ds.values[i, spec_j]
            if key not in coeffs or fit_row[key] == i:
                continue
            sel.append(i)
        if not sel:
            continue
        base = np.array(
            [carbonation_sqrt(coeffs[ds.values[i, spec_j]], ages[i]) for i in sel]
        )
        mdl = model_pred[sel]
        tgt = target[sel]
        label = fmt_float(age)
        rows.append(_comparison_row("baseline", label, base, tgt))
        rows.append(_comparison_row("model", label, mdl, tgt))
        pooled_base.extend(base)
        pooled_model.extend(mdl)
        pooled_target.extend(tgt)
    if pooled_target:
        tgt = np.array(pooled_target)
        rows.append(_comparison_row("baseline", "all", np.array(pooled_base), tgt))
        rows.append(_comparison_row("model", "all", np.array(pooled_model), tgt))
    return rows


def write_comparison_csv(path, rows):
    """Comparison table with the header
    model,age,mse,mae,rmse,median_resid,q1,q3."""
    write_table(path, ComparisonRow._fields, rows)

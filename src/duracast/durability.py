"""Hygrothermal exposure to deterioration-risk classification.

Temperature and relative humidity histories are reduced to a corrosion rate
through a temperature factor 1.6e-7 (30 + T)^4 and a humidity factor that
switches from 190 RH^26 to 2000 (1 - RH)^2 above RH = 0.95. Rates and
humidities map onto banded categories, and element histories become
time-binned risk grids rendered as plain-text PPM images.

An element history is a HygroSeries: one array each of timestamps,
temperatures, humidities and missing flags; read_series_csv reads a logger
CSV into one per element. build_risk_grid works on those
columns (sequences of HygroSample are converted once on entry). Strictly
increasing timestamps make every time bin a contiguous run of readings, and
bins with the same number of readings are averaged together as the rows of
one block, so each bin mean has the same bits as the mean of that bin's
slice. The factors use the numpy ufuncs on scalars and arrays alike, so a
scalar call and the same value inside an array agree exactly.

Relative humidity is a fraction in [0, 1] throughout this module.
"""

import math
import warnings
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from ._io import (
    CHEMICAL,
    CORROSION,
    FROST,
    GRID_KINDS,
    atomic_write_text,
    read_rows,
    write_table,
)
from .data import moving_average_fill, segment_means
from .errors import DomainError, ParseError, ShapeError


class CorrosionStatus(IntEnum):
    Passive = 0
    Low = 1
    Moderate = 2
    High = 3


class RiskLevel(IntEnum):
    Insignificant = 0
    Slight = 1
    Medium = 2
    High = 3


@dataclass(frozen=True)
class HygroSample:
    """One logger reading: timestamp in days, temperature in Celsius,
    relative humidity as a fraction. Missing readings keep their timestamp
    and set the flag. Validated as a one-reading HygroSeries."""

    timestamp: float
    t_celsius: float = float("nan")
    rh: float = float("nan")
    missing: bool = False

    def __post_init__(self):
        HygroSeries([self.timestamp], [self.t_celsius], [self.rh], [self.missing])


@dataclass(frozen=True)
class HygroSeries:
    """One element's logger history as columns: timestamps in days,
    temperatures in Celsius, relative humidities as fractions and missing
    flags, one entry per reading. Validation matches HygroSample's, applied
    to every reading at once; temperature and humidity read nan where the
    flag is set."""

    ts: np.ndarray
    t_celsius: np.ndarray
    rh: np.ndarray
    missing: np.ndarray

    def __post_init__(self):
        ts = np.array(self.ts, dtype=float)
        t = np.array(self.t_celsius, dtype=float)
        rh = np.array(self.rh, dtype=float)
        miss = np.array(self.missing, dtype=bool)
        if ts.ndim != 1 or not ts.shape == t.shape == rh.shape == miss.shape:
            raise ShapeError("series columns must be 1-d arrays of one length")
        if not np.isfinite(ts).all():
            raise DomainError("sample timestamp must be finite")
        present = ~miss
        t_present, rh_present = t[present], rh[present]
        if not (np.isfinite(t_present).all() and np.isfinite(rh_present).all()):
            raise DomainError("present sample needs finite temperature and humidity")
        if not ((rh_present >= 0.0) & (rh_present <= 1.0)).all():
            raise DomainError("relative humidity must lie in [0, 1]")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "t_celsius", np.where(miss, np.nan, t))
        object.__setattr__(self, "rh", np.where(miss, np.nan, rh))
        object.__setattr__(self, "missing", miss)

    @classmethod
    def from_samples(cls, samples):
        """Columns of a sequence of HygroSample, in sequence order."""
        samples = list(samples)
        return cls(
            ts=[s.timestamp for s in samples],
            t_celsius=[s.t_celsius for s in samples],
            rh=[s.rh for s in samples],
            missing=[s.missing for s in samples],
        )


def temperature_factor(t_celsius):
    """Quartic temperature multiplier 1.6e-7 (30 + T)^4, zero at and below
    -30 C where the polynomial would otherwise rise again."""
    t = np.asarray(t_celsius, dtype=float)
    # An extreme T overflows to inf without a warning: callers refuse the inf.
    with np.errstate(over="ignore"):
        c_t = np.where(t < -30.0, 0.0, 1.6e-7 * np.power(30.0 + t, 4.0))
    return float(c_t) if c_t.ndim == 0 else c_t


def humidity_factor(rh):
    """Reference corrosion rate from humidity alone: 190 RH^26 up to
    RH = 0.95, then the drying-limited branch 2000 (1 - RH)^2."""
    rh = np.asarray(rh, dtype=float)
    if np.any((rh < 0) | (rh > 1)):
        raise DomainError("relative humidity must lie in [0, 1]")
    r_o = np.where(rh <= 0.95, 190.0 * np.power(rh, 26.0), 2000.0 * np.square(1.0 - rh))
    return float(r_o) if r_o.ndim == 0 else r_o


def _rate_array(t_celsius, rh):
    t = np.asarray(t_celsius, dtype=float)
    rate = np.asarray(temperature_factor(t) * humidity_factor(rh))
    return rate, bool(np.any(t < -30.0))


def corrosion_rate(t_celsius, rh):
    """Corrosion rate from temperature (Celsius) and humidity (fraction).

    The quartic temperature factor is forced to zero below -30 C, where the
    polynomial would otherwise turn positive again; a warning flags that
    clamp. Accepts scalars or arrays.
    """
    rate, clamped = _rate_array(t_celsius, rh)
    if clamped:
        warnings.warn("temperature below -30 C clamped to zero rate")
    return float(rate) if rate.ndim == 0 else rate


def _categories(kind, values):
    """Category of each value, a corrosion rate for CORROSION and a relative
    humidity otherwise. A rate bands below 1, 1 to 5, above 5 up to 10 and
    above 10; a humidity below 0.85, 0.85 up to but not including 0.98, and
    0.98 and above, whose middle band is Medium for frost and Slight for
    chemical attack."""
    v = np.asarray(values, dtype=float)
    if kind == CORROSION:
        if not (np.isfinite(v) & (v >= 0.0)).all():
            raise DomainError("corrosion rate must be finite and >= 0")
        codes, levels = (v >= 1.0).astype(int) + (v > 5.0) + (v > 10.0), list(CorrosionStatus)
    else:
        if not ((v >= 0.0) & (v <= 1.0)).all():
            raise DomainError("relative humidity must lie in [0, 1]")
        codes = (v >= 0.85).astype(int) + (v >= 0.98)
        middle = RiskLevel.Medium if kind == FROST else RiskLevel.Slight
        levels = [RiskLevel.Insignificant, middle, RiskLevel.High]
    return np.array(levels, dtype=object)[codes]


def classify_corrosion(rate):
    """Band a corrosion rate: below 1 Passive, 1 to 5 Low, above 5 up to 10
    Moderate, above 10 High."""
    return _categories(CORROSION, float(rate))


def classify_frost(rh):
    """Frost risk from humidity: dry is Insignificant, 0.85 up to but not
    including 0.98 is Medium, 0.98 and above is High."""
    return _categories(FROST, float(rh))


def classify_chemical(rh):
    """Chemical attack risk from humidity; same cut points as frost but the
    middle band is only Slight."""
    return _categories(CHEMICAL, float(rh))


# ---------------------------------------------------------------------------
# risk grids

# The most cells build_risk_grid makes and the most pixels render_grid draws.
# Both sizes are known from the arguments, so a grid above them is a
# DomainError before anything is allocated; a PPM pixel takes up to 12 bytes
# of text.
MAX_GRID_CELLS = 10 ** 6
MAX_GRID_PIXELS = 10 ** 7


@dataclass(frozen=True)
class RiskGrid:
    """Element-by-time-bin categories. cells is an object array holding a
    CorrosionStatus or RiskLevel per cell, or None where every reading in
    the bin was missing (or the bin had no readings)."""

    kind: str
    elements: tuple
    bin_starts: np.ndarray
    cells: np.ndarray

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def n_bins(self):
        return self.bin_starts.size


def build_risk_grid(series, kind=CORROSION, bin_width=1.0, fill_radius=None):
    """Reduce per-element histories to a categorical risk grid.

    Args:
        series: mapping of element name to a HygroSeries, or to a sequence
            of HygroSample, with strictly increasing timestamps.
        kind: "corrosion", "frost" or "chemical".
        bin_width: time bin width in days.
        fill_radius: optional moving-average radius used to impute missing
            readings before binning; gaps too wide to fill stay missing.

    A cell is classified from the mean temperature and humidity of its bin.
    Whether a cell counts as missing is decided by the original flags alone:
    it is missing exactly when the bin contains no reading or every reading
    in it was flagged missing, regardless of imputation. A grid of more than
    MAX_GRID_CELLS cells is a DomainError.
    """
    if kind not in GRID_KINDS:
        raise DomainError("unknown grid kind %r" % kind)
    if not series:
        raise ShapeError("need at least one element history")
    if not 0.0 < bin_width < math.inf:
        raise DomainError("bin width must be a positive finite number of days")

    elements = tuple(series.keys())
    histories = []
    for name in elements:
        hs = series[name]
        if not isinstance(hs, HygroSeries):
            hs = HygroSeries.from_samples(hs)
        if hs.ts.size == 0:
            raise ShapeError("element %r has no samples" % name)
        if np.any(np.diff(hs.ts) <= 0):
            raise DomainError("element %r timestamps must be strictly increasing" % name)
        histories.append(hs)
    # timestamps increase, so each element starts at its first reading and
    # ends at its last
    t_min = min(float(hs.ts[0]) for hs in histories)
    t_max = max(float(hs.ts[-1]) for hs in histories)

    # min() keeps a huge bin count finite; it still fails the check below.
    n_bins = math.floor(min((t_max - t_min) / bin_width, MAX_GRID_CELLS)) + 1
    if len(elements) * n_bins > MAX_GRID_CELLS:
        raise DomainError("bin width %r makes more than %d grid cells"
                          % (bin_width, MAX_GRID_CELLS))
    columns = []
    for hs in histories:
        temp, rh, miss = hs.t_celsius, hs.rh, hs.missing
        if fill_radius is not None and miss.any() and not miss.all():
            temp = moving_average_fill(temp, fill_radius, empty_window="keep")
            rh = moving_average_fill(rh, fill_radius, empty_window="keep")
        columns.append((hs.ts, temp, rh, miss))
    bin_starts = t_min + bin_width * np.arange(n_bins)
    cells = np.full((len(elements), n_bins), None, dtype=object)

    for ei, (ts, temp, rh, miss) in enumerate(columns):
        idx = np.minimum(
            np.floor((ts - t_min) / bin_width).astype(int), n_bins - 1
        )
        bins = np.flatnonzero(np.bincount(idx[~miss], minlength=n_bins))
        if bins.size == 0:
            continue
        # readings the classifier sees, still in time order: each bin is one
        # contiguous segment of them
        keep = np.isfinite(temp) & np.isfinite(rh)
        counts = np.bincount(idx[keep], minlength=n_bins)
        starts = np.cumsum(counts) - counts
        mean_t, mean_rh = segment_means(np.stack([temp[keep], rh[keep]]), starts[bins],
                                        counts[bins])
        values = _rate_array(mean_t, mean_rh)[0] if kind == CORROSION else mean_rh
        cells[ei, bins] = _categories(kind, values)
    return RiskGrid(
        kind=kind,
        elements=elements,
        bin_starts=bin_starts,
        cells=cells,
    )


# category value 0 grades green through yellow and orange to red at 3;
# missing cells render white.
PALETTE = {
    0: (0, 128, 0),
    1: (255, 255, 0),
    2: (255, 165, 0),
    3: (255, 0, 0),
    None: (255, 255, 255),
}


def grid_rows(grid):
    """(element, bin_start, category_name) triples, row-major."""
    starts = grid.bin_starts.tolist()
    # _name_ is the plain attribute behind the slower enum property .name
    return [(name, start, "Missing" if cell is None else cell._name_)
            for name, row in zip(grid.elements, grid.cells) for start, cell in zip(starts, row)]


def render_grid(grid, ppm_path, csv_path=None, scale=1):
    """Write the grid as a plain-text PPM image, optionally with a CSV twin.

    One grid row per element, one column per time bin, each cell scaled to
    a scale-by-scale pixel block. The image is plain P3: header lines "P3",
    "<width> <height>", "255", then one line of space-separated r g b
    triplets per pixel row. An image of more than MAX_GRID_PIXELS pixels is
    a DomainError.
    """
    scale = int(scale)
    if scale < 1:
        raise DomainError("scale must be >= 1")
    if grid.n_bins * grid.n_elements * scale * scale > MAX_GRID_PIXELS:
        raise DomainError("scale %d makes more than %d pixels" % (scale, MAX_GRID_PIXELS))
    width = grid.n_bins * scale
    height = grid.n_elements * scale
    # one cell's run of scale pixels, by category (an IntEnum hashes as its value)
    runs = {key: " ".join(["%d %d %d" % rgb] * scale) for key, rgb in PALETTE.items()}
    lines = ["P3", "%d %d" % (width, height), "255"]
    for row in grid.cells:
        lines.extend([" ".join([runs[cell] for cell in row])] * scale)
    atomic_write_text(ppm_path, "\n".join(lines) + "\n")
    if csv_path is not None:
        write_table(csv_path, ("element", "bin_start", "category"), grid_rows(grid))


def read_series_csv(path, rh_percent=False):
    """Per-element HygroSeries, in order of first appearance, from a logger
    CSV read line by line; rh_percent reads humidities in percent. A reading
    with an empty temperature or humidity field is missing."""
    columns = {}
    nan = float("nan")
    with read_rows(path) as reader:
        header = next(reader, None)
        if header not in (None, ["element", "timestamp", "t_celsius", "rh"]):
            raise ParseError("series file needs header element,timestamp,t_celsius,rh")
        for rec in reader:
            if len(rec) != 4:
                raise ParseError("a series record needs 4 fields")
            name, ts, t_c, rh = rec
            try:
                ts = float(ts)
            except ValueError:
                raise ParseError("a series record has a bad timestamp") from None
            missing = t_c.strip() == "" or rh.strip() == ""
            try:
                t_c, rh = (nan, nan) if missing else (float(t_c), float(rh))
            except ValueError:
                raise ParseError("a series record has a bad reading") from None
            col = columns.get(name)
            if col is None:
                if name.splitlines() != [name]:
                    raise ParseError("element %r is not one line" % name)
                col = columns[name] = ([], [], [], [])
            col[0].append(ts)
            col[1].append(t_c)
            col[2].append(rh)
            col[3].append(missing)
    if not columns:
        raise ParseError("series file has no rows")
    return {name: HygroSeries(ts, t_c, np.array(rh) / 100.0 if rh_percent else rh, missing)
            for name, (ts, t_c, rh, missing) in columns.items()}

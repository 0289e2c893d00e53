"""Typed tabular data: schema, CSV ingestion, indicator encoding, min-max
normalization, segment sums, moving-average gap filling, and partitioning.

Conventions used throughout the package:

* CSV files are comma separated with a header row, "." as the decimal point,
  and an empty cell meaning missing (fields may be quoted, so values
  containing commas are fine).
* A schema file is line-oriented text, one column per line:
  ``name,kind,role[,levels;semicolon;separated]`` where kind is
  ``continuous`` or ``nominal`` and role is ``input``, ``target`` or
  ``ignored``. Nominal lines carry their level labels in the fourth field,
  separated by semicolons.
* Inside a Dataset, nominal cells hold the integer index of their level.
  Tree models consume those indices directly; network models require
  encode_one_of_n first.
"""

from dataclasses import dataclass

import numpy as np

# atomic_write_text is bound here so profiling shims (bench/tracing.py) can wrap
# it on every module.
from ._io import atomic_write_text, read_rows, write_table
from .errors import (
    DegenerateSplit,
    DomainError,
    EmptySelection,
    InvalidK,
    ParseError,
    SchemaViolation,
    ShapeError,
    UnfillableGap,
)

CONTINUOUS = "continuous"
NOMINAL = "nominal"

INPUT = "input"
TARGET = "target"
IGNORED = "ignored"


@dataclass(frozen=True)
class Column:
    """One schema column: a name, a kind, a role, and levels when nominal."""

    name: str
    kind: str
    role: str = INPUT
    levels: tuple = ()

    def __post_init__(self):
        if self.name.splitlines() != [self.name]:
            raise SchemaViolation("column name %r is not one non-empty line" % self.name)
        if self.kind not in (CONTINUOUS, NOMINAL):
            raise SchemaViolation("unknown kind %r for column %r" % (self.kind, self.name))
        if self.role not in (INPUT, TARGET, IGNORED):
            raise SchemaViolation("unknown role %r for column %r" % (self.role, self.name))
        if self.kind == NOMINAL:
            if not self.levels:
                raise SchemaViolation("nominal column %r has no levels" % self.name)
            for level in self.levels:
                if level.splitlines() != [level]:
                    raise SchemaViolation("column %r has a level %r that is not one "
                                          "non-empty line" % (self.name, level))
            if len(set(self.levels)) != len(self.levels):
                raise SchemaViolation("duplicate levels in column %r" % self.name)
        elif self.levels:
            raise SchemaViolation("continuous column %r must not declare levels" % self.name)


@dataclass(frozen=True)
class Schema:
    columns: tuple

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaViolation("duplicate column names")
        targets = [c for c in self.columns if c.role == TARGET]
        if len(targets) != 1:
            raise SchemaViolation("schema needs exactly one target column, found %d" % len(targets))
        if targets[0].kind != CONTINUOUS:
            raise SchemaViolation("target column %r must be continuous" % targets[0].name)

    @property
    def names(self):
        return tuple(c.name for c in self.columns)

    @property
    def target_index(self):
        for i, c in enumerate(self.columns):
            if c.role == TARGET:
                return i
        raise SchemaViolation("no target column")

    @property
    def input_indices(self):
        return tuple(i for i, c in enumerate(self.columns) if c.role == INPUT)

    def column_index(self, name):
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise SchemaViolation("no column named %r" % name)


def schema(columns):
    """Build a Schema from (name, kind, role[, levels]) tuples or Columns."""
    cols = []
    for spec in columns:
        if isinstance(spec, Column):
            cols.append(spec)
        else:
            name, kind, role = spec[0], spec[1], spec[2]
            levels = tuple(spec[3]) if len(spec) > 3 else ()
            cols.append(Column(name, kind, role, levels))
    return Schema(tuple(cols))


@dataclass(frozen=True)
class Dataset:
    """Immutable value matrix plus missing mask under a Schema.

    values is an N x p float matrix; continuous cells are finite reals and
    nominal cells are level indices stored as floats. missing marks absent
    cells; the stored value under a missing cell is zero and meaningless.
    """

    schema: Schema
    values: np.ndarray
    missing: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        missing = np.asarray(self.missing, dtype=bool)
        if values.ndim != 2 or missing.shape != values.shape:
            raise ShapeError("values and missing mask must be matching 2-d arrays")
        if values.shape[0] < 1:
            raise ShapeError("dataset needs at least one row")
        if values.shape[1] != len(self.schema.columns):
            raise ShapeError(
                "schema has %d columns but matrix has %d"
                % (len(self.schema.columns), values.shape[1])
            )
        present = ~missing
        if not np.all(np.isfinite(values[present])):
            raise ShapeError("non-finite value in a non-missing cell")
        for j, col in enumerate(self.schema.columns):
            if col.kind == NOMINAL:
                cells = values[present[:, j], j]
                if cells.size and (
                    np.any(cells < 0)
                    or np.any(cells >= len(col.levels))
                    or np.any(cells != np.round(cells))
                ):
                    raise SchemaViolation(
                        "nominal column %r holds an out-of-range level index" % col.name
                    )
        values = values.copy()
        values[missing] = 0.0
        values.setflags(write=False)
        missing = missing.copy()
        missing.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "missing", missing)

    @property
    def n_rows(self):
        return self.values.shape[0]

    @property
    def n_cols(self):
        return self.values.shape[1]

    def input_matrix(self, rows=None):
        """Inputs as a float matrix with nan marking missing cells."""
        idx = np.asarray(self.schema.input_indices, dtype=int)
        rows = np.arange(self.n_rows) if rows is None else np.asarray(rows, dtype=int)
        x = self.values[np.ix_(rows, idx)].copy()
        x[self.missing[np.ix_(rows, idx)]] = np.nan
        return x

    def target_vector(self, rows=None):
        """Target values with nan marking missing cells."""
        t = self.schema.target_index
        rows = np.arange(self.n_rows) if rows is None else np.asarray(rows, dtype=int)
        y = self.values[rows, t].copy()
        y[self.missing[rows, t]] = np.nan
        return y

    def input_kinds(self):
        """(is_nominal mask, level counts) for the input columns, in order."""
        cols = [self.schema.columns[i] for i in self.schema.input_indices]
        nominal = np.array([c.kind == NOMINAL for c in cols], dtype=bool)
        counts = np.array([len(c.levels) for c in cols], dtype=int)
        return nominal, counts


@dataclass(frozen=True)
class Partition:
    """Either disjoint holdout index lists or a per-row fold assignment."""

    train: tuple = ()
    validation: tuple = ()
    test: tuple = ()
    folds: tuple = ()
    k: int = 0


@dataclass(frozen=True)
class NormalizationSpec:
    """Per-column min-max bounds mapping on to [y_min, y_max].

    Columns whose bounds are equal or non-finite (nominal columns, constant
    columns, all-missing columns) pass through apply and invert unchanged.
    """

    x_min: np.ndarray
    x_max: np.ndarray
    y_min: float = -1.0
    y_max: float = 1.0

    def __post_init__(self):
        if not self.y_min < self.y_max:
            raise DomainError("normalization output range is empty")
        object.__setattr__(self, "x_min", np.asarray(self.x_min, dtype=float))
        object.__setattr__(self, "x_max", np.asarray(self.x_max, dtype=float))

    def active(self):
        """Mask of columns that actually rescale."""
        return (
            np.isfinite(self.x_min)
            & np.isfinite(self.x_max)
            & (self.x_max != self.x_min)
        )


# ---------------------------------------------------------------------------
# schema files


def read_schema(path):
    """Parse a line-oriented schema file (see module docstring)."""
    cols = []
    with read_rows(path) as reader:
        for record in reader:
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if len(record) < 3:
                raise ParseError("%s line %d: a schema record needs name,kind,role"
                                 % (path, reader.line_num))
            name, kind, role = (f.strip() for f in record[:3])
            levels = ()
            if len(record) > 3 and record[3].strip():
                levels = tuple(p.strip() for p in record[3].split(";"))
            cols.append(Column(name, kind, role, levels))
    if not cols:
        raise ParseError("schema file %s is empty" % path)
    return Schema(tuple(cols))


# ---------------------------------------------------------------------------
# ingestion


def ingest_csv(path, sch):
    """Load a CSV file under an explicit schema.

    Args:
        path: file path; comma separated, header row first.
        sch: Schema whose column names must match the header exactly.

    Returns:
        Dataset with the missing mask set for empty cells. Blank lines at
        the end of the file are ignored; a blank line between rows is a
        ParseError.
    """
    with read_rows(path) as reader:
        header = next(reader, None)
        records = list(reader)
    if header is None:
        raise ParseError("%s has no header row" % path)
    while records and not records[-1]:
        records.pop()

    header = [h.strip() for h in header]
    if tuple(header) != sch.names:
        raise SchemaViolation(
            "header %r does not match schema columns %r" % (header, list(sch.names))
        )
    if not records:
        raise ParseError("%s has no data rows" % path)

    n, p = len(records), len(sch.columns)
    values = np.zeros((n, p))
    missing = np.zeros((n, p), dtype=bool)
    # The rows before the first one of the wrong length are read column by
    # column; the fault reported is the first in row order, the one a
    # row-by-row reader meets first.
    good = next((i for i, record in enumerate(records) if len(record) != p), n)
    rows, faults = records if good == n else records[:good], []
    for j, col in enumerate(sch.columns if good else ()):
        cells = [record[j].strip() for record in rows]
        missing[:good, j] = [cell == "" for cell in cells]
        column, fault = _read_column(col, cells)
        values[:good, j] = column
        if fault is not None:
            faults.append((fault[0], j, fault[1]))
    if faults:
        raise min(faults, key=lambda fault: fault[:2])[2]
    if good < n:
        raise ParseError("row %d has %d fields, expected %d" % (good + 1, len(records[good]), p))
    return Dataset(sch, values, missing)


def _read_column(col, cells):
    """(values, fault) of one column's stripped cells, an empty one reading
    0; fault is (row, error) of its first bad cell, or None."""
    if col.kind != CONTINUOUS:
        index = {}
        for code, level in enumerate(col.levels):
            index.setdefault(level, code)
        codes = np.fromiter((index.get(cell, -1) if cell else 0 for cell in cells), np.intp,
                            len(cells))
        unknown = np.flatnonzero(codes < 0)
        if unknown.size:
            i = int(unknown[0])
            return codes, (i, SchemaViolation("row %d, column %r: unknown level %r"
                                              % (i + 1, col.name, cells[i])))
        return codes, None
    try:
        column = np.fromiter((float(cell) if cell else 0.0 for cell in cells), float, len(cells))
        bad = len(cells)
    except ValueError:
        column = np.zeros(len(cells))
        for bad, cell in enumerate(cells):
            try:
                column[bad] = float(cell) if cell else 0.0
            except ValueError:
                break
    infinite = np.flatnonzero(~np.isfinite(column[:bad]))
    if infinite.size:
        i = int(infinite[0])
        return column, (i, ParseError("row %d, column %r: non-finite value %r"
                                      % (i + 1, col.name, cells[i])))
    if bad < len(cells):
        return column, (bad, ParseError("row %d, column %r: cannot parse %r as a number"
                                        % (bad + 1, col.name, cells[bad])))
    return column, None


def write_csv(path, ds):
    """Write a Dataset back to CSV (labels for nominal cells, empty=missing)."""
    rows = []
    for i in range(ds.n_rows):
        record = []
        for j, col in enumerate(ds.schema.columns):
            if ds.missing[i, j]:
                record.append(None)
            elif col.kind == NOMINAL:
                record.append(col.levels[int(ds.values[i, j])])
            else:
                record.append(repr(float(ds.values[i, j])))
        rows.append(record)
    write_table(path, ds.schema.names, rows)


# ---------------------------------------------------------------------------
# encoding


def encode_one_of_n(ds):
    """Replace each nominal column by one 0/1 indicator column per level.

    Exactly one indicator is 1 for a present cell; a missing nominal cell
    yields all-missing indicators. Continuous columns pass through unchanged.
    Network models require this encoding; tree models do not.
    """
    out_cols = []
    blocks = []
    miss_blocks = []
    for j, col in enumerate(ds.schema.columns):
        if col.kind == CONTINUOUS:
            out_cols.append(col)
            blocks.append(ds.values[:, j : j + 1])
            miss_blocks.append(ds.missing[:, j : j + 1])
            continue
        levels = len(col.levels)
        idx = ds.values[:, j].astype(int)
        present = ~ds.missing[:, j]
        block = np.zeros((ds.n_rows, levels))
        block[present, idx[present]] = 1.0
        miss = np.repeat(ds.missing[:, j : j + 1], levels, axis=1)
        for label in col.levels:
            out_cols.append(Column("%s=%s" % (col.name, label), CONTINUOUS, col.role))
        blocks.append(block)
        miss_blocks.append(miss)
    return Dataset(
        Schema(tuple(out_cols)),
        np.hstack(blocks),
        np.hstack(miss_blocks),
    )


# ---------------------------------------------------------------------------
# normalization


def fit_normalization(ds, train_rows=None):
    """Learn per-column min-max bounds onto [-1, 1] from the training rows only."""
    rows = np.arange(ds.n_rows) if train_rows is None else np.asarray(train_rows, dtype=int)
    if rows.size == 0:
        raise EmptySelection("cannot fit normalization on zero rows")
    p = ds.n_cols
    x_min = np.full(p, np.nan)
    x_max = np.full(p, np.nan)
    for j, col in enumerate(ds.schema.columns):
        if col.kind != CONTINUOUS:
            continue
        present = rows[~ds.missing[rows, j]]
        if present.size == 0:
            continue
        x_min[j] = ds.values[present, j].min()
        x_max[j] = ds.values[present, j].max()
    return NormalizationSpec(x_min, x_max)


def _map_active_columns(spec, values, fn):
    """fn(column, j) over the active columns of a matrix (or of a single
    column given 1-d input); degenerate columns pass through unchanged."""
    x = np.asarray(values, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    out = x.copy()
    if x.shape[1] != spec.x_min.size:
        raise ShapeError("matrix width %d does not match spec" % x.shape[1])
    for j in np.nonzero(spec.active())[0]:
        out[:, j] = fn(x[:, j], j)
    return out[:, 0] if squeeze else out


def apply_normalization(spec, values):
    """Rescale a matrix (or single column given 1-d input) into the range:
    y = (y_max - y_min) * (x - x_min) / (x_max - x_min) + y_min per column."""
    span = spec.y_max - spec.y_min
    return _map_active_columns(spec, values, lambda x, j: (
        span * (x - spec.x_min[j]) / (spec.x_max[j] - spec.x_min[j]) + spec.y_min
    ))


def invert_normalization(spec, values):
    """Inverse of apply_normalization on non-degenerate columns."""
    span = spec.y_max - spec.y_min
    return _map_active_columns(spec, values, lambda y, j: (
        (y - spec.y_min) * (spec.x_max[j] - spec.x_min[j]) / span + spec.x_min[j]
    ))


def column_spec(spec, j):
    """Single-column view of a NormalizationSpec (for target denormalizing)."""
    return NormalizationSpec(
        spec.x_min[j : j + 1], spec.x_max[j : j + 1], spec.y_min, spec.y_max
    )


# ---------------------------------------------------------------------------
# segment sums and gap filling


def _ranges(starts, lengths):
    """The runs starts[i], ..., starts[i] + lengths[i] - 1, one after another."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if ends.size else 0)


def segment_sums(values, lengths):
    """Sums of the consecutive segments of the last axis of values, of the
    given lengths, which are sorted. Each run of equal lengths is one
    (segments x length) view summed along its rows, which keeps the bits of
    each segment's own sum; a padded or reduceat sum would not."""
    ends = (np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist() + [lengths.size]
    out, at, i = np.empty(values.shape[:-1] + (lengths.size,)), 0, 0
    for end in ends:
        n, count = int(lengths[i]), end - i
        block = values[..., at:at + n * count].reshape(values.shape[:-1] + (count, n))
        out[..., i:end] = block.sum(axis=-1)
        at, i = at + n * count, end
    return out


def segment_means(values, starts, counts):
    """Mean of each segment values[..., s:s + c] for s, c in zip(starts, counts),
    in any order and possibly overlapping; every count must be at least 1. The
    segments are gathered shortest first with a take along the last axis
    (values[..., index] would put a leading axis innermost and sum in another
    order), so segment_sums gives each mean the bits of its slice's mean()."""
    order = np.argsort(counts, kind="stable")
    n = counts[order]
    out = np.empty(values.shape[:-1] + (n.size,))
    if n.size:
        out[..., order] = segment_sums(values.take(_ranges(starts[order], n), axis=-1), n) / n
    return out


def moving_average_fill(series, m, smooth=False, empty_window="error"):
    """Fill missing points of a series with a centered moving average.

    Args:
        series: 1-d float array, nan marking missing points.
        m: half window; the nominal span is 2m+1. Near the boundaries the
            window shrinks symmetrically, keeping the point centered.
        smooth: when True observed points are replaced by their window mean
            as well; when False observed values are never altered.
        empty_window: "error" raises UnfillableGap when a missing point has
            no observed neighbor in its window; "keep" leaves it missing.

    Returns:
        New array of the same length. Each filled value is the mean of the
        observed values in its window, taken in series order, so it equals
        x[window][observed[window]].mean() exactly.
    """
    x = np.asarray(series, dtype=float).copy()
    if x.ndim != 1:
        raise ShapeError("series must be one-dimensional")
    if m < 1:
        raise DomainError("half window m must be >= 1")
    n = x.size
    if n < 2 * m + 1:
        raise DomainError("series length %d is shorter than the window span %d" % (n, 2 * m + 1))
    observed = np.isfinite(x)
    points = np.arange(n) if smooth else np.flatnonzero(~observed)
    if points.size == 0:
        return x
    radius = np.minimum(m, np.minimum(points, n - 1 - points))
    obs_idx = np.flatnonzero(observed)
    first = np.searchsorted(obs_idx, points - radius)
    count = np.searchsorted(obs_idx, points + radius + 1) - first
    empty = count == 0
    if empty.any():
        if empty_window != "keep":
            i = int(points[np.argmax(empty)])
            k = int(np.searchsorted(obs_idx, i))
            lo = int(obs_idx[k - 1]) + 1 if k > 0 else 0
            hi = int(obs_idx[k]) - 1 if k < obs_idx.size else n - 1
            raise UnfillableGap(
                "no observed value within the window of point %d (gap spans %d..%d)"
                % (i, lo, hi)
            )
        points, first, count = points[~empty], first[~empty], count[~empty]
    x[points] = segment_means(x[obs_idx], first, count)
    return x


# ---------------------------------------------------------------------------
# partitioning


def _largest_remainder(n, fractions):
    exact = [f * n for f in fractions]
    base = [int(np.floor(e)) for e in exact]
    short = n - sum(base)
    remainders = sorted(
        range(len(fractions)), key=lambda i: (-(exact[i] - base[i]), i)
    )
    for i in remainders[:short]:
        base[i] += 1
    return base


def split_holdout(ds, fractions, seed=0):
    """Shuffle rows and split into train/validation/test index lists.

    Sizes follow the largest-remainder rule, so round fractions are exact:
    fractions (0.6, 0.2, 0.2) on 10 rows give sizes (6, 2, 2). A zero
    validation fraction yields an empty validation part (a two-way split);
    fractions that leave the test part empty raise DomainError.
    """
    n = ds if isinstance(ds, (int, np.integer)) else ds.n_rows
    fracs = [float(f) for f in fractions]
    if len(fracs) != 3:
        raise DomainError("fractions must be (train, validation, test)")
    if not np.all(np.isfinite(fracs)):
        raise DomainError("fractions must be finite, got %r" % (fracs,))
    if any(f < 0 for f in fracs) or not any(f > 0 for f in fracs):
        raise DomainError("fractions must be non-negative with a positive sum")
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise DomainError("fractions must sum to 1")
    if n < 3:
        raise DegenerateSplit("cannot split %d rows" % n)
    sizes = _largest_remainder(n, fracs)
    if sizes[2] == 0:
        raise DomainError("test fraction %r of %d rows leaves the test split empty"
                          % (fracs[2], n))
    order = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    a, b = sizes[0], sizes[0] + sizes[1]
    return Partition(
        train=tuple(int(i) for i in order[:a]),
        validation=tuple(int(i) for i in order[a:b]),
        test=tuple(int(i) for i in order[b:]),
    )


def kfold(ds, k, seed=0):
    """Assign every row to one of k shuffled folds of near-equal size."""
    n = ds if isinstance(ds, (int, np.integer)) else ds.n_rows
    k = int(k)
    if k < 2 or k > n:
        raise InvalidK("k must satisfy 2 <= k <= %d, got %d" % (n, k))
    order = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    folds = np.empty(n, dtype=int)
    sizes = _largest_remainder(n, [1.0 / k] * k)
    start = 0
    for fold, size in enumerate(sizes):
        folds[order[start : start + size]] = fold
        start += size
    return Partition(folds=tuple(int(f) for f in folds), k=k)


# ---------------------------------------------------------------------------
# filtering


def drop_columns(ds, names):
    """Dataset without the named columns (the target cannot be dropped)."""
    names = set(names)
    for name in names:
        ds.schema.column_index(name)
    target = ds.schema.columns[ds.schema.target_index].name
    if target in names:
        raise SchemaViolation("cannot drop the target column %r" % target)
    keep = [j for j, c in enumerate(ds.schema.columns) if c.name not in names]
    return Dataset(
        Schema(tuple(ds.schema.columns[j] for j in keep)),
        ds.values[:, keep],
        ds.missing[:, keep],
    )

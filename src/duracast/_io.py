"""Deterministic file output helpers and the one CSV table writer, the UTF-8
file opener and the one CSV record reader, the model-file header reader, the
risk-grid kind names, and LazyModule, through which cli and models load a
submodule on first use.

All artifacts are written atomically (temporary file in the target directory,
then rename) and floats are printed with 17 significant digits so that the
decimal text round-trips to the exact same IEEE double.
"""

import contextlib
import csv
import importlib
import io
import os
import tempfile

import numpy as np

from .errors import DuracastError, IoError, ParseError

# Risk-grid kinds, in the order `risk --kind all` renders them. They live
# here, apart from durability, so the command-line parser can list them
# without loading the grid code.
CORROSION = "corrosion"
FROST = "frost"
CHEMICAL = "chemical"
GRID_KINDS = (CORROSION, FROST, CHEMICAL)


class LazyModule:
    """A duracast submodule, imported on its first attribute access.

    Every access reads the attribute from the module itself, so a function
    replaced on its module after import (a profiling shim) is the one that
    runs.
    """

    def __init__(self, name):
        self._name = "%s.%s" % (__package__, name)

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


def fmt_float(x):
    """Format a float so the printed text parses back bit-exact."""
    return "%.17g" % float(x)


def atomic_write_text(path, text):
    """Write text to path via a same-directory temp file and rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-duracast-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError("cannot write %s: %s" % (path, exc)) from exc


def write_table(path, header, rows):
    """Write a CSV table: the header, then one line per row of cells.

    A float cell prints through fmt_float, None as an empty cell, and csv
    prints any other cell, quoting one that holds a comma, a quote or a line
    break.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([fmt_float(c) if isinstance(c, float) else c for c in row] for row in rows)
    # looked up at call time, so a profiling shim on _io sees every table
    atomic_write_text(path, buf.getvalue())


@contextlib.contextmanager
def open_text(path):
    """A UTF-8 text file open for reading in a with block, newlines kept and
    a leading byte-order mark (as spreadsheet "CSV UTF-8" exports write)
    dropped. An unreadable file raises IoError and one not in UTF-8
    ParseError."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not UTF-8 text: %s" % (path, exc)) from None
    except OSError as exc:
        raise IoError("cannot read %s: %s" % (path, exc)) from exc


@contextlib.contextmanager
def read_rows(path):
    """A csv.reader over the records of the UTF-8 text file at path, in a with
    block: the mirror of write_table. A line ends at "\n", "\r\n" or a bare
    "\r", and a quoted cell may hold any of them. A malformed record, such as
    one with a field over csv's field size limit, raises ParseError, and a
    DuracastError raised in the block is raised again as its class, both
    with "<path> line <N>: " before the message, N the last line read."""
    with open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except (csv.Error, DuracastError) as exc:
            kind = ParseError if isinstance(exc, csv.Error) else type(exc)
            raise kind("%s line %d: %s" % (path, reader.line_num, exc)) from None


def raise_at_record(path, index, exc):
    """Raise exc as read_rows does at record `index` (0 the first), re-reading path to it."""
    with read_rows(path) as reader:
        for _ in zip(range(index + 1), reader):
            pass
        raise exc


def float_array(text):
    return np.array([float(v) for v in text.split()])


def float_pair(text):
    lo, hi = text.split()
    return float(lo), float(hi)


def word(text):
    (value,) = text.split()
    return value


def read_model(lines, magic, fields, build, indexed=(), body=None):
    """Parse a model file: its magic line, a header block, then a body.

    The header block holds `key value...` lines up to the first line whose
    key is `body` (or to the end). fields maps each key to a converter of
    the text after the key; a key in `indexed` takes an integer index first
    and collects {index: value}. Blank lines are skipped and a repeated key
    keeps its last value. build(values, body_lines) makes the model.

    An unknown key, a value its converter rejects, and a missing key or an
    invalid model in build all raise ParseError.
    """
    if not lines or lines[0].split() != magic.split():
        raise ParseError("not a %s file (missing %r header)" % (magic, magic))
    values = {key: {} for key in indexed}
    end = len(lines)
    for i in range(1, len(lines)):
        parts = lines[i].split(None, 1)
        if not parts:
            continue
        key = parts[0]
        if key == body:
            end = i
            break
        if key not in fields:
            raise ParseError("unknown line %r in %s file" % (key, magic))
        rest = parts[1] if len(parts) > 1 else ""
        try:
            if key in indexed:
                index, rest = rest.split(None, 1)
                values[key][int(index)] = fields[key](rest)
            else:
                values[key] = fields[key](rest)
        except (ValueError, IndexError, DuracastError) as exc:
            raise ParseError("bad %s line %r: %s" % (magic, lines[i], exc)) from None
    try:
        return build(values, lines[end:])
    except ParseError:
        raise
    except (ValueError, IndexError, KeyError, DuracastError) as exc:
        raise ParseError("bad or incomplete %s file: %r" % (magic, exc)) from None

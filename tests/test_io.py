import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duracast._io import read_rows, write_table

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# csv.writer with lineterminator "\n" leaves a bare "\r" unquoted, so a cell
# holding one would split its row; element and column names are one line.
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r")
               | st.sampled_from(',"\n'))
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.just(-0.0)
CELLS = st.one_of(
    TEXT,
    FLOATS,
    FLOATS.map(np.float64),
    st.integers(-2 ** 70, 2 ** 70),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.none(),
)


def _bits(x):
    return struct.pack("<d", x)


def _same(cell, text):
    if cell is None:
        return text == ""
    if isinstance(cell, float):
        back = float(text)
        return math.isnan(back) if math.isnan(cell) else _bits(back) == _bits(cell)
    if isinstance(cell, (int, np.integer)):
        return int(text) == cell
    return text == cell


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda width: st.tuples(st.lists(TEXT, min_size=width, max_size=width),
                            st.lists(st.lists(CELLS, min_size=width, max_size=width),
                                     max_size=6))))
def test_every_cell_reads_back(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.mktemp("table") / "t.csv"
    write_table(path, header, rows)
    back = _records(path)
    assert back[0] == header
    assert len(back) == len(rows) + 1
    for row, got in zip(rows, back[1:]):
        assert len(got) == len(row)
        assert all(_same(cell, text) for cell, text in zip(row, got)), (row, got)


def _records(path):
    with read_rows(path) as reader:
        return list(reader)


@pytest.mark.parametrize("name", ["cli.train.csv", "cli.schema.csv", "risk.logger.csv"])
def test_every_line_end_reads_the_same_records(tmp_path, name):
    path = os.path.join(DATA_DIR, name)
    with open(path, "rb") as fh:
        text = fh.read()
    records = _records(path)
    assert len(records) == text.count(b"\n") > 1
    for end in (b"\r\n", b"\r"):
        copy = tmp_path / name
        copy.write_bytes(text.replace(b"\n", end))
        assert _records(copy) == records


def test_a_quoted_cell_keeps_its_line_breaks_and_a_nul_byte_is_text(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b'a,"b\nc\r\nd\re",f\x00g\r\n"h""",i\n')
    assert _records(path) == [["a", "b\nc\r\nd\re", "f\x00g"], ['h"', "i"]]

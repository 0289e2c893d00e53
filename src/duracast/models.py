"""Model-file codec and the tabular network pipeline.

A saved model is one of four text formats, named by its first line:
``tree v1`` (tree.to_text), ``ensemble v1`` (ensemble.to_text), ``mlpreg v1``
(a tabular network with its normalization bounds, written here) and
``narx v1`` (neural.narx_lines). CODECS maps that header line to the model
kind, its parser and, for tabular models, the function that scores a
dataset; load_model and predict_tabular go through that table only. Every
entry looks its functions up on their module at call time, so a function
replaced on its module after import (a profiling shim) is the one that runs.

A tabular network (mlpreg) encodes nominal columns one-of-N, scales every
column into [-1, 1] with bounds from the training rows, and drops rows with
a missing cell. fit_mlp and predict_mlp are the one copy of that pipeline
that train, crossval and predict share.
"""

import warnings
from collections import namedtuple

import numpy as np

from . import data, ensemble, neural, tree
from ._io import float_array, float_pair, fmt_float, read_model, read_text
from .errors import ConfigError, ParseError, ShapeError

# ---------------------------------------------------------------------------
# tabular network (encoding + scaling + net in one file)


def mlpreg_text(net, spec):
    lines = [
        "mlpreg v1",
        "norm_x_min " + " ".join(fmt_float(v) for v in spec.x_min),
        "norm_x_max " + " ".join(fmt_float(v) for v in spec.x_max),
        "norm_y %s %s" % (fmt_float(spec.y_min), fmt_float(spec.y_max)),
    ]
    return "\n".join(lines + neural.mlp_lines(net)) + "\n"


def _build_mlpreg(v, body):
    y_min, y_max = v.get("norm_y", (-1.0, 1.0))
    spec = data.NormalizationSpec(v["norm_x_min"], v["norm_x_max"], y_min, y_max)
    return neural.mlp_from_lines(body), spec


def mlpreg_from_lines(lines):
    """(MlpNetwork, NormalizationSpec) from the lines of a mlpreg v1 file."""
    fields = {"norm_x_min": float_array, "norm_x_max": float_array, "norm_y": float_pair}
    return read_model(lines, "mlpreg v1", fields, _build_mlpreg, body="mlp")


def complete_rows(enc, rows):
    """The rows, as an index array, that have no missing cell."""
    rows = np.asarray(rows, dtype=int)
    return rows[~enc.missing[rows].any(axis=1)]


def fit_mlp(enc, train_rows, validation_rows, hidden, state, seed):
    """Fit a one-hidden-layer network on an encoded dataset.

    Bounds come from the training rows. Incomplete training rows are dropped
    with a warning; complete validation rows, if any, drive early stopping.

    Returns:
        (MlpNetwork, NormalizationSpec)
    """
    spec = data.fit_normalization(enc, train_rows)
    scaled = data.apply_normalization(spec, enc.values)
    inputs, target = list(enc.schema.input_indices), enc.schema.target_index
    keep = complete_rows(enc, train_rows)
    if keep.size < len(train_rows):
        warnings.warn("dropped %d incomplete training row(s)" % (len(train_rows) - keep.size))
    if keep.size == 0:
        raise ShapeError("no complete training rows for the network")
    val = complete_rows(enc, validation_rows)
    validation = (scaled[np.ix_(val, inputs)], scaled[val, target]) if val.size else None
    net = neural.make_mlp((len(inputs), hidden, 1), seed=seed)
    train = (scaled[np.ix_(keep, inputs)], scaled[keep, target])
    net, _history = neural.train_lm(net, train, validation, state)
    return net, spec


def predict_mlp(net, spec, enc, rows=None):
    """Network predictions in target units for rows (every row when None)."""
    scaled = data.apply_normalization(spec, enc.values)
    inputs = list(enc.schema.input_indices)
    # scaled[:, inputs] is column-major and the np.ix_ gather row-major. The
    # matrix product can round differently on the two (one random product
    # in nine, up to 300 x 40 inputs), so each caller keeps its layout.
    x = scaled[:, inputs] if rows is None else scaled[np.ix_(rows, inputs)]
    out = neural.forward(net, x).ravel()
    return data.invert_normalization(data.column_spec(spec, enc.schema.target_index), out)


def score_mlp(net, spec, enc, rows):
    """(predictions, targets) on the complete rows among rows."""
    keep = complete_rows(enc, rows)
    if keep.size == 0:
        raise ShapeError("no complete rows to score the network on")
    return predict_mlp(net, spec, enc, keep), enc.target_vector(keep)


def _predict_mlpreg(model, ds):
    net, spec = model
    enc = data.encode_one_of_n(ds)
    if enc.missing[:, list(enc.schema.input_indices)].any():
        raise ShapeError("network prediction needs complete input rows")
    return predict_mlp(net, spec, enc)


# ---------------------------------------------------------------------------
# codec table

Codec = namedtuple("Codec", "kind parse predict")

CODECS = {
    "tree v1": Codec(
        "tree",
        lambda text: tree.from_text(text),
        lambda model, ds: tree.predict_batch(model, ds.input_matrix()),
    ),
    "ensemble v1": Codec(
        "ensemble",
        lambda text: ensemble.from_text(text),
        lambda model, ds: ensemble.predict_dataset(model, ds),
    ),
    "mlpreg v1": Codec(
        "mlpreg", lambda text: mlpreg_from_lines(text.splitlines()), _predict_mlpreg
    ),
    "narx v1": Codec("narx", lambda text: neural.narx_from_lines(text.splitlines()), None),
}

_TABULAR = {codec.kind: codec.predict for codec in CODECS.values() if codec.predict}


def load_model(path):
    """(kind, model) of a saved model file, chosen by its header line."""
    text = read_text(path)
    first = text.splitlines()[0].strip() if text else ""
    if first not in CODECS:
        raise ParseError("unrecognized model file header %r" % first)
    codec = CODECS[first]
    return codec.kind, codec.parse(text)


def predict_tabular(kind, model, ds):
    """One prediction per dataset row from a tree, ensemble or mlpreg model."""
    if kind not in _TABULAR:
        raise ConfigError("model kind %r cannot score tabular rows" % kind)
    return _TABULAR[kind](model, ds)

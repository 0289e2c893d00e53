"""Every model kind behind one interface: fit, score, write, load, forecast.

fit trains a tree, bag, boost or mlp model (the "model" knob) on rows of a
dataset and names its codec kind; score predicts rows with their targets.
fit_narx and forecast do the same for narx from the series columns of a
dataset. Functions taking cfg read the resolved run configuration (see
cli.resolve) and record any choice they make in it.

A saved model is one of four text formats named by their first line:
``tree v1``, ``ensemble v1``, ``mlpreg v1`` (a tabular network with its
scaling bounds) and ``narx v1``. CODECS maps that line to the codec kind, its
parser, its writer and, for tabular models, the function scoring rows of a
dataset.
Each entry looks its functions up on their module at call time, so a
function replaced on its module after import (a profiling shim) runs.

A tabular network encodes nominal columns one-of-N, scales every column into
[-1, 1] with bounds from the training rows, and drops rows with a missing cell.
"""

import warnings
from collections import namedtuple

import numpy as np

from ._io import LazyModule, float_array, float_pair, fmt_float, open_text, read_model
from .errors import ConfigError, ParseError, ShapeError

# A model kind loads only its own modules: narx never compiles the tree code.
data, ensemble, neural, tree = map(LazyModule, ("data", "ensemble", "neural", "tree"))


def stopping(cfg):
    """Tree growth limits from the leaf, branch and surrogates knobs."""
    return tree.StoppingCriteria(min_leaf=cfg["leaf"], min_branch=cfg["branch"],
                                 surrogates=cfg["surrogates"])


def _lm_limits(cfg):
    # crossval has no patience knob; without validation rows it never acts.
    return neural.LmState(max_epochs=cfg["epochs"],
                          patience=cfg.get("patience", neural.LmState.patience))


def fit(cfg, ds, train, validation):
    """(codec kind, model) of the tabular kind cfg["model"], fitted on rows
    of ds. Trees grow on the train and validation rows together; a network
    trains on the train rows and stops early on the validation rows."""
    kind, seed = cfg["model"], cfg["seed"]
    if kind == "mlp":
        return "mlpreg", _fit_mlpreg(cfg, ds, train, validation)
    rows, stop = sorted(list(train) + list(validation)), stopping(cfg)
    if kind == "tree":
        return "tree", tree.grow(ds, rows=rows, stop=stop, seed=seed)
    if kind == "bag":
        return "ensemble", ensemble.train_bagged(
            ds, n_trees=cfg["trees"], stop=stop, m=cfg["m"], seed=seed, rows=rows)
    return "ensemble", ensemble.train_lsboost(
        ds, n_trees=cfg["trees"], lam=cfg["rate"], stop=stop, seed=seed, rows=rows)


def score(kind, model, ds, rows):
    """(predictions, targets) of a tabular model on rows of ds; a network
    scores the complete rows among them."""
    if kind != "mlpreg":
        rows = np.asarray(rows, dtype=int)
        return predict_tabular(kind, model, ds, rows), ds.target_vector(rows)
    enc = data.encode_one_of_n(ds)
    keep = _complete_rows(enc, rows)
    if keep.size == 0:
        raise ShapeError("no complete rows to score the network on")
    return _mlp_outputs(model, enc, keep), enc.target_vector(keep)


def _narx_series(cfg, ds):
    """The u and y series of ds: the u_column knob defaults to the first
    continuous input and y_column to the target."""
    names = ds.schema.names
    if not cfg["u_column"]:
        inputs = [names[j] for j in ds.schema.input_indices
                  if ds.schema.columns[j].kind == data.CONTINUOUS]
        if not inputs:
            raise ConfigError("no continuous input column available for the series")
        cfg["u_column"] = inputs[0]
    cfg["y_column"] = cfg["y_column"] or names[ds.schema.target_index]
    columns = [ds.schema.column_index(cfg[key]) for key in ("u_column", "y_column")]
    return [np.where(ds.missing[:, j], np.nan, ds.values[:, j].astype(float)) for j in columns]


def fit_narx(cfg, ds):
    """(NarxModel, test predictions, test targets) of a narx fit on ds, gaps
    filled first when the fill knob is set; the held-out supervised rows are
    scored one step ahead."""
    u, y = _narx_series(cfg, ds)
    if cfg["fill"] is not None:
        u = data.moving_average_fill(u, cfg["fill"])
        y = data.moving_average_fill(y, cfg["fill"])
    model, _history, test_rows = neural.train_narx(
        u, y, q=cfg["delays"], hidden=cfg["hidden"], seed=cfg["seed"],
        fractions=cfg["split"], state=_lm_limits(cfg),
    )
    pred = neural.narx_one_step(model, u, y, test_rows)
    return model, pred, y[np.asarray(test_rows, dtype=int) + model.q]


def forecast(cfg, model, ds):
    """(predictions, measured values) of the last cfg["horizon"] points of
    the y series of ds, in the mode knob's mode (default: the model's)."""
    cfg["mode"] = cfg["mode"] or model.mode
    u, y = _narx_series(cfg, ds)
    preds = neural.narx_predict(model, u, y, cfg["horizon"], mode=cfg["mode"])
    return preds, y[y.size - preds.size:]


# ---------------------------------------------------------------------------
# tabular network (encoding + scaling + net in one file)


def _complete_rows(enc, rows):
    """The rows, as an index array, that have no missing cell."""
    rows = np.asarray(rows, dtype=int)
    return rows[~enc.missing[rows].any(axis=1)]


def _fit_mlpreg(cfg, ds, train, validation):
    enc = data.encode_one_of_n(ds)
    spec = data.fit_normalization(enc, train)
    scaled = data.apply_normalization(spec, enc.values)
    inputs, target = list(enc.schema.input_indices), enc.schema.target_index
    keep = _complete_rows(enc, train)
    if keep.size < len(train):
        warnings.warn("dropped %d incomplete training row(s)" % (len(train) - keep.size))
    if keep.size == 0:
        raise ShapeError("no complete training rows for the network")
    val = _complete_rows(enc, validation)
    validation = (scaled[np.ix_(val, inputs)], scaled[val, target]) if val.size else None
    net = neural.make_mlp((len(inputs), cfg["hidden"], 1), seed=cfg["seed"])
    train = (scaled[np.ix_(keep, inputs)], scaled[keep, target])
    net, _history = neural.train_lm(net, train, validation, _lm_limits(cfg))
    return net, spec


def _mlp_outputs(model, enc, rows=None):
    """Network predictions in target units for rows (every row when None)."""
    net, spec = model
    scaled = data.apply_normalization(spec, enc.values)
    inputs = list(enc.schema.input_indices)
    # scaled[:, inputs] is column-major and the np.ix_ gather row-major. The
    # matrix product can round differently on the two (one random product
    # in nine, up to 300 x 40 inputs), so each caller keeps its layout.
    x = scaled[:, inputs] if rows is None else scaled[np.ix_(rows, inputs)]
    out = neural.forward(net, x).ravel()
    return data.invert_normalization(data.column_spec(spec, enc.schema.target_index), out)


def _predict_mlpreg(model, ds):
    enc = data.encode_one_of_n(ds)
    if enc.missing[:, list(enc.schema.input_indices)].any():
        raise ShapeError("network prediction needs complete input rows")
    return _mlp_outputs(model, enc)


def _mlpreg_text(model):
    net, spec = model
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


def _parse_mlpreg(text):
    fields = {"norm_x_min": float_array, "norm_x_max": float_array, "norm_y": float_pair}
    return read_model(text.splitlines(), "mlpreg v1", fields, _build_mlpreg, body="mlp")


# ---------------------------------------------------------------------------
# codec table

Codec = namedtuple("Codec", "kind parse text predict")

CODECS = {
    "tree v1": Codec(
        "tree", lambda text: tree.from_text(text), lambda model: tree.to_text(model),
        lambda model, ds, rows: tree.predict_batch(model, ds.input_matrix(rows))),
    "ensemble v1": Codec(
        "ensemble", lambda text: ensemble.from_text(text),
        lambda model: ensemble.to_text(model),
        lambda model, ds, rows: ensemble.predict_dataset(model, ds, rows)),
    "mlpreg v1": Codec("mlpreg", _parse_mlpreg, _mlpreg_text,
                       lambda model, ds, rows: _predict_mlpreg(model, ds)[
                           slice(None) if rows is None else rows]),
    "narx v1": Codec(
        "narx", lambda text: neural.narx_from_lines(text.splitlines()),
        lambda model: "\n".join(neural.narx_lines(model)) + "\n", None),
}

_BY_KIND = {codec.kind: codec for codec in CODECS.values()}


def load_model(path):
    """(kind, model) of a saved model file, chosen by its header line."""
    with open_text(path) as fh:
        content = fh.read()
    first = content.splitlines()[0].strip() if content else ""
    if first not in CODECS:
        raise ParseError("unrecognized model file header %r" % first)
    return CODECS[first].kind, CODECS[first].parse(content)


def to_text(kind, model):
    """The model file text of a model of the given codec kind."""
    return _BY_KIND[kind].text(model)


def predict_tabular(kind, model, ds, rows=None):
    """One prediction per dataset row (per row of rows, when given) from a
    tree, ensemble or mlpreg model; a tree or ensemble routes only those."""
    if _BY_KIND[kind].predict is None:
        raise ConfigError("model kind %r cannot score tabular rows" % kind)
    return _BY_KIND[kind].predict(model, ds, rows)

"""Command-line surface for the corrosion-assessment pipeline.

Commands: ingest, train, predict, crossval, importance, baseline, risk,
report. Every run writes the fully resolved configuration next to its
outputs as config.json, and identical configuration, data and seed produce
byte-identical artifacts. Errors exit nonzero with a single stderr line of
the form error:<code>:<message>.
"""

import argparse
import csv
import json
import os
import sys
import warnings

import numpy as np

from . import baselines, data, durability, ensemble, metrics, neural, tree
from ._io import atomic_write_text, fmt_float, read_text
from .errors import ConfigError, DuracastError, IoError, ParseError, ShapeError

PRESETS = {
    "caprm-bag": {"model": "bag", "trees": 150},
    "caprm-boost": {"model": "boost", "trees": 150, "rate": 0.1},
    "chloride-vi": {"model": "bag", "trees": 100, "leaf": 5},
    "hygro-narx": {"model": "narx", "delays": 2, "hidden": 10},
}

_MODEL_KINDS = ("tree", "bag", "boost", "mlp", "narx")


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags through the standard error channel."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="duracast", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (DURACAST_SEED env var wins; default 0)")
        return p

    def add_data_args(p):
        p.add_argument("--data", required=True, help="CSV data file")
        p.add_argument("--schema", required=True, help="schema CSV file")

    p = add("ingest", "validate a CSV against its schema and echo a clean copy")
    add_data_args(p)

    p = add("train", "fit a model and report test-split metrics")
    add_data_args(p)
    p.add_argument("--model", choices=_MODEL_KINDS, default=None,
                   help="model kind (default tree, presets may override)")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                   help="named default bundle; explicit flags override it")
    p.add_argument("--trees", type=int, default=None, help="ensemble size (default 150)")
    p.add_argument("--rate", type=float, default=None,
                   help="boosting shrinkage (default 0.1)")
    p.add_argument("--m", type=int, default=None,
                   help="features sampled per split (default: all)")
    p.add_argument("--leaf", type=int, default=None,
                   help="minimum rows per leaf (default 1)")
    p.add_argument("--branch", type=int, default=None,
                   help="minimum rows to attempt a split (default 10)")
    p.add_argument("--surrogates", type=int, default=None,
                   help="surrogate splits kept per node (default 5)")
    p.add_argument("--hidden", type=int, default=None,
                   help="hidden neurons for network models (default 10)")
    p.add_argument("--delays", type=int, default=None,
                   help="tapped delay order q for narx (default 2)")
    p.add_argument("--patience", type=int, default=None,
                   help="validation increases tolerated before stopping (default 6)")
    p.add_argument("--epochs", type=int, default=None,
                   help="maximum training epochs for network models (default 200)")
    p.add_argument("--split", default=None,
                   help="train,validation,test fractions (default 0.7,0.15,0.15)")
    p.add_argument("--u-column", default=None,
                   help="narx input series column (default: first input column)")
    p.add_argument("--y-column", default=None,
                   help="narx output series column (default: the target column)")
    p.add_argument("--fill", type=int, default=None,
                   help="moving-average fill radius for narx series gaps")

    p = add("predict", "apply a saved model to a data file")
    add_data_args(p)
    p.add_argument("--model-file", required=True, help="saved model file")
    p.add_argument("--horizon", type=int, default=None,
                   help="narx only: predict the last H points of the series")
    p.add_argument("--mode", choices=("open", "closed"), default=None,
                   help="narx only: feedback mode (default: as trained)")
    p.add_argument("--u-column", default=None)
    p.add_argument("--y-column", default=None)

    p = add("crossval", "K-fold cross-validation error estimate")
    add_data_args(p)
    p.add_argument("--model", choices=("tree", "bag", "boost", "mlp"), default=None)
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--folds", type=int, default=None, help="fold count K (default 10)")
    p.add_argument("--trees", type=int, default=None)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--leaf", type=int, default=None)
    p.add_argument("--branch", type=int, default=None)
    p.add_argument("--surrogates", type=int, default=None)
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)

    p = add("importance", "rank input variables by permutation and split-gain scores")
    add_data_args(p)
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--trees", type=int, default=None, help="bagged trees (default 100)")
    p.add_argument("--leaf", type=int, default=None)
    p.add_argument("--branch", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None,
                   help="permutation repeats averaged (default 10)")
    p.add_argument("--scaling", choices=("std", "stderr"), default=None,
                   help="permutation score denominator (default std)")
    p.add_argument("--keep", default=None,
                   help="comma-separated input columns to keep (default all)")
    p.add_argument("--drop", default=None,
                   help="comma-separated input columns to exclude")
    p.add_argument("--top", type=int, default=None,
                   help="rows in the cumulative-share summary (default 5)")

    p = add("baseline", "compare a saved model with the square-root-of-time law")
    add_data_args(p)
    p.add_argument("--model-file", required=True)
    p.add_argument("--specimen", required=True, help="specimen id column")
    p.add_argument("--age", required=True, help="age column")
    p.add_argument("--ages", required=True,
                   help="comma-separated evaluation ages")

    p = add("risk", "build and render risk grids from hygrothermal histories")
    p.add_argument("--series", required=True,
                   help="CSV with header element,timestamp,t_celsius,rh")
    p.add_argument("--kind", choices=("all",) + durability.GRID_KINDS, default=None,
                   help="grid kind (default all)")
    p.add_argument("--bin-width", type=float, default=None,
                   help="time bin width in days (default 1)")
    p.add_argument("--fill", type=int, default=None,
                   help="moving-average fill radius for gaps")
    p.add_argument("--scale", type=int, default=None,
                   help="pixels per grid cell (default 10)")
    p.add_argument("--rh-percent", action="store_true",
                   help="humidity column is in percent, not a fraction")

    p = add("report", "score a saved model against a labeled data file")
    add_data_args(p)
    p.add_argument("--model-file", required=True)

    return parser


def _resolve(args, key, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    preset = getattr(args, "preset", None)
    if preset and key in PRESETS[preset]:
        return PRESETS[preset][key]
    return default


def _resolve_seed(args):
    env = os.environ.get("DURACAST_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError("DURACAST_SEED must be an integer") from None
    if args.seed is not None:
        return int(args.seed)
    return 0


def _parse_fractions(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError("--split needs three comma-separated fractions")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError("--split fractions must be numbers") from None


def _write_config(out_dir, cfg):
    atomic_write_text(
        os.path.join(out_dir, "config.json"),
        json.dumps(cfg, sort_keys=True, indent=2) + "\n",
    )


def _ensure_out(path):
    os.makedirs(path, exist_ok=True)
    return path


def _load_dataset(args):
    sch = data.read_schema(args.schema)
    return data.ingest_csv(args.data, sch)


# ---------------------------------------------------------------------------
# tabular network wrapper (encoding + scaling + net in one file)


def _mlpreg_lines(net, spec):
    lines = ["mlpreg v1"]
    lines.append("norm_x_min " + " ".join(fmt_float(v) for v in spec.x_min))
    lines.append("norm_x_max " + " ".join(fmt_float(v) for v in spec.x_max))
    lines.append("norm_y %s %s" % (fmt_float(spec.y_min), fmt_float(spec.y_max)))
    return lines + neural.mlp_lines(net)


def _mlpreg_from_lines(lines):
    if not lines or lines[0].split() != ["mlpreg", "v1"]:
        raise ParseError("not a tabular network file")
    x_min = x_max = None
    y_bounds = (-1.0, 1.0)
    mlp_start = None
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "mlp":
            mlp_start = i
            break
        if parts[0] not in ("norm_x_min", "norm_x_max", "norm_y"):
            raise ParseError("unknown line %r in tabular network file" % parts[0])
        try:
            if parts[0] == "norm_x_min":
                x_min = np.array([float(v) for v in parts[1:]])
            elif parts[0] == "norm_x_max":
                x_max = np.array([float(v) for v in parts[1:]])
            else:
                y_bounds = (float(parts[1]), float(parts[2]))
        except (ValueError, IndexError) as exc:
            raise ParseError("bad tabular network line %r: %s" % (line, exc)) from None
    if x_min is None or x_max is None or mlp_start is None:
        raise ParseError("tabular network file is incomplete")
    net = neural.mlp_from_lines(lines[mlp_start:])
    spec = data.NormalizationSpec(x_min=x_min, x_max=x_max,
                                  y_min=y_bounds[0], y_max=y_bounds[1])
    return net, spec


def _network_matrices(enc, spec, rows):
    scaled = data.apply_normalization(spec, enc.values)
    inputs = list(enc.schema.input_indices)
    target = enc.schema.target_index
    rows = np.asarray(rows, dtype=int)
    keep = rows[~enc.missing[rows].any(axis=1)]
    dropped = rows.size - keep.size
    return scaled[np.ix_(keep, inputs)], scaled[keep][:, target], keep, dropped


def _mlpreg_predict(net, spec, ds):
    enc = data.encode_one_of_n(ds)
    inputs = list(enc.schema.input_indices)
    if len(inputs) != net.n_in:
        raise ShapeError(
            "data encodes to %d inputs but the network expects %d"
            % (len(inputs), net.n_in)
        )
    if enc.missing[:, inputs].any():
        raise ShapeError("network prediction needs complete input rows")
    scaled = data.apply_normalization(spec, enc.values)
    out = neural.forward(net, scaled[:, inputs]).ravel()
    y_spec = data.column_spec(spec, enc.schema.target_index)
    return data.invert_normalization(y_spec, out)


# ---------------------------------------------------------------------------
# model loading / prediction dispatch


def _load_model(path):
    text = read_text(path)
    first = text.splitlines()[0].strip() if text else ""
    lines = text.splitlines()
    if first == "tree v1":
        return "tree", tree.from_text(text)
    if first == "ensemble v1":
        return "ensemble", ensemble.from_text(text)
    if first == "mlpreg v1":
        return "mlpreg", _mlpreg_from_lines(lines)
    if first == "narx v1":
        return "narx", neural.narx_from_lines(lines)
    raise ParseError("unrecognized model file header %r" % first)


def _predict_tabular(kind, model, ds):
    if kind == "tree":
        return tree.predict_batch(model, ds.input_matrix())
    if kind == "ensemble":
        return ensemble.predict_dataset(model, ds)
    if kind == "mlpreg":
        net, spec = model
        return _mlpreg_predict(net, spec, ds)
    raise ConfigError("model kind %r cannot score tabular rows" % kind)


def _series_columns(ds, args):
    names = ds.schema.names
    target = names[ds.schema.target_index]
    y_name = args.y_column or target
    if args.u_column:
        u_name = args.u_column
    else:
        inputs = [names[j] for j in ds.schema.input_indices
                  if ds.schema.columns[j].kind == data.CONTINUOUS]
        if not inputs:
            raise ConfigError("no continuous input column available for the series")
        u_name = inputs[0]
    u_j = ds.schema.column_index(u_name)
    y_j = ds.schema.column_index(y_name)
    u = np.where(ds.missing[:, u_j], np.nan, ds.values[:, u_j].astype(float))
    y = np.where(ds.missing[:, y_j], np.nan, ds.values[:, y_j].astype(float))
    return u, y, u_name, y_name


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(args):
    out = _ensure_out(args.out)
    ds = _load_dataset(args)
    data.write_csv(os.path.join(out, "clean.csv"), ds)
    summary = {
        "rows": ds.n_rows,
        "columns": ds.n_cols,
        "missing_cells": int(ds.missing.sum()),
        "missing_by_column": {
            name: int(ds.missing[:, j].sum())
            for j, name in enumerate(ds.schema.names)
        },
    }
    atomic_write_text(
        os.path.join(out, "ingest.json"),
        json.dumps(summary, sort_keys=True, indent=2) + "\n",
    )
    _write_config(out, {
        "command": "ingest", "data": args.data, "schema": args.schema,
        "out": args.out, "seed": _resolve_seed(args),
    })
    print("ingested %d rows, %d columns (%d missing cells)"
          % (ds.n_rows, ds.n_cols, int(ds.missing.sum())))
    return 0


def _stop_from(args, default_leaf=1, default_branch=10):
    return tree.StoppingCriteria(
        min_leaf=_resolve(args, "leaf", default_leaf),
        min_branch=_resolve(args, "branch", default_branch),
        surrogates=_resolve(args, "surrogates", 5),
    )


def _train_tree_family(model_kind, ds, rows, args, seed):
    stop = _stop_from(args)
    if model_kind == "tree":
        grown = tree.grow(ds, rows=rows, stop=stop, seed=seed)
        return "tree", grown, lambda d: tree.predict_batch(grown, d.input_matrix())
    if model_kind == "bag":
        model = ensemble.train_bagged(
            ds, n_trees=_resolve(args, "trees", 150), stop=stop,
            m=_resolve(args, "m", None), seed=seed, rows=rows,
        )
    else:
        model = ensemble.train_lsboost(
            ds, n_trees=_resolve(args, "trees", 150),
            lam=_resolve(args, "rate", 0.1), stop=stop, seed=seed, rows=rows,
        )
    return "ensemble", model, lambda d: ensemble.predict_dataset(model, d)


def cmd_train(args):
    out = _ensure_out(args.out)
    seed = _resolve_seed(args)
    model_kind = _resolve(args, "model", "tree")
    split = _parse_fractions(_resolve(args, "split", "0.7,0.15,0.15"))
    ds = _load_dataset(args)
    cfg = {
        "command": "train", "data": args.data, "schema": args.schema,
        "out": args.out, "seed": seed, "model": model_kind,
        "preset": args.preset, "split": list(split),
    }

    if model_kind in ("tree", "bag", "boost"):
        part = data.split_holdout(ds, split, seed=seed)
        train_rows = sorted(part.train + part.validation)
        kind, model, predict = _train_tree_family(model_kind, ds, train_rows, args, seed)
        cfg.update({
            "trees": _resolve(args, "trees", 150) if model_kind != "tree" else 1,
            "rate": _resolve(args, "rate", 0.1) if model_kind == "boost" else None,
            "m": _resolve(args, "m", None),
            "leaf": _resolve(args, "leaf", 1),
            "branch": _resolve(args, "branch", 10),
            "surrogates": _resolve(args, "surrogates", 5),
        })
        model_path = os.path.join(out, "model.txt")
        if kind == "tree":
            tree.save_tree(model_path, model)
        else:
            ensemble.save_ensemble(model_path, model)
        test_rows = np.asarray(part.test, dtype=int)
        pred = predict(ds)[test_rows]
        target = ds.target_vector(part.test)
        report = metrics.evaluate(pred, target)

    elif model_kind == "mlp":
        hidden = _resolve(args, "hidden", 10)
        state = neural.LmState(
            max_epochs=_resolve(args, "epochs", 200),
            patience=_resolve(args, "patience", 6),
        )
        cfg.update({"hidden": hidden, "epochs": state.max_epochs,
                    "patience": state.patience})
        enc = data.encode_one_of_n(ds)
        part = data.split_holdout(enc, split, seed=seed)
        spec = data.fit_normalization(enc, part.train)
        x_tr, y_tr, _, dropped = _network_matrices(enc, spec, part.train)
        if dropped:
            warnings.warn("dropped %d incomplete training row(s)" % dropped)
        if x_tr.shape[0] == 0:
            raise ShapeError("no complete training rows for the network")
        validation = None
        if part.validation:
            x_va, y_va, _, _ = _network_matrices(enc, spec, part.validation)
            if x_va.shape[0]:
                validation = (x_va, y_va)
        net = neural.make_mlp((x_tr.shape[1], hidden, 1), seed=seed)
        net, _history = neural.train_lm(net, (x_tr, y_tr), validation, state)
        atomic_write_text(os.path.join(out, "model.txt"),
                          "\n".join(_mlpreg_lines(net, spec)) + "\n")
        x_te, y_te_scaled, kept, _ = _network_matrices(enc, spec, part.test)
        if x_te.shape[0] == 0:
            raise ShapeError("no complete test rows for the network")
        y_spec = data.column_spec(spec, enc.schema.target_index)
        pred = data.invert_normalization(y_spec, neural.forward(net, x_te).ravel())
        target = enc.target_vector(list(kept))
        report = metrics.evaluate(pred, target)

    elif model_kind == "narx":
        q = _resolve(args, "delays", 2)
        hidden = _resolve(args, "hidden", 10)
        state = neural.LmState(
            max_epochs=_resolve(args, "epochs", 200),
            patience=_resolve(args, "patience", 6),
        )
        cfg.update({"delays": q, "hidden": hidden, "epochs": state.max_epochs,
                    "patience": state.patience,
                    "u_column": None, "y_column": None})
        u, y, u_name, y_name = _series_columns(ds, args)
        cfg["u_column"] = u_name
        cfg["y_column"] = y_name
        fill = _resolve(args, "fill", None)
        if fill is not None:
            u = data.moving_average_fill(u, fill)
            y = data.moving_average_fill(y, fill)
        model, _history, test_rows = neural.train_narx(
            u, y, q=q, hidden=hidden, seed=seed,
            fractions=split, state=state,
        )
        neural.save_narx(os.path.join(out, "model.txt"), model)
        _, y_sup = neural.narx_prepare(u, y, q)
        xs, _ = neural.narx_prepare(
            neural._scale(u, model.u_bounds), neural._scale(y, model.y_bounds), q
        )
        test_idx = np.asarray(test_rows, dtype=int)
        pred_scaled = neural.forward(model.net, xs[test_idx]).ravel()
        pred = neural._unscale(pred_scaled, model.y_bounds)
        report = metrics.evaluate(pred, y_sup[test_idx])
    else:
        raise ConfigError("unknown model kind %r" % model_kind)

    metrics.write_report_csv(os.path.join(out, "report.csv"), report)
    _write_config(out, cfg)
    print("trained %s; test mse %s (n=%d)" % (model_kind, fmt_float(report.mse), report.n))
    return 0


def cmd_predict(args):
    out = _ensure_out(args.out)
    seed = _resolve_seed(args)
    kind, model = _load_model(args.model_file)
    ds = _load_dataset(args)
    cfg = {
        "command": "predict", "data": args.data, "schema": args.schema,
        "out": args.out, "seed": seed, "model_file": args.model_file,
        "model_kind": kind,
    }
    if kind == "narx":
        horizon = args.horizon
        if horizon is None:
            raise ConfigError("narx prediction needs --horizon")
        mode = args.mode or model.mode
        cfg.update({"horizon": horizon, "mode": mode})
        u, y, u_name, y_name = _series_columns(ds, args)
        cfg["u_column"] = u_name
        cfg["y_column"] = y_name
        preds = neural.narx_predict(model, u, y, horizon, mode=mode)
        start = len(y) - horizon
        rows = ["row,prediction"]
        rows += ["%d,%s" % (start + i, fmt_float(v)) for i, v in enumerate(preds)]
        atomic_write_text(os.path.join(out, "predictions.csv"), "\n".join(rows) + "\n")
        measured = y[start:]
        if np.all(np.isfinite(measured)):
            report = metrics.evaluate(preds, measured)
            metrics.write_report_csv(os.path.join(out, "report.csv"), report)
    else:
        preds = _predict_tabular(kind, model, ds)
        rows = ["row,prediction"]
        rows += ["%d,%s" % (i, fmt_float(v)) for i, v in enumerate(preds)]
        atomic_write_text(os.path.join(out, "predictions.csv"), "\n".join(rows) + "\n")
        t_j = ds.schema.target_index
        have_target = ~ds.missing[:, t_j]
        if have_target.all():
            report = metrics.evaluate(preds, ds.target_vector())
            metrics.write_report_csv(os.path.join(out, "report.csv"), report)
    _write_config(out, cfg)
    print("wrote %d prediction(s)" % len(preds))
    return 0


def cmd_crossval(args):
    out = _ensure_out(args.out)
    seed = _resolve_seed(args)
    model_kind = _resolve(args, "model", "tree")
    k = _resolve(args, "folds", 10)
    ds = _load_dataset(args)
    assign = np.asarray(data.kfold(ds, k, seed=seed).folds)
    fold_mse = []
    for fold in range(k):
        test_rows = [int(i) for i in np.flatnonzero(assign == fold)]
        train_rows = [int(i) for i in np.flatnonzero(assign != fold)]
        if model_kind in ("tree", "bag", "boost"):
            _, _, predict = _train_tree_family(model_kind, ds, train_rows, args, seed)
            pred = predict(ds)[np.asarray(test_rows, dtype=int)]
            target = ds.target_vector(test_rows)
        else:
            enc = data.encode_one_of_n(ds)
            spec = data.fit_normalization(enc, train_rows)
            x_tr, y_tr, _, _ = _network_matrices(enc, spec, train_rows)
            state = neural.LmState(max_epochs=_resolve(args, "epochs", 200))
            net = neural.make_mlp(
                (x_tr.shape[1], _resolve(args, "hidden", 10), 1), seed=seed
            )
            net, _ = neural.train_lm(net, (x_tr, y_tr), None, state)
            x_te, _, kept, _ = _network_matrices(enc, spec, test_rows)
            if x_te.shape[0] == 0:
                raise ShapeError("a fold has no complete test rows")
            y_spec = data.column_spec(spec, enc.schema.target_index)
            pred = data.invert_normalization(y_spec, neural.forward(net, x_te).ravel())
            target = enc.target_vector(list(kept))
        residual = target - pred
        fold_mse.append(float(np.mean(residual * residual)))
    cv = float(np.mean(fold_mse))
    lines = ["metric,value", "cv_mse,%s" % fmt_float(cv), "folds,%d" % len(fold_mse)]
    for i, v in enumerate(fold_mse):
        lines.append("fold_%d_mse,%s" % (i, fmt_float(v)))
    atomic_write_text(os.path.join(out, "crossval.csv"), "\n".join(lines) + "\n")
    _write_config(out, {
        "command": "crossval", "data": args.data, "schema": args.schema,
        "out": args.out, "seed": seed, "model": model_kind, "folds": k,
        "preset": args.preset,
        "trees": _resolve(args, "trees", 150),
        "rate": _resolve(args, "rate", 0.1),
        "leaf": _resolve(args, "leaf", 1),
        "branch": _resolve(args, "branch", 10),
        "hidden": _resolve(args, "hidden", 10),
    })
    print("cv mse %s over %d folds" % (fmt_float(cv), len(fold_mse)))
    return 0


def cmd_importance(args):
    out = _ensure_out(args.out)
    seed = _resolve_seed(args)
    ds = _load_dataset(args)
    keep = [s.strip() for s in args.keep.split(",")] if args.keep else None
    drop = [s.strip() for s in args.drop.split(",")] if args.drop else []
    if keep is not None:
        for name in keep:
            ds.schema.column_index(name)
        inputs = {ds.schema.names[j] for j in ds.schema.input_indices}
        drop.extend(sorted(inputs - set(keep) - set(drop)))
    scenario = ensemble.Scenario(drop=tuple(drop))
    stop = _stop_from(args, default_leaf=_resolve(args, "leaf", 5))
    n_trees = _resolve(args, "trees", 100)
    iterations = _resolve(args, "iterations", 10)
    scaling = _resolve(args, "scaling", "std")
    report = ensemble.scenario_importance(
        ds, scenario, n_trees=n_trees, stop=stop,
        m=_resolve(args, "m", None), iterations=iterations,
        seed=seed, scaling=scaling,
    )
    ensemble.write_importance_csv(os.path.join(out, "importance.csv"), report)
    top = _resolve(args, "top", 5)
    ranked = ensemble.ranked_rows(report)
    share = dict(zip(report.names, report.splitgain))
    lines = ["rank,variable,splitgain_share,cumulative_share"]
    total = 0.0
    for name, _perm, _gain, rank in ranked[:top]:
        total += share[name]
        lines.append("%d,%s,%s,%s" % (rank, name, fmt_float(share[name]), fmt_float(total)))
    atomic_write_text(os.path.join(out, "summary.csv"), "\n".join(lines) + "\n")
    _write_config(out, {
        "command": "importance", "data": args.data, "schema": args.schema,
        "out": args.out, "seed": seed, "preset": args.preset,
        "trees": n_trees, "leaf": _resolve(args, "leaf", 5),
        "branch": _resolve(args, "branch", 10),
        "iterations": iterations, "scaling": scaling,
        "keep": keep, "drop": list(drop), "top": top,
    })
    best = ranked[0][0] if ranked else "(none)"
    print("ranked %d variable(s); top: %s" % (len(ranked), best))
    return 0


def cmd_baseline(args):
    out = _ensure_out(args.out)
    seed = _resolve_seed(args)
    kind, model = _load_model(args.model_file)
    ds = _load_dataset(args)
    try:
        ages = [float(a) for a in args.ages.split(",") if a.strip()]
    except ValueError:
        raise ConfigError("--ages must be comma-separated numbers") from None
    rows = baselines.baseline_comparison(
        ds, args.specimen, args.age, ages,
        lambda d: _predict_tabular(kind, model, d),
    )
    baselines.write_comparison_csv(os.path.join(out, "comparison.csv"), rows)
    _write_config(out, {
        "command": "baseline", "data": args.data, "schema": args.schema,
        "out": args.out, "seed": seed, "model_file": args.model_file,
        "specimen": args.specimen, "age": args.age, "ages": ages,
    })
    print("compared %d group(s)" % (len(rows) // 2))
    return 0


def _read_series_csv(path, rh_percent=False):
    """Per-element HygroSeries from a logger CSV, in order of first
    appearance. A reading with an empty temperature or humidity field is
    missing."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise IoError("cannot read %s: %s" % (path, exc)) from exc
    columns = {}
    nan = float("nan")
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["element", "timestamp", "t_celsius", "rh"]:
            raise ParseError(
                "series file needs header element,timestamp,t_celsius,rh"
            )
        for ln, rec in enumerate(reader, start=2):
            if len(rec) != 4:
                raise ParseError("series row %d needs 4 fields" % ln)
            name, ts, t_c, rh = rec
            try:
                ts = float(ts)
            except ValueError:
                raise ParseError("series row %d has a bad timestamp" % ln) from None
            missing = t_c.strip() == "" or rh.strip() == ""
            if missing:
                t_val = rh_val = nan
            else:
                try:
                    t_val = float(t_c)
                    rh_val = float(rh)
                except ValueError:
                    raise ParseError("series row %d has a bad reading" % ln) from None
            col = columns.get(name)
            if col is None:
                col = columns[name] = ([], [], [], [])
            col[0].append(ts)
            col[1].append(t_val)
            col[2].append(rh_val)
            col[3].append(missing)
    if not columns:
        raise ParseError("series file has no rows")
    series = {}
    for name, (ts, t_c, rh, missing) in columns.items():
        rh = np.array(rh)
        if rh_percent:
            rh /= 100.0
        series[name] = durability.HygroSeries(ts, t_c, rh, missing)
    return series


def cmd_risk(args):
    out = _ensure_out(args.out)
    seed = _resolve_seed(args)
    kind = args.kind or "all"
    bin_width = args.bin_width if args.bin_width is not None else 1.0
    scale = args.scale if args.scale is not None else 10
    series = _read_series_csv(args.series, rh_percent=args.rh_percent)
    kinds = durability.GRID_KINDS if kind == "all" else (kind,)
    for k in kinds:
        grid = durability.build_risk_grid(
            series, kind=k, bin_width=bin_width, fill_radius=args.fill
        )
        durability.render_grid(
            grid,
            os.path.join(out, "grid_%s.ppm" % k),
            os.path.join(out, "grid_%s.csv" % k),
            scale=scale,
        )
    _write_config(out, {
        "command": "risk", "series": args.series, "out": args.out,
        "seed": seed, "kind": kind, "bin_width": bin_width,
        "fill": args.fill, "scale": scale, "rh_percent": bool(args.rh_percent),
    })
    print("rendered %d grid(s) for %d element(s)" % (len(kinds), len(series)))
    return 0


def cmd_report(args):
    out = _ensure_out(args.out)
    seed = _resolve_seed(args)
    kind, model = _load_model(args.model_file)
    if kind == "narx":
        raise ConfigError("report scores tabular models; use predict for narx")
    ds = _load_dataset(args)
    if ds.missing[:, ds.schema.target_index].any():
        raise ShapeError("report needs a target value in every row")
    preds = _predict_tabular(kind, model, ds)
    report = metrics.evaluate(preds, ds.target_vector())
    metrics.write_report_csv(os.path.join(out, "report.csv"), report)
    _write_config(out, {
        "command": "report", "data": args.data, "schema": args.schema,
        "out": args.out, "seed": seed, "model_file": args.model_file,
    })
    print("mse %s over %d row(s)" % (fmt_float(report.mse), report.n))
    return 0


_DISPATCH = {
    "ingest": cmd_ingest,
    "train": cmd_train,
    "predict": cmd_predict,
    "crossval": cmd_crossval,
    "importance": cmd_importance,
    "baseline": cmd_baseline,
    "risk": cmd_risk,
    "report": cmd_report,
}


def run_cli(argv=None):
    """Parse arguments and run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise ConfigError("no command given; see --help")
        return _DISPATCH[args.command](args)
    except DuracastError as exc:
        sys.stderr.write("error:%s:%s\n" % (exc.code, exc))
        return 1
    except OSError as exc:
        sys.stderr.write("error:io-error:%s\n" % exc)
        return 1


def main():
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()

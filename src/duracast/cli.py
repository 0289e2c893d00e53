"""Command-line surface for the corrosion-assessment pipeline.

Commands: ingest, train, predict, crossval, importance, baseline, risk,
report. run_cli resolves a command's knobs once, into one plain dict: the
defaults of the command (KNOBS) and, for train and crossval, of the model
kind (MODEL_KNOBS), then the preset, then the explicit flags, then the
DURACAST_SEED environment variable. An explicit flag that the chosen model
kind (or, for predict, the model file) does not use is left out with a
warning. The command reads its knobs from that dict only, and config.json is
that dict as the run left it, so it records exactly the knobs the run
consumed. Every model kind is fitted, scored, written, loaded and forecast
through models; no command knows a kind's pipeline. Identical configuration,
data and seed produce byte-identical artifacts. Errors exit nonzero with a
single stderr line of the form error:<code>:<message>.
"""

import argparse
import json
import os
import sys
import warnings

import numpy as np

from ._io import GRID_KINDS, LazyModule, atomic_write_text, fmt_float
from .errors import ConfigError, DuracastError, ShapeError

# Each command loads only the modules it calls: risk never compiles the
# model code, and train --model bag never the network code.
baselines, data, durability, ensemble, metrics, models = map(
    LazyModule, ("baselines", "data", "durability", "ensemble", "metrics", "models"))

PRESETS = {
    "caprm-bag": {"model": "bag", "trees": 150},
    "caprm-boost": {"model": "boost", "trees": 150, "rate": 0.1},
    "chloride-vi": {"model": "bag", "trees": 100, "leaf": 5},
    "hygro-narx": {"model": "narx", "delays": 2, "hidden": 10},
}

# ---------------------------------------------------------------------------
# run configuration

_DATA = {"data": None, "schema": None}
# Knob defaults per command; a None input path is a required flag.
KNOBS = {
    "ingest": _DATA,
    "train": dict(_DATA, model="tree", preset=None, split="0.7,0.15,0.15"),
    "predict": dict(_DATA, model_file=None, horizon=None, mode=None,
                    u_column=None, y_column=None),
    "crossval": dict(_DATA, model="tree", preset=None, folds=10),
    "importance": dict(_DATA, preset=None, trees=100, leaf=5, branch=10, surrogates=5,
                       m=None, iterations=10, scaling="std", keep=None, drop=None, top=5),
    "baseline": dict(_DATA, model_file=None, specimen=None, age=None, ages=None),
    "risk": {"series": None, "kind": "all", "bin_width": 1.0, "fill": None, "scale": 10,
             "rh_percent": False},
    "report": dict(_DATA, model_file=None),
}

_TREE = {"leaf": 1, "branch": 10, "surrogates": 5}
_NET = {"hidden": 10, "epochs": 200}
_KINDS = {
    "tree": _TREE,
    "bag": dict(_TREE, trees=150, m=None),
    "boost": dict(_TREE, trees=150, rate=0.1),
    "mlp": _NET,
}
# Knob defaults per model kind of the commands that take --model.
MODEL_KNOBS = {
    "train": dict(_KINDS, mlp=dict(_NET, patience=6),
                  narx=dict(_NET, patience=6, delays=2, u_column=None, y_column=None,
                            fill=None)),
    "crossval": _KINDS,
}
# The model kinds a preset may name for each command that takes --preset.
RUNNABLE = {"train": tuple(MODEL_KNOBS["train"]), "crossval": tuple(_KINDS),
            "importance": ("bag",)}
SEEDED = ("train", "crossval", "importance")
# Knobs a command consumes but has no flag for.
_UNFLAGGED = {("importance", "surrogates")}
# predict records these only for narx models.
_NARX_PREDICT = ("horizon", "mode", "u_column", "y_column")
# The least value of the count knobs that no library function checks: zero
# epochs would save an untrained network, and --top 0 an empty summary.
_LEAST = {"epochs": 1, "top": 1}


def _numbers(flag, text, count=None):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError("--%s takes comma-separated numbers" % flag) from None
    if count is not None and len(values) != count:
        raise ConfigError("--%s needs %d comma-separated numbers" % (flag, count))
    return values


def _names(text):
    return [s.strip() for s in text.split(",")] if text else None


# Flag text -> knob value, for the knobs that are not plain strings or numbers.
_CONVERT = {
    "split": lambda text: _numbers("split", text, 3),
    "ages": lambda text: _numbers("ages", text),
    "keep": _names,
    "drop": lambda text: _names(text) or [],
}


def _resolve_seed(args):
    env = os.environ.get("DURACAST_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError("DURACAST_SEED must be an integer") from None
    else:
        seed = 0 if args.seed is None else int(args.seed)
    if seed < 0:
        raise ConfigError("the seed must be a non-negative integer, got %d" % seed)
    return seed


def _warn_ignored(kind, keys):
    if keys:
        warnings.warn("a %s model ignores %s"
                      % (kind, ", ".join("--" + key.replace("_", "-") for key in keys)))


def resolve(args):
    """The run configuration of a parsed command line (see the module doc)."""
    seed = _resolve_seed(args)
    command = args.command
    knobs = dict(KNOBS[command])
    preset = PRESETS[args.preset] if getattr(args, "preset", None) else {}
    if "model" in preset and preset["model"] not in RUNNABLE[command]:
        raise ConfigError("preset %s names a %s model, which %s cannot run"
                          % (args.preset, preset["model"], command))
    if command in MODEL_KNOBS:
        kind = args.model or preset.get("model", knobs["model"])
        knobs.update(MODEL_KNOBS[command][kind])
        _warn_ignored(kind, [key for key in _knob_defaults(command)
                             if key not in knobs and getattr(args, key, None) is not None])
    cfg = {"command": command, "out": args.out}
    for key, default in knobs.items():
        value = getattr(args, key, None)
        if value is None:
            value = preset.get(key, default)
        cfg[key] = _CONVERT[key](value) if key in _CONVERT else value
    for key, least in _LEAST.items():
        if cfg.get(key, least) < least:
            raise ConfigError("--%s must be at least %d, got %d" % (key, least, cfg[key]))
    if "split" in cfg and not cfg["split"][2] > 0.0:
        raise ConfigError("--split needs a positive test fraction, got %r" % cfg["split"][2])
    if command in SEEDED:
        cfg["seed"] = seed
    return cfg


# ---------------------------------------------------------------------------
# flags

# Every flag, declared once; a command gets a flag for each of its knobs.
# "{default}" in a help text is filled in from the command's knob defaults.
_FLAGS = {
    "out": dict(required=True, help="output directory"),
    "seed": dict(type=int, help="RNG seed (DURACAST_SEED env var wins; default 0)"),
    "data": dict(required=True, help="CSV data file"),
    "schema": dict(required=True, help="schema CSV file"),
    "model": dict(help="model kind (default {default}, presets may override)"),
    "preset": dict(choices=sorted(PRESETS),
                   help="named default bundle; explicit flags override it"),
    "trees": dict(type=int, help="ensemble size (default {default})"),
    "rate": dict(type=float, help="boosting shrinkage (default {default})"),
    "m": dict(type=int, help="features sampled per split (default: all)"),
    "leaf": dict(type=int, help="minimum rows per leaf (default {default})"),
    "branch": dict(type=int, help="minimum rows to attempt a split (default {default})"),
    "surrogates": dict(type=int, help="surrogate splits kept per node (default {default})"),
    "hidden": dict(type=int, help="hidden neurons for network models (default {default})"),
    "delays": dict(type=int, help="tapped delay order q for narx (default {default})"),
    "patience": dict(type=int, help="validation increases tolerated before stopping "
                                    "(default {default})"),
    "epochs": dict(type=int, help="maximum training epochs for network models "
                                  "(default {default})"),
    "split": dict(help="train,validation,test fractions (default {default})"),
    "u_column": dict(help="narx input series column (default: first continuous input)"),
    "y_column": dict(help="narx output series column (default: the target column)"),
    "fill": dict(type=int, help="moving-average fill radius for series gaps"),
    "folds": dict(type=int, help="fold count K (default {default})"),
    "iterations": dict(type=int, help="permutation repeats averaged (default {default})"),
    "scaling": dict(choices=("std", "stderr"),
                    help="permutation score denominator (default {default})"),
    "keep": dict(help="comma-separated input columns to keep (default all)"),
    "drop": dict(help="comma-separated input columns to exclude"),
    "top": dict(type=int, help="rows in the cumulative-share summary (default {default})"),
    "model_file": dict(required=True, help="saved model file"),
    "horizon": dict(type=int, help="narx only: predict the last H points of the series"),
    "mode": dict(choices=("open", "closed"),
                 help="narx only: feedback mode (default: as trained)"),
    "specimen": dict(required=True, help="specimen id column"),
    "age": dict(required=True, help="age column"),
    "ages": dict(required=True, help="comma-separated evaluation ages"),
    "series": dict(required=True, help="CSV with header element,timestamp,t_celsius,rh"),
    "kind": dict(choices=("all",) + GRID_KINDS, help="grid kind (default {default})"),
    "bin_width": dict(type=float, help="time bin width in days (default {default})"),
    "scale": dict(type=int, help="pixels per grid cell (default {default})"),
    "rh_percent": dict(action="store_true",
                       help="humidity column is in percent, not a fraction"),
}

_HELP = {
    "ingest": "validate a CSV against its schema and echo a clean copy",
    "train": "fit a model and report test-split metrics",
    "predict": "apply a saved model to a data file",
    "crossval": "K-fold cross-validation error estimate",
    "importance": "rank input variables by permutation and split-gain scores",
    "baseline": "compare a saved model with the square-root-of-time law",
    "risk": "build and render risk grids from hygrothermal histories",
    "report": "score a saved model against a labeled data file",
}


def _knob_defaults(command):
    """{knob: default} of a command and all its model kinds; a knob that
    several kinds share shows the first kind's default."""
    out = {}
    for table in [KNOBS[command]] + list(MODEL_KNOBS.get(command, {}).values()):
        for key, value in table.items():
            out.setdefault(key, value)
    return out


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags through the standard error channel."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    """One subparser per command, with --out, --seed and a flag per knob."""
    parser = _Parser(prog="duracast", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, help_text in _HELP.items():
        p = sub.add_parser(command, help=help_text, description=help_text)
        defaults = _knob_defaults(command)
        for key in ["out", "seed"] + [k for k in defaults if (command, k) not in _UNFLAGGED]:
            kwargs = dict(_FLAGS[key])
            kwargs["help"] = kwargs["help"].format(default=defaults.get(key))
            if key == "model":
                kwargs["choices"] = tuple(MODEL_KNOBS[command])
            p.add_argument("--" + key.replace("_", "-"), **kwargs)
    return parser


# ---------------------------------------------------------------------------
# shared steps


def _load_dataset(cfg):
    return data.ingest_csv(cfg["data"], data.read_schema(cfg["schema"]))


def _json_text(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_lines(path, lines):
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(cfg):
    ds = _load_dataset(cfg)
    data.write_csv(os.path.join(cfg["out"], "clean.csv"), ds)
    summary = {
        "rows": ds.n_rows,
        "columns": ds.n_cols,
        "missing_cells": int(ds.missing.sum()),
        "missing_by_column": {
            name: int(ds.missing[:, j].sum())
            for j, name in enumerate(ds.schema.names)
        },
    }
    atomic_write_text(os.path.join(cfg["out"], "ingest.json"), _json_text(summary))
    print("ingested %d rows, %d columns (%d missing cells)"
          % (ds.n_rows, ds.n_cols, int(ds.missing.sum())))
    return 0


def cmd_train(cfg):
    ds = _load_dataset(cfg)
    if cfg["model"] == "narx":
        kind = "narx"
        model, pred, target = models.fit_narx(cfg, ds)
    else:
        part = data.split_holdout(ds, cfg["split"], seed=cfg["seed"])
        kind, model = models.fit(cfg, ds, part.train, part.validation)
        pred, target = models.score(kind, model, ds, part.test)
    atomic_write_text(os.path.join(cfg["out"], "model.txt"), models.to_text(kind, model))
    report = metrics.evaluate(pred, target)
    metrics.write_report_csv(os.path.join(cfg["out"], "report.csv"), report)
    print("trained %s; test mse %s (n=%d)" % (cfg["model"], fmt_float(report.mse), report.n))
    return 0


def cmd_predict(cfg):
    kind, model = models.load_model(cfg["model_file"])
    ds = _load_dataset(cfg)
    cfg["model_kind"] = kind
    if kind == "narx":
        if cfg["horizon"] is None:
            raise ConfigError("narx prediction needs --horizon")
        preds, measured = models.forecast(cfg, model, ds)
    else:
        _warn_ignored(kind, [key for key in _NARX_PREDICT if cfg.pop(key) is not None])
        preds, measured = models.predict_tabular(kind, model, ds), ds.target_vector()
    start = ds.n_rows - len(preds)
    _write_lines(os.path.join(cfg["out"], "predictions.csv"),
                 ["row,prediction"]
                 + ["%d,%s" % (start + i, fmt_float(v)) for i, v in enumerate(preds)])
    if np.all(np.isfinite(measured)):
        metrics.write_report_csv(os.path.join(cfg["out"], "report.csv"),
                                 metrics.evaluate(preds, measured))
    print("wrote %d prediction(s)" % len(preds))
    return 0


def cmd_crossval(cfg):
    k = cfg["folds"]
    ds = _load_dataset(cfg)
    assign = np.asarray(data.kfold(ds, k, seed=cfg["seed"]).folds)
    fold_mse = []
    for fold in range(k):
        kind, model = models.fit(cfg, ds, [int(i) for i in np.flatnonzero(assign != fold)], ())
        pred, target = models.score(kind, model, ds, np.flatnonzero(assign == fold))
        residual = target - pred
        fold_mse.append(float(np.mean(residual * residual)))
    cv = float(np.mean(fold_mse))
    _write_lines(os.path.join(cfg["out"], "crossval.csv"),
                 ["metric,value", "cv_mse,%s" % fmt_float(cv), "folds,%d" % len(fold_mse)]
                 + ["fold_%d_mse,%s" % (i, fmt_float(v)) for i, v in enumerate(fold_mse)])
    print("cv mse %s over %d folds" % (fmt_float(cv), len(fold_mse)))
    return 0


def cmd_importance(cfg):
    ds = _load_dataset(cfg)
    keep, drop = cfg["keep"], cfg["drop"]
    if keep is not None:
        for name in keep:
            ds.schema.column_index(name)
        inputs = {ds.schema.names[j] for j in ds.schema.input_indices}
        drop.extend(sorted(inputs - set(keep) - set(drop)))
    report = ensemble.scenario_importance(
        ds, ensemble.Scenario(drop=tuple(drop)), n_trees=cfg["trees"], stop=models.stopping(cfg),
        m=cfg["m"], iterations=cfg["iterations"], seed=cfg["seed"], scaling=cfg["scaling"],
    )
    ensemble.write_importance_csv(os.path.join(cfg["out"], "importance.csv"), report)
    ranked = ensemble.ranked_rows(report)
    share = dict(zip(report.names, report.splitgain))
    lines = ["rank,variable,splitgain_share,cumulative_share"]
    total = 0.0
    for name, _perm, _gain, rank in ranked[:cfg["top"]]:
        total += share[name]
        lines.append("%d,%s,%s,%s" % (rank, name, fmt_float(share[name]), fmt_float(total)))
    _write_lines(os.path.join(cfg["out"], "summary.csv"), lines)
    best = ranked[0][0] if ranked else "(none)"
    print("ranked %d variable(s); top: %s" % (len(ranked), best))
    return 0


def cmd_baseline(cfg):
    kind, model = models.load_model(cfg["model_file"])
    ds = _load_dataset(cfg)
    rows = baselines.baseline_comparison(
        ds, cfg["specimen"], cfg["age"], cfg["ages"],
        lambda d: models.predict_tabular(kind, model, d),
    )
    baselines.write_comparison_csv(os.path.join(cfg["out"], "comparison.csv"), rows)
    print("compared %d group(s)" % (len(rows) // 2))
    return 0


def cmd_risk(cfg):
    series = durability.read_series_csv(cfg["series"], rh_percent=cfg["rh_percent"])
    kinds = GRID_KINDS if cfg["kind"] == "all" else (cfg["kind"],)
    for k in kinds:
        grid = durability.build_risk_grid(
            series, kind=k, bin_width=cfg["bin_width"], fill_radius=cfg["fill"]
        )
        durability.render_grid(
            grid,
            os.path.join(cfg["out"], "grid_%s.ppm" % k),
            os.path.join(cfg["out"], "grid_%s.csv" % k),
            scale=cfg["scale"],
        )
    print("rendered %d grid(s) for %d element(s)" % (len(kinds), len(series)))
    return 0


def cmd_report(cfg):
    kind, model = models.load_model(cfg["model_file"])
    ds = _load_dataset(cfg)
    preds = models.predict_tabular(kind, model, ds)
    if ds.missing[:, ds.schema.target_index].any():
        raise ShapeError("report needs a target value in every row")
    report = metrics.evaluate(preds, ds.target_vector())
    metrics.write_report_csv(os.path.join(cfg["out"], "report.csv"), report)
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
    """Parse arguments and run one command; returns the process exit code.

    A command that succeeds leaves its run configuration in config.json.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise ConfigError("no command given; see --help")
        cfg = resolve(args)
        os.makedirs(cfg["out"], exist_ok=True)
        code = _DISPATCH[args.command](cfg)
        atomic_write_text(os.path.join(cfg["out"], "config.json"), _json_text(cfg))
        return code
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

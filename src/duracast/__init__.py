"""Corrosion-assessment toolkit: regression-tree ensembles with variable
importance, Levenberg-Marquardt networks with NARX forecasting, closed-form
ingress baselines, and hygrothermal risk classification.

Importing the package loads no submodule and not numpy. Each public name
below (``duracast.train_bagged``, ``duracast.tree``, ...) loads its submodule
on first use and is then bound here like an ordinary attribute, so a process
compiles and runs only the modules it touches.

The ``duracast`` command works the same way. Besides cli, _io and errors,
ingest loads data and risk data and durability. train, predict, crossval and
report load data and models plus the model kind's own modules (tree; tree
and ensemble; or neural), and metrics where they score. importance loads
data, models, tree and ensemble, and baseline adds baselines and metrics to
the model file's modules.
"""

import importlib

__version__ = "0.1.0"

# Each public name, listed under the submodule that defines it.
_EXPORTS = {
    "baselines": "CarbonationCoefficient ChlorideErfParams DnssAgingParams "
                 "FibCarbonationParams baseline_comparison carbonation_fib carbonation_sqrt "
                 "chloride_erf dnss_at erf fit_k write_comparison_csv",
    "data": "CONTINUOUS IGNORED INPUT NOMINAL TARGET Column Dataset NormalizationSpec "
            "Partition Schema apply_normalization drop_columns encode_one_of_n "
            "fit_normalization ingest_csv invert_normalization kfold moving_average_fill "
            "read_schema schema split_holdout write_csv",
    "durability": "CorrosionStatus HygroSample HygroSeries PALETTE RiskGrid RiskLevel "
                  "build_risk_grid classify_chemical classify_corrosion classify_frost "
                  "corrosion_rate humidity_factor render_grid temperature_factor",
    "ensemble": "EnsembleModel ImportanceReport oob_error permutation_importance ranked_rows "
                "splitgain_importance train_bagged train_lsboost write_importance_csv",
    "errors": "DuracastError",
    "metrics": "EvalReport evaluate write_report_csv",
    "neural": "Activation LmState MlpNetwork NarxModel forward jacobian make_mlp narx_predict "
              "narx_prepare train_lm train_narx",
    "tree": "StoppingCriteria Tree association grow predict predict_batch",
    "_io": "",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(name for name in list(_EXPORTS) + list(_HOME) if not name.startswith("_"))


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    own = {name for name in globals() if name.startswith("__")} - {
        "__all__", "__dir__", "__getattr__"}
    return sorted(own.union(_EXPORTS, _HOME))

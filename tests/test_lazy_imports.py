"""The package namespace loads on first use, and each command loads only the
modules it calls. Each check runs in a fresh interpreter, so sys.modules
starts clean."""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# Every public name of the package, under the submodule that defines it.
PUBLIC = {
    "baselines": "CarbonationCoefficient ChlorideErfParams DnssAgingParams "
                 "FibCarbonationParams baseline_comparison carbonation_fib carbonation_sqrt "
                 "chloride_erf dnss_at erf fit_k write_comparison_csv",
    "data": "CONTINUOUS Column Dataset IGNORED INPUT NOMINAL NormalizationSpec Partition "
            "Schema TARGET apply_normalization drop_columns encode_one_of_n "
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
}
SUBMODULES = ["_io"] + sorted(PUBLIC)
MODULE_ATTRIBUTES = ["__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
                     "__name__", "__package__", "__path__", "__spec__", "__version__"]


def _fresh(code):
    """The JSON value the code prints last, run in a new interpreter whose
    source path is this checkout's."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("DURACAST_SEED", None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_LOADED = "sorted(m for m in sys.modules if m == 'numpy' or m.startswith('duracast.'))"


def test_importing_the_package_loads_no_submodule_and_not_numpy():
    assert _fresh("import json, sys, duracast; print(json.dumps(%s))" % _LOADED) == []


def test_the_namespace_lists_every_public_name():
    names = sorted(MODULE_ATTRIBUTES + SUBMODULES
                   + [n for names in PUBLIC.values() for n in names.split()])
    assert _fresh("import json, duracast; print(json.dumps(dir(duracast)))") == names


def test_each_public_name_is_its_submodule_attribute():
    code = """
import importlib, json, duracast
public = %r
same = {n: getattr(duracast, n) is getattr(importlib.import_module('duracast.' + m), n)
        for m, names in public.items() for n in names.split()}
same.update({m: getattr(duracast, m) is importlib.import_module('duracast.' + m)
             for m in %r})
print(json.dumps(same))
""" % (PUBLIC, SUBMODULES)
    same = _fresh(code)
    assert same and all(same.values()), [n for n, ok in same.items() if not ok]


def test_submodule_imports_and_unknown_names_behave_as_for_a_plain_package():
    code = """
import json, sys
from duracast import tree
import duracast
try:
    duracast.no_such_name
    message = None
except AttributeError as exc:
    message = str(exc)
try:
    from duracast import no_such_name
    failed = None
except ImportError as exc:
    failed = type(exc).__name__
print(json.dumps([tree is sys.modules['duracast.tree'], duracast.tree is tree,
                  'cli' in dir(duracast), message, failed]))
"""
    assert _fresh(code) == [True, True, False,
                            "module 'duracast' has no attribute 'no_such_name'",
                            "ImportError"]


def _command_loads(argv, tmp_path):
    code = """
import contextlib, io, json, sys
from duracast.cli import run_cli
with contextlib.redirect_stdout(io.StringIO()):
    code = run_cli(%r)
print(json.dumps([code, %s]))
""" % (argv + ["--out", str(tmp_path / "run")], _LOADED)
    code, loaded = _fresh(code)
    assert code == 0
    return {m.split(".", 1)[1] for m in loaded if m != "numpy"}


TAB = ["--data", os.path.join(DATA_DIR, "cli.train.csv"),
       "--schema", os.path.join(DATA_DIR, "cli.schema.csv")]


@pytest.mark.parametrize("argv, unused", [
    (["risk", "--series", os.path.join(DATA_DIR, "risk.logger.csv"), "--scale", "1"],
     {"tree", "ensemble", "neural", "models", "baselines"}),
    (["train", *TAB, "--model", "bag", "--trees", "3"], {"neural", "durability", "baselines"}),
    (["train", "--data", os.path.join(DATA_DIR, "cli.series.csv"),
      "--schema", os.path.join(DATA_DIR, "cli.series.schema.csv"), "--model", "narx",
      "--hidden", "2", "--epochs", "3"], {"tree", "ensemble"}),
], ids=["risk", "train-bag", "train-narx"])
def test_a_command_loads_only_the_modules_it_calls(tmp_path, argv, unused):
    loaded = _command_loads(argv, tmp_path)
    assert loaded and not loaded & unused, sorted(loaded)


@pytest.mark.parametrize("argv", [
    ["train", *TAB, "--model", "bag", "--trees", "3"],
    ["predict", *TAB, "--model-file", os.path.join(DATA_DIR, "models", "cli.train_bag.model.txt")],
    ["risk", "--series", os.path.join(DATA_DIR, "risk.logger.csv"), "--fill", "2", "--scale", "1"],
], ids=["train-bag", "predict", "risk"])
def test_a_command_does_not_load_numpy_ma(tmp_path, argv):
    code = """
import contextlib, io, json, sys
from duracast.cli import run_cli
with contextlib.redirect_stdout(io.StringIO()):
    code = run_cli(%r)
print(json.dumps([code, 'numpy.ma' in sys.modules]))
""" % (argv + ["--out", str(tmp_path / "run")])
    assert _fresh(code) == [0, False]

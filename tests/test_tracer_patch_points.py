"""bench/tracing.py wraps duracast functions by replacing module attributes
by name. Deleting one of those names (an import that looks unused, such as
atomic_write_text in tree or neural, or the tree.Internal stub) breaks
`bench/run.py --trace 1` without failing any other test here, so this test
loads the tracer from its path and checks every name it patches."""

import importlib.util
import os

from duracast import cli, neural, tree

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_patches_exists():
    tracing = _load_tracing()
    missing = [(mod.__name__, attr) for mod, attr, _span in tracing.SHIMS if not hasattr(mod, attr)]
    assert missing == []
    assert callable(neural.with_params)
    assert isinstance(tree.Internal, type)
    assert [c for c in tracing.COMMANDS if c not in cli._DISPATCH] == []

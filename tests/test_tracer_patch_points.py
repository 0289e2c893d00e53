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


def test_the_tracer_sees_every_artifact_write(tmp_path):
    """Each file a command leaves is one traced atomic_write_text call, so a
    writer that bound the function early (a default argument, a closure)
    would drop its files from the io.atomic_write_text counts."""
    from duracast.cli import run_cli

    schema, data, out = tmp_path / "s.csv", tmp_path / "d.csv", tmp_path / "run"
    schema.write_text("x,continuous,input\ny,continuous,target\n")
    data.write_text("x,y\n" + "".join("%d,%d\n" % (i, i % 5) for i in range(30)))
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert run_cli(["importance", "--trees", "3", "--iterations", "1", "--data", str(data),
                        "--schema", str(schema), "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    counts = tracer.summary()
    files = sorted(out.iterdir())
    assert [f.name for f in files] == ["config.json", "importance.csv", "summary.csv"]
    assert counts["io.atomic_write_text.calls"] == len(files)
    assert counts["io.atomic_write_text.bytes"] == sum(f.stat().st_size for f in files)

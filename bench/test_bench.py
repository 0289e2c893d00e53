"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout:  python3 -m pytest bench/test_bench.py
"""

import json
import os
import subprocess
import sys

import pytest

import gen
import run
import workloads

WORKLOADS = ("forest", "fit", "hygro")


def _bench(workload, trace):
    argv = [sys.executable, os.path.join(run.ROOT, "bench", "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_emitted_with_its_unit(declared, workload, trace):
    result = _bench(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = declared["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        # Self shares, leaf-span shares and the remainders cover the traced
        # wall time. cli.<command>.share and render_grid's share (it calls
        # atomic_write_text) include child spans, so they are left out.
        values = {name: m["value"] for name, m in result["metrics"].items()}
        parts = [v for name, v in values.items()
                 if name.endswith(("self_share", "remainder_share"))
                 or (name.endswith(".share") and not name.startswith("cli.")
                     and name != "durability.render_grid.share")]
        assert sum(parts) == pytest.approx(1.0, abs=0.05)


def test_declared_workloads_are_runnable(declared):
    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic(tmp_path, workload):
    def generate(name, seed):
        d = tmp_path / name
        d.mkdir()
        files = gen.write_inputs(workload, seed, str(d), "tiny")
        return {k: open(p, "rb").read() for k, p in files.items()}

    first = generate("a", 5)
    assert first == generate("b", 5)
    assert first != generate("c", 6)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One tiny session of every workload, run through the real CLI."""
    root = tmp_path_factory.mktemp("session")
    out = {}
    for workload in WORKLOADS:
        inputs = root / workload / "in"
        inputs.mkdir(parents=True)
        files = gen.write_inputs(workload, 4, str(inputs), "tiny")
        steps = workloads.steps(workload, files, str(root / workload / "out"), "tiny")
        for step in steps:
            _, code, err = run.run_child(step.argv, str(root))
            assert code == 0, err
            problems, _ = step.check(step.out)
            assert problems == [], (step.label, problems)
            out[(workload, step.label)] = step
    return out


def _corrupt(path, old, new):
    with open(path) as fh:
        text = fh.read()
    assert old in text
    with open(path, "w") as fh:
        fh.write(text.replace(old, new, 1))


def test_checker_rejects_a_missing_prediction(artifacts):
    step = artifacts[("forest", "predict")]
    path = os.path.join(step.out, "predictions.csv")
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])
    assert step.check(step.out)[0]


def test_checker_rejects_a_nonfinite_prediction(artifacts):
    step = artifacts[("fit", "predict")]
    path = os.path.join(step.out, "predictions.csv")
    with open(path) as fh:
        lines = fh.readlines()
    lines[1] = "0,nan\n"
    with open(path, "w") as fh:
        fh.writelines(lines)
    assert step.check(step.out)[0]


def test_checker_rejects_an_error_over_its_ceiling(artifacts):
    step = artifacts[("hygro", "train_narx")]
    path = os.path.join(step.out, "report.csv")
    with open(path) as fh:
        lines = fh.readlines()
    lines = [("rmse,1e9\n" if ln.startswith("rmse,") else ln) for ln in lines]
    with open(path, "w") as fh:
        fh.writelines(lines)
    assert step.check(step.out)[0]


def test_checker_rejects_a_wrong_grid_size(artifacts):
    step = artifacts[("hygro", "risk")]
    _corrupt(os.path.join(step.out, "grid_frost.ppm"), "P3\n", "P3\n1")
    assert step.check(step.out)[0]


def test_checker_rejects_noise_ranked_above_age(artifacts):
    step = artifacts[("forest", "importance")]
    path = os.path.join(step.out, "importance.csv")
    _corrupt(path, "age,", "tmp,")
    _corrupt(path, "noise,", "age,")
    _corrupt(path, "tmp,", "noise,")
    assert step.check(step.out)[0]


def test_checker_rejects_a_missing_age_row(artifacts):
    step = artifacts[("forest", "baseline")]
    _corrupt(os.path.join(step.out, "comparison.csv"), "model,2,", "model,3,")
    assert step.check(step.out)[0]


def test_rerun_comparison_sees_a_changed_byte(artifacts, tmp_path):
    step = artifacts[("fit", "train_mlp")]
    before = workloads.artifacts(step.out)
    _corrupt(os.path.join(step.out, "model.txt"), "sizes", "sizes ")
    assert workloads.artifacts(step.out) != before

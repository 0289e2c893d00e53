"""duracast benchmark: three closed-loop CLI workloads with traced layers.

Usage, from the root of a checkout:

    python3 bench/run.py --workload forest|fit|hygro --seed N --seconds S --trace 0|1

The run generates its inputs from --seed (bench/gen.py), then repeats the
workload's command sequence (bench/workloads.py) for about S seconds and
checks every artifact. session_s and setup_s are the fastest session and
set-up of the run; the report lines also give their medians. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; every line before it is a human-readable report plus one "env"
JSON line.

--trace 0 runs each command as a child process (``python -m duracast``) and
reports the end-to-end metrics. --trace 1 calls ``duracast.cli.run_cli`` in
process, alternating untraced and traced sessions, and reports per-layer
span times as shares of the traced wall time, counts (bench/tracing.py)
and the tracing overhead. Both modes rerun one command into a second
directory and compare its artifacts byte for byte. An operation is one
command run or one rerun; it fails on a nonzero exit, an ``error:`` line,
a failed artifact check or a mismatch.
"""

import os

# Network results depend on the BLAS thread count, so the benchmark fixes it
# for itself (before numpy loads) and for every child process.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(BLAS_ENV)
    # The CLI lets DURACAST_SEED override --seed; the benchmark sets seeds itself.
    os.environ.pop("DURACAST_SEED", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
STEP_TIMEOUT = 150
MIN_SESSIONS = 3
SETUPS = 5

# Per-command medians are printed too but are not result metrics: on a
# shared 2-core host whose speed changed twofold within a minute, a single
# command's run-to-run spread (up to 26 % over ten seeds) was too wide for
# any usable bound.
END_TO_END = [
    ("session_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("test_rmse", "1"),
    ("holdout_rmse", "1"),
]

# Per-layer span times, in seconds: ".s" is the time inside a span and
# ".self_s" leaves out its child spans. The result reports each as a share
# of the traced session's wall time (".share", ".self_share"): a function a
# workload never calls then reads 0 as a share, not as a time.
SPAN_TIMES = [
    "tree.grow.self_s", "tree.predict_batch.s", "tree.tree_lines.s", "tree.tree_from_lines.s",
    "ensemble.to_text.self_s", "ensemble.from_text.self_s",
    "ensemble.train_bagged.self_s", "ensemble.train_lsboost.self_s",
    "ensemble.predict_batch.self_s", "ensemble.splitgain_importance.s",
    "ensemble.permutation_importance.self_s",
    "baselines.baseline_comparison.self_s",
    "data.ingest_csv.s", "data.encode_one_of_n.s", "data.moving_average_fill.s",
    "neural.train_lm.self_s", "neural.jacobian.s", "neural.forward.s",
    "neural.narx_prepare.s", "neural.narx_predict.self_s",
    "durability.build_risk_grid.self_s", "durability.render_grid.s",
    "io.atomic_write_text.s",
]
COMMANDS = ("train", "predict", "crossval", "importance", "baseline", "risk")
# cli.<command>.remainder_s is the part of the command's traced wall time
# that no span covers (argument parsing and dispatch).
SPAN_TIMES += ["cli.%s.%s" % (c, stat) for stat in ("s", "self_s", "remainder_s")
               for c in COMMANDS]
COUNT_METRICS = [
    ("tree.grow.calls", "count"),
    ("tree.grow.nodes", "count"),
    ("tree.predict_batch.rows", "count"),
    ("ensemble.permutation_importance.rows_routed", "count"),
    ("data.ingest_csv.rows", "count"),
    ("data.moving_average_fill.calls", "count"),
    ("neural.train_lm.epochs", "count"),
    ("neural.jacobian.calls", "count"),
    ("neural.forward.calls", "count"),
    ("neural.narx_predict.steps", "count"),
    ("durability.build_risk_grid.cells", "count"),
    ("durability.render_grid.bytes", "B"),
    ("io.atomic_write_text.bytes", "B"),
]


def share_name(name):
    """tree.grow.self_s -> tree.grow.self_share, tree.predict_batch.s -> ...share"""
    stem, stat = name.rsplit(".", 1)
    return "%s.%sshare" % (stem, stat[:-1])


PER_LAYER = (
    [(share_name(name), "share") for name in SPAN_TIMES]
    + COUNT_METRICS
    + [("tree.grow.nodes_per_s", "1/s"), ("tree.predict_batch.rows_per_s", "1/s"),
       ("neural.train_lm.accept_ratio", "share")]
    + [("cli.import_s", "s"), ("trace.overhead_s", "s"), ("trace.overhead_share", "share"),
       ("host.calib_s", "s")]
)


def child_env():
    env = dict(os.environ, **BLAS_ENV)
    env.pop("DURACAST_SEED", None)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    return env


def spawn(argv, cwd):
    """Run a child process to its end; return (wall seconds, code, stderr)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=STEP_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        err += "\nerror:timeout:step exceeded %d s" % STEP_TIMEOUT
    return time.perf_counter() - start, proc.returncode, err


def run_child(argv, cwd):
    """Run one duracast command as ``python -m duracast``; same result tuple."""
    return spawn([sys.executable, "-m", "duracast"] + argv, cwd)


def run_in_process(argv, cwd=None):
    """Run one command through duracast.cli.run_cli; same result tuple."""
    from duracast import cli

    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run_cli(argv)
    except Exception:  # a crash is a failed operation, as a child's would be
        err.write(traceback.format_exc())
        code = 1
    return time.perf_counter() - start, code, err.getvalue()


def host_calibration():
    """Seconds for a fixed pure-Python plus numpy kernel (host speed probe)."""
    start = time.perf_counter()
    acc = 0
    for i in range(400000):
        acc += i * i % 7
    rng = np.random.Generator(np.random.PCG64(0))
    a = rng.random((200, 200))
    for _ in range(20):
        a = np.tanh(a @ a / 200.0)
    np.sort(rng.random(400000))
    return time.perf_counter() - start


def environment(calib_s):
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "git_commit": commit or "unknown",
        "host.calib_s": calib_s,
    }


def command_failed(code, err):
    """A command fails on a nonzero exit or any ``error:<code>:`` line."""
    return code != 0 or any(line.startswith("error:") for line in err.splitlines())


class Session:
    """Runs a workload's steps and tallies operations and failures."""

    def __init__(self, workload, files, out_root, size, runner):
        self.steps = workloads.steps(workload, files, out_root, size)
        self.runner = runner
        self.attempted = 0
        self.failed = 0
        self.values = {}

    def run(self, cwd):
        """One pass over the steps; returns (wall, {step label: wall})."""
        walls = {}
        results = []
        start = time.perf_counter()
        for step in self.steps:
            wall, code, err = self.runner(step.argv, cwd)
            walls[step.label] = wall
            results.append((step, code, err))
        total = time.perf_counter() - start
        for step, code, err in results:
            problems = []
            if command_failed(code, err):
                problems.append("exit %s: %s" % (code, err.strip()[-500:]))
            else:
                more, values = step.check(step.out)
                problems += more
                self.values.update(values)
            self.record(step.label, problems)
        return total, walls

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                sys.stderr.write("check failed [%s]: %s\n" % (label, p))

    def rerun_matches(self, label, cwd, second_root):
        """Rerun one step into second_root and compare artifacts byte for byte."""
        step = next(s for s in self.steps if s.label == label)
        second = os.path.join(second_root, label)
        argv = list(step.argv)
        argv[argv.index("--out") + 1] = second
        _, code, err = run_child(argv, cwd)
        problems = []
        if command_failed(code, err):
            problems.append("rerun exit %s: %s" % (code, err.strip()[-500:]))
        elif workloads.artifacts(step.out) != workloads.artifacts(second):
            problems.append("rerun artifacts differ from %s" % step.out)
        self.record(label + ".rerun", problems)


def setup(workload, seed, directory, size):
    """Generate inputs and import duracast once in a child; return seconds."""
    start = time.perf_counter()
    os.makedirs(directory)
    files = gen.write_inputs(workload, seed, directory, size)
    _, code, err = spawn([sys.executable, "-c", "import duracast"], directory)
    if code != 0:
        raise RuntimeError("cannot import duracast from %s: %s" % (SRC, err.strip()))
    return time.perf_counter() - start, files


def keep_going(durations, started, seconds):
    if len(durations) < MIN_SESSIONS:
        return True
    return time.perf_counter() + statistics.median(durations) <= started + seconds


def measure_untraced(args, work):
    setups = []
    for k in range(SETUPS):
        seconds, files = setup(args.workload, args.seed, os.path.join(work, "in%d" % k),
                               args.size)
        setups.append(seconds)
    calib = statistics.median(host_calibration() for _ in range(3))
    session = Session(args.workload, files, os.path.join(work, "out"), args.size, run_child)
    totals = []
    by_step = {s.label: [] for s in session.steps}
    started = time.perf_counter()
    while keep_going(totals, started, args.seconds):
        total, walls = session.run(work)
        totals.append(total)
        for label, wall in walls.items():
            by_step[label].append(wall)
    session.rerun_matches(workloads.RERUN[args.workload], work, os.path.join(work, "second"))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # The fastest session and set-up: host speed can change twofold within
    # one run, and the minimum is the statistic that moves least with it.
    metrics = {
        "session_s": min(totals),
        "setup_s": min(setups),
        "peak_rss_mb": peak_kb / 1024.0,
        "test_rmse": session.values.get("test_rmse"),
        "holdout_rmse": session.values.get("holdout_rmse"),
    }
    report = dict(metrics)
    report["session_median_s"] = statistics.median(totals)
    report["setup_median_s"] = statistics.median(setups)
    report.update({label + "_s": statistics.median(w) for label, w in by_step.items()})
    report["sessions"] = len(totals)
    report["session_walls"] = [round(t, 4) for t in totals]
    report.update(session.values)
    return (session.attempted, session.failed, calib,
            {name: (metrics[name], unit) for name, unit in END_TO_END}, report)


def import_seconds(cwd):
    code = ("import time; t = time.perf_counter(); import duracast.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=child_env(),
                         capture_output=True, text=True, timeout=STEP_TIMEOUT)
    return float(out.stdout)


def layer_metrics(summary, remainders, wall):
    """Per-layer values of one traced session, span times both in seconds
    and as shares of the session's traced wall time."""
    out = {name: summary.get(name, 0) for name in SPAN_TIMES}
    for c in COMMANDS:
        out["cli.%s.remainder_s" % c] = remainders.get(c, 0)
    out.update({share_name(name): out[name] / wall for name in SPAN_TIMES})
    out.update({name: summary.get(name, 0) for name, _ in COUNT_METRICS})
    grow_s = summary.get("tree.grow.self_s", 0)
    out["tree.grow.nodes_per_s"] = summary.get("tree.grow.nodes", 0) / grow_s if grow_s else 0
    route_s = summary.get("tree.predict_batch.s", 0)
    out["tree.predict_batch.rows_per_s"] = (
        summary.get("tree.predict_batch.rows", 0) / route_s if route_s else 0)
    attempts = summary.get("neural.train_lm.attempts", 0)
    out["neural.train_lm.accept_ratio"] = (
        summary.get("neural.train_lm.epochs", 0) / attempts if attempts else 0)
    return out


def measure_traced(args, work):
    sys.path.insert(0, SRC)
    import tracing

    _, files = setup(args.workload, args.seed, os.path.join(work, "in"), args.size)
    calib = statistics.median(host_calibration() for _ in range(3))
    import_s = statistics.median(import_seconds(work) for _ in range(3))
    plain = Session(args.workload, files, os.path.join(work, "plain"), args.size,
                    run_in_process)
    traced = Session(args.workload, files, os.path.join(work, "traced"), args.size,
                     run_in_process)
    plain.run(work)  # warm-up, checked but not timed
    per_session, pair_walls, overheads, shares = [], [], [], []
    started = time.perf_counter()
    while keep_going(pair_walls, started, args.seconds):
        tracer = tracing.Tracer()

        def traced_pass():
            tracer.install()
            try:
                return traced.run(work)
            finally:
                tracer.uninstall()

        # Alternate which side goes first so slow drift favours neither.
        if len(per_session) % 2:
            plain_wall, _ = plain.run(work)
            traced_wall, walls = traced_pass()
        else:
            traced_wall, walls = traced_pass()
            plain_wall, _ = plain.run(work)
        summary = tracer.summary()
        remainders = {}
        for step in traced.steps:
            command = step.argv[0]
            remainders[command] = remainders.get(command, 0.0) + walls[step.label]
        for command in remainders:
            remainders[command] -= summary.get("cli.%s.s" % command, 0.0)
        per_session.append(layer_metrics(summary, remainders, traced_wall))
        pair_walls.append(traced_wall + plain_wall)
        overheads.append(traced_wall - plain_wall)
        shares.append((traced_wall - plain_wall) / plain_wall)
    # The traced in-process artifacts must equal a plain child-process rerun.
    traced.rerun_matches(workloads.RERUN[args.workload], work, os.path.join(work, "second"))
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    values = {name: statistics.median(s[name] for s in per_session)
              for name in per_session[0]}
    values.update({
        "cli.import_s": import_s,
        "trace.overhead_s": statistics.median(overheads),
        "trace.overhead_share": statistics.median(shares),
        "host.calib_s": calib,
    })
    report = dict(values)
    report["sessions"] = len(per_session)
    return attempted, failed, calib, {name: (values[name], unit) for name, unit in PER_LAYER}, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("forest", "fit", "hygro"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(gen.SIZES), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "duracast", "__init__.py")):
        sys.stderr.write("bench: no duracast sources under %s\n" % SRC)
        return 2

    work = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        measure = measure_traced if args.trace else measure_untraced
        attempted, failed, calib, metrics, report = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for name in sorted(report):
        unit = dict(END_TO_END + PER_LAYER).get(name, "s" if name.endswith(("_s", ".s")) else "")
        print("  %-48s %s %s" % (name, report[name], unit))
    print("  %-48s %s" % ("failed_share", failed / max(attempted, 1)))
    print(json.dumps({"env": environment(calib)}, sort_keys=True))
    result = {
        "correct": failed == 0 and all(v is not None for v, _ in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

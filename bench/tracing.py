"""Timing shims around duracast's public layer functions.

``Tracer.install()`` replaces each function named in SHIMS with a wrapper
that records one span per call (name, duration, time spent in child spans)
and restores the originals on ``uninstall()``. Nothing under ``src/``
changes: the wrappers are set as module attributes, including every place a
name was re-bound by ``from ... import`` (otherwise that time would land in
the caller's self time).

Counts are read from arguments and return values outside the timed region;
the ones that need a walk over a returned model are deferred until
``summary()``. The per-row ``tree.predict`` and ``ensemble.predict`` are
deliberately not wrapped: they run thousands of times per command.
"""

import os
import time
from collections import Counter, defaultdict

from duracast import (
    _io,
    baselines,
    cli,
    data,
    durability,
    ensemble,
    metrics,
    neural,
    tree,
)


def _tree_nodes(root):
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, tree.Internal):
            stack.append(node.left)
            stack.append(node.right)
    return count


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


# (module, attribute, span name). A span name shared by several attributes
# is the same layer function reached through different bindings.
SHIMS = [
    (tree, "grow", "tree.grow"),
    (tree, "predict_batch", "tree.predict_batch"),
    (tree, "tree_lines", "tree.tree_lines"),
    (tree, "tree_from_lines", "tree.tree_from_lines"),
    (ensemble, "train_bagged", "ensemble.train_bagged"),
    (ensemble, "train_lsboost", "ensemble.train_lsboost"),
    (ensemble, "predict_batch", "ensemble.predict_batch"),
    (ensemble, "permutation_importance", "ensemble.permutation_importance"),
    (ensemble, "splitgain_importance", "ensemble.splitgain_importance"),
    (ensemble, "to_text", "ensemble.to_text"),
    (ensemble, "from_text", "ensemble.from_text"),
    (baselines, "baseline_comparison", "baselines.baseline_comparison"),
    (data, "ingest_csv", "data.ingest_csv"),
    (data, "encode_one_of_n", "data.encode_one_of_n"),
    (data, "moving_average_fill", "data.moving_average_fill"),
    (durability, "moving_average_fill", "data.moving_average_fill"),
    (neural, "train_lm", "neural.train_lm"),
    (neural, "jacobian", "neural.jacobian"),
    (neural, "forward", "neural.forward"),
    (neural, "narx_prepare", "neural.narx_prepare"),
    (neural, "narx_predict", "neural.narx_predict"),
    (durability, "build_risk_grid", "durability.build_risk_grid"),
    (durability, "render_grid", "durability.render_grid"),
] + [
    (mod, "atomic_write_text", "io.atomic_write_text")
    for mod in (_io, cli, tree, ensemble, neural, durability, data, metrics, baselines)
]

COMMANDS = ("train", "predict", "crossval", "importance", "baseline", "risk")


class Tracer:
    """Span recorder for one traced session; create one per session."""

    def __init__(self):
        self.stack = []  # [name, start, child_seconds]
        self.active = Counter()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.deferred = []  # (count name, function, value)
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        self.active[name] += 1
        self.stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        end = time.perf_counter()
        name, start, child = self.stack.pop()
        self.active[name] -= 1
        dur = end - start
        self.seconds[name] += dur
        self.self_seconds[name] += dur - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += dur

    def _wrap(self, name, func):
        tracer = self
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def shim(*args, **kwargs):
            before = tracer._before(name)
            tracer._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(args, kwargs, result, before)
            return result

        return shim

    def _before(self, name):
        if name == "neural.train_lm":
            return self.counts["neural.with_params.calls"]
        return None

    def _after_tree_grow(self, args, kwargs, result, _):
        self.deferred.append(("tree.grow.nodes", _tree_nodes, result))

    def _after_tree_predict_batch(self, args, kwargs, result, _):
        rows = len(result)
        self.counts["tree.predict_batch.rows"] += rows
        if self.active["ensemble.permutation_importance"]:
            self.counts["ensemble.permutation_importance.rows_routed"] += rows

    def _after_data_ingest_csv(self, args, kwargs, result, _):
        self.counts["data.ingest_csv.rows"] += result.n_rows

    def _after_neural_train_lm(self, args, kwargs, result, calls_before):
        # train_lm builds one candidate network (with_params) per attempted
        # step, plus the starting network and, with validation data, the
        # best-epoch network it returns.
        built = self.counts["neural.with_params.calls"] - calls_before
        has_val = _arg(args, kwargs, 2, "validation") is not None
        self.counts["neural.train_lm.attempts"] += built - 1 - int(has_val)
        self.counts["neural.train_lm.epochs"] += len(result[1]) - 1

    def _after_neural_narx_predict(self, args, kwargs, result, _):
        self.counts["neural.narx_predict.steps"] += len(result)

    def _after_durability_build_risk_grid(self, args, kwargs, result, _):
        self.counts["durability.build_risk_grid.cells"] += result.cells.size

    def _after_durability_render_grid(self, args, kwargs, result, _):
        paths = [_arg(args, kwargs, 1, "ppm_path"), _arg(args, kwargs, 2, "csv_path")]
        self.counts["durability.render_grid.bytes"] += sum(
            os.path.getsize(p) for p in paths if p is not None
        )

    def _after_io_atomic_write_text(self, args, kwargs, result, _):
        # Artifacts are ASCII, so characters equal bytes.
        self.counts["io.atomic_write_text.bytes"] += len(_arg(args, kwargs, 1, "text"))

    # -- installation ------------------------------------------------------

    def install(self):
        for mod, attr, name in SHIMS:
            self._patch(mod, attr, self._wrap(name, getattr(mod, attr)))
        with_params = neural.with_params

        def counting_with_params(*args, **kwargs):
            self.counts["neural.with_params.calls"] += 1
            return with_params(*args, **kwargs)

        self._patch(neural, "with_params", counting_with_params)
        # cli dispatches through a dict bound at import time.
        for command in COMMANDS:
            self._patch(cli._DISPATCH, command,
                        self._wrap("cli." + command, cli._DISPATCH[command]), item=True)

    def _patch(self, target, key, value, item=False):
        if item:
            self._saved.append((target, key, target[key], True))
            target[key] = value
        else:
            self._saved.append((target, key, getattr(target, key), False))
            setattr(target, key, value)

    def uninstall(self):
        while self._saved:
            target, key, value, item = self._saved.pop()
            if item:
                target[key] = value
            else:
                setattr(target, key, value)

    # -- results -----------------------------------------------------------

    def summary(self):
        """Flat {metric name: value} for this session's spans and counts."""
        counts = Counter(self.counts)
        for count_name, func, value in self.deferred:
            counts[count_name] += func(value)
        self.deferred = []
        out = {}
        for name in self.seconds:
            out[name + ".s"] = self.seconds[name]
            out[name + ".self_s"] = self.self_seconds[name]
            out[name + ".calls"] = self.calls[name]
        out.update(counts)
        return out

"""Per-layer tracing by wrapping the public functions of absentrf modules.

Installing a :class:`Tracer` replaces each target function, in every
``absentrf`` module that holds a reference to it, by a wrapper that
times the call and records it as a span.  Spans nest: a span's self
time is its duration minus the durations of the spans opened directly
inside it.  Nothing here changes what a wrapped function returns.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from measure import nearest_rank

KERNELS = (
    "best_ordered_split",
    "pseudo_value_split",
    "gamma_table",
    "exhaustive_categorical_split",
    "random_categorical_split",
)
# kernels whose median is also split by node size (rows <= 32 or > 32),
# separating fixed per-call overhead from per-row cost
SIZED_KERNELS = ("best_ordered_split", "pseudo_value_split")
SMALL_NODE = 32
POLICIES = ("left", "right", "stop", "majority", "random", "dbi")


class SpanStats:
    __slots__ = ("calls", "s", "self_s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0


class Tracer:
    """In-memory span and counter store.

    ``clock`` returns seconds; tests pass a fake one.
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [span name, seconds covered by child spans]
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.samples: dict[str, array] = defaultdict(lambda: array("d"))
        self.counts: Counter = Counter()

    def _open(self, name: str) -> tuple[list, float]:
        frame = [name, 0.0]
        self.stack.append(frame)
        return frame, self.clock()

    def _close(self, frame: list, t0: float) -> float:
        dt = self.clock() - t0
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += dt
        st = self.spans[frame[0]]
        st.calls += 1
        st.s += dt
        st.self_s += dt - frame[1]
        self.samples[frame[0]].append(dt)
        return dt

    @contextmanager
    def span(self, name: str):
        frame, t0 = self._open(name)
        try:
            yield
        finally:
            self._close(frame, t0)

    def wrap(self, name: str, fn, observe=None):
        """A wrapper that records each call of ``fn`` as span ``name``.

        ``observe(tracer, args, result, seconds, parent)`` is called after
        a call that returned; ``parent`` is the enclosing span's name.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            frame, t0 = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self._close(frame, t0)
            if observe is not None:
                observe(self, args, result, dt, parent)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# observers: counters recorded where the work happens


def _observe_kernel(name):
    sized = name.split(".", 1)[1] in SIZED_KERNELS

    def observe(tr, args, result, dt, parent):
        if result is not None:
            tr.counts[name + ".found"] += 1
        if sized:
            tr.samples[name + (".le32" if len(args[1]) <= SMALL_NODE else ".gt32")].append(dt)

    return observe


def _observe_grow(tr, args, tree, dt, parent):
    tr.counts["tree.nodes"] += len(tree.nodes)


def _observe_route(tr, args, trace, dt, parent):
    if trace.absent_encountered:
        tr.counts["tree.route.absent"] += 1
    if parent == "forest.oob_predict_all":
        tr.counts["forest.oob_pairs"] += 1


def _observe_resolve(tr, args, outcome, dt, parent):
    tr.counts["heuristics.resolve.calls." + args[0].token] += 1


def targets() -> list[tuple[str, str, str, object]]:
    """(span name, module, attribute, observer) for every traced function.

    Every public function of ``absentrf.metrics`` is traced, under the
    span name ``metrics.<function>``.
    """
    out = [("splits." + k, "absentrf.splits", k, _observe_kernel("splits." + k)) for k in KERNELS]
    out += [
        ("tree.grow_tree", "absentrf.tree", "grow_tree", _observe_grow),
        ("tree.route", "absentrf.tree", "route", _observe_route),
        ("tree.structure_hash", "absentrf.tree", "structure_hash", None),
        ("forest.train_forest", "absentrf.forest", "train_forest", None),
        ("forest.oob_predict_all", "absentrf.forest", "oob_predict_all", None),
        ("forest.save_forest", "absentrf.forest", "save_forest", None),
        ("forest.load_forest", "absentrf.forest", "load_forest", None),
        ("heuristics.resolve", "absentrf.heuristics", "resolve", _observe_resolve),
        ("seeding.coins", "absentrf.seeding", "Coins.uniform", None),
        ("data.ingest_csv", "absentrf.data", "ingest_csv", None),
        ("data.one_hot_transform", "absentrf.data", "one_hot_transform", None),
        ("experiment.run_experiment", "absentrf.experiment", "run_experiment", None),
    ]
    metrics = importlib.import_module("absentrf.metrics")
    for attr, fn in inspect.getmembers(metrics, inspect.isfunction):
        if fn.__module__ == metrics.__name__ and not attr.startswith("_"):
            out.append(("metrics." + attr, "absentrf.metrics", attr, None))
    return out


def install(tracer: Tracer):
    """Wrap every target; returns a function that undoes the patching."""
    undo: list[tuple[object, str, object]] = []
    wanted = targets()
    for _, module_name, _, _ in wanted:
        importlib.import_module(module_name)
    modules = [m for n, m in list(sys.modules.items()) if n == "absentrf" or n.startswith("absentrf.")]
    for name, module_name, attr, observe in wanted:
        owner, holders = sys.modules[module_name], modules
        if "." in attr:  # a method: patch its class only
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            holders = [owner]
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, observe)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    undo.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def restore():
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics


_NOT_RUN = SpanStats()


def _percentiles(samples, scale: float, *pcts: float) -> list[float]:
    s = sorted(samples or ())
    return [nearest_rank(s, p) * scale if s else 0.0 for p in pcts]


def layer_metrics(tr: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``n_ops`` traced operations.

    Calls, seconds and counts are per operation; percentiles and ratios
    pool every call.  A layer that never ran reads 0.
    """

    def span(name: str) -> SpanStats:
        return tr.spans.get(name, _NOT_RUN)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for k in KERNELS:
        name = "splits." + k
        st = span(name)
        m[name + ".calls"] = st.calls / n_ops
        m[name + ".s"] = st.s / n_ops
        m[name + ".us_p50"], m[name + ".us_p99"] = _percentiles(tr.samples.get(name), 1e6, 50, 99)
        m[name + ".found_ratio"] = ratio(tr.counts[name + ".found"], st.calls)
    for k in SIZED_KERNELS:
        for size in ("le32", "gt32"):
            (m[f"splits.{k}.us_p50_{size}"],) = _percentiles(tr.samples.get(f"splits.{k}.{size}"), 1e6, 50)

    grow = span("tree.grow_tree")
    m["tree.grow_tree.calls"] = grow.calls / n_ops
    m["tree.grow_tree.s"] = grow.s / n_ops
    m["tree.grow_tree.ms_p50"], m["tree.grow_tree.ms_p99"] = _percentiles(
        tr.samples.get("tree.grow_tree"), 1e3, 50, 99
    )
    m["tree.grow_tree.self_s"] = grow.self_s / n_ops
    m["tree.nodes"] = tr.counts["tree.nodes"] / n_ops
    route = span("tree.route")
    m["tree.route.calls"] = route.calls / n_ops
    m["tree.route.s"] = route.s / n_ops
    (m["tree.route.us_p50"],) = _percentiles(tr.samples.get("tree.route"), 1e6, 50)
    m["tree.route.absent_ratio"] = ratio(tr.counts["tree.route.absent"], route.calls)
    hashes = span("tree.structure_hash")
    m["tree.structure_hash.calls"] = hashes.calls / n_ops
    m["tree.structure_hash.s"] = hashes.s / n_ops
    m["tree.structure_hash.per_tree"] = ratio(hashes.calls, grow.calls)

    m["forest.train_forest.s"] = span("forest.train_forest").s / n_ops
    m["forest.oob_predict_all.s"] = span("forest.oob_predict_all").s / n_ops
    m["forest.oob_predict_all.self_s"] = span("forest.oob_predict_all").self_s / n_ops
    m["forest.oob_pairs"] = tr.counts["forest.oob_pairs"] / n_ops
    m["forest.save_forest.s"] = span("forest.save_forest").s / n_ops
    m["forest.load_forest.s"] = span("forest.load_forest").s / n_ops

    for policy in POLICIES:
        key = "heuristics.resolve.calls." + policy
        m[key] = tr.counts[key] / n_ops
    coins = span("seeding.coins")
    m["seeding.coins.calls"] = coins.calls / n_ops
    m["seeding.coins.s"] = coins.s / n_ops
    metric_spans = [st for name, st in tr.spans.items() if name.startswith("metrics.")]
    m["metrics.calls"] = sum(st.calls for st in metric_spans) / n_ops
    m["metrics.s"] = sum(st.s for st in metric_spans) / n_ops
    m["data.ingest_csv.s"] = span("data.ingest_csv").s / n_ops
    m["data.one_hot_transform.s"] = span("data.one_hot_transform").s / n_ops
    m["experiment.self_s"] = span("experiment.run_experiment").self_s / n_ops
    m["cli.predict.self_s"] = span("cli.predict").self_s / n_ops
    return m

"""Spans around the public functions of each ``qxg`` module.

The wrappers live here, in the benchmark, not in the program: a traced run
replaces a function on every ``qxg`` module that holds it (the names callers
actually look up at call time), records one span per call, and puts the
original back afterwards.  Spans stay in memory until the run ends.

A span is ``(name, start_ns, end_ns, parent_index, ((counter, value), ...))``,
a tuple of atoms so the garbage collector stops scanning it after one pass
and tracing does not slow the program's own collections.  A layer's self time
is its span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable


def _len_arg0(args, result):
    return len(args[0]) if isinstance(args[0], (bytes, str)) else 0


def _objects(args, result):
    return sum(len(frame.objects) for frame in result[0].frames)


def _trees(args, result):
    return sum(len(forest) for forest in result.forests.values())


def _nodes(args, result):
    return sum(len(tree.feature) for forest in result.forests.values() for tree in forest)


def _corpus_scenes(args, result):
    return len(result[0]) + len(result[1])


@dataclass(frozen=True)
class Hook:
    """One traced function: where it lives, the span name, and the size
    counters taken from each call's arguments and result."""

    name: str
    module: str
    attr: str  # "func" or "Class.method"
    sizes: tuple[tuple[str, Callable], ...] = ()
    only_here: bool = False  # wrap the name in ``module`` alone


HOOKS = (
    Hook("scene.load_trace", "qxg.scene", "load_trace",
         (("bytes", _len_arg0), ("objects", _objects))),
    Hook("builder.push_frame", "qxg.builder", "Builder.push_frame",
         (("pairs", lambda a, r: r.pairs_updated),)),
    Hook("builder.build", "qxg.builder", "build"),
    Hook("builder.edge_chain", "qxg.builder", "QXG.edge_chain",
         (("relations", lambda a, r: len(r)),)),
    Hook("builder.export_graph", "qxg.builder", "export_graph",
         (("bytes", lambda a, r: len(r)),)),
    # The decode -> converse round trip inside the builder, hence only the
    # name qxg.builder imported.
    Hook("calculi.converse_tuple", "qxg.builder", "converse_tuple", only_here=True),
    Hook("explainer.extract_features", "qxg.explainer", "extract_features",
         (("rows", lambda a, r: len(r)),)),
    Hook("explainer.build_dataset", "qxg.explainer", "build_dataset",
         (("rows", lambda a, r: len(r)),)),
    Hook("explainer.train", "qxg.explainer", "train", (("trees", _trees), ("nodes", _nodes))),
    Hook("explainer.predict_scores", "qxg.explainer", "predict_scores",
         (("rows", lambda a, r: len(a[1])),)),
    Hook("explainer.score", "qxg.explainer", "score"),
    Hook("explainer.explain", "qxg.explainer", "explain",
         (("candidates", lambda a, r: len(r.candidates)),)),
    Hook("explainer.model_to_json", "qxg.explainer", "model_to_json",
         (("bytes", lambda a, r: len(r)),)),
    Hook("explainer.model_from_json", "qxg.explainer", "model_from_json",
         (("bytes", _len_arg0),)),
    Hook("synthgen.generate_corpus", "qxg.synthgen", "generate_corpus",
         (("scenes", _corpus_scenes),)),
)


class Tracer:
    """Collects spans in memory for one phase of a run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, sizes=()) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, ())
            if sizes:
                try:
                    counts = tuple((key, count(args, result)) for key, count in sizes)
                except Exception:  # a counter that no longer fits the program reads 0
                    counts = ()
                spans[index] = (name, start, end, parent, counts)
            return result

        return traced


def install(tracer: Tracer, hooks=HOOKS):
    """Wrap every hook.  Returns ``(restore, missing)``: a function that
    puts the originals back, and the names of hooks whose target is gone."""
    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []
    for hook in hooks:
        try:
            target = importlib.import_module(hook.module)
        except ImportError:
            missing.append(hook.name)
            continue
        *outer, attr = hook.attr.split(".")
        for part in outer:
            target = getattr(target, part, None)
        original = getattr(target, attr, None)
        if original is None:
            missing.append(hook.name)
            continue
        wrapped = tracer.wrap(hook.name, original, hook.sizes)
        holders = [target] if outer or hook.only_here else [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "qxg" or key.startswith("qxg."))
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    undo.append((holder, key, original))
                    setattr(holder, key, wrapped)

    def restore() -> None:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)

    return restore, missing


def self_times(spans) -> list[int]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, span[1]), min(hi, span[2])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span[2] - span[1] - covered)
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    self_ns: int = 0
    sizes: dict = field(default_factory=dict)


def aggregate(spans, totals: dict[str, LayerTotals] | None = None) -> dict[str, LayerTotals]:
    """Calls, self time and summed size counters per span name, added into
    ``totals`` when given (one span list per process)."""
    totals = {} if totals is None else totals
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], LayerTotals())
        entry.calls += 1
        entry.self_ns += own
        for key, value in span[4] or ():
            entry.sizes[key] = entry.sizes.get(key, 0) + value
    return totals


def lost_hooks(totals: dict[str, LayerTotals], expected, missing=()) -> list[str]:
    """Hooks a workload should exercise that recorded no call, or whose
    target could not be found at all."""
    return sorted(set(missing) | {name for name in expected if name not in totals})


# (metric, span, size counter, scale from ns per unit, unit)
RATIOS = (
    ("scene.load_trace.us_per_object", "scene.load_trace", "objects", 1e-3, "us"),
    ("builder.push_frame.ns_per_pair", "builder.push_frame", "pairs", 1.0, "ns"),
    ("explainer.train.us_per_node", "explainer.train", "nodes", 1e-3, "us"),
)

CLI_COMMANDS = ("train", "eval", "explain", "build")


def layer_catalogue() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``.  Counts and self
    time are per pass of the workload; ratios divide self time by work."""
    out = []
    for hook in HOOKS:
        out.append((f"{hook.name}.calls", "count", "lower"))
        out.append((f"{hook.name}.self_ms", "ms", "lower"))
        for key, _ in hook.sizes:
            out.append((f"{hook.name}.{key}", "B" if key == "bytes" else "count", "higher"))
    out += [(name, unit, "lower") for name, _, _, _, unit in RATIOS]
    out.append(("cli.startup_ms", "ms", "lower"))
    for command in CLI_COMMANDS:
        out.append((f"cli.main.{command}.calls", "count", "lower"))
        out.append((f"cli.main.{command}.self_ms", "ms", "lower"))
    return out


def layer_metrics(totals: dict[str, LayerTotals], passes: int) -> dict[str, float]:
    """Values for the catalogue names a span list can give (all but
    ``cli.startup_ms``); layers with no calls read 0."""
    out = {}
    names = [hook.name for hook in HOOKS] + [f"cli.main.{c}" for c in CLI_COMMANDS]
    sizes = {hook.name: [key for key, _ in hook.sizes] for hook in HOOKS}
    for name in names:
        entry = totals.get(name, LayerTotals())
        out[f"{name}.calls"] = entry.calls / passes
        out[f"{name}.self_ms"] = entry.self_ns / passes / 1e6
        for key in sizes.get(name, ()):
            out[f"{name}.{key}"] = entry.sizes.get(key, 0) / passes
    for metric, span, key, scale, _ in RATIOS:
        entry = totals.get(span, LayerTotals())
        work = entry.sizes.get(key, 0)
        out[metric] = entry.self_ns * scale / work if work else 0.0
    return out

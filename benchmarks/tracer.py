"""Span tracing of distbalance's layers, from outside the package.

``Tracer.install`` replaces every public module-level function of the
layer modules with a wrapper that records a span (name, start, end,
parent span, op) and a few counts, in every distbalance module namespace
that holds it, so cross-module calls through imported names are traced
too.  ``remove`` puts the originals back.  Spans stay in memory; a layer's
self time is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import reference as R

LAYERS = ("cli", "edgelist", "graph", "analysis", "trees", "closure", "search")

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = [
    ("cli.self_s", "s", "lower"),
    ("cli.emit_bytes", "bytes", "lower"),
    ("edgelist.read_s", "s", "lower"),
    ("edgelist.edge_lines", "count", "lower"),
    ("graph.all_pairs_s", "s", "lower"),
    ("graph.all_pairs_calls", "count", "lower"),
    ("graph.bfs_sources", "count", "lower"),
    ("graph.diameter_s", "s", "lower"),
    ("graph.connectivity_s", "s", "lower"),
    ("graph.build_s", "s", "lower"),
    ("graph.other_s", "s", "lower"),
    ("analysis.report_s", "s", "lower"),
    ("analysis.szeged_s", "s", "lower"),
    ("analysis.predicate_s", "s", "lower"),
    ("analysis.edges_scored", "count", "lower"),
    ("trees.classify_s", "s", "lower"),
    ("trees.classify_calls", "count", "lower"),
    ("trees.other_s", "s", "lower"),
    ("closure.construct_self_s", "s", "lower"),
    ("closure.certify_self_s", "s", "lower"),
    ("closure.fallback_searches", "count", "lower"),
    ("search.s", "s", "lower"),
    ("search.calls", "count", "lower"),
    ("search.explored_family", "count", "lower"),
    ("search.explored_other", "count", "lower"),
    ("search.candidates_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]
# counts that must repeat exactly whenever the same round is traced again
DETERMINISTIC = [name for name, unit, _ in LAYER_METRICS if unit in ("count", "bytes")]

# self-time bucket of a traced function; unlisted ones use _MODULE_BUCKET
_BUCKET = {
    "graph.all_pairs_distances": "graph.all_pairs_s",
    "graph.diameter": "graph.diameter_s",
    "graph.is_connected": "graph.connectivity_s",
    "graph.from_edge_list": "graph.build_s",
    "graph.add_edges": "graph.build_s",
    "graph.remove_edges": "graph.build_s",
    "graph.relabel": "graph.build_s",
    "graph.complete_graph": "graph.build_s",
    "graph.path_graph": "graph.build_s",
    "graph.cycle_graph": "graph.build_s",
    "analysis.imbalance_report": "analysis.report_s",
    "analysis.szeged_index": "analysis.szeged_s",
    "analysis.is_distance_balanced": "analysis.predicate_s",
    "trees.classify_tree": "trees.classify_s",
    "closure.verify_closure": "closure.certify_self_s",
}
_MODULE_BUCKET = {
    "cli": "cli.self_s",
    "edgelist": "edgelist.read_s",
    "graph": "graph.other_s",
    "analysis": "analysis.predicate_s",
    "trees": "trees.other_s",
    "closure": "closure.construct_self_s",
    "search": "search.s",
}


def _all_pairs(args, result):
    return {"graph.bfs_sources": args[0].n, "graph.all_pairs_calls": 1}


def _one_bfs(args, result):
    return {"graph.bfs_sources": 1}


def _edges_scored(args, result):
    return {"analysis.edges_scored": args[0].edge_count}


def _edge_lines(args, result):
    return {"edgelist.edge_lines": result.edge_count}


def _classify(args, result):
    return {"trees.classify_calls": 1}


def _search(args, result):
    # the graph is kept (n <= 64) so the family can be read off after the round
    return {"search.calls": 1, "graph": args[0], "explored": result.explored,
            "k": result.min_additions, "mode": result.mode_used}


# what a traced call records when it returns: per-layer counts by metric
# name, and for a search the facts the oracle table needs
_HOOKS = {
    "graph.all_pairs_distances": _all_pairs,
    "graph.is_connected": _one_bfs,
    "graph.distances_from": _one_bfs,
    "analysis.imbalance_report": _edges_scored,
    "analysis.szeged_index": _edges_scored,
    "analysis.is_distance_balanced": _edges_scored,
    "edgelist.parse_edge_list": _edge_lines,
    "trees.classify_tree": _classify,
    "search.search_minimum_additions": _search,
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    op: int
    info: dict | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter()
            except BaseException:
                spans.append(Span(sid, name, start, time.perf_counter(), parent, self.op, None))
                raise
            finally:
                stack.pop()
            info = hook(args, result) if hook is not None else None
            spans.append(Span(sid, name, start, end, parent, self.op, info))
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"distbalance.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != "distbalance" and not modname.startswith("distbalance."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times and counts over the given spans.

    ``cli.emit_bytes`` and ``trace.overhead_frac`` are measured by the runner
    and filled in there.
    """
    out = {name: 0 if unit in ("count", "bytes") else 0.0
           for name, unit, _ in LAYER_METRICS}
    child_time: dict[int, float] = defaultdict(float)
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    for s in spans:
        layer = s.name.split(".", 1)[0]
        bucket = _BUCKET.get(s.name, _MODULE_BUCKET[layer])
        out[bucket] += s.end - s.start - child_time[s.id]
        for key, value in (s.info or {}).items():
            if key in out:
                out[key] += value
        if s.name == "search.search_minimum_additions" and s.info is not None:
            parent = by_id.get(s.parent)
            if parent is not None and parent.name == "closure.construct_closure":
                out["closure.fallback_searches"] += 1
            family, _ = search_family(s)
            key = "search.explored_other" if family == "other" else "search.explored_family"
            out[key] += s.info["explored"]
    explored = out["search.explored_family"] + out["search.explored_other"]
    if out["search.s"] > 0:
        out["search.candidates_per_s"] = explored / out["search.s"]
    return out


def search_family(span: Span) -> tuple[str, int]:
    """(family, max degree) of the graph a search span ran on."""
    g = span.info["graph"]
    return R.classify(g.n, g.edges())

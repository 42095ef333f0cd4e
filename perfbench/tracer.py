"""Call spans and counters around the package's module-level functions.

``plan`` and ``solve`` look their helpers up as module globals at call time,
so replacing a module attribute with a wrapper puts a span around every call
the pipeline makes, without touching the package. Spans are kept in flat
arrays while the run lasts and saved once at the end. Counters read only the
wrapped function's arguments and return value.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from multiroute import graph, graphio, ordering, planner

clock = time.perf_counter

CountFn = Callable[[Counter, tuple, Any], None]


def _scan(c: Counter, args: tuple, result: Any) -> None:
    c["planner.nearest_expandable.calls"] += 1
    c["planner.nearest_expandable.scanned"] += len(args[0].expandable)


def _extend(c: Counter, args: tuple, result: Any) -> None:
    c["planner.extend.calls"] += 1
    c["planner.extend.added"] += len(result)
    c["planner.extend.empty"] += not result


def _rewire(c: Counter, args: tuple, result: Any) -> None:
    reparented, changed = result
    c["planner.rewire.reparented"] += reparented
    c["planner.rewire.cascade"] += len(changed) - reparented


def _connections(c: Counter, args: tuple, result: Any) -> None:
    c["planner.matrix_improvements"] += len(result)


def _plan(c: Counter, args: tuple, result: Any) -> None:
    c["planner.emitted"] += len(result.solutions)
    c["planner.iterations"] += result.iterations
    c["planner.explored_nodes"] += result.explored_nodes


def _genetic(c: Counter, args: tuple, result: Any) -> None:
    c["ordering.genetic_refine.calls"] += 1
    c["ordering.genetic_refine.wins"] += result.total_cost < args[1].total_cost


def _mutate(c: Counter, args: tuple, result: Any) -> None:
    c["ordering.mutate.calls"] += 1
    c["ordering.mutate.fallback"] += result is args[1]


def _crossover(c: Counter, args: tuple, result: Any) -> None:
    c["ordering.crossover.calls"] += 1
    c["ordering.crossover.fallback"] += result is args[1] or result is args[2]


# (module, attribute, counter). Spans time the call; counter-only entries
# (``mutate``, ``crossover``) run thousands of times per solve, so their time
# stays inside ``genetic_refine`` rather than paying for two clock reads each.
SPANS: list[tuple[Any, str, CountFn | None]] = [
    (graphio, "parse_edgelist", None),
    (graphio, "resolve_scenario", None),
    (planner, "plan", _plan),
    (planner, "nearest_expandable", _scan),
    (planner, "extend", _extend),
    (planner, "choose_parent", None),
    (planner, "rewire", _rewire),
    (planner, "update_connections", _connections),
    (planner, "destinations_connected", None),
    (planner, "stitch_node_path", None),
    (ordering, "solve", None),
    (ordering, "cheapest_insertion", None),
    (ordering, "genetic_refine", _genetic),
    (ordering, "brute_force_oracle", None),
    (graph, "dijkstra", None),
]
COUNTERS: list[tuple[Any, str, CountFn]] = [
    (ordering, "mutate", _mutate),
    (ordering, "crossover", _crossover),
]


def span_name(module: Any, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """In-memory spans (name, start, end, parent, scenario) plus counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.code = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.scenario_of = array("i")
        self.counts: Counter = Counter()
        self.scenario = -1
        self._open: list[int] = []

    def _wrap_span(self, name: str, fn: Callable, count: CountFn | None) -> Callable:
        code = len(self.names)
        self.names.append(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(self.start)
            self.code.append(code)
            self.parent.append(self._open[-1] if self._open else -1)
            self.scenario_of.append(self.scenario)
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._open.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def _wrap_count(self, fn: Callable, count: CountFn) -> Callable:
        def counted(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            count(self.counts, args, result)
            return result

        return counted

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Replace every traced function by its wrapper; restore on exit."""
        saved = [(m, a, getattr(m, a)) for m, a, _ in (*SPANS, *COUNTERS)]
        try:
            for m, a, count in SPANS:
                setattr(m, a, self._wrap_span(span_name(m, a), getattr(m, a), count))
            for m, a, count in COUNTERS:
                setattr(m, a, self._wrap_count(getattr(m, a), count))
            yield self
        finally:
            for m, a, fn in saved:
                setattr(m, a, fn)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        code = np.frombuffer(self.code, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return code, dur, parent

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive time and self time in seconds.

        Self time is the span's duration minus the durations of its direct
        children.
        """
        code, dur, parent = self._arrays()
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        out = {}
        for c, name in enumerate(self.names):
            sel = code == c
            out[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(own[sel].sum()),
            }
        return out

    def child_calls(self, name: str, parent_name: str) -> int:
        """Number of ``name`` spans whose direct parent is a ``parent_name`` span."""
        code, _, parent = self._arrays()
        c, p = self.names.index(name), self.names.index(parent_name)
        sel = (code == c) & (parent >= 0)
        return int((code[parent[sel]] == p).sum())

    def save(self, path: Path) -> None:
        code, _, parent = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            code=code,
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=parent,
            scenario=np.frombuffer(self.scenario_of, dtype=np.int32),
        )

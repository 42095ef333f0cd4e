"""Single-pair baseline planners: bidirectional A* and anytime A* (ANA*)."""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

from .geo import haversine
from .graph import RoutingGraph, node_path_cost, path_from_root

INF = math.inf


class NoPathError(ValueError):
    """Source and target are disconnected; ``endpoints`` holds both node ids."""

    def __init__(self, s: int, t: int) -> None:
        super().__init__(f"no path between {s} and {t}")
        self.endpoints = (s, t)


class NoPathYet(RuntimeError):
    """The budget ran out before any solution was found."""

    def __init__(self, explored_nodes: int) -> None:
        super().__init__(f"budget exhausted after exploring {explored_nodes} nodes")
        self.explored_nodes = explored_nodes


@dataclass(frozen=True)
class BaselineResult:
    node_path: tuple[int, ...]
    cost: float
    explored_nodes: int
    wall_time: float
    trace: tuple[tuple[float, float], ...]  # (wall_time, cost) per improvement


class _GoalHeuristic(dict):
    """Node id to its great-circle distance to one goal times ``great_circle_scale``.

    Each value is computed on first lookup: a search reaches a small part of
    the graph, and evaluating every node up front cost more than the search.
    """

    __slots__ = ("_nodes", "_goal", "_scale")

    def __init__(self, graph: RoutingGraph, goal: int) -> None:
        super().__init__()
        self._nodes = graph.nodes
        self._goal = graph.nodes[goal]
        self._scale = graph.great_circle_scale()

    def __missing__(self, node: int) -> float:
        h = self[node] = self._scale * haversine(self._nodes[node], self._goal)
        return h


def bidirectional_astar(graph: RoutingGraph, s: int, t: int) -> BaselineResult:
    """Exact shortest path via simultaneous searches from both endpoints.

    Uses the great-circle distance to the opposite endpoint as the heuristic,
    scaled down when explicit edge weights are shorter than the great-circle
    length so that it stays consistent. Stops once either frontier's best
    f-value reaches the best meeting cost seen, which proves that cost optimal.
    """
    n = graph.node_count
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"endpoint outside 0..{n - 1}")
    start = time.monotonic()
    if s == t:
        return BaselineResult(
            node_path=(s,), cost=0.0, explored_nodes=0, wall_time=0.0, trace=((0.0, 0.0),)
        )
    h_fwd, h_bwd = _GoalHeuristic(graph, t), _GoalHeuristic(graph, s)
    g = ({s: 0.0}, {t: 0.0})
    parent: tuple[dict[int, int | None], dict[int, int | None]] = ({s: None}, {t: None})
    done: tuple[set[int], set[int]] = (set(), set())
    heaps: list[list[tuple[float, int, float]]] = [[(h_fwd[s], s, 0.0)], [(h_bwd[t], t, 0.0)]]
    h_of = (h_fwd, h_bwd)
    mu = INF
    meet = -1
    explored = 0

    def top_f(side: int) -> float:
        heap = heaps[side]
        while heap:
            f, node, gv = heap[0]
            if node in done[side] or g[side].get(node) != gv:
                heapq.heappop(heap)
                continue
            return f
        return INF

    while True:
        f0, f1 = top_f(0), top_f(1)
        if min(f0, f1) >= mu:
            break
        if f0 == INF and f1 == INF:
            break
        side = 0 if f0 <= f1 else 1
        _, u, gu = heapq.heappop(heaps[side])
        done[side].add(u)
        explored += 1
        other = 1 - side
        if u in g[other]:
            cand = gu + g[other][u]
            if cand < mu:
                mu = cand
                meet = u
        h = h_of[side]
        for v, w in graph.adj[u]:
            if v in done[side]:
                continue
            ng = gu + w
            if ng < g[side].get(v, INF):
                g[side][v] = ng
                parent[side][v] = u
                heapq.heappush(heaps[side], (ng + h[v], v, ng))
                if v in g[other]:
                    cand = ng + g[other][v]
                    if cand < mu:
                        mu = cand
                        meet = v
    if meet < 0:
        raise NoPathError(s, t)
    path = path_from_root(parent[0], meet) + path_from_root(parent[1], meet)[-2::-1]
    cost = node_path_cost(graph, path)
    wall = time.monotonic() - start
    return BaselineResult(
        node_path=tuple(path), cost=cost, explored_nodes=explored, wall_time=wall, trace=((wall, cost),)
    )


def anastar(graph: RoutingGraph, s: int, t: int, budget: float | None = None) -> BaselineResult:
    """Anytime A*: greedily finds a first path, then keeps tightening it.

    Repeatedly expands the open node maximizing (G - g) / h, where G is the
    incumbent cost; every time the goal is reached with g < G the incumbent
    improves and the open list is re-keyed and pruned. The heuristic is the
    scaled great-circle distance of ``bidirectional_astar``, so with no budget
    the search runs to exhaustion and the final cost is optimal, whatever the
    positive edge weights.
    """
    n = graph.node_count
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"endpoint outside 0..{n - 1}")
    if budget is not None and budget <= 0:
        raise ValueError("budget must be positive")
    deadline = INF if budget is None else time.monotonic() + budget
    start = time.monotonic()
    if s == t:
        return BaselineResult(
            node_path=(s,), cost=0.0, explored_nodes=0, wall_time=0.0, trace=((0.0, 0.0),)
        )
    h = _GoalHeuristic(graph, t)
    g = {s: 0.0}
    parent: dict[int, int | None] = {s: None}
    big_g = INF
    expanded: set[int] = set()
    trace: list[tuple[float, float]] = []

    def key(node: int, gv: float) -> tuple[float, float, float, int]:
        hv = h[node]
        e = INF if hv <= 0.0 else (big_g - gv) / hv
        return (-e, hv, gv, node)

    heap = [(key(s, 0.0), s, 0.0)]
    while heap:
        if time.monotonic() > deadline:
            break
        _, u, gu = heapq.heappop(heap)
        if g.get(u) != gu or gu + h[u] >= big_g:
            continue
        if u == t:
            big_g = gu
            trace.append((time.monotonic() - start, gu))
            heap = [
                (key(node, gv), node, gv)
                for _, node, gv in heap
                if g.get(node) == gv and gv + h[node] < big_g
            ]
            heapq.heapify(heap)
            continue
        expanded.add(u)
        for v, w in graph.adj[u]:
            ng = gu + w
            if ng < g.get(v, INF) and ng + h[v] < big_g:
                g[v] = ng
                parent[v] = u
                heapq.heappush(heap, (key(v, ng), v, ng))
    if not trace:
        if not heap:
            raise NoPathError(s, t)
        raise NoPathYet(len(expanded))
    path = path_from_root(parent, t)
    return BaselineResult(
        node_path=tuple(path),
        cost=node_path_cost(graph, path),
        explored_nodes=len(expanded),
        wall_time=time.monotonic() - start,
        trace=tuple(trace),
    )


def leg_sequence(
    graph: RoutingGraph, nodes: list[int], algo: str = "biastar", budget: float | None = None
) -> BaselineResult:
    """Solve consecutive node pairs with a single-pair baseline and sum the legs.

    Multi-destination comparison helper: baselines have no native notion of
    intermediate objectives, so a visit order must be supplied by the caller.
    One leg returns that leg's own result; several legs return their joined
    path, with one trace entry for the summed cost.
    """
    if len(nodes) < 2:
        raise ValueError("need at least source and target")
    if algo not in ("biastar", "anastar"):
        raise ValueError(f"unknown baseline {algo!r}")
    per_leg = None if budget is None else budget / (len(nodes) - 1)
    start = time.monotonic()
    legs = [
        bidirectional_astar(graph, a, b) if algo == "biastar" else anastar(graph, a, b, per_leg)
        for a, b in zip(nodes, nodes[1:])
    ]
    if len(legs) == 1:
        return legs[0]
    path: list[int] = [nodes[0]]
    cost = 0.0
    for leg in legs:
        path.extend(leg.node_path[1:])
        cost += leg.cost
    wall = time.monotonic() - start
    return BaselineResult(
        node_path=tuple(path),
        cost=cost,
        explored_nodes=sum(leg.explored_nodes for leg in legs),
        wall_time=wall,
        trace=((wall, cost),),
    )

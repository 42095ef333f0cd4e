"""Single-pair baseline planners: bidirectional A* and anytime A* (ANA*)."""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .geo import great_circle_m
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


def goal_rows(graph: RoutingGraph, goals: Sequence[int]) -> list[list[float]]:
    """One heuristic row per goal: every node's great-circle distance to it times ``great_circle_scale``.

    One kernel call over all nodes and all ``goals`` together, whatever their
    number. ``bidirectional_astar``, ``anastar`` and the planner's phase 2
    build their rows here; the planner builds the rows of all its required
    destinations once per run and hands them to every leg search.
    """
    lat, lon = graph.lat, graph.lon
    gl = np.asarray(goals, np.intp)[:, None]
    return (graph.great_circle_scale() * great_circle_m(lat, lon, lat[gl], lon[gl])).tolist()


def bidirectional_astar(
    graph: RoutingGraph,
    s: int,
    t: int,
    deadline: float = INF,
    max_pops: float = INF,
    rows: Mapping[int, list[float]] | None = None,
) -> BaselineResult:
    """Exact shortest path via simultaneous A* searches from both endpoints.

    Both sides use balanced (average) potentials built from the heuristic
    rows of ``goal_rows``: h_t, the scaled great-circle distance to t, and
    h_s, the one to s. The forward side keys a node v by g + p_f(v) with
    p_f(v) = (h_t(v) - h_s(v)) * 0.5, the reverse side by g + p_r(v) with
    p_r(v) = (h_s(v) - h_t(v)) * 0.5; in IEEE arithmetic p_r is exactly
    -p_f. The scaled heuristics are consistent, and so is half the
    difference of two consistent ones, so each side settles nodes in
    reduced-cost order, like Dijkstra. Each pop settles one node of the
    side whose least key is smaller (the forward side on a tie), and
    ``explored_nodes`` counts the pops. Any s-t path through a node that
    neither side has settled costs at least top_f + top_r, since p_f + p_r
    = 0, so once top_f + top_r reaches the best meeting cost seen, that
    cost is optimal; an emptied side reads INF, so a side that exhausts its
    component without a meeting proves that there is no path. The potentials
    are worked out per node as it is pushed, from the two rows. ``rows``
    maps a node to its row; when it is None the search builds the rows of s
    and t itself, in one ``goal_rows`` call. The returned cost sums the
    path's edge weights in path order, as ``node_path_cost`` does. Before
    each pop the search checks the clock against ``deadline`` (a
    ``time.monotonic`` reading), then its pop count against ``max_pops``,
    and raises ``NoPathYet`` with the pops made once either is reached. The
    planner's phase 2 searches its legs with this function, passing the
    run's deadline, what is left of its iteration cap and its rows, so that
    one planner iteration is one pop.
    """
    n = graph.node_count
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"endpoint outside 0..{n - 1}")
    start = time.monotonic()
    if s == t:
        return BaselineResult(
            node_path=(s,), cost=0.0, explored_nodes=0, wall_time=0.0, trace=((0.0, 0.0),)
        )
    if rows is None:
        ht, hs = goal_rows(graph, (t, s))
    else:
        ht, hs = rows[t], rows[s]
    # Side 0 searches from s, side 1 from t; a side's potential is
    # (a[v] - b[v]) * 0.5 for its pair of rows (a, b).
    pot = ((ht, hs), (hs, ht))
    g = ({s: 0.0}, {t: 0.0})
    parent: tuple[dict[int, int | None], dict[int, int | None]] = ({s: None}, {t: None})
    done: tuple[set[int], set[int]] = (set(), set())
    top = [(ht[s] - hs[s]) * 0.5, (hs[t] - ht[t]) * 0.5]  # each side's least valid key, INF once its heap empties
    heaps: tuple[list[tuple[float, int, float]], ...] = ([(top[0], s, 0.0)], [(top[1], t, 0.0)])
    adj = graph.adj
    monotonic = time.monotonic
    heappop, heappush = heapq.heappop, heapq.heappush
    mu = INF
    meet = -1
    explored = 0
    while top[0] + top[1] < mu:
        if monotonic() >= deadline or explored >= max_pops:
            raise NoPathYet(explored)
        side = 0 if top[0] <= top[1] else 1
        heap, gs, ds, ps, go = heaps[side], g[side], done[side], parent[side], g[1 - side]
        a, b = pot[side]
        _, u, gu = heappop(heap)
        ds.add(u)
        explored += 1
        if u in go:
            cand = gu + go[u]
            if cand < mu:
                mu = cand
                meet = u
        for v, w in adj[u]:
            if v in ds:
                continue
            ng = gu + w
            if ng < gs.get(v, INF):
                gs[v] = ng
                ps[v] = u
                heappush(heap, (ng + (a[v] - b[v]) * 0.5, v, ng))
                if v in go:
                    cand = ng + go[v]
                    if cand < mu:
                        mu = cand
                        meet = v
        # Only this side's heap and labels changed, so only its top can have.
        while heap and (heap[0][1] in ds or gs[heap[0][1]] != heap[0][2]):
            heappop(heap)
        top[side] = heap[0][0] if heap else INF
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
    h = goal_rows(graph, (t,))[0]
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
    """Solve consecutive node pairs with a single-pair baseline and join the legs.

    Multi-destination comparison helper: baselines have no native notion of
    intermediate objectives, so a visit order must be supplied by the caller.
    ``budget`` bounds the whole sequence: every bidirectional A* leg checks
    one deadline, ``budget`` seconds after the start, and every ANA* leg gets
    an equal share of it; a leg that runs out raises ``NoPathYet``. One leg
    returns that leg's own result; several legs return their joined path and
    its ``node_path_cost``, with one trace entry for that cost.
    """
    if len(nodes) < 2:
        raise ValueError("need at least source and target")
    if algo not in ("biastar", "anastar"):
        raise ValueError(f"unknown baseline {algo!r}")
    per_leg = None if budget is None else budget / (len(nodes) - 1)
    start = time.monotonic()
    deadline = INF if budget is None else start + budget
    legs = [
        bidirectional_astar(graph, a, b, deadline) if algo == "biastar" else anastar(graph, a, b, per_leg)
        for a, b in zip(nodes, nodes[1:])
    ]
    if len(legs) == 1:
        return legs[0]
    path: list[int] = [nodes[0]]
    for leg in legs:
        path.extend(leg.node_path[1:])
    cost = node_path_cost(graph, path)
    wall = time.monotonic() - start
    return BaselineResult(
        node_path=tuple(path),
        cost=cost,
        explored_nodes=sum(leg.explored_nodes for leg in legs),
        wall_time=wall,
        trace=((wall, cost),),
    )

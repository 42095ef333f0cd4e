"""Independent reference implementations used only to check the package.

These deliberately avoid the code paths they verify: Bellman-Ford instead of
the heap Dijkstra, BFS component counting instead of union-find, literal
sequence rebuilding instead of insertion-delta formulas, a haversine scan
instead of the planner's chord-distance argmin, a scalar Floyd-Warshall
instead of the array one, and a per-destination insertion loop instead of
the batched selection. The planner validators rebuild each tree's frontier,
child links and cost recurrence, and each matrix entry, from scratch.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Iterable, Sequence

import numpy as np

from multiroute.geo import haversine
from multiroute.graph import RoutingGraph
from multiroute.ordering import (
    SEGMENT_MAX,
    SEGMENT_MIN,
    Action,
    DestGraph,
    InsertionPlan,
    VisitSequence,
    _action_deltas,
    apply_insertion,
    make_sequence,
)
from multiroute.planner import ConnectionTable, SearchTree


def nearest_by_haversine(graph: RoutingGraph, candidates: Iterable[int], v_rand: int) -> int:
    """Candidate nearest to ``v_rand`` by great-circle distance, ties on the smaller id."""
    ref = graph.nodes[v_rand]
    return min(candidates, key=lambda n: (haversine(graph.nodes[n], ref), n))


def full_goal_heuristics(graph: RoutingGraph, *goals: int) -> list[list[float]]:
    """Per goal, every node's scaled great-circle distance to it, built up front."""
    scale = graph.great_circle_scale()
    nodes = graph.nodes
    return [[scale * haversine(p, nodes[goal]) for p in nodes] for goal in goals]


def bellman_ford(n: int, edges: list[tuple[int, int, float]], src: int) -> list[float]:
    """Edge-relaxation shortest paths over undirected (u, v, w) edges."""
    dist = [math.inf] * n
    dist[src] = 0.0
    for _ in range(n - 1):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    return dist


def bfs_components(n: int, pairs: list[tuple[int, int]]) -> int:
    """Number of connected components of the graph implied by the pairs."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * n
    comps = 0
    for start in range(n):
        if seen[start]:
            continue
        comps += 1
        seen[start] = True
        q = deque([start])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    q.append(v)
    return comps


def rebuild_sequence_cost(theta: list[list[float]], order: list[int]) -> float:
    return sum(theta[a][b] for a, b in zip(order, order[1:]))


def reference_mutate(dg: DestGraph, parent: VisitSequence, rng: random.Random) -> VisitSequence:
    """``ordering.mutate`` drawing through ``randint``, ``sample`` and ``shuffle``."""
    order = parent.order
    L = len(order)
    if L <= 3:
        return parent
    hi = min(SEGMENT_MAX, L - 1)
    lo = min(SEGMENT_MIN, hi)
    k = rng.randint(lo, hi)
    cuts = sorted(rng.sample(range(1, L), k - 1))
    bounds = [0, *cuts, L]
    segments = [list(order[a:b]) for a, b in zip(bounds, bounds[1:])]
    middle = segments[1:-1]
    for seg in middle:
        if rng.random() < 0.5:
            seg.reverse()
    rng.shuffle(middle)
    child: list[int] = segments[0][:]
    for seg in middle:
        child.extend(seg)
    child.extend(segments[-1])
    return make_sequence(dg, child)


def random_weighted_graph_edges(
    rng: random.Random, n: int, extra_edges: int, w_lo: float = 1.0, w_hi: float = 10.0
) -> list[tuple[int, int, float]]:
    """Connected random simple graph: a random tree plus extra random edges."""
    edges: dict[tuple[int, int], float] = {}
    for v in range(1, n):
        u = rng.randrange(v)
        edges[(u, v)] = rng.uniform(w_lo, w_hi)
    tries = 0
    while len(edges) < n - 1 + extra_edges and tries < 50 * extra_edges + 50:
        tries += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key not in edges:
            edges[key] = rng.uniform(w_lo, w_hi)
    return [(u, v, w) for (u, v), w in sorted(edges.items())]


def scalar_metric_closure(theta: np.ndarray) -> tuple[np.ndarray, list[list[int]]]:
    """In-place Floyd-Warshall over a zero-diagonal matrix, next hops included."""
    n = theta.shape[0]
    dist = theta.copy()
    nxt = [[j if math.isfinite(dist[i, j]) else -1 for j in range(n)] for i in range(n)]
    for i in range(n):
        nxt[i][i] = i
    for k in range(n):
        for i in range(n):
            dik = dist[i, k]
            if not math.isfinite(dik):
                continue
            row_i, row_k = dist[i], dist[k]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
                    nxt[i][j] = nxt[i][k]
    return dist, nxt


def per_destination_plan(dg: DestGraph, order: list[int], d_k: int) -> InsertionPlan:
    """Each action's first cheapest anchor; a later action wins only when strictly cheaper."""
    arr = np.asarray(order, dtype=int)
    plans = []
    for action in Action:
        deltas, offset = _action_deltas(dg, arr, d_k, action)
        if deltas.size:
            idx = int(np.argmin(deltas))
            plans.append(InsertionPlan(action, idx + offset, d_k, float(deltas[idx])))
    return min(plans, key=lambda p: p.delta_cost)


def per_destination_cheapest_insertion(dg: DestGraph) -> VisitSequence:
    """Cheapest insertion from [source, target], one best-insertion query per destination.

    A later destination wins only when strictly cheaper.
    """
    order = [dg.source, dg.target]
    remaining = dg.required_intermediates()
    while remaining:
        best = min((per_destination_plan(dg, order, d) for d in remaining), key=lambda p: p.delta_cost)
        order = apply_insertion(order, best)
        remaining.remove(best.destination)
    return make_sequence(dg, order)


def validate_tree(tree: SearchTree, graph: RoutingGraph) -> None:
    """Assert acyclic parents, mirrored child maps, exact costs and a correct frontier.

    Each parent link must appear once in the parent's ``children`` map, with
    the graph's weight for that edge, and no other child link may exist. The
    frontier is checked together with every node's count of unvisited
    neighbors, which ``extend`` reads to follow degree-two corridors.
    """
    if tree.parent.keys() != tree.cost.keys() or tree.children.keys() != tree.cost.keys():
        raise AssertionError("parent, cost and children hold different nodes")
    for node in tree.cost:
        seen = set()
        cur: int | None = node
        while cur is not None:
            if cur in seen:
                raise AssertionError(f"parent cycle through node {cur}")
            seen.add(cur)
            cur = tree.parent[cur]
        if tree.root_node not in seen:
            raise AssertionError(f"node {node} does not reach the root")
    links = {(p, c) for p, kids in tree.children.items() for c in kids}
    if links != {(p, c) for c, p in tree.parent.items() if p is not None}:
        raise AssertionError("child maps do not mirror the parent links")
    for node, parent in tree.parent.items():
        if parent is None:
            if tree.cost[node] != 0.0:
                raise AssertionError("root cost must be zero")
            continue
        w = graph.edge_weight(parent, node)
        if w is None:
            raise AssertionError(f"tree edge ({parent}, {node}) is not a graph edge")
        if tree.children[parent][node] != w:
            raise AssertionError(f"child map of {parent} holds the wrong weight for {node}")
        if tree.cost[node] != tree.cost[parent] + w:
            raise AssertionError(f"cost recurrence broken at node {node}")
    outside = {node: sum(n not in tree.cost for n, _ in graph.neighbors(node)) for node in tree.cost}
    if tree._unvisited != outside:
        raise AssertionError("unvisited-neighbor counts differ from a fresh count")
    frontier = {node for node, count in outside.items() if count}
    if tree.expandable != frontier:
        wrong = sorted(frontier.symmetric_difference(tree.expandable))
        raise AssertionError(f"frontier wrong for nodes {wrong} (size {len(tree.expandable)})")


def validate_connections(conn: ConnectionTable, trees: Sequence[SearchTree]) -> None:
    """Assert every matrix entry equals a fresh scan over the shared tree nodes.

    The fresh value of a pair is the least summed cost-to-come over the nodes
    both trees hold, ``inf`` if they share none; the pair's witness must
    realize it.
    """
    for i, ti in enumerate(trees):
        for k in range(i + 1, len(trees)):
            tk = trees[k]
            shared = ti.cost.keys() & tk.cost.keys()
            fresh = min((ti.cost[c] + tk.cost[c] for c in shared), default=math.inf)
            cached = conn.matrix[i][k]
            if cached != fresh:
                raise AssertionError(f"stale entry for pair {(i, k)}: {cached} vs fresh {fresh}")
            if shared:
                node = conn.best.get((i, k))
                if node not in shared or ti.cost[node] + tk.cost[node] != cached:
                    raise AssertionError(f"witness for pair {(i, k)} does not realize the value")

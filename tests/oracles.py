"""Independent reference implementations used only to check the package.

These deliberately avoid the code paths they verify: Bellman-Ford instead of
the heap Dijkstra, BFS over edge pairs instead of the planner's row sweep,
slot filling by occurrence counts instead of crossover's splice, literal
sequence rebuilding instead of insertion-delta formulas, a haversine scan
instead of the planner's chord-distance argmin, a scalar Floyd-Warshall
instead of the array one, a per-destination insertion loop instead of the
batched selection, an all-pairs loop instead of the geometric generator's
cell buckets, and a scalar pass over the edges instead of the graph's
one-kernel great-circle scale. The planner validators rebuild each tree's
frontier, parent links and cost inequality, and each matrix entry, from
scratch.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
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


def full_goal_heuristic(graph: RoutingGraph, goal: int) -> list[float]:
    """Every node's scaled great-circle distance to ``goal``, built up front."""
    scale = graph.great_circle_scale()
    return [scale * haversine(p, graph.nodes[goal]) for p in graph.nodes]


def great_circle_scale(graph: RoutingGraph) -> float:
    """``RoutingGraph.great_circle_scale`` as a scalar pass over the sorted edges.

    The least ratio of an edge's weight to its ``haversine`` length, over the
    edges of positive length, and 1.0 when that is larger.
    """
    nodes = graph.nodes
    ratios = [w / d for u, v, w in graph.edges() if (d := haversine(nodes[u], nodes[v])) > 0.0]
    return min([1.0, *ratios])


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


def bfs_connects(n: int, pairs: list[tuple[int, int]], required: Sequence[bool]) -> bool:
    """True iff the pairs join every required node into one component."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    want = [i for i in range(n) if required[i]]
    seen = {want[0]}
    q = deque([want[0]])
    while q:
        for v in adj[q.popleft()]:
            if v not in seen:
                seen.add(v)
                q.append(v)
    return seen.issuperset(want)


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


def reference_crossover(
    dg: DestGraph, pa: VisitSequence, pb: VisitSequence, rng: random.Random
) -> VisitSequence:
    """``ordering.crossover`` filling the free slots by occurrence counts."""
    if pa.order == pb.order:
        return pa
    if sorted(pa.order) != sorted(pb.order) or pa.order[0] != pb.order[0] or pa.order[-1] != pb.order[-1]:
        raise ValueError("crossover parents must share one destination multiset and endpoints")
    L = len(pa.order)
    M = L - 2
    if M <= 1:
        return pa
    donor, filler = (pa, pb) if rng.random() < 0.5 else (pb, pa)
    d_int = list(donor.order[1:-1])
    f_int = list(filler.order[1:-1])
    a = rng.randrange(M)
    b = rng.randrange(M)
    lo, hi = (a, b) if a <= b else (b, a)
    segment = d_int[lo : hi + 1]
    if rng.random() < 0.5:
        segment.reverse()
    off = rng.randint(0, M - len(segment))
    child: list[int | None] = [None] * M
    child[off : off + len(segment)] = segment
    need = Counter(f_int)
    for x in segment:
        need[x] -= 1
    empty = [i for i in range(M) if child[i] is None]
    fill_iter = iter(empty)
    for x in f_int:
        if need[x] > 0:
            need[x] -= 1
            child[next(fill_iter)] = x
    return make_sequence(dg, [pa.order[0], *child, pa.order[-1]])


def all_pairs_geometric_edges(n: int, radius: float, seed: int) -> list[tuple[int, int, None]]:
    """The edges of ``generate.random_geometric_graph``, testing every pair of points."""
    rng = random.Random(seed)
    unit = [(rng.random(), rng.random()) for _ in range(n)]
    r2 = radius * radius
    edges = []
    for i in range(n):
        xi, yi = unit[i]
        for j in range(i + 1, n):
            dx = xi - unit[j][0]
            dy = yi - unit[j][1]
            if dx * dx + dy * dy <= r2:
                edges.append((i, j, None))
    return edges


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


def tree_nodes(tree: SearchTree) -> list[int]:
    """Ascending ids of the nodes a tree holds: those with a finite cost-to-come."""
    return [v for v, c in enumerate(tree.cost) if math.isfinite(c)]


def validate_parent_links(tree: SearchTree, graph: RoutingGraph) -> list[int]:
    """Assert the tree invariant; returns the tree's nodes.

    Parent links must be graph edges that reach the root without a cycle, with
    ``cost[v] >= cost[parent[v]] + w``: a node's cost may sit above its path's
    once ``rewire`` lowered an ancestor's cost.
    Nodes outside the tree have no parent.
    """
    members = tree_nodes(tree)
    if tree.cost[tree.root_node] != 0.0 or tree.parent[tree.root_node] is not None:
        raise AssertionError("root must have cost zero and no parent")
    if any(tree.parent[v] is not None for v in set(range(graph.node_count)).difference(members)):
        raise AssertionError("a node outside the tree has a parent")
    for node in members:
        parent = tree.parent[node]
        if parent is None:
            continue
        w = graph.edge_weight(parent, node)
        if w is None:
            raise AssertionError(f"tree edge ({parent}, {node}) is not a graph edge")
        if not tree.cost[node] >= tree.cost[parent] + w:
            raise AssertionError(f"node {node} costs less than its parent plus the edge")
    for node in members:
        seen = set()
        cur: int | None = node
        while cur is not None:
            if cur in seen:
                raise AssertionError(f"parent cycle through node {cur}")
            seen.add(cur)
            cur = tree.parent[cur]
        if tree.root_node not in seen:
            raise AssertionError(f"node {node} does not reach the root")
    return members


def validate_tree(tree: SearchTree, graph: RoutingGraph) -> None:
    """Assert the tree invariant (``validate_parent_links``) and a correct frontier.

    The frontier is checked together with every node's count of unvisited
    neighbors, which ``extend`` reads to follow degree-two corridors, and its
    packed entries against the graph's points.
    """
    n = graph.node_count
    if not len(tree.cost) == len(tree.parent) == len(tree._unvisited) == n:
        raise AssertionError("per-node lists do not cover the graph")
    members = validate_parent_links(tree, graph)
    inside = set(members)
    outside = [sum(v not in inside for v, _ in graph.adj[u]) if u in inside else 0 for u in range(n)]
    if tree._unvisited != outside:
        raise AssertionError("unvisited-neighbor counts differ from a fresh count")
    frontier = {u for u in members if outside[u]}
    f = tree.expandable
    if sorted(f.ids) != sorted(frontier):
        wrong = sorted(frontier.symmetric_difference(f.ids))
        raise AssertionError(f"frontier wrong for nodes {wrong} (size {len(f)})")
    if [f.pos[u] for u in f.ids] != list(range(len(f))) or sum(p >= 0 for p in f.pos) != len(f):
        raise AssertionError("frontier positions do not index the packed ids")
    points = list(zip(f.x.tolist(), f.y.tolist(), f.z.tolist()))[: len(f)]
    if points != [graph.xyz[u] for u in f.ids]:
        raise AssertionError("packed frontier points differ from the graph's points")


def validate_connections(conn: ConnectionTable, trees: Sequence[SearchTree]) -> None:
    """Assert every matrix entry equals a fresh scan over the shared tree nodes.

    The fresh value of a pair is the least summed cost-to-come over the nodes
    both trees hold, ``inf`` if they share none; the pair's witness must
    realize it.
    """
    for i, ti in enumerate(trees):
        for k in range(i + 1, len(trees)):
            tk = trees[k]
            shared = set(tree_nodes(ti)) & set(tree_nodes(tk))
            fresh = min((ti.cost[c] + tk.cost[c] for c in shared), default=math.inf)
            cached = conn.matrix[i][k]
            if cached != fresh or conn.matrix[k][i] != fresh:
                raise AssertionError(f"stale entry for pair {(i, k)}: {cached} vs fresh {fresh}")
            if shared:
                node = conn.best.get((i, k))
                if node not in shared or ti.cost[node] + tk.cost[node] != cached:
                    raise AssertionError(f"witness for pair {(i, k)} does not realize the value")


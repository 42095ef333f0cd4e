"""Independent reference implementations used only to check the package.

These deliberately avoid the code paths they verify: Bellman-Ford instead of
the heap Dijkstra, BFS component counting instead of union-find, dense-array
Dijkstra for destination graphs, literal sequence rebuilding instead of
insertion-delta formulas, and a haversine scan instead of the planner's
chord-distance argmin.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Iterable

from multiroute.geo import haversine
from multiroute.graph import RoutingGraph


def nearest_by_haversine(graph: RoutingGraph, candidates: Iterable[int], v_rand: int) -> int:
    """Candidate nearest to ``v_rand`` by great-circle distance, ties on the smaller id."""
    ref = graph.nodes[v_rand]
    return min(candidates, key=lambda n: (haversine(graph.nodes[n], ref), n))


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


def dense_dijkstra(theta: list[list[float]], src: int) -> tuple[list[float], list[int]]:
    """O(n^2) Dijkstra over a dense symmetric matrix with inf for non-edges."""
    n = len(theta)
    dist = [math.inf] * n
    parent = [-1] * n
    dist[src] = 0.0
    visited = [False] * n
    for _ in range(n):
        u, best = -1, math.inf
        for i in range(n):
            if not visited[i] and dist[i] < best:
                u, best = i, dist[i]
        if u < 0:
            break
        visited[u] = True
        for v in range(n):
            w = theta[u][v]
            if u != v and math.isfinite(w) and dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                parent[v] = u
    return dist, parent


def rebuild_sequence_cost(theta: list[list[float]], order: list[int]) -> float:
    return sum(theta[a][b] for a, b in zip(order, order[1:]))


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

"""Routing graph, shortest-path trees, and path helpers."""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .geo import GeoPoint, haversine, unit_xyz


class GraphError(ValueError):
    """Raised for inputs that violate the routing-graph invariants."""


class RoutingGraph:
    """Undirected weighted simple graph over geographic nodes.

    Node ids are dense indices into ``nodes``. Edge weights are meters and
    default to the haversine length of the edge when not given. Duplicate
    edges collapse to the minimum weight; self-loops are rejected. Instances
    are immutable after construction and safe to share across readers.
    ``xyz`` holds each node's unit-sphere coordinates (``geo.unit_xyz``) as a
    triple of Python floats.
    """

    __slots__ = ("nodes", "xyz", "_adj", "edge_count", "_gc_scale")

    def __init__(
        self,
        nodes: Sequence[GeoPoint],
        edges: Iterable[tuple[int, int, float | None]],
    ) -> None:
        self.nodes: tuple[GeoPoint, ...] = tuple(nodes)
        self.xyz: tuple[tuple[float, float, float], ...] = tuple(map(tuple, unit_xyz(self.nodes).tolist()))
        n = len(self.nodes)
        weights: dict[tuple[int, int], float] = {}
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) references a node outside 0..{n - 1}")
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if w is None:
                w = haversine(self.nodes[u], self.nodes[v])
            w = float(w)
            if not math.isfinite(w) or w <= 0.0:
                raise GraphError(f"edge ({u}, {v}) has non-positive or non-finite weight {w}")
            key = (u, v) if u < v else (v, u)
            prev = weights.get(key)
            if prev is None or w < prev:
                weights[key] = w
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for (u, v), w in weights.items():
            adj[u].append((v, w))
            adj[v].append((u, w))
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        self.edge_count = len(weights)
        self._gc_scale: float | None = None

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def neighbors(self, u: int) -> tuple[tuple[int, float], ...]:
        """Neighbors of ``u`` as (node, weight) pairs sorted by node id."""
        return self._adj[u]

    def edge_weight(self, u: int, v: int) -> float | None:
        """Weight of edge (u, v), or None when it is not an edge."""
        if not 0 <= u < len(self._adj):
            return None
        nbrs = self._adj[u]
        i = bisect_left(nbrs, (v,))
        return nbrs[i][1] if i < len(nbrs) and nbrs[i][0] == v else None

    def edges(self) -> Iterable[tuple[int, int, float]]:
        """All undirected edges as (u, v, w) with u < v, sorted."""
        return ((u, v, w) for u, nbrs in enumerate(self._adj) for v, w in nbrs if u < v)

    def great_circle_scale(self) -> float:
        """Largest s <= 1 with every edge weighing at least s times its haversine length.

        Exactly 1.0 when weights default to the haversine length. Computed on
        the first call and kept, since the graph never changes.
        """
        if self._gc_scale is None:
            nodes = self.nodes
            ratios = [w / d for u, v, w in self.edges() if (d := haversine(nodes[u], nodes[v])) > 0.0]
            self._gc_scale = min([1.0, *ratios])
        return self._gc_scale


def path_from_root(parent: Mapping[int, int | None] | Sequence[int | None], node: int) -> list[int]:
    """Nodes from the root down to ``node`` along ``parent`` links, root first.

    ``parent`` maps a node id (dict key or list index) to its parent, and the
    root to None.
    """
    path = [node]
    while (p := parent[path[-1]]) is not None:
        path.append(p)
    path.reverse()
    return path


def node_path_cost(graph: RoutingGraph, path: Sequence[int]) -> float:
    """Sum of edge weights along ``path``; raises if a hop is not an edge."""
    total = 0.0
    for u, v in zip(path, path[1:]):
        w = graph.edge_weight(u, v)
        if w is None:
            raise ValueError(f"path hop ({u}, {v}) is not a graph edge")
        total += w
    return total


@dataclass
class ShortestPaths:
    """Single-source shortest-path result: costs and parent links by node id."""

    source: int
    cost: list[float]
    parent: list[int | None]

    def reachable(self, v: int) -> bool:
        return math.isfinite(self.cost[v])

    def path_to(self, v: int) -> list[int]:
        """Node path from the source to ``v``; raises if unreachable."""
        if not self.reachable(v):
            raise GraphError(f"node {v} unreachable from {self.source}")
        return path_from_root(self.parent, v)


def dijkstra(graph: RoutingGraph, src: int) -> ShortestPaths:
    """Exact shortest paths from ``src``; ties settle on the smaller node id."""
    n = graph.node_count
    if not 0 <= src < n:
        raise GraphError(f"source {src} outside 0..{n - 1}")
    cost = [math.inf] * n
    parent: list[int | None] = [None] * n
    cost[src] = 0.0
    done = [False] * n
    heap: list[tuple[float, int]] = [(0.0, src)]
    while heap:
        c, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in graph.neighbors(u):
            nc = c + w
            if nc < cost[v]:
                cost[v] = nc
                parent[v] = u
                heapq.heappush(heap, (nc, v))
    return ShortestPaths(source=src, cost=cost, parent=parent)


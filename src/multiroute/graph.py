"""Routing graph, shortest paths, and disjoint-set connectivity."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geo import GeoPoint, haversine, unit_xyz


class GraphError(ValueError):
    """Raised for inputs that violate the routing-graph invariants."""


class RoutingGraph:
    """Undirected weighted simple graph over geographic nodes.

    Node ids are dense indices into ``nodes``. Edge weights are meters and
    default to the haversine length of the edge when not given. Duplicate
    edges collapse to the minimum weight; self-loops are rejected. Instances
    are immutable after construction and safe to share across readers.
    ``xyz`` holds each node's unit-sphere coordinates (``geo.unit_xyz``).
    """

    __slots__ = ("nodes", "xyz", "_adj", "_weights", "edge_count")

    def __init__(
        self,
        nodes: Sequence[GeoPoint],
        edges: Iterable[tuple[int, int, float | None]],
    ) -> None:
        self.nodes: tuple[GeoPoint, ...] = tuple(nodes)
        self.xyz: np.ndarray = unit_xyz(self.nodes)
        self.xyz.flags.writeable = False
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
        self._weights = weights
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for (u, v), w in weights.items():
            adj[u].append((v, w))
            adj[v].append((u, w))
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        self.edge_count = len(weights)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def neighbors(self, u: int) -> tuple[tuple[int, float], ...]:
        """Neighbors of ``u`` as (node, weight) pairs sorted by node id."""
        return self._adj[u]

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def edge_weight(self, u: int, v: int) -> float | None:
        key = (u, v) if u < v else (v, u)
        return self._weights.get(key)

    def edges(self) -> Iterable[tuple[int, int, float]]:
        """All undirected edges as (u, v, w) with u < v, sorted."""
        return ((u, v, w) for (u, v), w in sorted(self._weights.items()))


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
        path = [v]
        while (p := self.parent[path[-1]]) is not None:
            path.append(p)
        path.reverse()
        return path


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


class DisjointSet:
    """Union-find over a fixed universe of dense indices."""

    __slots__ = ("_parent", "_size")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError("universe size must be non-negative")
        self._parent = list(range(size))
        self._size = [1] * size

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, x: int) -> int:
        parent = self._parent
        if not 0 <= x < len(parent):
            raise IndexError(f"element {x} outside universe of {len(parent)}")
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)


def connectivity_check(ds: DisjointSet, pairs: Iterable[tuple[int, int]]) -> bool:
    """Union all pairs into ``ds``; True iff the whole universe is one set."""
    for a, b in pairs:
        ds.union(a, b)
    n = len(ds)
    if n == 0:
        return True
    root = ds.find(0)
    return all(ds.find(i) == root for i in range(1, n))

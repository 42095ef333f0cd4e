"""Routing graph, shortest-path trees, and path helpers."""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geo import GeoPoint, great_circle_m, unit_xyz


class GraphError(ValueError):
    """Raised for inputs that violate the routing-graph invariants."""


class RoutingGraph:
    """Undirected weighted simple graph over geographic nodes.

    Node ids are dense indices into ``nodes``. Edge weights are meters and
    default to the haversine length of the edge when not given. Duplicate
    edges collapse to the minimum weight; self-loops are rejected, and the
    first bad edge in input order is the one named. Instances are immutable
    after construction and safe to share across readers. ``lat`` and ``lon``
    hold the node coordinates as read-only arrays, ``xyz`` each node's
    unit-sphere coordinates (``geo.unit_xyz``) as a triple of Python floats,
    and ``adj`` each node's neighbors as a tuple of (node, weight) pairs
    sorted by node id.
    """

    __slots__ = ("nodes", "lat", "lon", "xyz", "adj", "edge_count", "_gc_scale")

    def __init__(
        self,
        nodes: Sequence[GeoPoint],
        edges: Iterable[tuple[int, int, float | None]],
    ) -> None:
        self.nodes: tuple[GeoPoint, ...] = tuple(nodes)
        n = len(self.nodes)
        self.lat = np.fromiter((p.lat for p in self.nodes), float, n)
        self.lon = np.fromiter((p.lon for p in self.nodes), float, n)
        self.lat.flags.writeable = self.lon.flags.writeable = False
        self.xyz: tuple[tuple[float, float, float], ...] = tuple(map(tuple, unit_xyz(self.lat, self.lon).tolist()))
        # Weightless edges get their lengths in one kernel call after the
        # pass. An error the pass stops at is raised only after their check,
        # since a weightless edge before it may be the first bad edge.
        weights: dict[tuple[int, int], float] = {}
        gu: list[int] = []
        gv: list[int] = []
        error = None
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                error = f"edge ({u}, {v}) references a node outside 0..{n - 1}"
                break
            if u == v:
                error = f"self-loop at node {u}"
                break
            if w is None:
                gu.append(u)
                gv.append(v)
                continue
            w = float(w)
            if not math.isfinite(w) or w <= 0.0:
                error = f"edge ({u}, {v}) has non-positive or non-finite weight {w}"
                break
            key = (u, v) if u < v else (v, u)
            prev = weights.get(key)
            if prev is None or w < prev:
                weights[key] = w
        lengths = great_circle_m(self.lat[gu], self.lon[gu], self.lat[gv], self.lon[gv]).tolist()
        for u, v, w in zip(gu, gv, lengths):
            if w <= 0.0:
                raise GraphError(f"edge ({u}, {v}) has non-positive or non-finite weight {w}")
            key = (u, v) if u < v else (v, u)
            prev = weights.get(key)
            if prev is None or w < prev:
                weights[key] = w
        if error is not None:
            raise GraphError(error)
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for (u, v), w in weights.items():
            adj[u].append((v, w))
            adj[v].append((u, w))
        self.adj: tuple[tuple[tuple[int, float], ...], ...] = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        self.edge_count = m = len(weights)
        ends = np.fromiter(chain.from_iterable(weights), np.intp, 2 * m)
        lo, hi = ends[0::2], ends[1::2]
        d = great_circle_m(self.lat[lo], self.lon[lo], self.lat[hi], self.lon[hi])
        pos = d > 0.0
        ratios = np.fromiter(weights.values(), float, m)[pos] / d[pos]
        self._gc_scale = min(1.0, float(ratios.min())) if ratios.size else 1.0

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def edge_weight(self, u: int, v: int) -> float | None:
        """Weight of edge (u, v), or None when it is not an edge."""
        if not 0 <= u < len(self.adj):
            return None
        nbrs = self.adj[u]
        i = bisect_left(nbrs, (v,))
        return nbrs[i][1] if i < len(nbrs) and nbrs[i][0] == v else None

    def edges(self) -> Iterable[tuple[int, int, float]]:
        """All undirected edges as (u, v, w) with u < v, sorted."""
        return ((u, v, w) for u, nbrs in enumerate(self.adj) for v, w in nbrs if u < v)

    def great_circle_scale(self) -> float:
        """Largest s <= 1 with every edge weighing at least s times its haversine length.

        Exactly 1.0 when weights default to the haversine length, since both
        come from ``geo.great_circle_m``. Computed at construction, in one
        kernel call over the deduplicated edges.
        """
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
        for v, w in graph.adj[u]:
            nc = c + w
            if nc < cost[v]:
                cost[v] = nc
                parent[v] = u
                heapq.heappush(heap, (nc, v))
    return ShortestPaths(source=src, cost=cost, parent=parent)


"""Synthetic fixtures: geometric graphs, bug traps, and benchmark instances."""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from .geo import GeoPoint
from .graph import RoutingGraph
from .graphio import IdMap, ScenarioSpec
from .ordering import DestGraph

# Small geographic patch so unit-square layouts map to meter-scale edges.
_BASE_LAT = 45.0
_BASE_LON = 7.0
_SPAN_DEG = 0.01
_GRID_STEP_DEG = 1e-4


def _identity_ids(n: int) -> IdMap:
    ids = IdMap()
    for i in range(n):
        ids.add(i)
    return ids


def random_geometric_graph(
    n: int, radius: float, seed: int
) -> tuple[RoutingGraph, IdMap]:
    """Uniform points in a unit square, edges between pairs within ``radius``.

    Coordinates map onto a small geographic patch and edge weights are the
    haversine lengths, so heuristic searches stay admissible. Points are
    bucketed into square cells a little wider than ``radius`` and only pairs in
    the same or neighbouring cells are tested, so rounding in the cell index
    cannot put two points within ``radius`` of each other two cells apart.
    """
    if n < 2 or not 0.0 < radius <= math.sqrt(2.0):
        raise ValueError("need n >= 2 and 0 < radius <= sqrt(2)")
    rng = random.Random(seed)
    unit = [(rng.random(), rng.random()) for _ in range(n)]
    points = [
        GeoPoint(_BASE_LAT + y * _SPAN_DEG, _BASE_LON + x * _SPAN_DEG) for x, y in unit
    ]
    side = radius * (1.0 + 1e-9)
    cell = [(int(x / side), int(y / side)) for x, y in unit]
    members: dict[tuple[int, int], list[int]] = {}
    for i, c in enumerate(cell):
        members.setdefault(c, []).append(i)
    r2 = radius * radius
    edges = []
    for i, (xi, yi) in enumerate(unit):
        cx, cy = cell[i]
        near = (members.get((cx + ox, cy + oy), ()) for ox in (-1, 0, 1) for oy in (-1, 0, 1))
        for j in [j for js in near for j in js if j > i]:
            dx = xi - unit[j][0]
            dy = yi - unit[j][1]
            if dx * dx + dy * dy <= r2:
                edges.append((i, j, None))
    return RoutingGraph(points, edges), _identity_ids(n)


def largest_component(graph: RoutingGraph) -> list[int]:
    """Node ids of the largest connected component, ascending."""
    seen: set[int] = set()
    best: list[int] = []
    for start in range(graph.node_count):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        q = deque([start])
        while q:
            u = q.popleft()
            for v, _ in graph.adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    q.append(v)
        if len(comp) > len(best):
            best = comp
    best.sort()
    return best


def random_scenario(
    graph: RoutingGraph, ids: IdMap, n_objectives: int, seed: int
) -> ScenarioSpec:
    """Scenario over distinct nodes sampled from the largest component."""
    comp = largest_component(graph)
    if len(comp) < n_objectives + 2:
        raise ValueError(f"largest component has {len(comp)} nodes; the scenario needs {n_objectives + 2}")
    rng = random.Random(seed)
    picks = rng.sample(comp, n_objectives + 2)
    ext = [ids.to_external[i] for i in picks]
    return ScenarioSpec(source=ext[0], target=ext[1], objectives=tuple(ext[2:]))


# ---------------------------------------------------------------------------
# Bug traps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BugTrapFixture:
    graph: RoutingGraph
    ids: IdMap
    scenario: ScenarioSpec
    informed_scenario: ScenarioSpec
    entry_node: int  # first passage cell; the unique cut node when entry == 1


def bug_trap(chamber: int, corridor: int, entry: int, water_gap: bool = False) -> BugTrapFixture:
    """A chamber joined to an open region only through a narrow passage.

    Two ``chamber`` x ``chamber`` grids hold the source (at the chamber center)
    and the target (in the outer region); a sealed gap of ``corridor`` columns
    separates them. The only way out of the chamber is ``entry`` connector
    cells at its bottom-LEFT corner, leading to a passage row that runs under
    the chamber and across the gap: the exit points away from the target, so
    goal-directed growth piles up against the wall. The water-gap variant
    replaces the passage with a single bridge edge. The informed scenario adds
    a pseudo destination on the passage.
    """
    if chamber < 3 or corridor < 1 or not 1 <= entry <= chamber:
        raise ValueError("need chamber >= 3, corridor >= 1, 1 <= entry <= chamber")
    gap = corridor
    mid = chamber // 2
    outer_col0 = chamber + gap

    def cell_exists(row: int, col: int) -> bool:
        if 0 <= row < chamber and 0 <= col < chamber:
            return True  # chamber
        if 0 <= row < chamber and outer_col0 <= col < outer_col0 + chamber:
            return True  # outer region
        if water_gap:
            return False
        if row == chamber:  # entry connectors at the chamber's bottom-left
            return col < entry or col == outer_col0
        if row == chamber + 1:  # passage row under everything
            return 0 <= col <= outer_col0
        return False

    cells: dict[tuple[int, int], int] = {}
    points: list[GeoPoint] = []
    for row in range(chamber + 2):
        for col in range(outer_col0 + chamber):
            if cell_exists(row, col):
                cells[(row, col)] = len(points)
                points.append(
                    GeoPoint(_BASE_LAT + row * _GRID_STEP_DEG, _BASE_LON + col * _GRID_STEP_DEG)
                )
    edges: list[tuple[int, int, float | None]] = []
    for (row, col), u in cells.items():
        for dr, dc in ((0, 1), (1, 0)):
            v = cells.get((row + dr, col + dc))
            if v is not None:
                edges.append((u, v, None))
    if water_gap:
        u = cells[(chamber - 1, 0)]
        v = cells[(chamber - 1, outer_col0)]
        edges.append((u, v, None))
        entry_cell = (chamber - 1, outer_col0)
        pseudo_cell = entry_cell
    else:
        entry_cell = (chamber, 0)
        pseudo_cell = (chamber + 1, outer_col0 // 2)
    graph = RoutingGraph(points, edges)
    ids = _identity_ids(graph.node_count)
    source = cells[(mid, mid)]
    target = cells[(mid, outer_col0 + chamber // 2)]
    plain = ScenarioSpec(source=source, target=target)
    informed = ScenarioSpec(
        source=source, target=target, pseudos=((cells[pseudo_cell], False),)
    )
    return BugTrapFixture(
        graph=graph,
        ids=ids,
        scenario=plain,
        informed_scenario=informed,
        entry_node=cells[entry_cell],
    )


# ---------------------------------------------------------------------------
# Destination-graph benchmark instances
# ---------------------------------------------------------------------------

def random_complete_destgraph(order: int, seed: int) -> DestGraph:
    """Complete metric instance: straight-line distances between random points."""
    if order < 2:
        raise ValueError("order must be at least 2")
    rng = random.Random(seed)
    pts = [(rng.random(), rng.random()) for _ in range(order)]
    theta = np.zeros((order, order))
    for i in range(order):
        for j in range(i + 1, order):
            d = math.dist(pts[i], pts[j])
            theta[i, j] = theta[j, i] = d
    return DestGraph(theta, source=0, target=order - 1)


def random_incomplete_destgraph(order: int, seed: int, edge_prob: float = 0.4) -> DestGraph:
    """Incomplete metric instance: a random spanning tree plus random extra edges."""
    if order < 2:
        raise ValueError("order must be at least 2")
    rng = random.Random(seed)
    pts = [(rng.random(), rng.random()) for _ in range(order)]
    theta = np.full((order, order), math.inf)
    np.fill_diagonal(theta, 0.0)

    def link(i: int, j: int) -> None:
        d = math.dist(pts[i], pts[j])
        theta[i, j] = theta[j, i] = d

    for i in range(1, order):
        link(i, rng.randrange(i))
    for i in range(order):
        for j in range(i + 1, order):
            if not math.isfinite(theta[i, j]) and rng.random() < edge_prob:
                link(i, j)
    return DestGraph(theta, source=0, target=order - 1)

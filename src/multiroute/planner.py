"""Anytime multi-directional route planner.

One search tree grows from every destination (source, objectives, optional
waypoint hints, target) over the shared routing graph. Nodes reached by two
trees connect their destinations; the best such meeting points feed a
destination distance matrix. Whenever the matrix improves and the required
destinations are mutually reachable, the ordering solver is re-run and any
strictly better overall route is emitted, so solution quality only improves
over a run. Single-threaded and deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Set
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .graph import DisjointSet, RoutingGraph, node_path_cost
from . import ordering
from .ordering import DestGraph, GaConfig, VisitSequence

INF = math.inf


# ---------------------------------------------------------------------------
# Destinations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DestinationSet:
    """Destinations in stable order: source, objectives, pseudos, target.

    ``required`` marks destinations every route must visit; pseudo
    destinations without ``must_visit`` are optional hints that only help
    connect the trees.
    """

    node_ids: tuple[int, ...]
    required: tuple[bool, ...]
    kinds: tuple[str, ...]

    @property
    def count(self) -> int:
        return len(self.node_ids)

    @property
    def source_index(self) -> int:
        return 0

    @property
    def target_index(self) -> int:
        return len(self.node_ids) - 1

    @property
    def source_node(self) -> int:
        return self.node_ids[0]

    @property
    def target_node(self) -> int:
        return self.node_ids[-1]

    @staticmethod
    def build(
        source: int,
        target: int,
        objectives: Sequence[int] = (),
        pseudos: Sequence[tuple[int, bool]] = (),
    ) -> "DestinationSet":
        if source == target:
            raise ValueError("source and target must differ")
        seen = {source, target}
        for o in objectives:
            if o in seen:
                raise ValueError(f"objective {o} duplicates another destination")
            seen.add(o)
        for p, _ in pseudos:
            if p == source or p == target:
                raise ValueError(f"pseudo destination {p} equals the source or target")
            if p in seen:
                raise ValueError(f"pseudo destination {p} duplicates another destination")
            seen.add(p)
        node_ids = (source, *objectives, *(p for p, _ in pseudos), target)
        required = (True, *(True,) * len(objectives), *(mv for _, mv in pseudos), True)
        kinds = ("source", *("objective",) * len(objectives), *("pseudo",) * len(pseudos), "target")
        return DestinationSet(node_ids=node_ids, required=required, kinds=kinds)


def add_pseudo_destinations(
    dests: DestinationSet, pseudos: Sequence[tuple[int, bool]]
) -> DestinationSet:
    """Insert extra pseudo destinations ahead of the target."""
    existing = list(zip(dests.node_ids, dests.required, dests.kinds))
    head, tail = existing[:-1], existing[-1]
    present = {n for n, _, _ in existing}
    for p, mv in pseudos:
        if p == dests.source_node or p == dests.target_node:
            raise ValueError(f"pseudo destination {p} equals the source or target")
        if p in present:
            raise ValueError(f"pseudo destination {p} duplicates another destination")
        present.add(p)
        head.append((p, mv, "pseudo"))
    rows = [*head, tail]
    return DestinationSet(
        node_ids=tuple(n for n, _, _ in rows),
        required=tuple(r for _, r, _ in rows),
        kinds=tuple(k for _, _, k in rows),
    )


# ---------------------------------------------------------------------------
# Search trees
# ---------------------------------------------------------------------------

class Frontier(Set):
    """Growth frontier of one tree: a boolean mask over graph nodes, read as a set.

    Iteration yields node ids in ascending order; ``size`` counts the set
    mask entries, so ``len`` and truth tests cost no scan.
    """

    __slots__ = ("mask", "size")

    def __init__(self, node_count: int) -> None:
        self.mask = np.zeros(node_count, dtype=bool)
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def __contains__(self, node: int) -> bool:
        return 0 <= node < len(self.mask) and bool(self.mask[node])

    def __iter__(self) -> Iterator[int]:
        return iter(np.flatnonzero(self.mask).tolist())

    def add(self, node: int) -> None:
        if not self.mask[node]:
            self.mask[node] = True
            self.size += 1

    def discard(self, node: int) -> None:
        if self.mask[node]:
            self.mask[node] = False
            self.size -= 1


class SearchTree:
    """Rooted spanning tree of explored graph nodes for one destination.

    ``cost`` holds the exact cost-to-come from the root along parent links;
    ``expandable`` is the growth frontier: tree nodes with at least one graph
    neighbor outside the tree.
    """

    __slots__ = ("root_index", "root_node", "parent", "cost", "edge_w", "children", "expandable", "_unvisited")

    def __init__(self, root_index: int, root_node: int, graph: RoutingGraph) -> None:
        self.root_index = root_index
        self.root_node = root_node
        self.parent: dict[int, int | None] = {root_node: None}
        self.cost: dict[int, float] = {root_node: 0.0}
        self.edge_w: dict[int, float] = {}
        self.children: dict[int, set[int]] = {root_node: set()}
        self.expandable = Frontier(graph.node_count)
        self._unvisited: dict[int, int] = {}
        ud = sum(1 for n, _ in graph.neighbors(root_node) if n not in self.cost)
        self._unvisited[root_node] = ud
        if ud:
            self.expandable.add(root_node)

    def __contains__(self, node: int) -> bool:
        return node in self.cost

    def __len__(self) -> int:
        return len(self.cost)

    def add_node(self, node: int, parent: int, cost: float, weight: float, graph: RoutingGraph) -> None:
        self.parent[node] = parent
        self.cost[node] = cost
        self.edge_w[node] = weight
        self.children[node] = set()
        self.children[parent].add(node)
        ud = 0
        for n, _ in graph.neighbors(node):
            if n in self.cost:
                if n == node:
                    continue
                left = self._unvisited[n] - 1
                self._unvisited[n] = left
                if left == 0:
                    self.expandable.discard(n)
            else:
                ud += 1
        self._unvisited[node] = ud
        if ud:
            self.expandable.add(node)

    def branch_from_root(self, node: int) -> list[int]:
        """Node path from the root down to ``node`` along parent links."""
        chain = [node]
        while (p := self.parent[chain[-1]]) is not None:
            chain.append(p)
        chain.reverse()
        return chain


def _nearest(candidates: np.ndarray, v_rand: int, graph: RoutingGraph) -> int:
    """The candidate nearest to ``v_rand`` by great-circle distance.

    Compares squared chord lengths between unit-sphere points, which order
    like great-circle distances; ``candidates`` ascend, so ``argmin`` breaks
    ties on the smaller node id.
    """
    d = graph.xyz.take(candidates, axis=0)
    d -= graph.xyz[v_rand]
    return int(candidates[np.argmin(np.einsum("ij,ij->i", d, d))])


def nearest_expandable(tree: SearchTree, v_rand: int, graph: RoutingGraph) -> int | None:
    """Frontier node nearest to ``v_rand`` by great-circle distance, or None."""
    if not tree.expandable:
        return None
    return _nearest(np.flatnonzero(tree.expandable.mask), v_rand, graph)


def choose_parent(tree: SearchTree, v_new: int, graph: RoutingGraph) -> int:
    """Attach ``v_new`` under the in-tree neighbor giving the least cost-to-come."""
    best_parent = -1
    best_cost = INF
    best_w = 0.0
    for n, w in graph.neighbors(v_new):
        c = tree.cost.get(n)
        if c is not None and c + w < best_cost:
            best_cost = c + w
            best_parent = n
            best_w = w
    if best_parent < 0:
        raise RuntimeError(f"planner bug: node {v_new} has no neighbor in the tree")
    tree.add_node(v_new, best_parent, best_cost, best_w, graph)
    return best_parent


def extend(tree: SearchTree, v_anchor: int, v_rand: int, graph: RoutingGraph) -> list[int]:
    """Grow the tree from ``v_anchor`` toward ``v_rand``.

    Adds the unvisited neighbor of the anchor nearest to ``v_rand``, then
    compresses degree-two corridors: while the new node has exactly one
    neighbor outside the tree it keeps absorbing that neighbor, stopping at a
    branch node, a dead end, or ``v_rand`` itself.
    """
    added: list[int] = []
    candidates = [n for n, _ in graph.neighbors(v_anchor) if n not in tree.cost]
    if not candidates:
        return added
    v_new = candidates[0] if len(candidates) == 1 else _nearest(np.array(candidates), v_rand, graph)
    choose_parent(tree, v_new, graph)
    added.append(v_new)
    while v_new != v_rand:
        unvisited = [n for n, _ in graph.neighbors(v_new) if n not in tree.cost]
        if len(unvisited) != 1:
            break
        v_new = unvisited[0]
        choose_parent(tree, v_new, graph)
        added.append(v_new)
    return added


def rewire(tree: SearchTree, v_new: int, graph: RoutingGraph) -> tuple[int, list[int]]:
    """Reparent neighbors of ``v_new`` that become cheaper through it.

    Cost decreases propagate through the whole affected subtree so the
    cost-to-come recurrence stays exact. Returns the number of reparented
    neighbors and every node whose cost changed.
    """
    changed: list[int] = []
    count = 0
    base = tree.cost[v_new]
    for n, w in graph.neighbors(v_new):
        old = tree.cost.get(n)
        if old is None:
            continue
        nc = base + w
        if nc < old:
            old_parent = tree.parent[n]
            if old_parent is not None:
                tree.children[old_parent].discard(n)
            tree.parent[n] = v_new
            tree.children[v_new].add(n)
            tree.cost[n] = nc
            tree.edge_w[n] = w
            count += 1
            changed.append(n)
            stack = [n]
            while stack:
                u = stack.pop()
                cu = tree.cost[u]
                for c in tree.children[u]:
                    tree.cost[c] = cu + tree.edge_w[c]
                    changed.append(c)
                    stack.append(c)
    return count, changed


# ---------------------------------------------------------------------------
# Connections between trees
# ---------------------------------------------------------------------------

class ConnectionTable:
    """Connection nodes per destination pair and the induced distance matrix.

    ``matrix[i][k]`` is the best known path cost between destinations i and k,
    realized by the cached connection node ``best[(i, k)]``; entries only ever
    decrease as trees grow and rewire.
    """

    def __init__(self, n_dest: int) -> None:
        self.n_dest = n_dest
        self.nodes: dict[tuple[int, int], set[int]] = {}
        self.best: dict[tuple[int, int], tuple[int, float]] = {}
        self.matrix: list[list[float]] = [
            [0.0 if i == k else INF for k in range(n_dest)] for i in range(n_dest)
        ]

    def as_array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=float)


def update_connections(
    conn: ConnectionTable,
    trees: Sequence[SearchTree],
    v: int,
    owner: int,
) -> list[tuple[int, int]]:
    """Account for node ``v`` of tree ``owner`` joining or getting cheaper.

    Registers ``v`` as a connection node with every other tree containing it
    and lowers the affected matrix entries where it now realizes a shorter
    destination-to-destination path. Returns the improved pairs.
    """
    improved: list[tuple[int, int]] = []
    cost_own = trees[owner].cost[v]
    for k, other in enumerate(trees):
        if k == owner:
            continue
        c_other = other.cost.get(v)
        if c_other is None:
            continue
        pair = (owner, k) if owner < k else (k, owner)
        self_nodes = conn.nodes.setdefault(pair, set())
        self_nodes.add(v)
        cand = cost_own + c_other
        if cand < conn.matrix[pair[0]][pair[1]]:
            conn.matrix[pair[0]][pair[1]] = cand
            conn.matrix[pair[1]][pair[0]] = cand
            conn.best[pair] = (v, cand)
            improved.append(pair)
    return improved


def destinations_connected(
    matrix: Sequence[Sequence[float]], required: Sequence[bool] | None = None
) -> bool:
    """True iff the finite matrix entries connect all (required) destinations."""
    n = len(matrix)
    if n == 0:
        return True
    ds = DisjointSet(n)
    for i in range(n):
        row = matrix[i]
        for k in range(i + 1, n):
            if math.isfinite(row[k]):
                ds.union(i, k)
    indices = [i for i in range(n) if required is None or required[i]]
    root = ds.find(indices[0])
    return all(ds.find(i) == root for i in indices[1:])


# ---------------------------------------------------------------------------
# Planner loop
# ---------------------------------------------------------------------------

@dataclass
class PlannerConfig:
    goal_bias: float = 0.2
    rng_seed: int = 0
    time_budget: float = 10.0
    max_iterations: int | None = None
    tree_selection: str = "round_robin"
    # Ordering-solver strength: a light config for the in-loop re-solves that
    # follow every matrix improvement, full strength once at the end.
    solver_ga: GaConfig = field(
        default_factory=lambda: GaConfig(mutation_count=150, crossover_count=150, generations=3)
    )
    final_polish_ga: GaConfig | None = field(default_factory=GaConfig)
    stop_after_first: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.goal_bias <= 1.0:
            raise ValueError("goal_bias must lie in [0, 1]")
        if self.time_budget <= 0.0:
            raise ValueError("time_budget must be positive")
        if self.tree_selection not in ("round_robin", "uniform_random"):
            raise ValueError(f"unknown tree_selection {self.tree_selection!r}")


@dataclass(frozen=True)
class AnytimeSolution:
    node_path: tuple[int, ...]
    visit_order: VisitSequence
    total_cost: float
    wall_time: float
    iteration: int
    explored_nodes: int


@dataclass
class PlanResult:
    # "solved": at least one route; "no_path": every tree saturated its
    # component and the required destinations are still apart, so none
    # exists; "no_path_yet": the budget ended first.
    status: str
    solutions: list[AnytimeSolution]
    iterations: int
    explored_nodes: int
    wall_time: float
    distance_matrix: list[list[float]]

    @property
    def final(self) -> AnytimeSolution | None:
        return self.solutions[-1] if self.solutions else None


def sample(cfg: PlannerConfig, graph: RoutingGraph, dests: DestinationSet, rng: random.Random) -> int:
    """Random graph node; with probability ``goal_bias`` a destination node."""
    if rng.random() < cfg.goal_bias:
        return dests.node_ids[rng.randrange(dests.count)]
    return rng.randrange(graph.node_count)


def stitch_node_path(
    seq: VisitSequence,
    trees: Sequence[SearchTree],
    conn: ConnectionTable,
    graph: RoutingGraph,
) -> list[int]:
    """Expand a destination visit order into a graph node path.

    Each leg runs from one destination's root to the pair's best connection
    node inside the first tree, then down the second tree to its root;
    junction nodes shared by consecutive legs appear once.
    """
    path = [trees[seq.order[0]].root_node]
    for a, b in zip(seq.order, seq.order[1:]):
        if a == b:
            continue
        pair = (a, b) if a < b else (b, a)
        c, _ = conn.best[pair]
        leg = trees[a].branch_from_root(c)
        down = trees[b].branch_from_root(c)
        down.reverse()
        leg.extend(down[1:])
        path.extend(leg[1:])
    return path


def validate_node_path(
    graph: RoutingGraph, dests: DestinationSet, path: Sequence[int]
) -> float:
    """Check endpoint, adjacency, and coverage invariants; returns path cost."""
    if not path:
        raise ValueError("empty node path")
    if path[0] != dests.source_node:
        raise ValueError(f"path starts at {path[0]}, not the source node {dests.source_node}")
    if path[-1] != dests.target_node:
        raise ValueError(f"path ends at {path[-1]}, not the target node {dests.target_node}")
    cost = node_path_cost(graph, path)
    present = set(path)
    for node, req, kind in zip(dests.node_ids, dests.required, dests.kinds):
        if req and node not in present:
            raise ValueError(f"required {kind} node {node} missing from path")
    return cost


def plan(
    graph: RoutingGraph,
    dests: DestinationSet,
    cfg: PlannerConfig,
    on_solution: Callable[[AnytimeSolution], None] | None = None,
) -> PlanResult:
    """Grow all destination trees under the budget, emitting improving routes."""
    for node in dests.node_ids:
        if not 0 <= node < graph.node_count:
            raise ValueError(f"destination node {node} outside the graph")
    rng = random.Random(cfg.rng_seed)
    solver_seeds = random.Random(cfg.rng_seed ^ 0x9E3779B97F4A7C15)
    trees = [SearchTree(i, node, graph) for i, node in enumerate(dests.node_ids)]
    conn = ConnectionTable(dests.count)
    start = time.monotonic()
    explored = len(trees)
    iterations = 0
    rr_next = 0
    saturated = False
    best_cost = INF
    solutions: list[AnytimeSolution] = []
    n_trees = len(trees)

    def try_solve(ga_cfg: GaConfig) -> None:
        nonlocal best_cost
        dg = DestGraph(conn.as_array(), dests.source_index, dests.target_index, dests.required)
        try:
            seq = ordering.solve(dg, replace(ga_cfg, rng_seed=solver_seeds.getrandbits(32)))
        except (ordering.NoSequenceError, ordering.NoInsertionError):
            return
        path = stitch_node_path(seq, trees, conn, graph)
        cost = node_path_cost(graph, path)
        if cost < best_cost:
            best_cost = cost
            sol = AnytimeSolution(
                node_path=tuple(path),
                visit_order=seq,
                total_cost=cost,
                wall_time=time.monotonic() - start,
                iteration=iterations,
                explored_nodes=explored,
            )
            solutions.append(sol)
            if on_solution is not None:
                on_solution(sol)

    while True:
        if time.monotonic() - start >= cfg.time_budget:
            break
        if cfg.max_iterations is not None and iterations >= cfg.max_iterations:
            break
        if cfg.stop_after_first and solutions:
            break
        idx = -1
        if cfg.tree_selection == "round_robin":
            for off in range(n_trees):
                cand = (rr_next + off) % n_trees
                if trees[cand].expandable:
                    idx = cand
                    break
            rr_next = (idx + 1) % n_trees
        else:
            active = [i for i, t in enumerate(trees) if t.expandable]
            if active:
                idx = active[rng.randrange(len(active))]
        if idx < 0:
            saturated = True  # every tree saturated its component: a fixpoint
            break
        iterations += 1
        tree = trees[idx]
        v_rand = sample(cfg, graph, dests, rng)
        anchor = nearest_expandable(tree, v_rand, graph)
        if anchor is None:
            continue
        added = extend(tree, anchor, v_rand, graph)
        if not added:
            continue
        explored += len(added)
        changed: set[int] = set(added)
        for v in added:
            _, ch = rewire(tree, v, graph)
            changed.update(ch)
        improved: list[tuple[int, int]] = []
        for v in sorted(changed):
            improved.extend(update_connections(conn, trees, v, idx))
        if improved and destinations_connected(conn.matrix, dests.required):
            try_solve(cfg.solver_ga)

    if (
        cfg.final_polish_ga is not None
        and not (cfg.stop_after_first and solutions)
        and destinations_connected(conn.matrix, dests.required)
    ):
        try_solve(cfg.final_polish_ga)

    if solutions:
        status = "solved"
    elif saturated and not destinations_connected(conn.matrix, dests.required):
        status = "no_path"
    else:
        status = "no_path_yet"
    return PlanResult(
        status=status,
        solutions=solutions,
        iterations=iterations,
        explored_nodes=explored,
        wall_time=time.monotonic() - start,
        distance_matrix=[row[:] for row in conn.matrix],
    )


# ---------------------------------------------------------------------------
# Debug validators
# ---------------------------------------------------------------------------

def validate_tree(tree: SearchTree, graph: RoutingGraph) -> None:
    """Assert acyclic parents, an exact cost recurrence, and a correct frontier."""
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
    for node, parent in tree.parent.items():
        if parent is None:
            if tree.cost[node] != 0.0:
                raise AssertionError("root cost must be zero")
            continue
        w = graph.edge_weight(parent, node)
        if w is None:
            raise AssertionError(f"tree edge ({parent}, {node}) is not a graph edge")
        if tree.cost[node] != tree.cost[parent] + tree.edge_w[node] or tree.edge_w[node] != w:
            raise AssertionError(f"cost recurrence broken at node {node}")
    frontier = {
        node for node in tree.cost if any(n not in tree.cost for n, _ in graph.neighbors(node))
    }
    if tree.expandable != frontier:
        wrong = sorted(frontier.symmetric_difference(tree.expandable))
        raise AssertionError(f"frontier wrong for nodes {wrong} (size {len(tree.expandable)})")


def validate_connections(conn: ConnectionTable, trees: Sequence[SearchTree]) -> None:
    """Assert cached best values equal a fresh scan over the connection sets."""
    for pair, nodes in conn.nodes.items():
        i, k = pair
        fresh = min(trees[i].cost[c] + trees[k].cost[c] for c in nodes)
        cached = conn.matrix[i][k]
        if cached != fresh:
            raise AssertionError(f"stale cache for pair {pair}: {cached} vs fresh {fresh}")
        node, value = conn.best[pair]
        if value != cached or trees[i].cost[node] + trees[k].cost[node] != cached:
            raise AssertionError(f"cached witness for pair {pair} does not realize the value")

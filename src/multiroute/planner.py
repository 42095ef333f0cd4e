"""Anytime multi-directional route planner.

One search tree grows from every destination (source, objectives, optional
waypoint hints, target) over the shared routing graph. Nodes reached by two
trees connect their destinations; the best such meeting points feed a
destination distance matrix. When the matrix improves, the required
destinations are mutually reachable and their metric closure (the problem the
ordering solver orders) fell, the solver is re-run and any strictly better
overall route is emitted, so solution quality only improves over a run. Every
solve orders the one closure the run keeps with ``ordering.order_closure``: up
to ``ordering.EXACT_MAX`` required intermediates exactly (Held-Karp), above
that with the genetic solver.

A run has two phases. Phase 1 grows the trees by sampling, round-robin, with
the paper's extend and rewire steps, up to the first emitted route; its rewire
reparents only the new node's neighbours, and phase 2 corrects their subtrees.
It skips the saturated tree of an optional destination; the tree of a required
one that saturates before any route proves that no route exists. Phase 2
then grows them in cost order: each iteration pops the least-cost entry of
the tree whose least key is smallest among the trees of the needed pairs,
and relaxes that node's graph neighbours (``relax_least``). A pair is proved
exact once ``matrix[i][k] <= r_i + r_k``, with ``r_i`` tree i's least key.
With the genetic solver every unproved pair is needed, and the run stops
once all are proved. With an exact order, only the unproved legs of a
lower-bound order are (``bound_order``: the cheapest order over the matrix
with each unproved entry lowered to ``r_i + r_k``); the run stops once that
order's legs are all proved, which makes the last route optimal. Phase 2
keeps the metric closure the first route's solve computed and lowers it per
improved pair (``ordering.lower_closure``); a solve runs only if some closure
entry between two required destinations fell since the last one. Phase 1 and
genetic-solver runs solve right after such a fall. An exact run's phase 2
solves at most once per window of ``BOUND_POPS`` pops: right before each
re-solve of its lower-bound order, and once more when it stops, so a better
route it finds is emitted at most one window late.

Both loops are written for their per-step cost. They index
``RoutingGraph.adj`` directly, and check the budget inline against a deadline
and an iteration cap computed once per run. Phase 1 checks whether the
required destinations connect only when some matrix entry first turns
finite, the only time that can change. ``nearest_expandable``, ``extend``,
``choose_parent``, ``rewire``, ``update_connections``,
``destinations_connected`` and ``stitch_node_path`` stay module-level
functions, called through the module's globals, so that the benchmark's
tracer can time each of them.
Single-threaded and deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace
from heapq import heapify, heappop, heappush
from typing import Callable, Sequence

import numpy as np

from .graph import RoutingGraph, node_path_cost, path_from_root
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
    n_obj = dests.kinds.count("objective")
    existing = list(zip(dests.node_ids, dests.required))[1 + n_obj : -1]
    return DestinationSet.build(
        dests.source_node, dests.target_node, dests.node_ids[1 : 1 + n_obj], [*existing, *pseudos]
    )


# ---------------------------------------------------------------------------
# Search trees
# ---------------------------------------------------------------------------

class Frontier:
    """Growth frontier of one tree, packed for the nearest-node scan.

    ``ids`` lists the frontier's node ids in no particular order, and entry
    ``i`` of the arrays ``x``, ``y`` and ``z`` holds the unit-sphere point of
    ``ids[i]``; ``pos[node]`` is the node's index in ``ids``, or -1 outside the
    frontier. Adding appends; discarding moves the last entry into the freed
    one, so both cost O(1). It is not a set: read membership from ``pos`` and
    the members from ``ids``.
    """

    __slots__ = ("ids", "x", "y", "z", "pos", "_rows")

    def __init__(self, graph: RoutingGraph) -> None:
        n = graph.node_count
        self.ids: list[int] = []
        self.x = np.empty(n)
        self.y = np.empty(n)
        self.z = np.empty(n)
        self.pos = [-1] * n
        self._rows = graph.xyz

    def __len__(self) -> int:
        return len(self.ids)

    def add(self, node: int) -> None:
        if self.pos[node] < 0:
            self.ids.append(node)
            self._put(len(self.ids) - 1, node)

    def discard(self, node: int) -> None:
        i = self.pos[node]
        if i < 0:
            return
        self.pos[node] = -1
        last = self.ids.pop()
        if last != node:
            self.ids[i] = last
            self._put(i, last)

    def _put(self, i: int, node: int) -> None:
        self.pos[node] = i
        self.x[i], self.y[i], self.z[i] = self._rows[node]


class SearchTree:
    """Rooted spanning tree of explored graph nodes for one destination.

    Per graph node: ``cost`` holds the cost-to-come, INF outside the tree;
    ``parent`` the tree parent (None at the root and outside the tree);
    ``parent_w`` the weight of the edge to the parent (0.0 where ``parent``
    is None); ``_unvisited`` the number of graph neighbors outside the tree.
    ``expandable`` is the growth frontier: the tree nodes with an unvisited
    neighbor. ``choose_parent`` attaches nodes and keeps all of these in
    phase 1; phase 2 (``relax_least``) keeps only ``cost``, ``parent`` and
    ``parent_w``.

    Every tree edge is a graph edge, and in both phases
    ``cost[v] >= cost[parent[v]] + w``: a node whose cost falls (``rewire``,
    ``relax_least``) leaves its descendants' costs above their new path cost
    until phase 2 pops it. Weights are positive, so costs fall strictly along
    parent links and the links are acyclic; each cost is at least the length
    of the node's parent chain.
    """

    __slots__ = ("root_node", "parent", "parent_w", "cost", "expandable", "_unvisited")

    def __init__(self, root_node: int, graph: RoutingGraph) -> None:
        n = graph.node_count
        self.root_node = root_node
        self.parent: list[int | None] = [None] * n
        self.parent_w: list[float] = [0.0] * n
        self.cost: list[float] = [INF] * n
        self.cost[root_node] = 0.0
        self.expandable = Frontier(graph)
        ud = len(graph.adj[root_node])  # no self-loops: all lie outside
        self._unvisited: list[int] = [0] * n
        self._unvisited[root_node] = ud
        if ud:
            self.expandable.add(root_node)


# Frontier size from which one numpy pass beats a plain-Python loop: numpy's
# fixed cost per call is about that of 40 loop steps.
NUMPY_SCAN_MIN = 40


def _nearest(nodes: Sequence[int], v_rand: int, rows: Sequence[tuple[float, float, float]]) -> int:
    """The node of ``nodes`` (non-empty) nearest to ``v_rand``, ties on the smaller id.

    Compares squared chord lengths between unit-sphere points, which order
    like great-circle distances, summing the terms x, z, y as
    ``nearest_expandable``'s array pass does.
    """
    x, y, z = rows[v_rand]
    best = INF
    best_node = -1
    for n in nodes:
        a, b, c = rows[n]
        dx, dy, dz = a - x, b - y, c - z
        d2 = dx * dx + dz * dz + dy * dy
        if d2 <= best and (d2 < best or n < best_node):
            best = d2
            best_node = n
    return best_node


def nearest_expandable(tree: SearchTree, v_rand: int, graph: RoutingGraph) -> int | None:
    """Frontier node nearest to ``v_rand`` by great-circle distance, or None.

    Small frontiers go through ``_nearest``; from ``NUMPY_SCAN_MIN`` nodes on,
    one array pass over the packed points computes the same squared chord
    lengths, bit for bit. Ties go to the smaller node id either way.
    """
    f = tree.expandable
    ids = f.ids
    n = len(ids)
    if n < NUMPY_SCAN_MIN:
        return _nearest(ids, v_rand, graph.xyz) if n else None
    x, y, z = graph.xyz[v_rand]
    d2 = f.x[:n] - x
    d2 *= d2
    dz = f.z[:n] - z
    dz *= dz
    d2 += dz
    dy = f.y[:n] - y
    dy *= dy
    d2 += dy
    i = int(d2.argmin())
    if n - 1 - int(d2[::-1].argmin()) != i:  # the least value occurs again
        return min(ids[j] for j in np.flatnonzero(d2 == d2[i]).tolist())
    return ids[i]


def choose_parent(tree: SearchTree, v_new: int, graph: RoutingGraph) -> int:
    """Attach ``v_new`` under the in-tree neighbor giving the least cost-to-come.

    The same pass over the neighbors keeps the frontier: every in-tree
    neighbor has one unvisited neighbor fewer, and ``v_new`` joins the
    frontier when some neighbor lies outside the tree.
    """
    best_parent = -1
    best_cost = best_w = INF
    cost = tree.cost
    unvisited = tree._unvisited
    ud = 0
    for n, w in graph.adj[v_new]:
        c = cost[n]
        if c == INF:
            ud += 1
            continue
        if c + w < best_cost:
            best_cost = c + w
            best_parent = n
            best_w = w
        left = unvisited[n] - 1
        unvisited[n] = left
        if left == 0:
            tree.expandable.discard(n)
    if best_parent < 0:
        raise RuntimeError(f"planner bug: node {v_new} has no neighbor in the tree")
    tree.parent[v_new] = best_parent
    tree.parent_w[v_new] = best_w
    cost[v_new] = best_cost
    unvisited[v_new] = ud
    if ud:
        tree.expandable.add(v_new)
    return best_parent


def extend(tree: SearchTree, v_anchor: int, v_rand: int, graph: RoutingGraph) -> list[int]:
    """Grow the tree from ``v_anchor`` toward ``v_rand``.

    Adds the unvisited neighbor of the anchor nearest to ``v_rand``, then
    compresses degree-two corridors: while the new node has exactly one
    neighbor outside the tree it keeps absorbing that neighbor, stopping at a
    branch node, a dead end, or ``v_rand`` itself. One pass over the anchor's
    neighbors finds the unvisited ones and the nearest of them, by the
    squared chord lengths of ``_nearest``; the neighbors come in ascending
    id, so the first of equal lengths is the smaller id.
    """
    cost = tree.cost
    xyz = graph.xyz
    x, y, z = xyz[v_rand]
    best = INF
    v_new = -1
    for n, _ in graph.adj[v_anchor]:
        if cost[n] == INF:
            a, b, c = xyz[n]
            dx, dy, dz = a - x, b - y, c - z
            d2 = dx * dx + dz * dz + dy * dy
            if d2 < best:
                best = d2
                v_new = n
    if v_new < 0:
        return []
    choose_parent(tree, v_new, graph)
    added = [v_new]
    adj = graph.adj
    unvisited = tree._unvisited
    while v_new != v_rand and unvisited[v_new] == 1:
        for n, _ in adj[v_new]:
            if cost[n] == INF:
                break
        v_new = n
        choose_parent(tree, v_new, graph)
        added.append(v_new)
    return added


def rewire(tree: SearchTree, v_new: int, graph: RoutingGraph) -> tuple[int, list[int]]:
    """Reparent neighbors of ``v_new`` that become cheaper through it.

    Only the neighbors change: their descendants keep costs above their new
    path cost, which the tree invariant allows, until phase 2 pops them.
    Returns the number of reparented neighbors and the neighbors themselves,
    in ascending id.
    """
    changed: list[int] = []
    cost = tree.cost
    parent = tree.parent
    parent_w = tree.parent_w
    base = cost[v_new]
    for n, w in graph.adj[v_new]:
        nc = base + w
        if nc < cost[n] < INF:
            parent[n] = v_new
            parent_w[n] = w
            cost[n] = nc
            changed.append(n)
    return len(changed), changed


def relax_least(
    tree: SearchTree, heap: list[tuple[float, int]], graph: RoutingGraph
) -> tuple[list[int], int, float]:
    """One phase-2 step: pop the least entry of ``heap`` and relax its node's neighbours.

    ``heap`` holds ``(cost, node)`` entries of ``tree``, and its top must be
    valid: its key equals the node's cost. A neighbour whose cost falls gets
    the popped node as its parent and is pushed at its new cost; one outside
    the tree joins it. Entries left with a key above their node's cost are
    stale, and are dropped from the top before returning, so the top stays
    valid. Returns the neighbours whose cost fell, in ascending id, how many
    of them joined the tree, and the least key left (INF once the heap is
    empty).
    """
    c, u = heappop(heap)
    cost = tree.cost
    parent = tree.parent
    parent_w = tree.parent_w
    changed: list[int] = []
    joined = 0
    for v, w in graph.adj[u]:
        nc = c + w
        cv = cost[v]
        if nc < cv:
            if cv == INF:
                joined += 1
            cost[v] = nc
            parent[v] = u
            parent_w[v] = w
            heappush(heap, (nc, v))
            changed.append(v)
    while heap:
        key, v = heap[0]
        if key <= cost[v]:
            return changed, joined, key
        heappop(heap)
    return changed, joined, INF


# ---------------------------------------------------------------------------
# Connections between trees
# ---------------------------------------------------------------------------

class ConnectionTable:
    """Destination distance matrix plus one witness connection node per pair.

    ``matrix[i][k]`` is the best known path cost between destinations i and k,
    realized by the connection node ``best[(i, k)]``; entries only ever
    decrease as trees grow and rewire. ``open[i]`` lists, in ascending id,
    the destinations k != i whose entry ``matrix[i][k]`` may still fall: every
    other destination until phase 2 proves pairs exact and drops them from
    both lists.
    """

    def __init__(self, n_dest: int) -> None:
        self.best: dict[tuple[int, int], int] = {}
        self.matrix: list[list[float]] = [
            [0.0 if i == k else INF for k in range(n_dest)] for i in range(n_dest)
        ]
        self.open: list[list[int]] = [[k for k in range(n_dest) if k != i] for i in range(n_dest)]


def update_connections(
    conn: ConnectionTable,
    trees: Sequence[SearchTree],
    changed: Sequence[int],
    owner: int,
) -> list[tuple[int, int]]:
    """Account for the nodes ``changed`` of tree ``owner`` joining or getting cheaper.

    For each open partner k of ``owner`` (``conn.open[owner]``), lowers the
    pair's matrix entry wherever a node of ``changed`` that both trees hold
    realizes a shorter destination-to-destination path, and makes that node
    the pair's witness; of equal sums the first in ``changed`` order wins.
    Pass ``changed`` in ascending order so the witnesses do not depend on set
    order. Returns one pair per improvement.
    """
    improved: list[tuple[int, int]] = []
    own = trees[owner].cost
    matrix = conn.matrix
    for k in conn.open[owner]:
        oc = trees[k].cost
        entry = matrix[owner][k]
        for v in changed:
            cand = own[v] + oc[v]  # INF when tree k lacks v
            if cand < entry:
                entry = cand
                matrix[owner][k] = cand
                matrix[k][owner] = cand
                pair = (owner, k) if owner < k else (k, owner)
                conn.best[pair] = v
                improved.append(pair)
    return improved


def destinations_connected(
    matrix: Sequence[Sequence[float]], required: Sequence[bool] | None = None
) -> bool:
    """True iff the finite matrix entries connect all (required) destinations.

    Sweeps matrix rows from the first required destination with a stack; any
    entry below INF links its row and column.
    """
    n = len(matrix)
    if n == 0:
        return True
    want = range(n) if required is None else [i for i in range(n) if required[i]]
    seen = [False] * n
    seen[want[0]] = True
    stack = [want[0]]
    while stack:
        row = matrix[stack.pop()]
        for k in range(n):
            if not seen[k] and row[k] < INF:
                seen[k] = True
                stack.append(k)
    return all(seen[i] for i in want)


def bound_order(
    matrix: Sequence[Sequence[float]],
    r: Sequence[float],
    keep: Sequence[int],
    source: int,
    target: int,
) -> tuple[list[int], float]:
    """A lower bound on the optimal route's cost, and the order that attains it.

    Orders the destinations ``keep`` (ascending, ``source`` and ``target``
    among them) with ``ordering.held_karp`` over ``L[i][k] = min(matrix[i][k],
    r[i] + r[k])``, with ``r`` the trees' least heap keys. Each entry is at
    most the true distance: the matrix entry is a realized path's cost, and a
    pair whose true distance is below r_i + r_k has an exact entry no higher,
    by phase 2's exactness argument (see ``plan``). True distances are
    metric, so the cheapest order over L costs at most the optimum. Returns
    that order, as destination indices, and its cost over L.
    """
    sub = np.array(matrix)[np.ix_(keep, keep)]
    rk = np.array(r)[keep]
    order, cost = ordering.held_karp(np.minimum(sub, rk[:, None] + rk), keep.index(source), keep.index(target))
    return [keep[i] for i in order], cost


# ---------------------------------------------------------------------------
# Planner loop
# ---------------------------------------------------------------------------

# Phase-2 pops an exact run takes before it re-solves its lower-bound order
# while some leg is still open: keys rise with every pop, so the order can
# change before its legs are proved. A re-solve is one Held-Karp solve. On the
# bench's 24 fixpoint scenarios of seeds 1-4, 25 pops cut iterations by 3-9 %
# but took 22-55 % more CPU time than 100, and 50 took 10-14 % more; 200 took
# the same time as 100.
BOUND_POPS = 100


@dataclass
class PlannerConfig:
    goal_bias: float = 0.2
    rng_seed: int = 0
    time_budget: float = 10.0
    # An iteration is one sampled growth step in phase 1, one pop in phase 2.
    max_iterations: int | None = None
    # Ordering-solver strength above ``ordering.EXACT_MAX`` required
    # intermediates for the in-loop re-solves that follow every matrix
    # improvement; the one solve at the end runs at full strength, ``GaConfig()``.
    solver_ga: GaConfig = field(
        default_factory=lambda: GaConfig(mutation_count=150, crossover_count=150, generations=3)
    )
    stop_after_first: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.goal_bias <= 1.0:
            raise ValueError("goal_bias must lie in [0, 1]")
        if not self.time_budget > 0.0:
            raise ValueError("time_budget must be positive")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


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
    # "solved": at least one route; "no_path": the tree of a required
    # destination saturated its component before any route, so some required
    # destination lies outside it and none exists; "no_path_yet": the budget
    # ended first.
    status: str
    solutions: list[AnytimeSolution]
    iterations: int
    explored_nodes: int
    wall_time: float
    distance_matrix: list[list[float]]
    # Why the loop ended: "optimal" (phase 2 proved exact every leg of an
    # order whose cost bounds the optimum from below, so the last route is
    # optimal), "fixpoint" (phase 2 proved every matrix entry exact but the
    # genetic solver orders it, or phase 1 saturated a required tree without
    # a route), "time_budget",
    # "max_iterations" or "first_solution" (``stop_after_first``).
    stop_reason: str
    # In-loop ordering solves run, and phase-2 pops whose matrix improvements
    # lowered no closure entry between two required destinations. An exact
    # run's pops that did lower one are solved together, once per window.
    solver_calls: int = 0
    solver_skips: int = 0
    # The highest lower bound on the optimal route's cost that phase 2 of an
    # exact run found (``bound_order``); it equals the last route's cost, up to
    # rounding, once the run ends "optimal". None for runs that the genetic
    # solver orders and for runs that end in phase 1.
    lower_bound: float | None = None

    @property
    def final(self) -> AnytimeSolution | None:
        return self.solutions[-1] if self.solutions else None


def sample(cfg: PlannerConfig, graph: RoutingGraph, dests: DestinationSet, rng: random.Random) -> int:
    """Random graph node; with probability ``goal_bias`` a destination node.

    The draws are those of ``rng.random()`` then ``rng.randrange(n)``, taken
    straight from ``rng.getrandbits`` with CPython's rule: draws of
    ``n.bit_length()`` bits until one falls below n.
    """
    if rng.random() < cfg.goal_bias:
        pick, n = dests.node_ids, len(dests.node_ids)
    else:
        pick, n = None, len(graph.adj)
    k = n.bit_length()
    v = rng.getrandbits(k)
    while v >= n:
        v = rng.getrandbits(k)
    return v if pick is None else pick[v]


def stitch_node_path(
    seq: VisitSequence, trees: Sequence[SearchTree], conn: ConnectionTable
) -> tuple[list[int], float]:
    """Expand a destination visit order into a graph node path and its cost.

    Each leg runs from one destination's root to the pair's best connection
    node inside the first tree, then down the second tree to its root;
    junction nodes shared by consecutive legs appear once. The cost sums the
    trees' ``parent_w`` of the hops in path order, as ``node_path_cost`` sums
    the same edge weights, so the two agree bit for bit.
    """
    path = [trees[seq.order[0]].root_node]
    cost = 0.0
    for a, b in zip(seq.order, seq.order[1:]):
        if a == b:
            continue
        c = conn.best[(a, b) if a < b else (b, a)]
        down = path_from_root(trees[a].parent, c)[1:]
        parent_w = trees[a].parent_w
        for v in down:
            cost += parent_w[v]
        path += down
        parent, parent_w = trees[b].parent, trees[b].parent_w
        v = c
        while (p := parent[v]) is not None:
            cost += parent_w[v]
            path.append(p)
            v = p
    return path, cost


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
    trees = [SearchTree(node, graph) for node in dests.node_ids]
    conn = ConnectionTable(dests.count)
    start = time.monotonic()
    explored = len(trees)
    iterations = 0
    solutions: list[AnytimeSolution] = []
    n_trees = len(trees)
    solver_calls = 0
    solver_skips = 0
    lower_bound: float | None = None
    exact = sum(dests.required) - 2 <= ordering.EXACT_MAX
    keep = [i for i in range(n_trees) if dests.required[i]]
    required_pairs = np.outer(dests.required, dests.required)
    # Phase 2's metric closure of conn.matrix and its next hops, taken from the
    # solve that emits the first route and lowered per improved pair since.
    closure: np.ndarray | None = None
    hops: np.ndarray | None = None

    def try_solve(final: bool = False) -> None:
        """Order the destinations and emit the route if it is strictly cheaper.

        The first call, which emits the first route, builds the run's one
        ``DestGraph`` of the matrix and keeps its metric closure, which phase
        2 lowers per improved pair. Every call orders that closure with
        ``ordering.order_closure`` and sums the order over the matrix rows, as
        ``ordering.solve`` and ``ordering.solve_exact`` do. GA calls run at
        ``cfg.solver_ga`` in the loop and at full strength in the final one,
        each with the next seed of the solver stream. Phase 2 of an exact run
        calls it only before a lower-bound re-solve and at its stop.
        """
        nonlocal closure, hops, solver_calls
        if closure is None:
            dg = DestGraph(conn.matrix, dests.source_index, dests.target_index, dests.required)
            closure, hops = (a.copy() for a in ordering.metric_closure(dg))
        ga = None if exact else replace(GaConfig() if final else cfg.solver_ga, rng_seed=solver_seeds.getrandbits(32))
        order = ordering.order_closure(
            closure[np.ix_(keep, keep)], hops, keep, dests.source_index, dests.target_index, ga
        )
        seq = VisitSequence(tuple(order), ordering.order_cost(conn.matrix, order))
        if not final:
            solver_calls += 1
        path, cost = stitch_node_path(seq, trees, conn)
        if not solutions or cost < solutions[-1].total_cost:
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

    # The budget, checked inline before each phase-1 iteration and after each
    # phase-2 pop: the time first, then the iteration cap.
    monotonic = time.monotonic
    deadline = start + cfg.time_budget
    cap = INF if cfg.max_iterations is None else cfg.max_iterations

    # Phase 1: sampled growth, round-robin over the trees, to the first route.
    # A saturated tree holds its whole component and is linked to every
    # destination root there, so once a required one saturates without a
    # route, some required destination lies outside its component. The
    # destinations connect only in an iteration where some matrix entry first
    # turns finite, which is when its pair first gets a witness in conn.best;
    # only then is the connectivity checked, and the route it allows emitted.
    stop_reason: str | None = None
    required = dests.required
    idx = n_trees - 1
    linked = 0  # len(conn.best) at the last check
    while not solutions:
        if monotonic() >= deadline:
            stop_reason = "time_budget"
            break
        if iterations >= cap:
            stop_reason = "max_iterations"
            break
        idx += 1
        if idx == n_trees:
            idx = 0
        tree = trees[idx]
        if not tree.expandable.ids:
            if required[idx]:
                stop_reason = "fixpoint"
                break
            continue
        iterations += 1
        v_rand = sample(cfg, graph, dests, rng)
        anchor = nearest_expandable(tree, v_rand, graph)
        added = extend(tree, anchor, v_rand, graph)
        explored += len(added)
        rewired: list[int] = []
        for v in added:
            rewired += rewire(tree, v, graph)[1]
        update_connections(conn, trees, sorted({*added, *rewired}) if rewired else sorted(added), idx)
        if len(conn.best) > linked:
            linked = len(conn.best)
            if destinations_connected(conn.matrix, required):
                try_solve()

    # Phase 2: cost-ordered growth until the pairs the run waits for are
    # proved exact. Every node whose true cost-to-come from root i is below
    # r_i carries that cost, so matrix[i][k] <= r_i + r_k proves the entry
    # exact, and the pair leaves conn.open. Keys only rise and entries only
    # fall, so a proved pair stays proved, and a pop from tree i can prove
    # only pairs of tree i. A tree whose heap is empty has r = INF, so a pair
    # stays open only while both heaps hold entries. Only trees of a needed
    # pair are popped: a pop of tree i changes only tree i's state, so each
    # such tree pops the same sequence as if every tree were popped, and an
    # open pair is still updated from both sides. Phase 1 emitted a route and
    # entries only fall, so the required destinations stay connected.
    #
    # A GA run needs every open pair. An exact run needs only the open legs
    # of its lower-bound order (``bound_order``), which it re-solves once
    # they are all proved or after ``BOUND_POPS`` pops. It solves only right
    # before such a re-solve, if the required closure fell since its last
    # solve, and at the stop. A re-solve that finds every leg proved ends the
    # run: the order's cost over exact entries is its bound, so it is optimal,
    # and the solve before it ordered the required closure of the same
    # matrix, so the last route costs no more.
    if stop_reason is None:
        if monotonic() >= deadline:
            stop_reason = "time_budget"
        elif iterations >= cap:
            stop_reason = "max_iterations"
        elif cfg.stop_after_first:
            stop_reason = "first_solution"
    if stop_reason is None:
        heaps = [[(c, v) for v, c in enumerate(t.cost) if c < INF] for t in trees]
        for h in heaps:
            heapify(h)
        r = [h[0][0] for h in heaps]
        matrix = conn.matrix
        open_ = conn.open
        for i in range(n_trees):
            open_[i] = [k for k in open_[i] if matrix[i][k] > r[i] + r[k]]
        needed = set() if exact else {(i, k) for i in range(n_trees) for k in open_[i] if i < k}
        live: list[int] = []  # the trees of the needed pairs, ascending; empty when stale
        pops = 0  # since the last lower-bound order
        fell = False  # a required closure entry fell since the last solve
        while True:
            if exact and (not needed or pops >= BOUND_POPS):
                if fell:
                    try_solve()
                    fell = False
                order, bound = bound_order(matrix, r, keep, dests.source_index, dests.target_index)
                lower_bound = bound if lower_bound is None else max(lower_bound, bound)
                needed = {(a, b) if a < b else (b, a) for a, b in zip(order, order[1:]) if b in open_[a]}
                live = []
                pops = 0
            if not needed:
                stop_reason = "optimal" if exact else "fixpoint"
                break
            if stop_reason is not None:
                break
            if not live:
                live = sorted({i for pair in needed for i in pair})
            idx = min(live, key=r.__getitem__)
            iterations += 1
            pops += 1
            changed, joined, r[idx] = relax_least(trees[idx], heaps[idx], graph)
            explored += joined
            # A pop that lowers no cost can lower no matrix entry.
            improved = update_connections(conn, trees, changed, idx) if changed else None
            row, ri, partners = matrix[idx], r[idx], open_[idx]
            proved = []
            for k in partners:
                if row[k] <= ri + r[k]:
                    proved.append(k)
            for k in proved:
                partners.remove(k)
                open_[k].remove(idx)
                needed.discard((idx, k) if idx < k else (k, idx))
                live = []
            if improved:
                # A list, not a generator: every improved pair must be lowered.
                lowered = [
                    ordering.lower_closure(closure, hops, i, k, matrix[i][k])[required_pairs].any()
                    for i, k in dict.fromkeys(improved)
                ]
                if not any(lowered):
                    solver_skips += 1
                elif exact:
                    fell = True
                else:
                    try_solve()
            if monotonic() >= deadline:
                stop_reason = "time_budget"
            elif iterations >= cap:
                stop_reason = "max_iterations"
        if fell:  # the stop orders a fall still pending, whatever its reason
            try_solve()

    # An exact run's last solve already ordered the final closure; a GA run
    # re-solves it at full strength. The required destinations connect
    # only in the phase-1 iteration that emits the first route.
    if solutions and not exact and not cfg.stop_after_first:
        try_solve(final=True)

    if solutions:
        status = "solved"
    elif stop_reason == "fixpoint":
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
        stop_reason=stop_reason,
        solver_calls=solver_calls,
        solver_skips=solver_skips,
        lower_bound=lower_bound,
    )

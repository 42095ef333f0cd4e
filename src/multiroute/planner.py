"""Anytime multi-directional route planner.

One search tree grows from every destination (source, objectives, optional
waypoint hints, target) over the shared routing graph. Nodes reached by two
trees connect their destinations; the best such meeting points feed a
destination distance matrix. Once the required destinations are mutually
reachable, the ordering solver orders the matrix, and it re-solves as the
matrix improves; any strictly better overall route is emitted, so solution
quality only improves over a run. Every solve builds a fresh ``DestGraph`` of
the matrix and orders it with ``ordering.solve``: with no ``GaConfig``
(Held-Karp) up to ``ordering.EXACT_MAX`` required intermediates, above that
with one (the genetic solver).

A run has two phases. Phase 1 is the paper's method: it grows the trees by
sampling, round-robin, with the paper's extend and rewire steps, up to the
first emitted route; its rewire reparents only the new node's neighbours. It
skips the saturated tree of an optional destination; the tree of a required
one that saturates before any route proves that no route exists. Phase 2 is
this project's extension: it proves matrix entries exact with one exact
bidirectional A* search per leg (``baselines.bidirectional_astar``) and
leaves the trees as they are, so they serve only the first route and the
witnesses of unsearched pairs. A searched leg's cost becomes its matrix
entry, and its node path is stitched wherever the route takes that leg. An
exact run searches only the unsearched legs of a lower-bound order
(``bound_order``: Held-Karp over the matrix entries of searched pairs and
the scaled great-circle distances of the others), re-solving that order
after each round, and stops once the order has no unsearched leg, which
makes the last route optimal. A run ordered by the genetic solver searches
every required pair, one source row at a time. Phase 1 solves in the
iteration that connects the required destinations; phase 2 solves after
each round or row of searches that lowered an entry, and once more when the
budget stops it inside such a round or row.

Phase 1's loop is written for its per-step cost. It indexes
``RoutingGraph.adj`` directly, and checks the budget inline against a
deadline and an iteration cap computed once per run; each leg search checks
the same deadline and what is left of the cap. Phase 1 checks whether the
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
from typing import Callable, Sequence

import numpy as np

from .baselines import NoPathYet, bidirectional_astar, goal_rows
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
    ``_unvisited`` the number of graph neighbors outside the tree.
    ``expandable`` is the growth frontier: the tree nodes with an unvisited
    neighbor. ``choose_parent`` attaches nodes and keeps all of these;
    only phase 1 grows a tree, and phase 2 leaves it as it is.

    Every tree edge is a graph edge, and ``cost[v] >= cost[parent[v]] + w``:
    a node whose cost falls (``rewire``) leaves its descendants' costs above
    their new path cost. Weights are positive, so costs fall strictly along
    parent links and the links are acyclic; each cost is at least the length
    of the node's parent chain. A tree serves the first route and the
    witnesses of pairs phase 2 did not search, whose matrix entries are
    realized path costs either way; phase 2's leg searches make exact the
    entries a proof needs, so no stale cost has to be corrected.
    """

    __slots__ = ("root_node", "parent", "cost", "expandable", "_unvisited")

    def __init__(self, root_node: int, graph: RoutingGraph) -> None:
        n = graph.node_count
        self.root_node = root_node
        self.parent: list[int | None] = [None] * n
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
    best_cost = INF
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
        left = unvisited[n] - 1
        unvisited[n] = left
        if left == 0:
            tree.expandable.discard(n)
    if best_parent < 0:
        raise RuntimeError(f"planner bug: node {v_new} has no neighbor in the tree")
    tree.parent[v_new] = best_parent
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
    path cost, which the tree invariant allows. Returns the number of
    reparented neighbors and the neighbors themselves, in ascending id.
    """
    changed: list[int] = []
    cost = tree.cost
    parent = tree.parent
    base = cost[v_new]
    for n, w in graph.adj[v_new]:
        nc = base + w
        if nc < cost[n] < INF:
            parent[n] = v_new
            cost[n] = nc
            changed.append(n)
    return len(changed), changed


# ---------------------------------------------------------------------------
# Connections between trees
# ---------------------------------------------------------------------------

class ConnectionTable:
    """Destination distance matrix plus the path that realizes each entry.

    ``matrix[i][k]`` is the best known path cost between destinations i and
    k; entries only ever decrease. For a pair (i, k), i < k, ``legs[(i, k)]``
    holds the node path from destination i's node to destination k's that
    phase 2's leg search found, when that search set the entry; otherwise
    the entry is realized through the connection node ``best[(i, k)]`` of
    trees i and k, which phase 1 keeps.
    """

    def __init__(self, n_dest: int) -> None:
        self.best: dict[tuple[int, int], int] = {}
        self.legs: dict[tuple[int, int], tuple[int, ...]] = {}
        self.matrix: list[list[float]] = [
            [0.0 if i == k else INF for k in range(n_dest)] for i in range(n_dest)
        ]


def update_connections(
    conn: ConnectionTable,
    trees: Sequence[SearchTree],
    changed: Sequence[int],
    owner: int,
) -> list[tuple[int, int]]:
    """Account for the nodes ``changed`` of tree ``owner`` joining or getting cheaper.

    For each other tree k, lowers the pair's matrix entry wherever a node of ``changed`` that both trees hold
    realizes a shorter destination-to-destination path, and makes that node
    the pair's witness; of equal sums the first in ``changed`` order wins.
    Pass ``changed`` in ascending order so the witnesses do not depend on set
    order. Returns one pair per improvement.
    """
    improved: list[tuple[int, int]] = []
    own = trees[owner].cost
    matrix = conn.matrix
    for k, tree in enumerate(trees):
        if k == owner:
            continue
        oc = tree.cost
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


def destinations_connected(matrix: Sequence[Sequence[float]], required: Sequence[bool]) -> bool:
    """True iff the finite matrix entries connect all required destinations.

    Sweeps matrix rows from the first required destination with a stack; any
    entry below INF links its row and column.
    """
    n = len(matrix)
    if n == 0:
        return True
    want = [i for i in range(n) if required[i]]
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
    bound: np.ndarray, keep: Sequence[int], source: int, target: int
) -> tuple[list[int], float]:
    """A lower bound on the optimal route's cost, and the order that attains it.

    ``bound[p, q]`` is at most the true distance between destinations
    ``keep[p]`` and ``keep[q]`` (``keep`` ascending, ``source`` and
    ``target`` among them): the exact matrix entry of a pair phase 2
    searched, else the great-circle distance between the two nodes times
    ``RoutingGraph.great_circle_scale``, which no path undercuts. True
    distances are metric, so the cheapest order over ``bound``
    (``ordering.held_karp``) costs at most the optimum. Returns that order,
    as destination indices, and its cost over ``bound``.
    """
    order, cost = ordering.held_karp(bound, keep.index(source), keep.index(target))
    return [keep[i] for i in order], cost


# ---------------------------------------------------------------------------
# Planner loop
# ---------------------------------------------------------------------------

@dataclass
class PlannerConfig:
    goal_bias: float = 0.2
    rng_seed: int = 0
    time_budget: float = 10.0
    # An iteration is one sampled growth step in phase 1, one pop of a leg
    # search in phase 2.
    max_iterations: int | None = None
    # Ordering-solver strength above ``ordering.EXACT_MAX`` required
    # intermediates for the in-loop solves, the first route's and one per
    # phase-2 row of searches that lowered an entry; the one solve at the end
    # runs at full strength, ``GaConfig()``. Its ``rng_seed`` is never used:
    # each solve draws its seed from the run's solver stream.
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
    # Why the loop ended: "optimal" (phase 2 of an exact run searched every
    # leg of a lower-bound order, so the last route is optimal), "fixpoint"
    # (phase 2 of a run that the genetic solver orders searched every
    # required pair, or phase 1 saturated a required tree without a route),
    # "time_budget", "max_iterations" or "first_solution" (``stop_after_first``).
    stop_reason: str
    # In-loop ordering solves run: the first route's, then one per phase-2
    # round (exact) or row (GA) of leg searches that lowered a matrix entry,
    # and one when the budget stops a run inside such a round or row. A GA
    # run's final solve is not counted.
    solver_calls: int = 0
    # The highest Held-Karp cost of the lower-bound orders that phase 2 of an
    # exact run solved (``bound_order``); it equals the last route's cost, up
    # to rounding, once the run ends "optimal". None for runs that the
    # genetic solver orders and for runs that end in phase 1.
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
    seq: VisitSequence, trees: Sequence[SearchTree], conn: ConnectionTable, graph: RoutingGraph
) -> tuple[list[int], float]:
    """Expand a destination visit order into a graph node path and its ``node_path_cost``.

    A leg whose pair has a searched path (``conn.legs``) follows it, read
    backwards when the order runs from the higher destination index to the
    lower. Any other leg runs from one destination's root to the pair's
    witness connection node inside the first tree, then down the second tree
    to its root, both read with ``path_from_root``. Junction nodes shared by
    consecutive legs appear once.
    """
    path = [trees[seq.order[0]].root_node]
    for a, b in zip(seq.order, seq.order[1:]):
        if a == b:
            continue
        pair = (a, b) if a < b else (b, a)
        nodes = conn.legs.get(pair)
        if nodes is not None:
            path += nodes[1:] if a < b else nodes[-2::-1]
            continue
        c = conn.best[pair]
        path += path_from_root(trees[a].parent, c)[1:] + path_from_root(trees[b].parent, c)[-2::-1]
    return path, node_path_cost(graph, path)


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
    lower_bound: float | None = None
    exact = sum(dests.required) - 2 <= ordering.EXACT_MAX
    keep = [i for i in range(n_trees) if dests.required[i]]

    def try_solve(final: bool = False) -> None:
        """Order the destinations and emit the route if it is strictly cheaper.

        Every call builds a ``DestGraph`` of the current matrix and orders it
        with ``ordering.solve``: exactly, with no ``GaConfig``, in an exact
        run, otherwise at ``cfg.solver_ga`` in the loop and at full strength
        in the final call, each with the next seed of the solver stream.
        """
        nonlocal solver_calls
        dg = DestGraph(conn.matrix, dests.source_index, dests.target_index, dests.required)
        ga = GaConfig() if final else cfg.solver_ga
        seq = ordering.solve(dg, None if exact else replace(ga, rng_seed=solver_seeds.getrandbits(32)))
        if not final:
            solver_calls += 1
        path, cost = stitch_node_path(seq, trees, conn, graph)
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

    # The budget, checked before each phase-1 iteration and by each leg
    # search before each pop.
    monotonic = time.monotonic
    deadline = start + cfg.time_budget
    cap = INF if cfg.max_iterations is None else cfg.max_iterations

    def budget_spent() -> str | None:
        """Which budget has run out, if any: the time first, then the iteration cap."""
        return "time_budget" if monotonic() >= deadline else "max_iterations" if iterations >= cap else None

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
        if monotonic() >= deadline or iterations >= cap:  # inline, as it runs every iteration
            stop_reason = budget_spent()
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

    # Phase 2: exact leg searches, each with what is left of the budget.
    # Phase 1 emitted a route and entries only fall, so the required
    # destinations stay connected and every required pair has a path. A
    # search that ends lowers the pair's entry to its cost, unless rounding
    # left the witness below it; either way the entry is at most the pair's
    # true distance plus rounding, so the bound order stays a lower bound. An
    # exact run stops once its bound order has no unsearched leg: that order
    # then costs its bound over exact entries, so it is an optimal route, and
    # the last solve ordered the same matrix, so the last route costs no more.
    # A run solves after each round or row that lowered an entry, and at a
    # stop inside one, so it ends with its final matrix ordered.
    if stop_reason is None:
        stop_reason = budget_spent() or ("first_solution" if cfg.stop_after_first else None)
    if stop_reason is None:
        matrix = conn.matrix
        nodes = dests.node_ids
        searched: set[tuple[int, int]] = set()
        # The heuristic rows of the required destinations, built once in one
        # kernel call: every leg search reads its two ends' rows, and an exact
        # run's L reads its great-circle entries from them.
        ids = [nodes[i] for i in keep]
        rows = dict(zip(ids, goal_rows(graph, ids)))

        def search(a: int, b: int) -> bool:
            """Search the leg between destinations a < b; True if its entry fell."""
            nonlocal iterations, explored
            res = bidirectional_astar(graph, nodes[a], nodes[b], deadline, cap - iterations, rows)
            iterations += res.explored_nodes
            explored += res.explored_nodes
            searched.add((a, b))
            if res.cost > matrix[a][b]:
                return False
            fell = res.cost < matrix[a][b]
            matrix[a][b] = matrix[b][a] = res.cost
            conn.legs[(a, b)] = res.node_path
            return fell

        fell = False  # in the current round or row
        try:
            if exact:
                bound = np.array([[rows[a][b] for b in ids] for a in ids])
                while True:
                    order, cost = bound_order(bound, keep, dests.source_index, dests.target_index)
                    lower_bound = cost if lower_bound is None else max(lower_bound, cost)
                    legs = [(min(a, b), max(a, b)) for a, b in zip(order, order[1:])]
                    legs = [leg for leg in legs if leg not in searched]
                    if not legs:
                        stop_reason = "optimal"
                        break
                    for a, b in legs:
                        fell |= search(a, b)
                        p, q = keep.index(a), keep.index(b)
                        bound[p, q] = bound[q, p] = matrix[a][b]
                    if fell:
                        try_solve()
                        fell = False
            else:
                for p, a in enumerate(keep):
                    for b in keep[p + 1 :]:
                        fell |= search(a, b)
                    if fell:
                        try_solve()
                        fell = False
                stop_reason = "fixpoint"
        except NoPathYet as stopped:
            iterations += stopped.explored_nodes
            explored += stopped.explored_nodes
            stop_reason = budget_spent()
            if fell:
                try_solve()

    # An exact run's last solve already ordered the final matrix; a GA run
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
        lower_bound=lower_bound,
    )

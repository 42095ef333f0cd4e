"""Destination-ordering solver for the relaxed traveling-salesman problem.

Destinations live in a small weighted graph whose edge weights ``theta`` are
path distances supplied by the route planner (infinite where no path is known
yet). A visit sequence runs from a fixed source to a fixed target and may
revisit destinations. One function, ``solve``, orders the required
destinations over their metric closure (all-pairs shortest paths), then
expands each closure leg back into the destinations it passes, which yields
the revisits. Without a ``GaConfig`` it orders up to ``EXACT_MAX`` required
intermediates optimally, by dynamic programming over subsets
(``held_karp``, which orders any symmetric matrix, such as the planner's
lower bounds); with one, by cheapest insertion and a genetic polish.
Insertion and the genetic operators take complete destination graphs only.
An exhaustive oracle over the same closure provides exact optima for small
instances.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np

INF = math.inf

# Mutation cuts a sequence into this many segments at least and at most.
SEGMENT_MIN = 3
SEGMENT_MAX = 7

# Population size up to which CPython's ``random.sample`` draws k items by
# swapping within a pool list rather than by rejecting repeats against a set,
# indexed by k (0 to SEGMENT_MAX - 1, the cut counts ``mutate`` samples).
_SAMPLE_POOL_MAX = [21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0) for k in range(SEGMENT_MAX)]


class NoSequenceError(ValueError):
    """No source-to-target sequence exists over the finite entries."""


class Action(IntEnum):
    """Insertion actions; enum order is the tie-break order."""

    IN_SEQUENCE = 0
    SWAP_LEFT = 1
    SWAP_RIGHT = 2
    SWAP_BOTH = 3


@dataclass(frozen=True)
class InsertionPlan:
    action: Action
    anchor: int
    destination: int
    delta_cost: float


@dataclass(frozen=True)
class VisitSequence:
    """Ordered destination indices from source to target; revisits allowed."""

    order: tuple[int, ...]
    total_cost: float


@dataclass
class GaConfig:
    mutation_count: int = 2000
    crossover_count: int = 2000
    generations: int = 10
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("mutation_count", "crossover_count", "generations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class OracleStats:
    rho_mean: float
    rho_std: float
    rho_optimality: float
    rho_worst: float


class DestGraph:
    """Destination graph: symmetric distance matrix plus endpoint roles.

    ``theta[i][k]`` is the travel cost between destinations i and k in meters,
    infinite where unconnected, zero on the diagonal. ``required`` marks
    destinations that every valid sequence must contain at least once.
    """

    __slots__ = ("theta", "rows", "source", "target", "required", "n")

    def __init__(
        self,
        theta: np.ndarray | Sequence[Sequence[float]],
        source: int,
        target: int,
        required: Sequence[bool] | None = None,
    ) -> None:
        mat = np.asarray(theta, dtype=float)
        n = mat.shape[0]
        if mat.shape != (n, n):
            raise ValueError("theta must be square")
        if not np.array_equal(mat, mat.T):  # also false wherever theta holds NaN
            if np.isnan(mat).any():
                raise ValueError("theta must not contain NaN")
            raise ValueError("theta must be symmetric")
        if np.any(np.diag(mat) != 0.0):
            raise ValueError("theta diagonal must be zero")
        off = mat[~np.eye(n, dtype=bool)]
        if np.any(off[np.isfinite(off)] <= 0.0):
            raise ValueError("finite off-diagonal theta must be positive")
        if not (0 <= source < n and 0 <= target < n) or source == target:
            raise ValueError("source/target out of range or equal")
        self.theta = mat
        self.rows: list[list[float]] = mat.tolist()
        self.source = source
        self.target = target
        self.n = n
        req = tuple(bool(r) for r in required) if required is not None else (True,) * n
        if len(req) != n:
            raise ValueError("required flags must match theta order")
        if not (req[source] and req[target]):
            raise ValueError("source and target are always required")
        self.required = req

    def required_intermediates(self) -> list[int]:
        return [
            i
            for i in range(self.n)
            if self.required[i] and i != self.source and i != self.target
        ]


def order_cost(rows: Sequence[Sequence[float]], order: Sequence[int]) -> float:
    """``rows[a][b]`` summed over consecutive pairs (a, b) of ``order``, left to right."""
    cost = 0.0
    for a, b in zip(order, order[1:]):
        cost += rows[a][b]
    return cost


def validate_sequence(dg: DestGraph, seq: VisitSequence) -> None:
    """Raise ValueError when ``seq`` violates a visit-sequence invariant."""
    order = seq.order
    if len(order) < 2:
        raise ValueError("sequence must contain source and target")
    if order[0] != dg.source:
        raise ValueError(f"sequence starts at {order[0]}, not the source {dg.source}")
    if order[-1] != dg.target:
        raise ValueError(f"sequence ends at {order[-1]}, not the target {dg.target}")
    present = set(order)
    missing = [i for i in range(dg.n) if dg.required[i] and i not in present]
    if missing:
        raise ValueError(f"required destinations missing from sequence: {missing}")
    rows = dg.rows
    for a, b in zip(order, order[1:]):
        if not math.isfinite(rows[a][b]):
            raise ValueError(f"consecutive pair ({a}, {b}) has infinite cost")
    cost = order_cost(rows, order)
    if not math.isclose(cost, seq.total_cost, rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError(f"stored cost {seq.total_cost} != recomputed {cost}")


def make_sequence(dg: DestGraph, order: Sequence[int]) -> VisitSequence:
    return VisitSequence(order=tuple(order), total_cost=order_cost(dg.rows, order))


# ---------------------------------------------------------------------------
# Insertion actions
# ---------------------------------------------------------------------------

def apply_insertion(order: Sequence[int], plan: InsertionPlan) -> list[int]:
    """Rebuild the sequence with ``plan`` applied."""
    s = list(order)
    i, d = plan.anchor, plan.destination
    if plan.action is Action.IN_SEQUENCE:
        return s[: i + 1] + [d] + s[i + 1 :]
    if plan.action is Action.SWAP_LEFT:
        return s[: i - 1] + [s[i], s[i - 1], d] + s[i + 1 :]
    if plan.action is Action.SWAP_RIGHT:
        return s[: i + 1] + [d, s[i + 2], s[i + 1]] + s[i + 3 :]
    # SWAP_BOTH
    return s[: i - 1] + [s[i], s[i - 1], d, s[i + 2], s[i + 1]] + s[i + 3 :]


def _action_deltas(
    dg: DestGraph, arr: np.ndarray, d_k: int | np.ndarray, action: Action
) -> tuple[np.ndarray, int]:
    """Cost deltas of inserting ``d_k`` with ``action`` at every legal anchor.

    Entry j is the delta at anchor j + offset; the offset is returned too. A
    column of destinations (shape (R, 1)) gives one row of deltas per
    destination.
    """
    th = dg.theta
    L = arr.shape[0]
    empty = np.empty(0)
    if action is Action.IN_SEQUENCE:
        if L < 2:
            return empty, 0
        return th[arr[:-1], d_k] + th[d_k, arr[1:]] - th[arr[:-1], arr[1:]], 0
    if action is Action.SWAP_LEFT:
        if L < 4:
            return empty, 2
        a = arr[2 : L - 1]      # s_i
        an = arr[3:L]           # s_{i+1}
        ap = arr[1 : L - 2]     # s_{i-1}
        app = arr[0 : L - 3]    # s_{i-2}
        return th[d_k, an] - th[a, an] + th[ap, d_k] + th[app, a] - th[app, ap], 2
    if action is Action.SWAP_RIGHT:
        if L < 4:
            return empty, 0
        a = arr[0 : L - 3]
        a1 = arr[1 : L - 2]
        a2 = arr[2 : L - 1]
        a3 = arr[3:L]
        return th[a, d_k] - th[a, a1] + th[d_k, a2] + th[a1, a3] - th[a2, a3], 0
    # SWAP_BOTH
    if L < 6:
        return empty, 2
    app = arr[0 : L - 5]
    ap = arr[1 : L - 4]
    a = arr[2 : L - 3]
    a1 = arr[3 : L - 2]
    a2 = arr[4 : L - 1]
    a3 = arr[5:L]
    return (
        th[ap, d_k] + th[app, a] - th[app, ap] - th[a, a1] + th[d_k, a2] + th[a1, a3] - th[a2, a3],
        2,
    )


def _cheapest_plan(dg: DestGraph, order: Sequence[int], candidates: Sequence[int]) -> InsertionPlan:
    """Cheapest (destination, action, anchor) over every candidate at once.

    Each action's deltas for all candidates come from one ``_action_deltas``
    call with the candidates as a column. Ties resolve by the earlier
    candidate, then by action order (in-sequence, swap-left, swap-right,
    swap-both), then by the smaller anchor: the C order of the (candidate,
    action, anchor) array that one ``np.argmin`` scans. Anchors an action
    cannot use stay infinite.
    """
    arr = np.asarray(order, dtype=int)
    cand = np.asarray(candidates, dtype=int)
    L = arr.shape[0]
    deltas = np.full((cand.shape[0], len(Action), L), INF)
    for action in Action:
        block, offset = _action_deltas(dg, arr, cand[:, None], action)
        deltas[:, action, offset : offset + block.shape[-1]] = block
    flat = int(np.argmin(deltas))
    r, a, anchor = np.unravel_index(flat, deltas.shape)
    delta = float(deltas.flat[flat])
    return InsertionPlan(action=Action(a), anchor=int(anchor), destination=int(cand[r]), delta_cost=delta)


def cheapest_insertion(dg: DestGraph) -> VisitSequence:
    """Insert every required destination at globally cheapest cost.

    Starts from ``[source, target]`` and needs a complete destination graph
    (every theta entry finite), such as the metric closure ``solve`` orders.
    """
    if not np.all(np.isfinite(dg.theta)):
        raise ValueError("cheapest_insertion needs a complete destination graph")
    order = [dg.source, dg.target]
    remaining = dg.required_intermediates()
    while remaining:
        plan = _cheapest_plan(dg, order, remaining)
        order = apply_insertion(order, plan)
        remaining.remove(plan.destination)
    return make_sequence(dg, order)


# ---------------------------------------------------------------------------
# Genetic refinement
# ---------------------------------------------------------------------------

def mutate(dg: DestGraph, parent: VisitSequence, rng: random.Random) -> VisitSequence:
    """Segment-shuffle offspring of ``parent``.

    The sequence is cut into k segments (``SEGMENT_MIN`` to ``SEGMENT_MAX``,
    capped at one fewer than its length); the first and last (holding the
    endpoints) stay fixed, middle segments are each reversed with probability
    one half and spliced back in random order.

    The draws are those of ``rng.randint(lo, hi)``, ``rng.sample(range(1, L),
    k - 1)`` and ``rng.shuffle(middle)``, taken straight from
    ``rng.getrandbits`` with CPython's rules: rejection sampling below n, the
    pool or the set branch of ``sample``, Fisher-Yates. So the child is the one
    those calls give, without their per-call overhead.
    """
    order = parent.order
    L = len(order)
    if L <= 3:
        return parent
    bits = rng.getrandbits
    hi = min(SEGMENT_MAX, L - 1)
    lo = min(SEGMENT_MIN, hi)
    # k = rng.randint(lo, hi); n_cuts = k - 1
    m = hi - lo + 1
    w = m.bit_length()
    r = bits(w)
    while r >= m:
        r = bits(w)
    n_cuts = lo + r - 1
    # cuts = sorted(rng.sample(range(1, L), n_cuts))
    n = L - 1
    if n <= _SAMPLE_POOL_MAX[n_cuts]:
        pool = list(range(1, L))
        cuts = []
        for m in range(n, n - n_cuts, -1):
            w = m.bit_length()
            j = bits(w)
            while j >= m:
                j = bits(w)
            cuts.append(pool[j])
            pool[j] = pool[m - 1]
        cuts.sort()
    else:
        w = n.bit_length()
        picked: set[int] = set()
        for _ in range(n_cuts):
            j = bits(w)
            while j >= n or j in picked:
                j = bits(w)
            picked.add(j)
        cuts = sorted(j + 1 for j in picked)
    random_ = rng.random
    middle = []
    for a, b in zip(cuts, cuts[1:]):
        seg = order[a:b]
        middle.append(seg[::-1] if random_() < 0.5 else seg)
    # rng.shuffle(middle)
    for i in range(len(middle) - 1, 0, -1):
        m = i + 1
        w = m.bit_length()
        j = bits(w)
        while j >= m:
            j = bits(w)
        middle[i], middle[j] = middle[j], middle[i]
    child = order[: cuts[0]]
    for seg in middle:
        child += seg
    child += order[cuts[-1] :]
    # order_cost's loop, inline: calling it takes about 5 % of mutate's time.
    rows = dg.rows
    cost = 0.0
    prev = child[0]
    for x in child[1:]:
        cost += rows[prev][x]
        prev = x
    return VisitSequence(order=child, total_cost=cost)


def crossover(dg: DestGraph, pa: VisitSequence, pb: VisitSequence, rng: random.Random) -> VisitSequence:
    """Recombine two sequences over the same destination multiset.

    A random (possibly reversed) interior slice of one parent, the donor,
    lands at a random offset in the child. The other parent, the filler,
    gives the rest of the interior in its own order, less one occurrence of
    each slice item, split around the slice at that offset. On permutations
    this is a variant of Davis's order crossover. Identical parents return
    ``pa`` itself; so do all parents with at most one interior destination,
    since shared endpoints and multiset leave them nothing to differ in.
    """
    if pa.order == pb.order:
        return pa
    if sorted(pa.order) != sorted(pb.order) or pa.order[0] != pb.order[0] or pa.order[-1] != pb.order[-1]:
        raise ValueError("crossover parents must share one destination multiset and endpoints")
    M = len(pa.order) - 2
    donor, filler = (pa, pb) if rng.random() < 0.5 else (pb, pa)
    a = rng.randrange(M)
    b = rng.randrange(M)
    lo, hi = (a, b) if a <= b else (b, a)
    segment = list(donor.order[lo + 1 : hi + 2])
    if rng.random() < 0.5:
        segment.reverse()
    off = rng.randint(0, M - len(segment))
    rest = list(filler.order[1:-1])
    for x in segment:
        rest.remove(x)
    return make_sequence(dg, [pa.order[0], *rest[:off], *segment, *rest[off:], pa.order[-1]])


def selection_weights(costs: Sequence[float]) -> list[float]:
    """Fitness-proportional pick probabilities: fitness is inverse cost."""
    fitness = [1.0 / c for c in costs]
    total = sum(fitness)
    return [f / total for f in fitness]


def genetic_refine(dg: DestGraph, seed: VisitSequence, cfg: GaConfig) -> VisitSequence:
    """Mutation of the single seed, then fitness-weighted crossover generations.

    Only offspring strictly cheaper than the seed survive mutation; each
    crossover generation keeps offspring strictly cheaper than the best of the
    previous generation, so the best of the last generation kept is the best
    sequence ever seen. Returns it (the seed when nothing improves).
    """
    rng = random.Random(cfg.rng_seed)
    if len(seed.order) <= 3:
        return seed
    survivors = []
    for _ in range(cfg.mutation_count):
        child = mutate(dg, seed, rng)
        if child.total_cost < seed.total_cost:
            survivors.append(child)
    if not survivors:
        return seed
    population = survivors
    for _ in range(cfg.generations):
        threshold = min(s.total_cost for s in population)
        # Given weights, choices accumulates them on every call; the same
        # cumulative weights, made once per generation, draw the same parents.
        cum_weights = list(itertools.accumulate(selection_weights([s.total_cost for s in population])))
        next_gen = []
        for _ in range(cfg.crossover_count):
            pa, pb = rng.choices(population, cum_weights=cum_weights, k=2)
            child = crossover(dg, pa, pb, rng)
            if child.total_cost < threshold:
                next_gen.append(child)
        if not next_gen:
            break
        population = next_gen
    return min(population, key=lambda s: s.total_cost)


# ---------------------------------------------------------------------------
# Metric closure and the full pipeline
# ---------------------------------------------------------------------------

def _metric_closure(dg: DestGraph) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs shortest paths over theta with next-hop reconstruction.

    Floyd-Warshall with one array step per intermediate ``k``. Row and column
    ``k`` cannot change in step ``k`` (zero diagonal, positive weights), so the
    whole-array update forms the same sums as the in-place scalar loop.
    """
    n = dg.n
    dist = dg.theta.copy()
    nxt = np.where(np.isfinite(dist), np.arange(n), -1)
    for k in range(n):
        alt = dist[:, k, None] + dist[k]
        better = alt < dist
        np.copyto(dist, alt, where=better)
        np.copyto(nxt, nxt[:, k, None], where=better)
    return dist, nxt


def _closure_path(nxt: np.ndarray, stops: Sequence[int]) -> list[int]:
    """Shortest paths between consecutive ``stops``, joined into one sequence."""
    path = [stops[0]]
    for b in stops[1:]:
        while path[-1] != b:
            step = int(nxt[path[-1], b])
            if step < 0:
                raise NoSequenceError(f"no path from destination {path[-1]} to {b}")
            path.append(step)
    return path


# Most required intermediates ``solve`` orders exactly, without a ``GaConfig``;
# the time and memory of ``held_karp`` double with each one more.
EXACT_MAX = 10


@functools.lru_cache(maxsize=None)
def _subset_steps(m: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
    """The dynamic programme's states over ``m`` items, one group per subset size 2 to m.

    States live in a flat table, state (mask, j) at ``mask * m + j``. A group
    lists every state (mask, j) of its size with j in mask, masks ascending
    and j ascending within a mask, as four index arrays: one row per state
    of the flat indices ``prev * m + (0, 1, ..., m - 1)`` of the states it
    extends, with ``prev`` the mask with j removed; the j's; the flat
    indices of the states themselves; and the flat offsets 0, m, 2m, ... of
    the rows.
    """
    masks = np.arange(1 << m)
    member = (masks[:, None] >> np.arange(m)) & 1
    sizes = member.sum(axis=1)
    steps = []
    for k in range(2, m + 1):
        mask, j = np.nonzero(member * (sizes == k)[:, None])
        prev = mask ^ (1 << j)
        steps.append((prev[:, None] * m + np.arange(m), j, mask * m + j, np.arange(0, mask.size * m, m)))
    return tuple(steps)


def held_karp(dist: np.ndarray, source: int, target: int) -> tuple[list[int], float]:
    """The cheapest order of every row of ``dist`` from ``source`` to ``target``, and its cost.

    ``dist`` is an exactly symmetric matrix with at most ``EXACT_MAX`` + 2
    rows, which the caller checks; the order lists row indices, ``source``
    first and ``target`` last, each once. Raises ``NoSequenceError`` when
    every such order has an infinite entry. Bellman-Held-Karp dynamic
    programming over the subsets of the m intermediates: ``cost[mask, j]`` is
    the cheapest route from the source through exactly the intermediates in
    ``mask``, ending at ``j``, summed left to right as ``order_cost`` sums
    an order, so the returned cost is the order's ``order_cost`` over
    ``dist``, bit for bit. One array step per subset size gathers
    ``cost[mask ^ bit_j, i] + dist[i, j]`` for every state (mask, j) of that
    size with j in mask and keeps the argmin over ``i`` for the walk back
    from the target; at each step of that walk a tie goes to the lowest index.
    """
    mids = [i for i in range(dist.shape[0]) if i != source and i != target]
    m = len(mids)
    if not m:
        if dist[source, target] == INF:
            raise NoSequenceError("every order has an infinite leg")
        return [source, target], float(dist[source, target])
    step = dist[np.ix_(mids, mids)]  # symmetric, so step[j, i] is the leg from i to j
    # States (mask, i) with i outside mask stay infinite: no argmin picks them.
    cost = np.full((1 << m) * m, INF)
    via = np.zeros((1 << m) * m, dtype=np.intp)
    first = np.arange(m)
    cost[(1 << first) * m + first] = dist[source, mids]
    for gather, j, state, row in _subset_steps(m):
        cand = cost.take(gather)
        cand += step.take(j, axis=0)
        best = cand.argmin(axis=1)
        via[state] = best
        best += row
        cost[state] = cand.take(best)
    mask = (1 << m) - 1
    last = cost[mask * m : (mask + 1) * m] + dist[mids, target]
    j = int(np.argmin(last))
    total = float(last[j])
    if total == INF:  # the walk back would follow the argmin of infinite rows
        raise NoSequenceError("every order has an infinite leg")
    order: list[int] = []
    while True:
        order.append(mids[j])
        if mask == 1 << j:
            break
        mask, j = mask ^ (1 << j), int(via[mask * m + j])
    order.reverse()
    return [source, *order, target], total


def solve(dg: DestGraph, cfg: GaConfig | None = None) -> VisitSequence:
    """Order the required destinations over the metric closure, then expand.

    Without ``cfg``, ``held_karp`` orders the closure optimally; it raises
    ``ValueError`` (not a ``NoSequenceError``) when there are more than
    ``EXACT_MAX`` required intermediates. With ``cfg``, cheapest insertion
    and ``genetic_refine`` at ``cfg`` order it. Either runs on the complete,
    metric graph of closure distances between required destinations, so
    optional destinations and revisits appear only as stops on the expanded
    legs. On that graph an insertion that returns to its anchor is never
    cheaper than one between the anchor and its successor (triangle
    inequality), so no in-place detour or revisit removal is needed. Raises
    ``NoSequenceError`` when some required destinations are mutually
    unreachable.
    """
    if cfg is None:
        m = len(dg.required_intermediates())
        if m > EXACT_MAX:
            raise ValueError(f"solve refuses more than {EXACT_MAX} required intermediates without a cfg, got {m}")
    dist, nxt = _metric_closure(dg)
    keep = [i for i in range(dg.n) if dg.required[i]]
    closure = dist[np.ix_(keep, keep)]
    # The two directions of a closure distance are summed in different orders
    # and can differ in the last bit; each entry keeps the smaller, so the
    # closure is exactly symmetric.
    closure = np.minimum(closure, closure.T)
    if not np.all(np.isfinite(closure)):
        raise NoSequenceError("some required destinations are mutually unreachable")
    s, t = keep.index(dg.source), keep.index(dg.target)
    if cfg is None:
        order, _ = held_karp(closure, s, t)
    else:
        reduced = DestGraph(closure, s, t)
        order = genetic_refine(reduced, cheapest_insertion(reduced), cfg).order
    return make_sequence(dg, _closure_path(nxt, [keep[i] for i in order]))


# ---------------------------------------------------------------------------
# Exact oracle
# ---------------------------------------------------------------------------

ORACLE_MAX_DESTINATIONS = 12


def brute_force_oracle(dg: DestGraph) -> tuple[float, VisitSequence]:
    """Exact relaxed-TSP optimum by permutation over the metric closure.

    The metric closure absorbs every beneficial revisit, so a Hamiltonian-style
    sweep over the required intermediates is exact; the witness expands closure
    edges back into a revisit-carrying sequence. Refuses more than
    ``ORACLE_MAX_DESTINATIONS`` destinations.
    """
    if dg.n > ORACLE_MAX_DESTINATIONS:
        raise ValueError(f"oracle refuses instances with more than {ORACLE_MAX_DESTINATIONS} destinations")
    closure, nxt = _metric_closure(dg)
    middles = dg.required_intermediates()
    s, t = dg.source, dg.target
    for d in middles:
        if not (math.isfinite(closure[s, d]) and math.isfinite(closure[d, t])):
            raise NoSequenceError(f"required destination {d} unreachable")
    if not math.isfinite(closure[s, t]):
        raise NoSequenceError("target unreachable from source")
    best_cost = INF
    best_perm: tuple[int, ...] = ()
    for perm in itertools.permutations(middles):
        cost = 0.0
        prev = s
        for d in perm:
            cost += closure[prev, d]
            if cost >= best_cost:
                break
            prev = d
        else:
            cost += closure[prev, t]
            if cost < best_cost:
                best_cost = cost
                best_perm = perm
    witness = make_sequence(dg, _closure_path(nxt, (s, *best_perm, t)))
    return witness.total_cost, witness


def hamiltonian_path_exists(dg: DestGraph) -> bool:
    """True iff some duplicate-free ordering of the required destinations is valid."""
    middles = dg.required_intermediates()
    rows = dg.rows
    s, t = dg.source, dg.target

    def extend(prev: int, left: set[int]) -> bool:
        if not left:
            return math.isfinite(rows[prev][t])
        return any(
            math.isfinite(rows[prev][d]) and extend(d, left - {d})
            for d in left
        )

    return extend(s, set(middles))


def oracle_stats(batch: Iterable[tuple[float, float]]) -> OracleStats:
    """Aggregate (oracle cost, solver cost) pairs into benchmark ratios.

    The mean ratio is the ratio of summed costs, not the mean of per-instance
    ratios; the spread is the population standard deviation of per-instance
    ratios; optimality counts instances matching to 1e-9 relative.
    """
    pairs = list(batch)
    if not pairs:
        raise ValueError("empty benchmark batch")
    oracle_sum = sum(o for o, _ in pairs)
    solver_sum = sum(s for _, s in pairs)
    ratios = [o / s for o, s in pairs]
    optimal = sum(1 for o, s in pairs if math.isclose(o, s, rel_tol=1e-9, abs_tol=1e-9))
    return OracleStats(
        rho_mean=oracle_sum / solver_sum,
        rho_std=float(np.std(ratios)),
        rho_optimality=optimal / len(pairs),
        rho_worst=min(ratios),
    )

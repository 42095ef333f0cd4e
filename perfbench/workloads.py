"""Seeded inputs, measured operations and output checks of each workload.

A workload builds its inputs once from the seed (untimed). A *round*
performs every short operation of the workload once, in a fixed order, one
at a time: per graph (or destination-graph instance) its set-up, then per
scenario the first route and the solver probe (or per instance the solve).
A planner workload also runs each fixpoint scenario once, between two
rounds, so that the repeats of a short operation fall in different stretches
of the run and their median is not taken from one slow stretch of the host.
Every timing is taken here, outside the package, and stored as a
``(seconds, scale)`` pair (see ``hostspeed``).
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from multiroute import generate, graph, graphio, ordering, planner

from hostspeed import HostSpeed, clock
from tracer import Tracer

REL_TOL = 1e-9
# Set-up is short, so each graph or instance is set up this many times per
# untraced round, and its time is the median over every round's samples.
SETUP_REPS = 2
# Untraced rounds a planner workload makes at least. The time of a short
# operation is its median over the rounds.
MIN_ROUNDS = 5
# Nodes per graph that probe-only scenarios draw their destinations from.
PROBE_POOL = 60


@dataclass(frozen=True)
class PlannerSpec:
    """Random geometric graphs, each with ``1 + first_only`` first-route scenarios.

    Every round stops each first-route scenario at its first route; the first
    scenario of each of the first ``fixpoints`` graphs also runs once to the
    fixpoint. The first route comes within tens of milliseconds, but its time
    and cost vary widely between scenarios and between graphs, so these add
    many cheap samples, and graphs without a fixpoint scenario add graphs.

    The solver probe solves every scenario's destination graph with
    ``probe_seeds`` GA seeds; ``probe_only`` more scenarios per graph are
    only probed. How long a solve takes depends mostly on its destination
    matrix (the seeds of one matrix vary by about 4 %, the matrices of one
    graph by about 15 %, with a long upper tail), so the 95th percentile
    needs many matrices, and at least 200 samples to have ten beyond it.
    Probe-only scenarios draw their nodes from ``PROBE_POOL`` nodes of the
    graph, so that their exact references share a few Dijkstra searches.
    """

    nodes: int
    radius: float
    objectives: int
    graphs: int
    fixpoints: int
    first_only: int
    probe_only: int = 0
    probe_seeds: int = 1


@dataclass(frozen=True)
class SolverSpec:
    """Per order, ``complete`` complete and ``incomplete`` incomplete instances.

    Twice as many incomplete instances keep the median solve time inside the
    slower incomplete mass instead of in the gap between the two kinds.
    """

    orders: tuple[int, ...]
    complete: int
    incomplete: int


WORKLOADS: dict[str, PlannerSpec | SolverSpec] = {
    # An exact reference costs 35 ms per geo-fixpoint scenario (Dijkstra from
    # 7 destinations) and 100 ms per dense-dest scenario (the oracle over 10
    # destinations), so dense-dest gets its probe samples from GA seeds.
    "geo-fixpoint": PlannerSpec(
        nodes=2000, radius=0.04, objectives=5, graphs=4, fixpoints=2, first_only=15, probe_only=40
    ),
    "dense-dest": PlannerSpec(
        nodes=600, radius=0.075, objectives=8, graphs=4, fixpoints=4, first_only=12, probe_seeds=4
    ),
    "oracle-suite": SolverSpec(orders=(5, 6, 7, 8, 9), complete=16, incomplete=32),
}

# Tiny versions of the same workloads, for the smoke test and the warm-up.
SMOKE: dict[str, PlannerSpec | SolverSpec] = {
    "geo-fixpoint": PlannerSpec(
        nodes=150, radius=0.15, objectives=3, graphs=2, fixpoints=1, first_only=2, probe_only=2
    ),
    "dense-dest": PlannerSpec(
        nodes=80, radius=0.25, objectives=4, graphs=2, fixpoints=2, first_only=1, probe_seeds=2
    ),
    "oracle-suite": SolverSpec(orders=(5, 6), complete=1, incomplete=1),
}

Timing = tuple[float, float]  # (seconds, scale to the reference speed)


def _digest(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _not_below(value: float, floor: float) -> bool:
    return value >= floor or _close(value, floor)


@dataclass
class Round:
    """One round: set-up samples per graph or instance, one record per scenario."""

    setup: dict[int, list[Timing]] = field(default_factory=dict)
    records: list[dict[str, Any]] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def digest(self) -> str:
        return _digest([r["digest"] for r in self.records])


@dataclass
class Run:
    """Everything one run measured: its rounds and, on a planner workload, its fixpoints."""

    hs: HostSpeed
    tracer: Tracer | None = None
    rounds: list[Round] = field(default_factory=list)
    fixpoints: list[dict[str, Any]] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    # The latest set-up of each graph, and the untimed reference of each
    # scenario or instance and Dijkstra costs per (graph, source node), which
    # every round reuses.
    graphs: dict[int, Any] = field(default_factory=dict)
    references: dict[int, Any] = field(default_factory=dict)
    distances: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    @property
    def digest(self) -> str:
        first = self.rounds[0].digest if self.rounds else None
        return _digest((first, [f["digest"] for f in self.fixpoints]))

    def at(self, sid: int) -> None:
        """Attribute the spans that follow to scenario ``sid``."""
        if self.tracer is not None:
            self.tracer.scenario = sid

    def op(self, what: str, fn: Callable[..., Any], *args: Any) -> Any:
        """One operation: an exception or a failed check counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed operation must not end the run
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def set_up(self, rnd: Round, key: int, fn: Callable[[], Any]) -> Any:
        """Time repeated calls of ``fn`` (one call when traced) into ``rnd.setup``; the last result."""
        times = []
        out = None
        mark = self.hs.start()
        for _ in range(1 if self.traced else SETUP_REPS):
            t0 = self.hs.elapsed(mark)
            out = fn()
            times.append(self.hs.elapsed(mark) - t0)
        _, scale = self.hs.stop(mark)
        rnd.setup[key] = [(t, scale) for t in times]
        return out

    def reference(self, key: int, what: str, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)``, computed untimed the first time ``key`` is seen and reused after."""
        if key not in self.references:
            ref = self.op(what, fn, *args)
            if ref is None:
                return None
            self.references[key] = ref
        return self.references[key]

    def solve(self, dg: ordering.DestGraph, cfg: ordering.GaConfig, opt: float) -> tuple[Timing, ordering.VisitSequence]:
        """``ordering.solve``, timed, checked against the oracle optimum."""
        mark = self.hs.start()
        seq = ordering.solve(dg, cfg)
        seconds, scale = self.hs.stop(mark)
        ordering.validate_sequence(dg, seq)
        if not _not_below(seq.total_cost, opt):
            raise AssertionError(f"solver cost {seq.total_cost} below the oracle optimum {opt}")
        return (seconds * 1e3, scale), seq

    def more_rounds(self, round_fn: Callable[[], None], t_start: float, seconds: float, min_rounds: int) -> None:
        """Rounds up to ``min_rounds``, then while the next is expected to end within ``seconds`` of ``t_start``."""
        while self.rounds and (
            len(self.rounds) < min_rounds or clock() - t_start + self.rounds[-1].wall_s <= seconds
        ):
            round_fn()


# ---------------------------------------------------------------------------
# Planner workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphInput:
    edgelist: str
    # (scenario text, planner seed, kind: "fixpoint", "first" or "probe")
    scenarios: tuple[tuple[str, int, str], ...]


def planner_inputs(spec: PlannerSpec, rng: random.Random) -> list[GraphInput]:
    inputs = []
    for gi_index in range(spec.graphs):
        g, ids = generate.random_geometric_graph(spec.nodes, spec.radius, rng.getrandbits(32))
        scenarios = []
        for kind in ["fixpoint" if gi_index < spec.fixpoints else "first"] + ["first"] * spec.first_only:
            sc = generate.random_scenario(g, ids, spec.objectives, rng.getrandbits(32))
            scenarios.append((graphio.serialize_scenario(sc), rng.getrandbits(32), kind))
        comp = generate.largest_component(g) if spec.probe_only else []
        pool = rng.sample(comp, min(PROBE_POOL, len(comp)))
        for _ in range(spec.probe_only):
            ext = [ids.to_external[v] for v in rng.sample(pool, spec.objectives + 2)]
            sc = graphio.ScenarioSpec(source=ext[0], target=ext[1], objectives=tuple(ext[2:]))
            scenarios.append((graphio.serialize_scenario(sc), rng.getrandbits(32), "probe"))
        inputs.append(GraphInput(graphio.serialize_edgelist(g, ids), tuple(scenarios)))
    return inputs


def _setup(gi: GraphInput) -> tuple[graph.RoutingGraph, list[planner.DestinationSet]]:
    """Parse plus resolve, in the order ``multiroute run`` calls them."""
    g, ids = graphio.parse_edgelist(gi.edgelist)
    dests = [graphio.resolve_scenario(graphio.parse_scenario(text), ids) for text, _, _ in gi.scenarios]
    return g, dests


def _reference(
    run: Run, gi_index: int, g: graph.RoutingGraph, dests: planner.DestinationSet
) -> tuple[np.ndarray, ordering.DestGraph, float]:
    """Exact destination distances (Dijkstra from each), their graph, the exact optimum."""
    n = dests.count
    exact = np.empty((n, n))
    for i, src in enumerate(dests.node_ids):
        key = (gi_index, src)
        if key not in run.distances:
            run.distances[key] = np.asarray(graph.dijkstra(g, src).cost)
        cost = run.distances[key]
        exact[i] = cost[list(dests.node_ids)]
    exact = np.minimum(exact, exact.T)
    dg = ordering.DestGraph(exact, dests.source_index, dests.target_index, dests.required)
    opt, _ = ordering.brute_force_oracle(dg)
    return exact, dg, opt


def _plan(
    hs: HostSpeed,
    g: graph.RoutingGraph,
    dests: planner.DestinationSet,
    seed: int,
    fixpoint: bool,
    exact: np.ndarray,
    opt: float,
) -> dict[str, Any]:
    """``planner.plan`` until the fixpoint (or the first route), timed and checked."""
    cfg = planner.PlannerConfig(rng_seed=seed, time_budget=math.inf, stop_after_first=not fixpoint)
    emitted: list[tuple[float, planner.AnytimeSolution]] = []

    def on_solution(sol: planner.AnytimeSolution) -> None:
        emitted.append((hs.elapsed(mark), sol))

    if fixpoint:
        gc.collect()  # collect earlier garbage outside the timed region
    mark = hs.start()
    result = planner.plan(g, dests, cfg, on_solution=on_solution)
    wall, scale = hs.stop(mark)

    if result.status != "solved":
        raise AssertionError(f"status {result.status!r}, expected 'solved'")
    if [s for _, s in emitted] != result.solutions:
        raise AssertionError("on_solution calls differ from the returned solutions")
    costs = [s.total_cost for s in result.solutions]
    if any(b >= a for a, b in zip(costs, costs[1:])):
        raise AssertionError(f"emitted costs not strictly decreasing: {costs}")
    for s in result.solutions:
        path_cost = planner.validate_node_path(g, dests, s.node_path)
        if not _close(path_cost, s.total_cost):
            raise AssertionError(f"path cost {path_cost} != reported {s.total_cost}")
    matrix = np.array(result.distance_matrix)
    finite = np.isfinite(matrix)
    low = finite & (matrix < exact * (1.0 - REL_TOL))
    if low.any():
        i, k = np.argwhere(low)[0]
        raise AssertionError(f"matrix[{i}][{k}] = {matrix[i, k]} below Dijkstra {exact[i, k]}")
    if not _not_below(costs[-1], opt):
        raise AssertionError(f"final cost {costs[-1]} below the optimum {opt}")

    upper = np.triu(finite, 1)
    exact_entries = np.isclose(matrix, exact, rtol=REL_TOL, atol=REL_TOL) & upper
    within10 = next((t for t, s in emitted if s.total_cost <= 1.1 * opt), None)
    return {
        "scale": scale,
        "wall_s": wall,
        "first_s": emitted[0][0],
        "within10_s": within10,
        "first_ratio": costs[0] / opt,
        "final_ratio": costs[-1] / opt,
        "iterations": result.iterations,
        "explored_nodes": result.explored_nodes,
        "matrix_exact": [int(exact_entries.sum()), int(upper.sum())],
        "curve": [[t, s.total_cost / opt, s.iteration] for t, s in emitted],
        "trace": (
            result.iterations,
            result.explored_nodes,
            [(s.total_cost, s.visit_order.order, s.node_path) for s in result.solutions],
        ),
    }


def _planner_round(run: Run, inputs: list[GraphInput], probe_seeds: int) -> None:
    """Per graph: set up; per scenario: its first route (unless probe-only), then the solver probe.

    The probe runs ``ordering.solve`` with the planner's own in-loop GA
    config on the scenario's exact destination matrix, once per GA seed, so
    the planner workloads report solver latency and oracle ratios on the
    destination graphs their scenarios produce.
    """
    rnd = Round()
    probe_cfg = planner.PlannerConfig().solver_ga
    t_round = clock()
    gc.collect()  # once per round: a full collection costs as much as a short operation
    for gi_index, gi in enumerate(inputs):
        first_sid = gi_index * len(gi.scenarios)
        run.at(first_sid)
        set_up = run.op(f"graph {gi_index} setup", run.set_up, rnd, gi_index, lambda: _setup(gi))
        if set_up is None:
            continue
        run.graphs[gi_index] = set_up
        g, dest_sets = set_up
        for sid, (_, seed, kind), dests in zip(itertools.count(first_sid), gi.scenarios, dest_sets):
            run.at(sid)
            ref = run.reference(sid, f"scenario {sid} reference", _reference, run, gi_index, g, dests)
            if ref is None:
                continue
            exact, dg, opt = ref
            first = None
            if kind != "probe":
                first = run.op(f"scenario {sid} first route", _plan, run.hs, g, dests, seed, False, exact, opt)
                if first is None:
                    continue
            solves = [
                run.op(f"scenario {sid} solve {r}", run.solve, dg, replace(probe_cfg, rng_seed=seed + r), opt)
                for r in range(probe_seeds)
            ]
            if None in solves:
                continue
            rec: dict[str, Any] = {
                "sid": sid,
                "solve_ms": [t for t, _ in solves],
                "rho_pairs": [(opt, seq.total_cost) for _, seq in solves],
                "digest": _digest((first and first["trace"], [(seq.order, seq.total_cost) for _, seq in solves])),
            }
            if first is not None:
                rec.update({k: first[k] for k in ("first_s", "scale", "first_ratio", "iterations", "explored_nodes")})
            rnd.records.append(rec)
    rnd.wall_s = clock() - t_round
    run.rounds.append(rnd)


def _fixpoint(run: Run, inputs: list[GraphInput], gi_index: int, j: int) -> None:
    """Scenario ``j`` of graph ``gi_index`` until every tree saturates, on the latest set-up."""
    gi = inputs[gi_index]
    sid = gi_index * len(gi.scenarios) + j
    if gi_index not in run.graphs or sid not in run.references:
        return  # its set-up or reference failed, and counted as a failure
    g, dest_sets = run.graphs[gi_index]
    run.at(sid)
    exact, _, opt = run.references[sid]
    rec = run.op(f"scenario {sid} fixpoint", _plan, run.hs, g, dest_sets[j], gi.scenarios[j][1], True, exact, opt)
    if rec is not None:
        rec["sid"] = sid
        rec["digest"] = _digest(rec.pop("trace"))
        run.fixpoints.append(rec)


def planner_run(
    spec: PlannerSpec, inputs: list[GraphInput], hs: HostSpeed, tracer: Tracer | None, seconds: float
) -> Run:
    """A round, then each fixpoint scenario followed by a round, then rounds while time is left.

    A traced run makes one round and then the fixpoint scenarios.
    """
    run = Run(hs, tracer)

    def one_round() -> None:
        _planner_round(run, inputs, spec.probe_seeds)

    t_start = clock()
    one_round()
    for gi_index, gi in enumerate(inputs):
        for j, (_, _, kind) in enumerate(gi.scenarios):
            if kind == "fixpoint":
                _fixpoint(run, inputs, gi_index, j)
                if tracer is None:
                    one_round()
    if tracer is None:
        run.more_rounds(one_round, t_start, seconds, MIN_ROUNDS)
    return run


# ---------------------------------------------------------------------------
# Solver-only workload
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    kind: str
    order: int
    seed: int
    theta: np.ndarray


def solver_inputs(spec: SolverSpec, rng: random.Random) -> list[Instance]:
    out = []
    for order in spec.orders:
        for kind, make, count in (
            ("complete", generate.random_complete_destgraph, spec.complete),
            ("incomplete", generate.random_incomplete_destgraph, spec.incomplete),
        ):
            for _ in range(count):
                seed = rng.getrandbits(32)
                out.append(Instance(kind, order, seed, make(order, seed).theta))
    return out


def _oracle(dg: ordering.DestGraph) -> float:
    opt, _ = ordering.brute_force_oracle(dg)
    return opt


def _solver_round(run: Run, instances: list[Instance]) -> None:
    """Per instance: build the ``DestGraph`` (set-up), then ``solve`` against the oracle."""
    rnd = Round()
    t_round = clock()
    gc.collect()  # once per round: a full collection costs as much as a short operation
    for sid, inst in enumerate(instances):
        run.at(sid)
        n = inst.order
        dg = run.op(f"instance {sid} setup", run.set_up, rnd, sid, lambda: ordering.DestGraph(inst.theta, 0, n - 1))
        if dg is None:
            continue
        opt = run.reference(sid, f"instance {sid} oracle", _oracle, dg)
        if opt is None:
            continue
        solved = run.op(f"instance {sid} solve", run.solve, dg, ordering.GaConfig(rng_seed=inst.seed), opt)
        if solved is None:
            continue
        ms, seq = solved
        ratio = seq.total_cost / opt
        rnd.records.append({
            "sid": sid,
            "kind": inst.kind,
            "order": inst.order,
            "solve_ms": [ms],
            "first_ratio": ratio,
            "final_ratio": ratio,
            "rho_pairs": [(opt, seq.total_cost)],
            "digest": _digest((seq.order, seq.total_cost)),
        })
    rnd.wall_s = clock() - t_round
    run.rounds.append(rnd)


def solver_run(
    spec: SolverSpec, instances: list[Instance], hs: HostSpeed, tracer: Tracer | None, seconds: float
) -> Run:
    """Rounds while time is left, at least one; a traced run makes one."""
    run = Run(hs, tracer)
    t_start = clock()
    _solver_round(run, instances)
    if tracer is None:
        run.more_rounds(lambda: _solver_round(run, instances), t_start, seconds, 1)
    return run

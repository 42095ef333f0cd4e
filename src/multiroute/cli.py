"""Command-line front end: run planners, benchmark the solver, generate fixtures."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Iterator, TextIO

from . import baselines, generate, graphio, ordering, planner

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_NO_PATH_YET = 3
EXIT_NO_PATH = 4

PLAN_EXIT_CODES = {"solved": EXIT_OK, "no_path_yet": EXIT_NO_PATH_YET, "no_path": EXIT_NO_PATH}


class CliError(Exception):
    """A failure that ``main`` reports as one ``error:`` line and an exit code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


@dataclass
class RunReport:
    """Everything one planner invocation produced, ready for serialization."""

    planner: str
    config: dict[str, Any]
    graph_sha256: str
    scenario_sha256: str
    trace: list[dict[str, Any]] = field(default_factory=list)
    status: str = "no_path_yet"
    final_cost: float | None = None
    node_path: list[int] = field(default_factory=list)
    iterations: int = 0
    explored_nodes: int = 0
    solver_calls: int = 0
    stop_reason: str | None = None
    lower_bound: float | None = None


@contextmanager
def _output(path: str) -> Iterator[TextIO]:
    """The ``--out`` stream: the file at ``path``, or stdout for ``-``.

    Any ``OSError`` from opening, writing, flushing or closing it, such as a
    full disk or a reader that went away, becomes the file error.
    """
    try:
        with nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8") as out:
            yield out
            out.flush()
    except OSError as exc:
        if path == "-":
            # What stdout still buffers would fail again, with an "Exception
            # ignored" report, in the interpreter's exit-time flush.
            with suppress(OSError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise CliError(EXIT_ERROR, f"cannot write {path}: {exc}")


class _TraceWriter:
    """Streams one record per solution improvement, then a summary."""

    def __init__(self, out: TextIO, fmt: str) -> None:
        self.out = out
        self.fmt = fmt
        if fmt == "csv":
            self.out.write("wall_time,total_cost,explored_nodes,iteration,visit_order\n")

    def row(self, rec: dict[str, Any]) -> None:
        if self.fmt == "csv":
            order = "|".join(str(d) for d in rec.get("visit_order", []))
            self.out.write(
                f"{rec['wall_time']:.6f},{rec['total_cost']!r},{rec['explored_nodes']},"
                f"{rec.get('iteration', '')},{order}\n"
            )
        else:
            self.out.write(json.dumps({"type": "solution", **rec}) + "\n")
        self.out.flush()

    def summary(self, report: RunReport) -> None:
        payload = {"type": "summary", **asdict(report)}
        if self.fmt == "csv":
            self.out.write("# summary: " + json.dumps(payload) + "\n")
        else:
            self.out.write(json.dumps(payload) + "\n")
        self.out.flush()


def cmd_run(args: argparse.Namespace) -> int:
    if not args.budget > 0.0:
        raise CliError(EXIT_USAGE, f"--budget must be positive, got {args.budget}")
    if not 0.0 <= args.goal_bias <= 1.0:
        raise CliError(EXIT_USAGE, f"--goal-bias must lie in [0, 1], got {args.goal_bias}")
    if args.max_iterations is not None:
        if args.algo != "imomd":
            raise CliError(EXIT_USAGE, f"--max-iterations applies to --algo imomd only, not {args.algo}")
        if args.max_iterations < 1:
            raise CliError(EXIT_USAGE, f"--max-iterations must be at least 1, got {args.max_iterations}")
    graph_path = Path(args.graph)
    scenario_path = Path(args.scenario)
    parse_graph = graphio.parse_osm_xml if graph_path.suffix.lower() == ".osm" else graphio.parse_edgelist
    try:
        graph_bytes = graph_path.read_bytes()
        graph, ids = parse_graph(graph_bytes)
    except OSError as exc:
        raise CliError(EXIT_ERROR, f"cannot read graph file {graph_path}: {exc}")
    except graphio.ParseError as exc:
        raise CliError(EXIT_ERROR, f"graph file {graph_path}: {exc}")
    try:
        scenario_bytes = scenario_path.read_bytes()
        spec = graphio.parse_scenario(scenario_bytes)
        dests = graphio.resolve_scenario(spec, ids)
    except OSError as exc:
        raise CliError(EXIT_ERROR, f"cannot read scenario file {scenario_path}: {exc}")
    except graphio.ParseError as exc:
        raise CliError(EXIT_ERROR, f"scenario file {scenario_path}: {exc}")

    report = RunReport(
        planner=args.algo,
        config={
            "seed": args.seed,
            "budget": args.budget,
            "goal_bias": args.goal_bias,
            "algo": args.algo,
            "max_iterations": args.max_iterations,
        },
        graph_sha256=hashlib.sha256(graph_bytes).hexdigest(),
        scenario_sha256=hashlib.sha256(scenario_bytes).hexdigest(),
    )
    with _output(args.out) as out:
        writer = _TraceWriter(out, args.format)
        if args.algo == "imomd":
            return _run_planner(args, graph, dests, report, writer)
        return _run_baseline(args, graph, ids, dests, report, writer)


def _run_planner(
    args: argparse.Namespace,
    graph: graphio.RoutingGraph,
    dests: planner.DestinationSet,
    report: RunReport,
    writer: _TraceWriter,
) -> int:
    cfg = planner.PlannerConfig(
        goal_bias=args.goal_bias,
        rng_seed=args.seed,
        time_budget=args.budget,
        max_iterations=args.max_iterations,
    )

    def emit(sol: planner.AnytimeSolution) -> None:
        rec = {
            "wall_time": sol.wall_time,
            "total_cost": sol.total_cost,
            "explored_nodes": sol.explored_nodes,
            "iteration": sol.iteration,
            "visit_order": list(sol.visit_order.order),
        }
        report.trace.append(rec)
        writer.row(rec)

    result = planner.plan(graph, dests, cfg, on_solution=emit)
    report.status = result.status
    report.iterations = result.iterations
    report.explored_nodes = result.explored_nodes
    report.solver_calls = result.solver_calls
    report.stop_reason = result.stop_reason
    report.lower_bound = result.lower_bound
    if result.final is not None:
        report.final_cost = result.final.total_cost
        report.node_path = list(result.final.node_path)
    writer.summary(report)
    return PLAN_EXIT_CODES[result.status]


def _run_baseline(
    args: argparse.Namespace,
    graph: graphio.RoutingGraph,
    ids: graphio.IdMap,
    dests: planner.DestinationSet,
    report: RunReport,
    writer: _TraceWriter,
) -> int:
    # Baselines are single-pair planners; objectives are visited in the
    # scenario's listed order, legs solved independently and joined.
    nodes = [n for n, req in zip(dests.node_ids, dests.required) if req]
    try:
        res = baselines.leg_sequence(graph, nodes, args.algo, args.budget)
    except baselines.NoPathYet as exc:
        report.status = "no_path_yet"
        report.explored_nodes = exc.explored_nodes
        writer.summary(report)
        return EXIT_NO_PATH_YET
    except baselines.NoPathError as exc:
        report.status = "no_path"
        writer.summary(report)
        a, b = (ids.to_external[n] for n in exc.endpoints)
        raise CliError(EXIT_NO_PATH, f"no path between {a} and {b}")
    for wall, cost in res.trace:
        rec = {
            "wall_time": wall,
            "total_cost": cost,
            "explored_nodes": res.explored_nodes,
            "visit_order": list(range(len(nodes))),
        }
        report.trace.append(rec)
        writer.row(rec)
    report.status = "solved"
    report.final_cost = res.cost
    report.node_path = list(res.node_path)
    report.explored_nodes = res.explored_nodes
    writer.summary(report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Oracle benchmark
# ---------------------------------------------------------------------------

def _parse_orders(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        orders = list(range(int(lo), int(hi) + 1))
    else:
        orders = [int(text)]
    if not orders:
        raise ValueError("empty order range")
    if orders[0] < 2:
        raise ValueError("destination counts must be at least 2")
    return orders


def cmd_bench_oracle(args: argparse.Namespace) -> int:
    try:
        orders = _parse_orders(args.orders)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"bad --orders value: {exc}")
    if max(orders) > ordering.ORACLE_MAX_DESTINATIONS:
        limit = ordering.ORACLE_MAX_DESTINATIONS
        raise CliError(EXIT_USAGE, f"refusing orders above {limit} (oracle is factorial)")
    for flag, value in (
        ("--instances", args.instances),
        ("--mutations", args.mutations),
        ("--crossovers", args.crossovers),
        ("--generations", args.generations),
    ):
        if value < 1:
            raise CliError(EXIT_USAGE, f"{flag} must be at least 1, got {value}")
    kinds = ["complete", "incomplete"] if args.kind == "both" else [args.kind]
    ga = ordering.GaConfig(
        mutation_count=args.mutations,
        crossover_count=args.crossovers,
        generations=args.generations,
    )
    with _output(args.out) as out:
        out.write(
            "record,kind,order,instance,seed,oracle_cost,solver_cost,ratio,"
            "rho_mean,rho_std,rho_optimality,rho_worst,solve_ms\n"
        )
        for kind in kinds:
            for order in orders:
                pairs = []
                solve_ms = []
                for i in range(args.instances):
                    seed = args.seed + order * 1_000_003 + i
                    if kind == "complete":
                        dg = generate.random_complete_destgraph(order, seed)
                    else:
                        dg = generate.random_incomplete_destgraph(order, seed)
                    t0 = time.perf_counter()
                    seq = ordering.solve(dg, replace(ga, rng_seed=seed))
                    solve_ms.append((time.perf_counter() - t0) * 1e3)
                    opt, _ = ordering.brute_force_oracle(dg)
                    pairs.append((opt, seq.total_cost))
                    out.write(
                        f"instance,{kind},{order},{i},{seed},{opt!r},{seq.total_cost!r},"
                        f"{opt / seq.total_cost!r},,,,,{solve_ms[-1]!r}\n"
                    )
                stats = ordering.oracle_stats(pairs)
                out.write(
                    f"stats,{kind},{order},,,,,,{stats.rho_mean!r},{stats.rho_std!r},"
                    f"{stats.rho_optimality!r},{stats.rho_worst!r},{statistics.median(solve_ms)!r}\n"
                )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Fixture generation
# ---------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    prefix = Path(args.out)
    if args.kind == "geometric":
        if args.objectives < 0:
            raise CliError(EXIT_USAGE, "need --objectives >= 0")
        try:
            graph, ids = generate.random_geometric_graph(args.nodes, args.radius, args.seed)
            scenario = generate.random_scenario(graph, ids, args.objectives, args.seed)
        except ValueError as exc:
            raise CliError(EXIT_USAGE, str(exc))
        files = {
            ".el": graphio.serialize_edgelist(graph, ids),
            ".scenario": graphio.serialize_scenario(scenario),
        }
        summary = f"{graph.node_count} nodes, {graph.edge_count} edges"
    else:
        try:
            fixture = generate.bug_trap(args.chamber, args.corridor, args.entry, args.water_gap)
        except ValueError as exc:
            raise CliError(EXIT_USAGE, str(exc))
        files = {
            ".el": graphio.serialize_edgelist(fixture.graph, fixture.ids),
            ".scenario": graphio.serialize_scenario(fixture.scenario),
            ".informed.scenario": graphio.serialize_scenario(fixture.informed_scenario),
        }
        summary = (
            f"{fixture.graph.node_count} nodes, {fixture.graph.edge_count} edges, "
            f"entry node {fixture.entry_node}"
        )
    try:
        prefix.parent.mkdir(parents=True, exist_ok=True)
        for suffix, text in files.items():
            Path(f"{prefix}{suffix}").write_text(text)
    except OSError as exc:
        raise CliError(EXIT_ERROR, f"cannot write {prefix}: {exc}")
    with _output("-") as out:
        print(f"wrote {prefix}.el ({summary})", file=out)
        print("wrote " + " and ".join(f"{prefix}{suffix}" for suffix in list(files)[1:]), file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="multiroute", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a planner on a graph + scenario")
    run.add_argument("--graph", required=True, help="edge-list file, or OSM XML with .osm suffix (any case)")
    run.add_argument("--scenario", required=True)
    run.add_argument("--algo", choices=("imomd", "biastar", "anastar"), default="imomd")
    run.add_argument("--budget", type=float, default=10.0, help="time budget in seconds")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--goal-bias", type=float, default=0.2, dest="goal_bias")
    run.add_argument(
        "--max-iterations",
        type=int,
        dest="max_iterations",
        help="imomd only: stop after N planner iterations; runs stopped this way replay exactly",
    )
    run.add_argument("--out", default="-")
    run.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench-oracle", help="benchmark the ordering solver against the oracle")
    bench.add_argument("--orders", default="5:9", help="order or lo:hi range of destination counts")
    bench.add_argument("--instances", type=int, default=300)
    bench.add_argument("--kind", choices=("complete", "incomplete", "both"), default="both")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--mutations", type=int, default=2000)
    bench.add_argument("--crossovers", type=int, default=2000)
    bench.add_argument("--generations", type=int, default=10)
    bench.add_argument("--out", default="-")
    bench.set_defaults(func=cmd_bench_oracle)

    gen = sub.add_parser("gen", help="generate synthetic graph + scenario fixtures")
    gen.add_argument("--kind", choices=("geometric", "bugtrap"), required=True)
    gen.add_argument("--out", required=True, help="output path prefix")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--nodes", type=int, default=100)
    gen.add_argument("--radius", type=float, default=0.15)
    gen.add_argument("--objectives", type=int, default=5)
    gen.add_argument("--chamber", type=int, default=20)
    gen.add_argument("--corridor", type=int, default=5)
    gen.add_argument("--entry", type=int, default=1)
    gen.add_argument("--water-gap", action="store_true", dest="water_gap")
    gen.set_defaults(func=cmd_gen)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())

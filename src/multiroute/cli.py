"""Command-line front end: run planners, benchmark the solver, generate fixtures."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, TextIO

from . import baselines, generate, graphio, ordering, planner

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_NO_PATH_YET = 3
EXIT_NO_PATH = 4

PLAN_EXIT_CODES = {"solved": EXIT_OK, "no_path_yet": EXIT_NO_PATH_YET, "no_path": EXIT_NO_PATH}


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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_graph(path: Path) -> tuple[graphio.RoutingGraph, graphio.IdMap]:
    data = path.read_bytes()
    if path.suffix == ".osm":
        return graphio.parse_osm_xml(data)
    return graphio.parse_edgelist(data)


def _open_out(path: str | None) -> TextIO:
    if path is None or path == "-":
        return sys.stdout
    return open(path, "w", encoding="utf-8")


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
        print(f"error: --budget must be positive, got {args.budget}", file=sys.stderr)
        return EXIT_USAGE
    if not 0.0 <= args.goal_bias <= 1.0:
        print(f"error: --goal-bias must lie in [0, 1], got {args.goal_bias}", file=sys.stderr)
        return EXIT_USAGE
    graph_path = Path(args.graph)
    scenario_path = Path(args.scenario)
    try:
        graph, ids = _load_graph(graph_path)
    except OSError as exc:
        print(f"error: cannot read graph file {graph_path}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except graphio.ParseError as exc:
        print(f"error: graph file {graph_path}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        spec = graphio.parse_scenario(scenario_path.read_bytes())
        dests = graphio.resolve_scenario(spec, ids)
    except OSError as exc:
        print(f"error: cannot read scenario file {scenario_path}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except graphio.ParseError as exc:
        print(f"error: scenario file {scenario_path}: {exc}", file=sys.stderr)
        return EXIT_ERROR

    report = RunReport(
        planner=args.algo,
        config={
            "seed": args.seed,
            "budget": args.budget,
            "goal_bias": args.goal_bias,
            "algo": args.algo,
        },
        graph_sha256=_sha256(graph_path),
        scenario_sha256=_sha256(scenario_path),
    )
    try:
        out = _open_out(args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    writer = _TraceWriter(out, args.format)
    try:
        if args.algo == "imomd":
            return _run_planner(args, graph, dests, report, writer)
        return _run_baseline(args, graph, dests, report, writer)
    finally:
        if out is not sys.stdout:
            out.close()


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
    if result.final is not None:
        report.final_cost = result.final.total_cost
        report.node_path = list(result.final.node_path)
    writer.summary(report)
    return PLAN_EXIT_CODES[result.status]


def _run_baseline(
    args: argparse.Namespace,
    graph: graphio.RoutingGraph,
    dests: planner.DestinationSet,
    report: RunReport,
    writer: _TraceWriter,
) -> int:
    # Baselines are single-pair planners; objectives are visited in the
    # scenario's listed order, legs solved independently and summed.
    nodes = [n for n, req in zip(dests.node_ids, dests.required) if req]
    start = time.monotonic()
    try:
        if args.algo == "anastar" and len(nodes) == 2:
            res = baselines.anastar(graph, nodes[0], nodes[1], args.budget)
            for wall, cost in res.trace:
                rec = {
                    "wall_time": wall,
                    "total_cost": cost,
                    "explored_nodes": res.explored_nodes,
                    "visit_order": [0, 1],
                }
                report.trace.append(rec)
                writer.row(rec)
        else:
            budget = args.budget if args.algo == "anastar" else None
            res = baselines.leg_sequence(graph, nodes, args.algo, budget)
            rec = {
                "wall_time": time.monotonic() - start,
                "total_cost": res.cost,
                "explored_nodes": res.explored_nodes,
                "visit_order": list(range(len(nodes))),
            }
            report.trace.append(rec)
            writer.row(rec)
    except baselines.NoPathYet as exc:
        report.status = "no_path_yet"
        report.explored_nodes = exc.explored_nodes
        writer.summary(report)
        return EXIT_NO_PATH_YET
    except baselines.NoPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        report.status = "no_path"
        writer.summary(report)
        return EXIT_NO_PATH
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
    return orders


def cmd_bench_oracle(args: argparse.Namespace) -> int:
    try:
        orders = _parse_orders(args.orders)
    except ValueError as exc:
        print(f"error: bad --orders value: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if max(orders) > ordering.ORACLE_MAX_DESTINATIONS:
        print(
            f"error: refusing orders above {ordering.ORACLE_MAX_DESTINATIONS} "
            "(oracle is factorial)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    kinds = ["complete", "incomplete"] if args.kind == "both" else [args.kind]
    ga = ordering.GaConfig(
        mutation_count=args.mutations,
        crossover_count=args.crossovers,
        generations=args.generations,
    )
    try:
        out = _open_out(args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        out.write(
            "record,kind,order,instance,seed,oracle_cost,solver_cost,ratio,"
            "rho_mean,rho_std,rho_optimality,rho_worst\n"
        )
        for kind in kinds:
            for order in orders:
                pairs = []
                for i in range(args.instances):
                    seed = args.seed + order * 1_000_003 + i
                    if kind == "complete":
                        dg = generate.random_complete_destgraph(order, seed)
                    else:
                        dg = generate.random_incomplete_destgraph(order, seed)
                    ga_i = ordering.GaConfig(
                        mutation_count=ga.mutation_count,
                        crossover_count=ga.crossover_count,
                        generations=ga.generations,
                        rng_seed=seed,
                    )
                    seq = ordering.solve(dg, ga_i)
                    opt, _ = ordering.brute_force_oracle(dg)
                    pairs.append((opt, seq.total_cost))
                    out.write(
                        f"instance,{kind},{order},{i},{seed},{opt!r},{seq.total_cost!r},"
                        f"{opt / seq.total_cost!r},,,,\n"
                    )
                stats = ordering.oracle_stats(pairs)
                out.write(
                    f"stats,{kind},{order},,,,,,{stats.rho_mean!r},{stats.rho_std!r},"
                    f"{stats.rho_optimality!r},{stats.rho_worst!r}\n"
                )
        out.flush()
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# Fixture generation
# ---------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    if args.kind == "geometric":
        if args.nodes < 2 or args.radius <= 0:
            print("error: need --nodes >= 2 and --radius > 0", file=sys.stderr)
            return EXIT_USAGE
        graph, ids = generate.random_geometric_graph(args.nodes, args.radius, args.seed)
        scenario = generate.random_scenario(graph, ids, args.objectives, args.seed)
        Path(f"{prefix}.el").write_text(graphio.serialize_edgelist(graph, ids))
        Path(f"{prefix}.scenario").write_text(graphio.serialize_scenario(scenario))
        print(f"wrote {prefix}.el ({graph.node_count} nodes, {graph.edge_count} edges)")
        print(f"wrote {prefix}.scenario")
        return EXIT_OK
    try:
        fixture = generate.bug_trap(args.chamber, args.corridor, args.entry, args.water_gap)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    Path(f"{prefix}.el").write_text(graphio.serialize_edgelist(fixture.graph, fixture.ids))
    Path(f"{prefix}.scenario").write_text(graphio.serialize_scenario(fixture.scenario))
    Path(f"{prefix}.informed.scenario").write_text(
        graphio.serialize_scenario(fixture.informed_scenario)
    )
    print(
        f"wrote {prefix}.el ({fixture.graph.node_count} nodes, "
        f"{fixture.graph.edge_count} edges, entry node {fixture.entry_node})"
    )
    print(f"wrote {prefix}.scenario and {prefix}.informed.scenario")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="multiroute", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a planner on a graph + scenario")
    run.add_argument("--graph", required=True, help="edge-list file, or OSM XML with .osm suffix")
    run.add_argument("--scenario", required=True)
    run.add_argument("--algo", choices=("imomd", "biastar", "anastar"), default="imomd")
    run.add_argument("--budget", type=float, default=10.0, help="time budget in seconds")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--goal-bias", type=float, default=0.2, dest="goal_bias")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

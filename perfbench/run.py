#!/usr/bin/env python3
"""Run one benchmark workload of the multiroute package and print its metrics.

    python3 perfbench/run.py --workload geo-fixpoint --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The full result
(environment, determinism digest, per-scenario cost-vs-time curves, self-time
table) is written to ``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _parse_args(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time; rounds repeat within it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _by_sid(rounds: list[Any]) -> dict[int, list[dict[str, Any]]]:
    out: dict[int, list[dict[str, Any]]] = defaultdict(list)
    for rnd in rounds:
        for r in rnd.records:
            out[r["sid"]].append(r)
    return dict(sorted(out.items()))


def _time(t: tuple[float, float], scaled: bool) -> float:
    seconds, scale = t
    return seconds * scale if scaled else seconds


def end_to_end(run: Any, planner_workload: bool, failed: int, attempted: int, scaled: bool = True) -> dict[str, float]:
    """End-to-end metrics of the untraced run.

    Each time of a short operation (set-up, first route, solve) is its median
    over the rounds; costs are the same in every round (the digest checks
    it). With ``scaled`` times are scaled to the reference host speed
    (``hostspeed``). The least time over the rounds was less steady: it
    picks each operation's most favourable error of scale.
    """
    import numpy as np
    from multiroute import ordering

    recs = _by_sid(run.rounds)
    if not recs:  # every operation failed; the run reports correct = false
        return {"ok_rate": (attempted - failed) / attempted}

    setup_s = sum(
        statistics.median(_time(t, scaled) for rnd in run.rounds for t in rnd.setup.get(k, ()))
        for k in {k for rnd in run.rounds for k in rnd.setup}
    )
    solve_ms = [
        statistics.median(_time(r["solve_ms"][j], scaled) for r in rs)
        for rs in recs.values()
        for j in range(len(rs[0]["solve_ms"]))
    ]
    if planner_workload:
        first = [rs for rs in recs.values() if "first_s" in rs[0]]
        first_solution_s = sum(
            statistics.median(_time((r["first_s"], r["scale"]), scaled) for r in rs) for rs in first
        )
        first_ratio = [rs[0]["first_ratio"] for rs in first]
        fixpoint_s = sum(_time((f["wall_s"], f["scale"]), scaled) for f in run.fixpoints)
        final = [f["final_ratio"] for f in run.fixpoints]
    else:
        # The solver returns one sequence: it is both the first and the final
        # solution, and the solve time is the time to both.
        fixpoint_s = first_solution_s = sum(solve_ms) / 1e3
        first_ratio = final = [rs[0]["final_ratio"] for rs in recs.values()]
    stats = ordering.oracle_stats(pair for rs in recs.values() for pair in rs[0]["rho_pairs"])
    return {
        "setup_s": setup_s,
        "first_solution_s": first_solution_s,
        "fixpoint_s": fixpoint_s,
        "first_cost_ratio": statistics.fmean(first_ratio) if first_ratio else 0.0,
        "final_cost_ratio": statistics.fmean(final) if final else 0.0,
        "solve_ms.p50": float(np.percentile(solve_ms, 50)),
        "solve_ms.p95": float(np.percentile(solve_ms, 95)),
        "rho_mean": stats.rho_mean,
        "rho_optimality": stats.rho_optimality,
        "ok_rate": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Any, traced: Any, untraced: Any, planner_workload: bool) -> dict[str, float]:
    """Per-layer metrics: self times and counts of the traced run.

    Layers a workload does not run read 0.
    """
    times = tracer.layer_times()
    c = tracer.counts

    def self_s(name: str) -> float:
        return times.get(name, {}).get("self_s", 0.0)

    solve_calls = tracer.child_calls("ordering.solve", "planner.plan")
    exact = [f["matrix_exact"] for f in traced.fixpoints]

    def fixpoint_s(run: Any) -> float:
        if planner_workload:
            return sum(f["wall_s"] * f["scale"] for f in run.fixpoints)
        return sum(ms * scale for r in run.rounds[0].records for ms, scale in r["solve_ms"]) / 1e3

    # A run that never came within 10 % counts with its whole wall time.
    within10 = [(f["within10_s"] or f["wall_s"]) * f["scale"] for f in untraced.fixpoints]
    return {
        "graphio.parse_edgelist_s": self_s("graphio.parse_edgelist"),
        "graphio.resolve_scenario_s": self_s("graphio.resolve_scenario"),
        "planner.nearest_expandable_s": self_s("planner.nearest_expandable"),
        "planner.nearest_expandable.calls": c["planner.nearest_expandable.calls"],
        "planner.nearest_expandable.scanned": c["planner.nearest_expandable.scanned"],
        "planner.extend_s": self_s("planner.extend"),
        "planner.choose_parent_s": self_s("planner.choose_parent"),
        "planner.extend.added": c["planner.extend.added"],
        "planner.extend.empty_ratio": _ratio(c["planner.extend.empty"], c["planner.extend.calls"]),
        "planner.rewire_s": self_s("planner.rewire"),
        "planner.rewire.reparented": c["planner.rewire.reparented"],
        "planner.rewire.cascade": c["planner.rewire.cascade"],
        "planner.update_connections_s": self_s("planner.update_connections"),
        "planner.matrix_improvements": c["planner.matrix_improvements"],
        "planner.destinations_connected_s": self_s("planner.destinations_connected"),
        "planner.solve_calls": solve_calls,
        "planner.solve_win_ratio": _ratio(c["planner.emitted"], solve_calls),
        "planner.stitch_node_path_s": self_s("planner.stitch_node_path"),
        "planner.plan.self_s": self_s("planner.plan"),
        "planner.iterations": c["planner.iterations"],
        "planner.explored_nodes": c["planner.explored_nodes"],
        "planner.matrix_exact_ratio": _ratio(sum(e for e, _ in exact), sum(f for _, f in exact)),
        "planner.within10_s": sum(within10),
        "ordering.solve_s": self_s("ordering.solve"),
        "ordering.cheapest_insertion_s": self_s("ordering.cheapest_insertion"),
        "ordering.genetic_refine_s": self_s("ordering.genetic_refine"),
        "ordering.mutate.calls": c["ordering.mutate.calls"],
        "ordering.crossover.calls": c["ordering.crossover.calls"],
        "ordering.mutate.fallback_ratio": _ratio(c["ordering.mutate.fallback"], c["ordering.mutate.calls"]),
        "ordering.crossover.fallback_ratio": _ratio(
            c["ordering.crossover.fallback"], c["ordering.crossover.calls"]
        ),
        "ordering.ga_win_ratio": _ratio(c["ordering.genetic_refine.wins"], c["ordering.genetic_refine.calls"]),
        "ordering.brute_force_oracle_s": self_s("ordering.brute_force_oracle"),
        "graph.dijkstra_s": self_s("graph.dijkstra"),
        "trace.overhead_s": fixpoint_s(traced) - fixpoint_s(untraced),
    }


# ---------------------------------------------------------------------------
# Environment and determinism bookkeeping
# ---------------------------------------------------------------------------

def _code_sha256() -> str:
    """Hash of the package and benchmark sources: runs compare digests only within one."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(args: argparse.Namespace) -> dict[str, Any]:
    import numpy as np

    return {
        "commit": _commit(),
        "code_sha256": _code_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def _result_path(args: argparse.Namespace, trace: int) -> Path:
    suffix = "-smoke" if args.smoke else ""
    return OUT / f"{args.workload}-seed{args.seed}-trace{trace}{suffix}.json"


def digest_flags(args: argparse.Namespace, runs: list[Any], code: str) -> list[str]:
    """Differences between rounds and runs, or from an earlier run of the same code and seed."""
    digest = runs[0].digest
    flags = [
        f"round {i} digest {rnd.digest} differs from round 0 digest {runs[0].rounds[0].digest}"
        for i, rnd in enumerate(runs[0].rounds)
        if rnd.digest != runs[0].rounds[0].digest
    ]
    flags += [f"traced run digest {run.digest} differs from {digest}" for run in runs[1:] if run.digest != digest]
    for trace in (0, 1):
        path = _result_path(args, trace)
        try:
            earlier = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if earlier.get("env", {}).get("code_sha256") == code and earlier.get("digest") != digest:
            flags.append(f"digest {digest} differs from {earlier.get('digest')} in {path.name}")
    return flags


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    try:
        spec_file = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    args = _parse_args(argv, [w["name"] for w in spec_file["workloads"]])
    if not (SRC / "multiroute" / "__init__.py").is_file():
        print(f"error: no multiroute package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import numpy  # noqa: F401
        import multiroute  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return 2

    import tracer as tracing
    import workloads as wl
    from hostspeed import HostSpeed

    env = environment(args)
    spec = (wl.SMOKE if args.smoke else wl.WORKLOADS)[args.workload]
    planner_workload = isinstance(spec, wl.PlannerSpec)
    make_inputs = wl.planner_inputs if planner_workload else wl.solver_inputs
    run_workload = wl.planner_run if planner_workload else wl.solver_run
    inputs = make_inputs(spec, random.Random(f"{args.workload}/{args.seed}"))

    hs = HostSpeed()
    tracer = tracing.Tracer() if args.trace else None
    with hs.sampling():
        # An untimed run over tiny inputs first, so that imports, allocator
        # arenas and caches are warm when the measured run starts.
        smoke = wl.SMOKE[args.workload]
        run_workload(smoke, make_inputs(smoke, random.Random("warm-up")), hs, None, 0.0)
        runs = [run_workload(spec, inputs, hs, None, args.seconds)]
        if tracer is not None:
            with tracer.installed():
                runs.append(run_workload(spec, inputs, hs, tracer, args.seconds))

    failures = [f for run in runs for f in run.failures]
    flags = digest_flags(args, runs, env["code_sha256"])
    attempted = sum(run.attempted for run in runs)
    untraced = runs[0]
    metrics = end_to_end(untraced, planner_workload, len(failures), attempted)

    def plan_counts(run: Any, key: str) -> int:
        return sum(r.get(key, 0) for r in [*run.rounds[0].records, *run.fixpoints]) if run.rounds else 0

    result: dict[str, Any] = {
        "env": env,
        "correct": not failures and not flags,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digest": untraced.digest,
        "digest_flags": flags,
        "rounds": [{"wall_s": rnd.wall_s, "digest": rnd.digest} for rnd in untraced.rounds],
        "end_to_end": metrics,
        "end_to_end_unscaled": end_to_end(untraced, planner_workload, len(failures), attempted, scaled=False),
        "solve_ms_samples": sum(len(r["solve_ms"]) for r in untraced.rounds[0].records) if untraced.rounds else 0,
        "scenarios": [
            {k: v for k, v in r.items() if k != "digest"} for rnd in untraced.rounds[:1] for r in rnd.records
        ],
        "fixpoints": [{k: v for k, v in f.items() if k != "digest"} for f in untraced.fixpoints],
    }
    if tracer is not None:
        layer = per_layer(tracer, runs[1], untraced, planner_workload)
        times = tracer.layer_times()
        total_self = sum(t["self_s"] for t in times.values()) or 1.0
        result["per_layer"] = layer
        result["layer_times"] = {
            name: {**t, "self_share": t["self_s"] / total_self}
            for name, t in sorted(times.items(), key=lambda kv: -kv[1]["self_s"])
        }
        result["traced_vs_untraced"] = {
            "iterations": [plan_counts(run, "iterations") for run in runs],
            "explored_nodes": [plan_counts(run, "explored_nodes") for run in runs],
        }

    OUT.mkdir(exist_ok=True)
    path = _result_path(args, args.trace)
    if tracer is not None:
        tracer.save(path.with_suffix(".spans.npz"))
    path.write_text(json.dumps(result, indent=1))

    for f in failures + flags:
        print(f"FAILED: {f}", file=sys.stderr)
    values = result["per_layer"] if tracer is not None else metrics
    listed = spec_file["per_layer" if tracer is not None else "end_to_end"]
    shown = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}
    for name, m in shown.items():
        print(f"{name:40s} {m['value']!r} {m['unit']}")
    print(f"result written to {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": attempted, "failed": len(failures), "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Summarise the result files of several benchmark runs into one JSON file.

    python3 perfbench/collect.py --tag <name> --out perfbench/baseline/BENCH_<name>.json

Reads every full-size result in ``perfbench/out/``. Per workload it writes,
for each end-to-end metric, the per-seed values, their median and quartiles
and the spread (interquartile range over the median); the per-layer metrics
and self-time shares of each traced run; the determinism digest of each seed;
and the cost-vs-time curves of the lowest seed's untraced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"
PER_RUN = ("workload", "seed", "trace", "smoke", "loadavg_start")


def _summary(values: list[float]) -> dict[str, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def collect(tag: str) -> dict:
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(OUT.glob("*-seed*-trace?.json")):
        result = json.loads(path.read_text())
        runs[result["env"]["workload"]].append(result)
    out: dict = {"tag": tag, "workloads": {}}
    for workload, results in sorted(runs.items()):
        untraced = sorted((r for r in results if not r["env"]["trace"]), key=lambda r: r["env"]["seed"])
        traced = sorted((r for r in results if r["env"]["trace"]), key=lambda r: r["env"]["seed"])
        out.setdefault("env", {k: v for k, v in results[0]["env"].items() if k not in PER_RUN})
        entry: dict = {
            "seeds": [r["env"]["seed"] for r in untraced],
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "loadavg_start": [r["env"]["loadavg_start"][0] for r in untraced],
            "digests": {str(r["env"]["seed"]): r["digest"] for r in results},
            "end_to_end": {},
            "end_to_end_unscaled": {},
        }
        for key in ("end_to_end", "end_to_end_unscaled"):
            for name in untraced[0][key] if untraced else ():
                values = [r[key][name] for r in untraced]
                entry[key][name] = {**_summary(values), "values": values}
        entry["traced"] = [
            {
                "seed": r["env"]["seed"],
                "per_layer": r["per_layer"],
                "self_share": {n: t["self_share"] for n, t in r["layer_times"].items()},
                "traced_vs_untraced": r["traced_vs_untraced"],
            }
            for r in traced
        ]
        if untraced:
            entry["curves"] = [{"sid": f["sid"], "curve": f["curve"]} for f in untraced[0]["fixpoints"]]
        out["workloads"][workload] = entry
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tag", required=True)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(collect(args.tag), indent=1) + "\n")


if __name__ == "__main__":
    main()

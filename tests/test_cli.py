import json
import subprocess
import sys

import pytest

from multiroute.cli import main
from multiroute.ordering import oracle_stats

TRIANGLE = """graph v1
n 0 45.0 7.0
n 1 45.0001 7.0
n 2 45.0 7.0001
e 0 1 2.0
e 0 2 3.0
e 1 2 10.0
"""

SCENARIO = "source 0\ntarget 2\nobjectives 1\n"


@pytest.fixture
def fixtures(tmp_path):
    graph = tmp_path / "tri.el"
    graph.write_text(TRIANGLE)
    scenario = tmp_path / "s.txt"
    scenario.write_text(SCENARIO)
    return graph, scenario


def read_jsonl(path):
    return [json.loads(ln) for ln in path.read_text().splitlines() if ln.strip()]


def strip_wall_times(records):
    out = []
    for rec in records:
        rec = dict(rec)
        rec.pop("wall_time", None)
        if rec.get("type") == "summary":
            for row in rec.get("trace", []):
                row.pop("wall_time", None)
        out.append(rec)
    return out


def test_run_emits_trace_and_exits_zero(fixtures, tmp_path):
    graph, scenario = fixtures
    out = tmp_path / "report.jsonl"
    rc = main(
        [
            "run",
            "--graph", str(graph),
            "--scenario", str(scenario),
            "--algo", "imomd",
            "--budget", "5",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    records = read_jsonl(out)
    solutions = [r for r in records if r["type"] == "solution"]
    summary = records[-1]
    assert len(solutions) >= 1
    assert summary["type"] == "summary"
    assert summary["status"] == "solved"
    assert summary["final_cost"] == 7.0
    assert summary["node_path"] == [0, 1, 0, 2]
    assert len(summary["graph_sha256"]) == 64
    costs = [r["total_cost"] for r in solutions]
    assert all(a > b for a, b in zip(costs, costs[1:]))


def test_repeat_runs_identical_minus_wall_time(fixtures, tmp_path):
    graph, scenario = fixtures
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        rc = main(
            [
                "run",
                "--graph", str(graph),
                "--scenario", str(scenario),
                "--algo", "imomd",
                "--budget", "5",
                "--seed", "9",
                "--out", str(out),
            ]
        )
        assert rc == 0
        outs.append(strip_wall_times(read_jsonl(out)))
    assert outs[0] == outs[1]


def test_anastar_two_node_single_row(tmp_path):
    (tmp_path / "two.el").write_text(
        "graph v1\nn 0 45.0 7.0\nn 1 45.0001 7.0\ne 0 1 5.0\n"
    )
    (tmp_path / "s.txt").write_text("source 0\ntarget 1\n")
    out = tmp_path / "r.jsonl"
    rc = main(
        [
            "run",
            "--graph", str(tmp_path / "two.el"),
            "--scenario", str(tmp_path / "s.txt"),
            "--algo", "anastar",
            "--budget", "5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    records = read_jsonl(out)
    solutions = [r for r in records if r["type"] == "solution"]
    assert len(solutions) == 1
    assert solutions[0]["total_cost"] == 5.0


def test_biastar_legs_follow_scenario_order(fixtures, tmp_path):
    graph, scenario = fixtures
    out = tmp_path / "r.jsonl"
    rc = main(
        [
            "run",
            "--graph", str(graph),
            "--scenario", str(scenario),
            "--algo", "biastar",
            "--out", str(out),
        ]
    )
    assert rc == 0
    summary = read_jsonl(out)[-1]
    # Legs 0->1 (2m) and 1->2 (via 0: 5m) sum to 7.
    assert summary["final_cost"] == 7.0


def test_no_path_exit_code(tmp_path):
    # Two components: both trees saturate without meeting, which proves no path.
    (tmp_path / "g.el").write_text(
        "graph v1\nn 0 45.0 7.0\nn 1 45.0001 7.0\nn 2 45.0002 7.0\nn 3 45.0003 7.0\n"
        "e 0 1 1.0\ne 2 3 1.0\n"
    )
    (tmp_path / "s.txt").write_text("source 0\ntarget 3\n")
    rc = main(
        [
            "run",
            "--graph", str(tmp_path / "g.el"),
            "--scenario", str(tmp_path / "s.txt"),
            "--algo", "imomd",
            "--budget", "0.2",
            "--out", str(tmp_path / "r.jsonl"),
        ]
    )
    assert rc == 4
    summary = read_jsonl(tmp_path / "r.jsonl")[-1]
    assert summary["status"] == "no_path"


def test_no_path_yet_exit_code(tmp_path):
    # A connected 12x12 grid with corner endpoints: the budget ends within the
    # first iterations, long before trees rooted 22 hops apart can meet.
    side = 12
    lines = ["graph v1"]
    for r in range(side):
        lines += [f"n {r * side + c} {45.0 + 1e-3 * r} {7.0 + 1e-3 * c}" for c in range(side)]
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                lines.append(f"e {r * side + c} {r * side + c + 1}")
            if r + 1 < side:
                lines.append(f"e {r * side + c} {(r + 1) * side + c}")
    (tmp_path / "g.el").write_text("\n".join(lines) + "\n")
    (tmp_path / "s.txt").write_text(f"source 0\ntarget {side * side - 1}\n")
    rc = main(
        [
            "run",
            "--graph", str(tmp_path / "g.el"),
            "--scenario", str(tmp_path / "s.txt"),
            "--budget", "1e-6",
            "--out", str(tmp_path / "r.jsonl"),
        ]
    )
    assert rc == 3
    summary = read_jsonl(tmp_path / "r.jsonl")[-1]
    assert summary["status"] == "no_path_yet"
    assert summary["final_cost"] is None


@pytest.mark.parametrize(
    "flags", [["--budget", "0"], ["--budget", "-1"], ["--goal-bias", "3"], ["--goal-bias", "-0.1"]]
)
def test_bad_run_values_are_usage_errors(fixtures, tmp_path, capsys, flags):
    graph, scenario = fixtures
    out = tmp_path / "r.jsonl"
    rc = main(["run", "--graph", str(graph), "--scenario", str(scenario), "--out", str(out), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "bench-oracle"])
def test_unwritable_out_is_file_error(fixtures, tmp_path, command):
    graph, scenario = fixtures
    out = tmp_path / "missing" / "r.out"
    if command == "run":
        args = ["--graph", str(graph), "--scenario", str(scenario)]
    else:
        args = ["--orders", "5", "--instances", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "multiroute", command, *args, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: cannot write {out}")
    assert "Traceback" not in proc.stderr


def test_missing_file_is_named(tmp_path, capsys):
    rc = main(
        [
            "run",
            "--graph", str(tmp_path / "absent.el"),
            "--scenario", str(tmp_path / "s.txt"),
        ]
    )
    assert rc == 1
    assert "absent.el" in capsys.readouterr().err


def test_csv_format(fixtures, tmp_path):
    graph, scenario = fixtures
    out = tmp_path / "r.csv"
    rc = main(
        [
            "run",
            "--graph", str(graph),
            "--scenario", str(scenario),
            "--algo", "imomd",
            "--budget", "5",
            "--seed", "4",
            "--format", "csv",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "wall_time,total_cost,explored_nodes,iteration,visit_order"
    assert lines[-1].startswith("# summary: ")
    assert len(lines) >= 3


# ---------------------------------------------------------------------------
# bench-oracle
# ---------------------------------------------------------------------------

def test_bench_oracle_row_counts_and_stats_recompute(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(
        [
            "bench-oracle",
            "--orders", "5",
            "--instances", "10",
            "--kind", "complete",
            "--seed", "3",
            "--mutations", "50",
            "--crossovers", "50",
            "--generations", "2",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 10 + 1  # header, instances, stats
    instances = [ln.split(",") for ln in lines[1:] if ln.startswith("instance")]
    stats_row = [ln.split(",") for ln in lines[1:] if ln.startswith("stats")][0]
    pairs = [(float(r[5]), float(r[6])) for r in instances]
    ratios = [float(r[7]) for r in instances]
    assert all(r <= 1.0 + 1e-9 for r in ratios)
    recomputed = oracle_stats(pairs)
    assert float(stats_row[8]) == pytest.approx(recomputed.rho_mean, rel=1e-12)
    assert float(stats_row[9]) == pytest.approx(recomputed.rho_std, rel=1e-12)
    assert float(stats_row[10]) == pytest.approx(recomputed.rho_optimality, rel=1e-12)
    assert float(stats_row[11]) == pytest.approx(recomputed.rho_worst, rel=1e-12)


def test_bench_oracle_refuses_large_orders(tmp_path, capsys):
    rc = main(["bench-oracle", "--orders", "13", "--instances", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "refusing" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_geometric_reproducible_files(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for prefix in (a, b):
        rc = main(
            [
                "gen",
                "--kind", "geometric",
                "--nodes", "100",
                "--radius", "0.15",
                "--seed", "7",
                "--out", str(prefix),
            ]
        )
        assert rc == 0
    assert (tmp_path / "a.el").read_bytes() == (tmp_path / "b.el").read_bytes()
    assert (tmp_path / "a.scenario").read_bytes() == (tmp_path / "b.scenario").read_bytes()


def test_gen_bugtrap_writes_three_files_and_runs(tmp_path):
    prefix = tmp_path / "trap"
    rc = main(
        [
            "gen",
            "--kind", "bugtrap",
            "--chamber", "8",
            "--corridor", "4",
            "--entry", "1",
            "--out", str(prefix),
        ]
    )
    assert rc == 0
    for suffix in (".el", ".scenario", ".informed.scenario"):
        assert (tmp_path / f"trap{suffix}").exists()
    rc = main(
        [
            "run",
            "--graph", str(tmp_path / "trap.el"),
            "--scenario", str(tmp_path / "trap.informed.scenario"),
            "--algo", "imomd",
            "--budget", "10",
            "--seed", "2",
            "--out", str(tmp_path / "r.jsonl"),
        ]
    )
    assert rc == 0


def test_gen_degenerate_refused(tmp_path, capsys):
    rc = main(["gen", "--kind", "bugtrap", "--chamber", "2", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "multiroute", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "bench-oracle" in proc.stdout

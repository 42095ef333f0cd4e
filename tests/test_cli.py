import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

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

# ``python -m multiroute`` children import the package from this checkout's
# ``src``, whether or not it is installed or on the caller's PYTHONPATH.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")) if p
    ),
}


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
    assert summary["solver_calls"] >= 1
    assert summary["stop_reason"] == "optimal"
    costs = [r["total_cost"] for r in solutions]
    assert all(a > b for a, b in zip(costs, costs[1:]))


def test_summary_reports_the_planners_lower_bound(fixtures, tmp_path):
    # A planner run that ends "optimal" has proved its bound up to the final
    # cost; the baselines report none.
    graph, scenario = fixtures
    bounds = {}
    for algo in ("imomd", "biastar"):
        out = tmp_path / f"{algo}.jsonl"
        assert main(["run", "--graph", str(graph), "--scenario", str(scenario), "--algo", algo,
                     "--out", str(out)]) == 0
        bounds[algo] = read_jsonl(out)[-1]["lower_bound"]
    assert bounds == {"imomd": 7.0, "biastar": None}


def test_run_reads_each_input_once_and_hashes_what_it_parsed(fixtures, tmp_path, monkeypatch):
    graph, scenario = fixtures
    reads = []
    real_read_bytes = Path.read_bytes

    def counted(path):
        reads.append(path)
        return real_read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counted)
    out = tmp_path / "report.jsonl"
    rc = main(["run", "--graph", str(graph), "--scenario", str(scenario), "--seed", "1", "--out", str(out)])
    monkeypatch.undo()
    assert rc == 0
    assert sorted(map(str, reads)) == sorted([str(graph), str(scenario)])
    summary = read_jsonl(out)[-1]
    assert summary["graph_sha256"] == hashlib.sha256(graph.read_bytes()).hexdigest()
    assert summary["scenario_sha256"] == hashlib.sha256(scenario.read_bytes()).hexdigest()


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


def test_max_iterations_runs_replay_exactly(tmp_path):
    # Five destinations on a 400-node graph: the first route comes at
    # iteration 60, the proved optimum only at 156 uncapped, so the cap, not
    # the host's speed, ends the run, inside phase 2's leg searches.
    assert main(["gen", "--kind", "geometric", "--nodes", "400", "--radius", "0.1",
                 "--objectives", "3", "--seed", "4", "--out", str(tmp_path / "g")]) == 0
    reports = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        rc = main(
            [
                "run",
                "--graph", str(tmp_path / "g.el"),
                "--scenario", str(tmp_path / "g.scenario"),
                "--budget", "600",
                "--seed", "5",
                "--max-iterations", "100",
                "--out", str(out),
            ]
        )
        reports.append((rc, strip_wall_times(read_jsonl(out))))
    assert reports[0] == reports[1]
    rc, records = reports[0]
    summary = records[-1]
    assert rc == 0 and summary["status"] == "solved"
    assert summary["iterations"] == 100 and summary["config"]["max_iterations"] == 100
    assert summary["stop_reason"] == "max_iterations"


def test_max_iterations_non_integer_is_a_usage_error(fixtures):
    graph, scenario = fixtures
    proc = subprocess.run(
        [sys.executable, "-m", "multiroute", "run", "--graph", str(graph), "--scenario", str(scenario),
         "--max-iterations", "2.5"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 2
    assert "--max-iterations" in proc.stderr and "Traceback" not in proc.stderr


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
    # Baselines have no planner loop to stop.
    assert "stop_reason" in summary and summary["stop_reason"] is None


def grid_edgelist(side, isolated=0):
    """Edge list of a side x side grid, ids 0..side*side-1 row by row, plus
    ``isolated`` nodes without edges after them."""
    lines = ["graph v1"]
    for r in range(side):
        lines += [f"n {r * side + c} {45.0 + 1e-3 * r} {7.0 + 1e-3 * c}" for c in range(side)]
    lines += [f"n {side * side + i} 44.0 {7.0 + 1e-3 * i}" for i in range(isolated)]
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                lines.append(f"e {r * side + c} {r * side + c + 1}")
            if r + 1 < side:
                lines.append(f"e {r * side + c} {(r + 1) * side + c}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("algo", ["imomd", "biastar", "anastar"])
def test_no_path_exit_code(tmp_path, capsys, algo):
    # Two components: the source's tree saturates its own without meeting the
    # target, which proves no path. External ids 100..400 are internal ids 0..3.
    (tmp_path / "g.el").write_text(
        "graph v1\nn 100 45.0 7.0\nn 200 45.0001 7.0\nn 300 45.0002 7.0\nn 400 45.0003 7.0\n"
        "e 100 200 1.0\ne 300 400 1.0\n"
    )
    (tmp_path / "s.txt").write_text("source 100\ntarget 400\n")
    rc = main(
        [
            "run",
            "--graph", str(tmp_path / "g.el"),
            "--scenario", str(tmp_path / "s.txt"),
            "--algo", algo,
            "--budget", "0.2",
            "--out", str(tmp_path / "r.jsonl"),
        ]
    )
    assert rc == 4
    summary = read_jsonl(tmp_path / "r.jsonl")[-1]
    assert summary["status"] == "no_path"
    if algo != "imomd":
        assert capsys.readouterr().err == "error: no path between 100 and 400\n"


@pytest.mark.parametrize("algo", ["imomd", "anastar"])
def test_no_path_yet_exit_code(tmp_path, algo):
    # A connected 12x12 grid with corner endpoints: the budget ends within the
    # first iterations (expansions, for ANA*), long before trees rooted 22
    # hops apart can meet or a search can cross the grid.
    side = 12
    (tmp_path / "g.el").write_text(grid_edgelist(side))
    (tmp_path / "s.txt").write_text(f"source 0\ntarget {side * side - 1}\n")
    rc = main(
        [
            "run",
            "--graph", str(tmp_path / "g.el"),
            "--scenario", str(tmp_path / "s.txt"),
            "--algo", algo,
            "--budget", "1e-6",
            "--out", str(tmp_path / "r.jsonl"),
        ]
    )
    assert rc == 3
    summary = read_jsonl(tmp_path / "r.jsonl")[-1]
    assert summary["status"] == "no_path_yet"
    assert summary["final_cost"] is None


def test_biastar_budget_that_ends_before_the_first_pop_exits_3(tmp_path):
    # The least positive float: start + budget rounds to start, so the
    # deadline has passed at the first check, whatever the host's speed, and
    # no leg search pops a node.
    side = 12
    (tmp_path / "g.el").write_text(grid_edgelist(side))
    (tmp_path / "s.txt").write_text(f"source 0\ntarget {side * side - 1}\nobjectives {side - 1}\n")
    rc = main(
        [
            "run",
            "--graph", str(tmp_path / "g.el"),
            "--scenario", str(tmp_path / "s.txt"),
            "--algo", "biastar",
            "--budget", "5e-324",
            "--out", str(tmp_path / "r.jsonl"),
        ]
    )
    assert rc == 3
    records = read_jsonl(tmp_path / "r.jsonl")
    assert [r["type"] for r in records] == ["summary"]
    summary = records[0]
    assert (summary["status"], summary["explored_nodes"], summary["final_cost"]) == ("no_path_yet", 0, None)
    assert summary["config"]["budget"] == 5e-324


def test_isolated_target_proves_no_path_within_the_iteration_cap(tmp_path):
    # The isolated target's tree saturates at once, so its first turn proves
    # no path, long before the source's tree could saturate the grid.
    side = 12
    (tmp_path / "g.el").write_text(grid_edgelist(side, isolated=1))
    (tmp_path / "s.txt").write_text(f"source 0\ntarget {side * side}\n")
    rc = main(
        [
            "run",
            "--graph", str(tmp_path / "g.el"),
            "--scenario", str(tmp_path / "s.txt"),
            "--max-iterations", "10",
            "--out", str(tmp_path / "r.jsonl"),
        ]
    )
    assert rc == 4
    summary = read_jsonl(tmp_path / "r.jsonl")[-1]
    assert (summary["status"], summary["stop_reason"]) == ("no_path", "fixpoint")


@pytest.mark.parametrize(
    "flags",
    [
        ["--budget", "0"],
        ["--budget", "-1"],
        ["--goal-bias", "3"],
        ["--goal-bias", "-0.1"],
        ["--max-iterations", "0"],
        ["--max-iterations", "-5"],
        ["--max-iterations", "10", "--algo", "biastar"],
        ["--max-iterations", "10", "--algo", "anastar"],
    ],
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


@pytest.mark.parametrize(
    "argv",
    [
        ["bench-oracle", "--orders", "1"],
        ["bench-oracle", "--instances", "0"],
        ["bench-oracle", "--mutations", "0"],
        ["gen", "--kind", "geometric", "--nodes", "10", "--objectives", "500"],
        ["gen", "--kind", "geometric", "--radius", "2"],
        ["gen", "--kind", "geometric", "--radius", "inf"],
    ],
)
def test_bad_bench_and_gen_values_are_usage_errors(tmp_path, capsys, argv):
    rc = main([*argv, "--out", str(tmp_path / "sub" / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["run", "bench-oracle", "gen"])
def test_unwritable_out_is_file_error(fixtures, tmp_path, command):
    graph, scenario = fixtures
    out = tmp_path / "missing" / "r.out"
    if command == "run":
        args = ["--graph", str(graph), "--scenario", str(scenario)]
    elif command == "bench-oracle":
        args = ["--orders", "5", "--instances", "1"]
    else:
        # gen creates missing directories, so a file blocks it instead.
        (tmp_path / "missing").write_text("")
        args = ["--kind", "bugtrap"]
    proc = subprocess.run(
        [sys.executable, "-m", "multiroute", command, *args, "--out", str(out)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: cannot write {out}")
    assert "Traceback" not in proc.stderr


def assert_one_write_error(proc):
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize(
    "argv", [["run"], ["run", "--format", "csv"], ["bench-oracle"]], ids=["run-jsonl", "run-csv", "bench-oracle"]
)
def test_write_failure_after_open_is_file_error(fixtures, argv):
    # /dev/full opens but fails every flushed write with ENOSPC, as a full disk does.
    graph, scenario = fixtures
    if argv[0] == "run":
        argv = [*argv, "--graph", str(graph), "--scenario", str(scenario)]
    else:
        argv = [*argv, "--orders", "5", "--instances", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "multiroute", *argv, "--out", "/dev/full"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert_one_write_error(proc)


@pytest.mark.parametrize("command", ["run", "gen"])
def test_closed_stdout_pipe_is_file_error(fixtures, tmp_path, command):
    # The reader is gone before the child starts, so its first write fails.
    graph, scenario = fixtures
    if command == "run":
        args = ["--graph", str(graph), "--scenario", str(scenario)]
    else:
        args = ["--kind", "bugtrap", "--out", str(tmp_path / "trap")]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "multiroute", command, *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=CHILD_ENV,
        )
    finally:
        os.close(write_end)
    assert_one_write_error(proc)


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


@pytest.mark.parametrize("kind", ["graph", "scenario"])
def test_non_utf8_file_is_a_parse_error(fixtures, capsys, kind):
    graph, scenario = fixtures
    bad = graph if kind == "graph" else scenario
    bad.write_bytes(bad.read_bytes() + b"# \xff\n")
    rc = main(["run", "--graph", str(graph), "--scenario", str(scenario)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind} file {bad}: not UTF-8 text")
    assert "Traceback" not in err


def test_repeated_source_is_a_parse_error(fixtures, capsys):
    graph, scenario = fixtures
    scenario.write_text("source 0\nsource 1\ntarget 2\n")
    rc = main(["run", "--graph", str(graph), "--scenario", str(scenario)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: scenario file {scenario}: line 2: repeated source record 'source 1'\n"


def test_osm_node_with_bad_coordinates_is_a_parse_error(fixtures, tmp_path):
    _, scenario = fixtures
    graph = tmp_path / "map.osm"
    graph.write_text(
        "<osm><node id='0' lat='95' lon='7.0'/><node id='2' lat='45.0' lon='7.0'/>"
        "<way id='1'><nd ref='0'/><nd ref='2'/><tag k='highway' v='primary'/></way></osm>"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "multiroute", "run", "--graph", str(graph), "--scenario", str(scenario)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: graph file {graph}: node 0: latitude")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


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
    times = [float(r[12]) for r in instances]
    assert all(t > 0.0 for t in times)
    assert float(stats_row[12]) == pytest.approx(statistics.median(times), rel=1e-12)


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
        [sys.executable, "-m", "multiroute", "--help"], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0
    assert "bench-oracle" in proc.stdout

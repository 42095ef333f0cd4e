"""The benchmark's tracer (``perfbench/tracer.py``) wraps package functions by
module and name and reads their arguments and return values, and its
workloads (``perfbench/workloads.py``, ``perfbench/run.py``) call package
functions by module, name and keyword; these tests fail when a change to the
package breaks what they rely on."""

import ast
import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import pytest

from multiroute import graph, graphio, ordering, planner
from multiroute.generate import random_geometric_graph, random_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(tracing):
    for module, attr, _ in (*tracing.SPANS, *tracing.COUNTERS):
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is gone"


def test_traced_pipeline_calls_every_span(tracing):
    g, ids = random_geometric_graph(80, 0.25, seed=1)
    text = graphio.serialize_edgelist(g, ids)
    spec = random_scenario(g, ids, 4, seed=1)
    ga = ordering.GaConfig(mutation_count=40, crossover_count=40, generations=2)
    cfg = planner.PlannerConfig(rng_seed=1, time_budget=math.inf, solver_ga=ga)
    originals = [(m, a, getattr(m, a)) for m, a, _ in (*tracing.SPANS, *tracing.COUNTERS)]
    t = tracing.Tracer()
    with t.installed():
        g2, ids2 = graphio.parse_edgelist(text.encode())
        dests = graphio.resolve_scenario(spec, ids2)
        result = planner.plan(g2, dests, cfg)
        graph.dijkstra(g2, dests.source_node)
        probe = ordering.DestGraph(result.distance_matrix, 0, dests.count - 1)
        # The planner orders these few destinations exactly, through
        # ordering.solve with no GaConfig; the bench's solver probe runs the
        # GA solver on the matrix the planner found.
        ordering.solve(probe, ga)
        ordering.brute_force_oracle(probe)
    assert result.status == "solved"
    assert all(getattr(m, a) is fn for m, a, fn in originals)
    calls = {name: times["calls"] for name, times in t.layer_times().items()}
    assert all(n >= 1 for n in calls.values()), calls
    assert t.counts["planner.iterations"] == result.iterations
    assert t.child_calls("ordering.solve", "planner.plan") == result.solver_calls
    # Phase 2 adds nodes without extend, so extend accounts for every explored
    # node only in a run that stops inside phase 1.
    assert t.counts["planner.extend.added"] <= result.explored_nodes - dests.count
    assert t.counts["ordering.mutate.calls"] >= 1
    first_cfg = planner.PlannerConfig(rng_seed=1, time_budget=math.inf, solver_ga=ga, stop_after_first=True)
    t = tracing.Tracer()
    with t.installed():
        first = planner.plan(g2, dests, first_cfg)
    assert first.stop_reason == "first_solution"
    assert t.counts["planner.extend.added"] == first.explored_nodes - dests.count


def package_uses(path):
    """``(module, name, keywords, line)`` for every ``<module>.<name>`` read from
    ``multiroute`` in ``path``; ``keywords`` are those of a call, or None."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {
        alias.asname or alias.name: importlib.import_module(f"multiroute.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "multiroute"
        for alias in node.names
    }
    calls = {
        id(node.func): [k.arg for k in node.keywords if k.arg is not None]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    return [
        (modules[node.value.id], node.attr, calls.get(id(node)), node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    ]


@pytest.mark.parametrize("script", ["workloads.py", "run.py"])
def test_bench_calls_match_the_package(script):
    uses = package_uses(PERFBENCH / script)
    assert uses
    for module, name, keywords, line in uses:
        where = f"perfbench/{script}:{line}: {module.__name__}.{name}"
        assert hasattr(module, name), f"{where} is gone"
        if keywords:
            params = inspect.signature(getattr(module, name)).parameters
            assert set(keywords) <= set(params), f"{where} takes no {sorted(set(keywords) - set(params))}"
    # The solver probe runs at the planner's in-loop GA strength.
    assert isinstance(planner.PlannerConfig().solver_ga, ordering.GaConfig)

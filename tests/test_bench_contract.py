"""The benchmark's tracer (``perfbench/tracer.py``) wraps package functions by
module and name and reads their arguments and return values; these tests fail
when a change to the package breaks what it relies on."""

import importlib.util
import math
from pathlib import Path

import pytest

from multiroute import graph, graphio, ordering, planner
from multiroute.generate import random_geometric_graph, random_scenario

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
    cfg = planner.PlannerConfig(rng_seed=1, time_budget=math.inf, solver_ga=ga, final_polish_ga=ga)
    originals = [(m, a, getattr(m, a)) for m, a, _ in (*tracing.SPANS, *tracing.COUNTERS)]
    t = tracing.Tracer()
    with t.installed():
        g2, ids2 = graphio.parse_edgelist(text.encode())
        dests = graphio.resolve_scenario(spec, ids2)
        result = planner.plan(g2, dests, cfg)
        graph.dijkstra(g2, dests.source_node)
        probe = ordering.DestGraph(result.distance_matrix, 0, dests.count - 1)
        # The planner orders these few destinations exactly; the bench's
        # solver probe runs the GA solver on the matrix the planner found.
        ordering.solve(probe, ga)
        ordering.brute_force_oracle(probe)
    assert result.status == "solved"
    assert all(getattr(m, a) is fn for m, a, fn in originals)
    calls = {name: times["calls"] for name, times in t.layer_times().items()}
    assert all(n >= 1 for n in calls.values()), calls
    assert t.counts["planner.iterations"] == result.iterations
    assert t.counts["planner.extend.added"] == result.explored_nodes - dests.count
    assert t.counts["ordering.mutate.calls"] >= 1

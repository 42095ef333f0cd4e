import math
import random

import pytest

from multiroute import baselines, planner
from multiroute.baselines import (
    NoPathError,
    NoPathYet,
    anastar,
    bidirectional_astar,
    leg_sequence,
)
from multiroute.generate import largest_component, random_geometric_graph, random_scenario
from multiroute.geo import GeoPoint
from multiroute.graph import RoutingGraph, dijkstra
from multiroute.planner import DestinationSet, PlannerConfig, node_path_cost, plan

from oracles import full_goal_heuristic


def pts(n):
    return [GeoPoint(45.0 + 1e-4 * i, 7.0) for i in range(n)]


def seeded_pairs(graph, count, seed):
    comp = largest_component(graph)
    rng = random.Random(seed)
    return [tuple(rng.sample(comp, 2)) for _ in range(count)]


# ---------------------------------------------------------------------------
# bidirectional A*
# ---------------------------------------------------------------------------

def test_same_endpoints_zero_cost():
    g = RoutingGraph(pts(2), [(0, 1, 1.0)])
    res = bidirectional_astar(g, 1, 1)
    assert res.cost == 0.0
    assert res.node_path == (1,)
    assert res.explored_nodes == 0


def test_line_graph_matches_dijkstra():
    g = RoutingGraph(pts(5), [(i, i + 1, float(i + 1)) for i in range(4)])
    res = bidirectional_astar(g, 0, 4)
    assert res.node_path == (0, 1, 2, 3, 4)
    assert res.cost == dijkstra(g, 0).cost[4]


def test_disconnected_raises():
    g = RoutingGraph(pts(4), [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(NoPathError):
        bidirectional_astar(g, 0, 3)


def test_path_is_walkable_and_cost_consistent():
    g, _ = random_geometric_graph(300, 0.12, seed=5)
    for s, t in seeded_pairs(g, 25, seed=5):
        res = bidirectional_astar(g, s, t)
        assert res.node_path[0] == s and res.node_path[-1] == t
        assert res.cost == node_path_cost(g, list(res.node_path))


def test_500_node_costs_equal_dijkstra_on_100_pairs():
    # The summed pops pin the balanced stop rule: the symmetric rule, which
    # stopped once either side's least f-value reached the best meeting
    # cost, popped 6 186 times on these pairs.
    g, _ = random_geometric_graph(500, 0.09, seed=17)
    pairs = seeded_pairs(g, 100, seed=23)
    explored = 0
    for s, t in pairs:
        res = bidirectional_astar(g, s, t)
        sp = dijkstra(g, s)
        assert res.cost == pytest.approx(sp.cost[t], rel=1e-12, abs=1e-9)
        explored += res.explored_nodes
    assert explored == 3826


def test_integer_weights_with_many_ties_equal_dijkstra_bit_for_bit():
    # Integer weights sum exactly, so every shortest path of a pair has the
    # same float cost, and equal keys are common on both sides. Lengths
    # rounded up to whole tens of meters never undercut the great-circle
    # distance, so the heuristic keeps its full scale of 1; small random
    # integers shrink the scale below 0.01 and make ties the rule.
    for seed in range(6):
        rng = random.Random(seed)
        base, _ = random_geometric_graph(300, 0.11, seed=seed)
        if seed % 2:
            edges = [(u, v, float(rng.randint(1, 3))) for u, v, _ in base.edges()]
        else:
            edges = [(u, v, 10.0 * math.ceil(w / 10.0)) for u, v, w in base.edges()]
        g = RoutingGraph(base.nodes, edges)
        assert (g.great_circle_scale() == 1.0) == (seed % 2 == 0)
        for s, t in seeded_pairs(g, 40, seed=seed):
            assert bidirectional_astar(g, s, t).cost == dijkstra(g, s).cost[t], (seed, s, t)


def test_rounded_golden_graph_equals_dijkstra_bit_for_bit():
    # Golden graph 2 of test_planner: coordinates rounded to 1e-3 degrees,
    # so many nodes coincide, and weights of the unrounded graph, so the
    # great-circle scale is 0.044 and the heuristic is nearly flat.
    fine = random_geometric_graph(220, 0.12, seed=5)[0]
    g = RoutingGraph([GeoPoint(round(p.lat, 3), round(p.lon, 3)) for p in fine.nodes], list(fine.edges()))
    assert round(g.great_circle_scale(), 3) == 0.044
    comp = largest_component(g)
    for s in comp[::4]:
        ref = dijkstra(g, s).cost
        for t in comp[1::5]:
            assert bidirectional_astar(g, s, t).cost == ref[t], (s, t)


def test_explores_fewer_nodes_than_full_dijkstra_typically():
    g, _ = random_geometric_graph(400, 0.1, seed=3)
    comp = largest_component(g)
    s, t = comp[0], comp[len(comp) // 2]
    res = bidirectional_astar(g, s, t)
    assert res.explored_nodes <= g.node_count * 2


# ---------------------------------------------------------------------------
# ANA*
# ---------------------------------------------------------------------------

def test_single_edge_single_optimal_emission():
    g = RoutingGraph(pts(2), [(0, 1, 3.0)])
    res = anastar(g, 0, 1)
    assert res.cost == 3.0
    assert res.node_path == (0, 1)
    assert len(res.trace) == 1
    assert res.trace[0][1] == 3.0


def test_trace_strictly_decreasing_on_fuzzed_instances():
    rng = random.Random(2)
    for trial in range(100):
        n = rng.randint(20, 60)
        g, _ = random_geometric_graph(n, 0.35, seed=trial)
        comp = largest_component(g)
        if len(comp) < 2:
            continue
        s, t = rng.sample(comp, 2)
        res = anastar(g, s, t)
        costs = [c for _, c in res.trace]
        assert all(a > b for a, b in zip(costs, costs[1:]))
        assert res.cost == costs[-1]


def test_unbounded_budget_reaches_dijkstra_optimum():
    g, _ = random_geometric_graph(200, 0.13, seed=29)
    for s, t in seeded_pairs(g, 30, seed=31):
        res = anastar(g, s, t)
        assert res.cost == pytest.approx(dijkstra(g, s).cost[t], rel=1e-12, abs=1e-9)


def test_final_cost_never_exceeds_first():
    g, _ = random_geometric_graph(150, 0.15, seed=41)
    for s, t in seeded_pairs(g, 20, seed=43):
        res = anastar(g, s, t)
        assert res.trace[-1][1] <= res.trace[0][1]


def test_budget_exhaustion_raises_no_path_yet():
    # A tiny budget on a large instance cannot finish the first greedy dive.
    g, _ = random_geometric_graph(2000, 0.05, seed=51)
    comp = largest_component(g)
    s, t = comp[0], comp[-1]
    with pytest.raises((NoPathYet, NoPathError)) as exc_info:
        anastar(g, s, t, budget=1e-9)
    if exc_info.type is NoPathYet:
        assert exc_info.value.explored_nodes >= 0


def test_disconnected_unbounded_is_no_path():
    g = RoutingGraph(pts(4), [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(NoPathError):
        anastar(g, 0, 3)


# ---------------------------------------------------------------------------
# leg sequences
# ---------------------------------------------------------------------------

def test_leg_sequence_sums_legs():
    g = RoutingGraph(pts(4), [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)])
    res = leg_sequence(g, [0, 2, 3], algo="biastar")
    assert res.cost == 7.0
    assert res.node_path == (0, 1, 2, 3)
    assert res.trace == ((res.wall_time, 7.0),)
    res2 = leg_sequence(g, [0, 2, 3], algo="anastar")
    assert res2.cost == 7.0
    assert res2.trace == ((res2.wall_time, 7.0),)


@pytest.mark.parametrize("algo", ["biastar", "anastar"])
def test_leg_sequence_reports_the_cost_of_its_joined_path(algo):
    # The joined path's own cost, not the sum of leg costs, which can differ
    # from it in the last bit.
    for seed in range(1, 21):
        g, ids = random_geometric_graph(300, 0.1, seed)
        spec = random_scenario(g, ids, 4, seed)
        res = leg_sequence(g, [spec.source, *spec.objectives, spec.target], algo=algo)
        assert res.cost == node_path_cost(g, res.node_path) == res.trace[-1][1], seed


def test_single_leg_returns_the_leg_result_with_its_trace():
    g, _ = random_geometric_graph(200, 0.15, seed=8)
    s, t = seeded_pairs(g, 1, seed=8)[0]
    bi = leg_sequence(g, [s, t], algo="biastar")
    assert bi.trace == ((bi.wall_time, bi.cost),)
    assert bi.cost == bidirectional_astar(g, s, t).cost
    ana = leg_sequence(g, [s, t], algo="anastar")
    ref = anastar(g, s, t)
    assert [c for _, c in ana.trace] == [c for _, c in ref.trace]
    assert ana.cost == ana.trace[-1][1] == ref.cost


# ---------------------------------------------------------------------------
# explicit weights below the great-circle length
# ---------------------------------------------------------------------------

def test_weights_below_great_circle_stay_exact():
    # Node 1 lies 111 m from node 0, and the detour through node 2 costs 2 m.
    g = RoutingGraph(
        [GeoPoint(45.0, 7.0), GeoPoint(45.001, 7.0), GeoPoint(45.0, 7.01)],
        [(0, 1, None), (0, 2, 1.0), (2, 1, 1.0)],
    )
    assert dijkstra(g, 0).cost[1] == 2.0
    for res in (bidirectional_astar(g, 0, 1), anastar(g, 0, 1), anastar(g, 1, 0)):
        assert res.cost == 2.0
        assert set(res.node_path) == {0, 1, 2}


def test_underweighted_random_graphs_match_dijkstra():
    rng = random.Random(12)
    base, _ = random_geometric_graph(150, 0.15, seed=12)
    g = RoutingGraph(base.nodes, [(u, v, w * rng.uniform(0.05, 2.0)) for u, v, w in base.edges()])
    for s, t in seeded_pairs(g, 30, seed=12):
        ref = dijkstra(g, s).cost[t]
        assert bidirectional_astar(g, s, t).cost == ref
        assert anastar(g, s, t).cost == ref


def test_array_heuristics_give_the_results_of_scalar_lists(monkeypatch):
    # The package builds every heuristic row with goal_rows, one
    # great_circle_m call for all its goals; the oracle calls haversine once
    # per node and goal. The values are the same bits, so every step of both
    # baselines and of a planner run to the proved optimum, which builds its
    # rows once and hands them to every leg search, is the same.
    rng = random.Random(70)
    base, _ = random_geometric_graph(1000, 0.06, seed=70)
    g = RoutingGraph(base.nodes, [(u, v, w * rng.uniform(0.7, 1.5)) for u, v, w in base.edges()])
    assert g.great_circle_scale() < 1.0
    pairs = seeded_pairs(g, 50, seed=70)
    picks = random.Random(71).sample(largest_component(g), 6)
    dests = DestinationSet.build(picks[0], picks[1], objectives=tuple(picks[2:]))

    def run():
        out = []
        for algo in ("biastar", "anastar"):
            for s, t in pairs:
                res = leg_sequence(g, [s, t], algo=algo)
                out.append((res.node_path, res.cost, res.explored_nodes, [c for _, c in res.trace]))
        result = plan(g, dests, PlannerConfig(rng_seed=3, time_budget=math.inf))
        assert result.stop_reason == "optimal"
        sols = [(s.iteration, s.visit_order.order, s.node_path, s.total_cost) for s in result.solutions]
        out.append((result.iterations, result.distance_matrix, result.lower_bound, sols))
        return out

    def scalar_rows(graph, goals):
        return [full_goal_heuristic(graph, goal) for goal in goals]

    arrays = run()
    monkeypatch.setattr(baselines, "goal_rows", scalar_rows)
    monkeypatch.setattr(planner, "goal_rows", scalar_rows)
    assert arrays == run()

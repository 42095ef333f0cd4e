import random

import pytest

from multiroute import baselines
from multiroute.baselines import (
    NoPathError,
    NoPathYet,
    anastar,
    bidirectional_astar,
    leg_sequence,
)
from multiroute.generate import largest_component, random_geometric_graph
from multiroute.geo import GeoPoint
from multiroute.graph import RoutingGraph, dijkstra
from multiroute.planner import node_path_cost

from oracles import full_goal_heuristics


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
    g, _ = random_geometric_graph(500, 0.09, seed=17)
    pairs = seeded_pairs(g, 100, seed=23)
    for s, t in pairs:
        res = bidirectional_astar(g, s, t)
        sp = dijkstra(g, s)
        assert res.cost == pytest.approx(sp.cost[t], rel=1e-12, abs=1e-9)


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


def test_lazy_heuristics_give_the_results_of_full_lists(monkeypatch):
    # Heuristic values come from the same expression whether computed on first
    # touch or for every node up front, so every search step is the same.
    rng = random.Random(70)
    base, _ = random_geometric_graph(1000, 0.06, seed=70)
    g = RoutingGraph(base.nodes, [(u, v, w * rng.uniform(0.7, 1.5)) for u, v, w in base.edges()])
    assert g.great_circle_scale() < 1.0
    pairs = seeded_pairs(g, 50, seed=70)

    def run():
        out = []
        for algo in ("biastar", "anastar"):
            for s, t in pairs:
                res = leg_sequence(g, [s, t], algo=algo)
                out.append((res.node_path, res.cost, res.explored_nodes, [c for _, c in res.trace]))
        return out

    lazy = run()
    monkeypatch.setattr(baselines, "_goal_heuristics", full_goal_heuristics)
    assert lazy == run()

import hashlib
import math
import random
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiroute.baselines import NoPathYet
from multiroute.geo import GeoPoint
from multiroute.graph import RoutingGraph, dijkstra, path_from_root
from multiroute.generate import bug_trap, largest_component, random_geometric_graph
from multiroute.planner import (
    AnytimeSolution,
    ConnectionTable,
    DestinationSet,
    PlannerConfig,
    SearchTree,
    add_pseudo_destinations,
    choose_parent,
    destinations_connected,
    extend,
    nearest_expandable,
    node_path_cost,
    plan,
    rewire,
    sample,
    stitch_node_path,
    update_connections,
    validate_node_path,
)
from multiroute import baselines, ordering
from multiroute import planner as planner_module
from multiroute.ordering import GaConfig

from oracles import (
    bellman_ford,
    bfs_components,
    bfs_connects,
    nearest_by_haversine,
    random_weighted_graph_edges,
    tree_nodes,
    validate_connections,
    validate_tree,
)

INF = math.inf


def pts(n):
    return [GeoPoint(45.0 + 1e-4 * i, 7.0 + 1e-4 * (i % 7)) for i in range(n)]


def detour_triangle_graph():
    # Three nodes where the best source-to-target tour revisits the source.
    return RoutingGraph(pts(3), [(0, 1, 2.0), (0, 2, 3.0), (1, 2, 10.0)])


def light_cfg(**kw):
    kw.setdefault("time_budget", 30.0)
    kw.setdefault(
        "solver_ga", GaConfig(mutation_count=60, crossover_count=60, generations=2)
    )
    return PlannerConfig(**kw)


# ---------------------------------------------------------------------------
# DestinationSet
# ---------------------------------------------------------------------------

def test_destination_ordering_and_flags():
    d = DestinationSet.build(3, 9, objectives=(5, 7), pseudos=((6, False), (8, True)))
    assert d.node_ids == (3, 5, 7, 6, 8, 9)
    assert d.required == (True, True, True, False, True, True)
    assert d.kinds == ("source", "objective", "objective", "pseudo", "pseudo", "target")
    assert d.source_index == 0 and d.target_index == 5


def test_pseudo_cannot_duplicate_source_or_target():
    with pytest.raises(ValueError):
        DestinationSet.build(0, 1, pseudos=((0, False),))
    d = DestinationSet.build(0, 1, objectives=(2,))
    with pytest.raises(ValueError):
        add_pseudo_destinations(d, [(1, False)])


def test_add_pseudo_keeps_target_last():
    d = DestinationSet.build(0, 1, objectives=(2,))
    d2 = add_pseudo_destinations(d, [(3, False), (4, True)])
    assert d2.node_ids == (0, 2, 3, 4, 1)
    assert d2.required == (True, True, False, True, True)
    d3 = add_pseudo_destinations(d2, [(5, False)])
    assert d3.node_ids == (0, 2, 3, 4, 5, 1)
    assert d3.kinds == ("source", "objective", "pseudo", "pseudo", "pseudo", "target")
    with pytest.raises(ValueError):
        add_pseudo_destinations(d2, [(3, True)])


# ---------------------------------------------------------------------------
# PlannerConfig
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kw",
    [
        {"goal_bias": -0.1},
        {"goal_bias": 1.5},
        {"goal_bias": math.nan},
        {"time_budget": 0.0},
        {"time_budget": -1.0},
        {"time_budget": math.nan},
        {"max_iterations": 0},
        {"max_iterations": -3},
    ],
)
def test_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        PlannerConfig(**kw)


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_goal_bias_one_always_destination():
    g = detour_triangle_graph()
    dests = DestinationSet.build(0, 2)
    cfg = PlannerConfig(goal_bias=1.0)
    rng = random.Random(1)
    draws = {sample(cfg, g, dests, rng) for _ in range(200)}
    assert draws <= {0, 2}
    assert draws == {0, 2}


def test_goal_bias_zero_uniform_chi_square():
    from scipy.stats import chi2

    n = 20
    g = RoutingGraph(pts(n), [(i, i + 1, 1.0) for i in range(n - 1)])
    dests = DestinationSet.build(0, n - 1)
    cfg = PlannerConfig(goal_bias=0.0)
    rng = random.Random(77)
    counts = [0] * n
    draws = 100_000
    for _ in range(draws):
        counts[sample(cfg, g, dests, rng)] += 1
    expected = draws / n
    stat = sum((c - expected) ** 2 / expected for c in counts)
    assert stat < chi2.ppf(0.999, n - 1)


def test_fixed_seed_identical_sample_stream():
    g = detour_triangle_graph()
    dests = DestinationSet.build(0, 2)
    cfg = PlannerConfig(goal_bias=0.3, rng_seed=5)
    s1 = [sample(cfg, g, dests, random.Random(5)) for _ in range(100)]
    s2 = [sample(cfg, g, dests, random.Random(5)) for _ in range(100)]
    assert s1 == s2


@pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 1024, 1025, 2000])
@pytest.mark.parametrize("goal_bias", [0.0, 0.3, 1.0])
def test_sample_draws_the_stream_of_random_random(goal_bias, n):
    # sample takes its nodes straight from getrandbits; the draws, and the
    # generator state after them, must be those of random() followed by
    # randrange() on the count of destinations or graph nodes.
    g = RoutingGraph(pts(n), [(i, i + 1, 1.0) for i in range(n - 1)])
    dests = DestinationSet.build(0, n - 1, objectives=tuple(range(1, min(n, 9) - 1)))
    cfg = PlannerConfig(goal_bias=goal_bias)
    rng, ref = random.Random(n), random.Random(n)
    drawn = [sample(cfg, g, dests, rng) for _ in range(10_000)]
    expected = [
        dests.node_ids[ref.randrange(dests.count)] if ref.random() < goal_bias else ref.randrange(g.node_count)
        for _ in range(10_000)
    ]
    assert drawn == expected
    assert rng.getstate() == ref.getstate()


# ---------------------------------------------------------------------------
# nearest_expandable
# ---------------------------------------------------------------------------

def test_single_frontier_node():
    g = detour_triangle_graph()
    tree = SearchTree(0, g)
    assert nearest_expandable(tree, 2, g) == 0


def test_empty_frontier_returns_none():
    g = RoutingGraph(pts(2), [(0, 1, 1.0)])
    tree = SearchTree(0, g)
    extend(tree, 0, 1, g)
    assert tree.expandable.ids == []
    assert nearest_expandable(tree, 1, g) is None


def test_nearest_matches_exhaustive_scan():
    assert_nearest_matches_exhaustive_scan()


@pytest.mark.parametrize("scan_min", [1, 10**9])
def test_each_scan_path_matches_exhaustive_scan(monkeypatch, scan_min):
    # Every frontier scan on numpy, then every scan in plain Python.
    monkeypatch.setattr(planner_module, "NUMPY_SCAN_MIN", scan_min)
    assert_nearest_matches_exhaustive_scan()


def assert_nearest_matches_exhaustive_scan():
    # Grow trees to saturation. The last graph keeps its edges and weights on
    # rounded coordinates, so many nodes coincide and exact distance ties
    # exercise the smaller-id rule.
    graphs = [random_geometric_graph(70, 0.25, seed=s)[0] for s in (9, 23, 41)]
    fine = random_geometric_graph(90, 0.2, seed=5)[0]
    graphs.append(
        RoutingGraph([GeoPoint(round(p.lat, 2), round(p.lon, 2)) for p in fine.nodes], list(fine.edges()))
    )
    assert len(set(graphs[-1].nodes)) < graphs[-1].node_count // 2
    rng = random.Random(3)
    for g in graphs:
        tree = SearchTree(largest_component(g)[0], g)
        while tree.expandable:
            v_rand = rng.randrange(g.node_count)
            anchor = nearest_expandable(tree, v_rand, g)
            assert anchor == nearest_by_haversine(g, tree.expandable.ids, v_rand)
            candidates = [n for n, _ in g.adj[anchor] if tree.cost[n] == INF]
            added = extend(tree, anchor, v_rand, g)
            assert added[0] == nearest_by_haversine(g, candidates, v_rand)
            for v in added:
                rewire(tree, v, g)
            validate_tree(tree, g)


def test_scalar_and_array_scans_round_alike(monkeypatch):
    # Points a = (dx, dy, dz) and b = (dx, dz, dy) lie at one exact distance
    # from the origin, but summing the squares in different orders rounds
    # them apart in the last bit, and the order decides which one is nearer.
    # The plain-Python scan and the array pass must pick the same node.
    monkeypatch.setattr(planner_module, "NUMPY_SCAN_MIN", 1)
    rng = random.Random(5)
    split = 0
    for _ in range(300):
        dx, dy, dz = (rng.uniform(-1.0, 1.0) for _ in range(3))
        rows = [(0.0, 0.0, 0.0), (dx, dy, dz), (dx, dz, dy)]
        split += dx * dx + dy * dy + dz * dz != dx * dx + dz * dz + dy * dy
        graph = SimpleNamespace(node_count=3, xyz=rows)
        frontier = planner_module.Frontier(graph)
        for v in rng.sample([1, 2], 2):
            frontier.add(v)
        tree = SimpleNamespace(expandable=frontier)
        assert nearest_expandable(tree, 0, graph) == planner_module._nearest([1, 2], 0, rows)
    assert split > 30


# ---------------------------------------------------------------------------
# extend
# ---------------------------------------------------------------------------

def test_forced_corridor_both_added():
    g = RoutingGraph(pts(3), [(0, 1, 1.0), (1, 2, 1.0)])
    tree = SearchTree(0, g)
    added = extend(tree, 0, 2, g)
    assert added == [1, 2]
    validate_tree(tree, g)


def test_branch_node_stops_compression():
    # Anchor 0 connects to hub 1 with three more leaves: only the hub is added.
    edges = [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0)]
    g = RoutingGraph(pts(5), edges)
    tree = SearchTree(0, g)
    added = extend(tree, 0, 4, g)
    assert added == [1]
    assert tree.expandable.ids == [1]


def test_path_graph_single_extend_swallows_everything():
    n = 10
    g = RoutingGraph(pts(n), [(i, i + 1, 1.0) for i in range(n - 1)])
    tree = SearchTree(0, g)
    added = extend(tree, 0, n - 1, g)
    assert added == list(range(1, n))
    validate_tree(tree, g)
    assert tree.cost[n - 1] == n - 1


def test_dead_end_stops_corridor():
    g = RoutingGraph(pts(3), [(0, 1, 1.0), (1, 2, 1.0)])
    tree = SearchTree(0, g)
    added = extend(tree, 0, 0, g)  # v_rand already in tree: walk until dead end
    assert added == [1, 2]


# ---------------------------------------------------------------------------
# choose_parent
# ---------------------------------------------------------------------------

def test_single_in_tree_neighbor():
    g = RoutingGraph(pts(2), [(0, 1, 4.0)])
    tree = SearchTree(0, g)
    assert choose_parent(tree, 1, g) == 0
    assert tree.cost[1] == 4.0


def test_lowest_cost_parent_wins():
    # Node 2 can attach under 0 (cost 5 + 1) or 1 (cost 4 + 3): 6 beats 7.
    edges = [(3, 0, 5.0), (3, 1, 4.0), (0, 2, 1.0), (1, 2, 3.0)]
    g = RoutingGraph(pts(4), edges)
    tree = SearchTree(3, g)
    choose_parent(tree, 0, g)
    choose_parent(tree, 1, g)
    assert choose_parent(tree, 2, g) == 0
    assert tree.cost[2] == 6.0
    validate_tree(tree, g)


def test_no_in_tree_neighbor_is_internal_error():
    g = RoutingGraph(pts(3), [(0, 1, 1.0), (1, 2, 1.0)])
    tree = SearchTree(0, g)
    with pytest.raises(RuntimeError):
        choose_parent(tree, 2, g)


def test_random_trees_costs_match_root_recomputation():
    rng = random.Random(21)
    for trial in range(10):
        n = 40
        edges = random_weighted_graph_edges(rng, n, extra_edges=50)
        g = RoutingGraph(pts(n), edges)
        tree = SearchTree(rng.randrange(n), g)
        while tree.expandable:
            v_rand = rng.randrange(n)
            anchor = nearest_expandable(tree, v_rand, g)
            for v in extend(tree, anchor, v_rand, g):
                rewire(tree, v, g)
        validate_tree(tree, g)
        # Walk each node's parent chain to the root: a rewired ancestor leaves
        # the node's cost at or above the chain's length.
        for node in tree_nodes(tree):
            total = 0.0
            cur = node
            while tree.parent[cur] is not None:
                total += g.edge_weight(tree.parent[cur], cur)
                cur = tree.parent[cur]
            assert total <= tree.cost[node] * (1 + 1e-12)


# ---------------------------------------------------------------------------
# rewire
# ---------------------------------------------------------------------------

def test_rewire_no_improvement():
    g = RoutingGraph(pts(3), [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
    tree = SearchTree(0, g)
    choose_parent(tree, 1, g)
    choose_parent(tree, 2, g)  # parent 1, cost 2
    count, changed = rewire(tree, 2, g)
    assert count == 0 and changed == []


def test_rewire_triangle_shortcut():
    g = RoutingGraph(pts(3), [(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0)])
    tree = SearchTree(0, g)
    choose_parent(tree, 1, g)  # cost 5 via the long edge
    choose_parent(tree, 2, g)  # cost 1
    count, changed = rewire(tree, 2, g)
    assert count == 1
    assert changed == [1]
    assert tree.cost[1] == 2.0
    assert tree.parent[1] == 2
    validate_tree(tree, g)


def test_rewire_reparents_only_neighbors_and_phase_two_corrects_their_subtrees():
    # 0-1 long, 2 hanging under 1; the later 0-3-1 shortcut reparents 1, but
    # 2 keeps its cost. Phase 2 leaves the tree stale: its leg search finds
    # the exact route from 0 to 2.
    edges = [(0, 1, 10.0), (1, 2, 1.0), (0, 3, 1.0), (3, 1, 1.0)]
    g = RoutingGraph(pts(4), edges)
    tree = SearchTree(0, g)
    choose_parent(tree, 1, g)  # cost 10
    choose_parent(tree, 2, g)  # cost 11
    choose_parent(tree, 3, g)  # cost 1
    assert rewire(tree, 3, g) == (1, [1])
    assert (tree.parent[1], tree.cost[1]) == (3, 2.0)
    assert (tree.parent[2], tree.cost[2]) == (1, 11.0)
    assert tree.cost[2] >= tree.cost[1] + g.edge_weight(1, 2)
    validate_tree(tree, g)
    result = plan(g, DestinationSet.build(0, 2), light_cfg(rng_seed=1, time_budget=math.inf))
    assert result.stop_reason == "optimal"
    assert (result.final.node_path, result.final.total_cost) == ((0, 3, 1, 2), 3.0)


def test_rewire_tests_each_neighbor_against_its_current_cost():
    # Neighbors 1 and 2 of node 3 both get cheaper through it (2 < 10 and
    # 6 < 11): 2 still costs 11 when it is tested, since 1's decrease does
    # not reach it. Phase 2's leg search then routes 0 to 2 through 1, at 3.0.
    edges = [(0, 1, 10.0), (1, 2, 1.0), (0, 3, 1.0), (3, 1, 1.0), (3, 2, 5.0)]
    g = RoutingGraph(pts(4), edges)
    tree = SearchTree(0, g)
    choose_parent(tree, 1, g)  # cost 10
    choose_parent(tree, 2, g)  # cost 11 under 1
    choose_parent(tree, 3, g)  # cost 1
    assert rewire(tree, 3, g) == (2, [1, 2])
    assert (tree.parent[2], tree.cost[2]) == (3, 6.0)
    validate_tree(tree, g)
    result = plan(g, DestinationSet.build(0, 2), light_cfg(rng_seed=1, time_budget=math.inf))
    assert result.stop_reason == "optimal"
    assert (result.final.node_path, result.final.total_cost) == ((0, 3, 1, 2), 3.0)


def test_saturated_tree_costs_dominated_by_dijkstra():
    rng = random.Random(8)
    g, _ = random_geometric_graph(200, 0.12, seed=4)
    comp = largest_component(g)
    root = comp[0]
    tree = SearchTree(root, g)
    iterations = 0
    while tree.expandable and iterations < 10_000:
        iterations += 1
        v_rand = rng.randrange(g.node_count)
        anchor = nearest_expandable(tree, v_rand, g)
        for v in extend(tree, anchor, v_rand, g):
            rewire(tree, v, g)
    validate_tree(tree, g)
    sp = dijkstra(g, root)
    members = tree_nodes(tree)
    assert members == [v for v in comp if math.isfinite(sp.cost[v])]
    for node in members:
        assert tree.cost[node] >= sp.cost[node] - 1e-9


# ---------------------------------------------------------------------------
# update_connections / destinations_connected
# ---------------------------------------------------------------------------

def test_node_in_single_tree_changes_nothing():
    g = detour_triangle_graph()
    trees = [SearchTree(0, g), SearchTree(2, g)]
    conn = ConnectionTable(2)
    assert update_connections(conn, trees, [0], 0) == []
    assert conn.matrix[0][1] == INF


def test_first_shared_node_makes_entry_finite():
    g = detour_triangle_graph()
    trees = [SearchTree(0, g), SearchTree(2, g)]
    conn = ConnectionTable(2)
    extend(trees[0], 0, 2, g)  # tree 0 reaches node 2
    improved = update_connections(conn, trees, [2], 0)
    assert improved == [(0, 1)]
    assert conn.matrix[0][1] == trees[0].cost[2]
    validate_connections(conn, trees)


def test_validator_catches_missed_connection_node():
    # Grow two trees in turn until a batch first makes them share nodes, then
    # skip update_connections for the cheapest shared node of that batch.
    rng = random.Random(3)
    g, _ = random_geometric_graph(80, 0.2, seed=2)
    comp = largest_component(g)
    trees = [SearchTree(comp[0], g), SearchTree(comp[-1], g)]
    conn = ConnectionTable(2)
    for it in range(4000):
        owner = it % 2
        tree, other = trees[owner], trees[1 - owner]
        v_rand = rng.randrange(g.node_count)
        added = extend(tree, nearest_expandable(tree, v_rand, g), v_rand, g)
        changed = set(added)
        for v in added:
            changed.update(rewire(tree, v, g)[1])
        shared = [v for v in sorted(changed) if other.cost[v] < INF]
        if shared:
            break
        update_connections(conn, trees, sorted(changed), owner)
        validate_connections(conn, trees)
    else:
        pytest.fail("trees never met")
    skipped = min(shared, key=lambda v: tree.cost[v] + other.cost[v])
    update_connections(conn, trees, sorted(changed - {skipped}), owner)
    assert conn.matrix[0][1] > tree.cost[skipped] + other.cost[skipped]
    with pytest.raises(AssertionError, match="stale entry"):
        validate_connections(conn, trees)


def test_matrix_entries_never_increase_and_dominate_dijkstra():
    rng = random.Random(10)
    g, _ = random_geometric_graph(80, 0.2, seed=2)
    comp = largest_component(g)
    a, b = comp[0], comp[-1]
    trees = [SearchTree(a, g), SearchTree(b, g)]
    conn = ConnectionTable(2)
    true_dist = dijkstra(g, a).cost[b]
    history = []
    for it in range(4000):
        tree = trees[it % 2]
        if not tree.expandable:
            if not trees[0].expandable and not trees[1].expandable:
                break
            continue
        v_rand = rng.randrange(g.node_count)
        anchor = nearest_expandable(tree, v_rand, g)
        added = extend(tree, anchor, v_rand, g)
        changed = set(added)
        for v in added:
            _, ch = rewire(tree, v, g)
            changed.update(ch)
        update_connections(conn, trees, sorted(changed), it % 2)
        history.append(conn.matrix[0][1])
    validate_connections(conn, trees)
    assert all(x >= y - 1e-12 for x, y in zip(history, history[1:]))
    assert all(x >= true_dist - 1e-9 for x in history if math.isfinite(x))
    assert conn.matrix[0][1] == pytest.approx(true_dist, rel=0.05)


def test_connected_trivial_cases():
    assert destinations_connected([[0.0, 5.0], [5.0, 0.0]], [True, True]) is True
    assert destinations_connected([[0.0, INF], [INF, 0.0]], [True, True]) is False
    # An isolated optional destination does not break required connectivity.
    m = [[0.0, 5.0, INF], [5.0, 0.0, INF], [INF, INF, 0.0]]
    assert destinations_connected(m, required=[True, True, False]) is True
    assert destinations_connected(m, [True] * 3) is False


def hub_and_isolated_cases():
    """Required destinations linked only through optional ``j``, then optional
    ``j`` isolated beside a chain of the required ones, as (n, pairs, required)."""
    for n in range(3, 10):
        for j in range(n):
            others = [i != j for i in range(n)]
            yield n, [(min(i, j), max(i, j)) for i in range(n) if i != j], others
            chain = [(a, a + 1) for a in range(n - 1) if j not in (a, a + 1)]
            if 0 < j < n - 1:
                chain.append((j - 1, j + 1))
            yield n, chain, others


def test_connected_matches_bfs_on_random_threshold_matrices():
    rng = random.Random(12)
    masks = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 9)
        m = [[INF] * n for _ in range(n)]
        pairs = []
        for i in range(n):
            m[i][i] = 0.0
            for k in range(i + 1, n):
                if rng.random() < 0.3:
                    m[i][k] = m[k][i] = rng.uniform(1, 5)
                    pairs.append((i, k))
        assert destinations_connected(m, [True] * n) is (bfs_components(n, pairs) == 1)
        for _ in range(5):
            required = [masks.random() < 0.5 for _ in range(n)]
            required[masks.randrange(n)] = True
            assert destinations_connected(m, required) is bfs_connects(n, pairs, required)
    for n, pairs, required in hub_and_isolated_cases():
        m = [[0.0 if i == k else INF for k in range(n)] for i in range(n)]
        for i, k in pairs:
            m[i][k] = m[k][i] = 1.0 + i + k
        assert bfs_connects(n, pairs, required)
        assert destinations_connected(m, required) is True
        assert destinations_connected(m, [True] * n) is (bfs_components(n, pairs) == 1)


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def test_single_edge_scenario_first_solution_is_edge_path():
    g = RoutingGraph(pts(2), [(0, 1, 7.0)])
    dests = DestinationSet.build(0, 1)
    result = plan(g, dests, light_cfg(rng_seed=1))
    assert result.status == "solved"
    first = result.solutions[0]
    assert first.node_path == (0, 1)
    assert first.total_cost == 7.0


def test_detour_triangle_plan_cost_seven_with_source_revisit():
    g = detour_triangle_graph()
    dests = DestinationSet.build(0, 2, objectives=(1,))
    result = plan(g, dests, light_cfg(rng_seed=3))
    final = result.final
    assert final is not None
    assert final.total_cost == 7.0
    assert final.node_path == (0, 1, 0, 2)
    assert validate_node_path(g, dests, final.node_path) == 7.0


def test_emissions_strictly_decrease_and_paths_valid():
    g, _ = random_geometric_graph(150, 0.13, seed=31)
    comp = largest_component(g)
    rng = random.Random(0)
    picks = rng.sample(comp, 6)
    dests = DestinationSet.build(picks[0], picks[1], objectives=tuple(picks[2:]))
    seen = []

    def check(sol: AnytimeSolution) -> None:
        seen.append(sol.total_cost)
        validate_node_path(g, dests, sol.node_path)

    result = plan(g, dests, light_cfg(rng_seed=11), on_solution=check)
    assert result.status == "solved"
    assert seen == [s.total_cost for s in result.solutions]
    assert all(a > b for a, b in zip(seen, seen[1:]))
    # The reported cost equals the stitched path cost exactly.
    for sol in result.solutions:
        assert sol.total_cost == node_path_cost(g, sol.node_path)


def test_plan_reruns_are_trace_identical():
    g, _ = random_geometric_graph(100, 0.15, seed=8)
    comp = largest_component(g)
    rng = random.Random(2)
    picks = rng.sample(comp, 5)
    dests = DestinationSet.build(picks[0], picks[1], objectives=tuple(picks[2:]))

    def run():
        res = plan(g, dests, light_cfg(rng_seed=43))
        return (
            [(s.iteration, s.total_cost, s.explored_nodes, s.visit_order.order, s.node_path) for s in res.solutions],
            res.iterations,
            res.explored_nodes,
            res.distance_matrix,
            res.solver_calls,
        )

    first = run()
    assert first == run()
    assert first[-1] > 0


def test_exact_runs_stopped_inside_a_round_order_their_final_closure():
    # A capped exact run solves once more at its stop when a leg search of
    # the round it stopped in lowered an entry, so its last route is the best
    # order of the final matrix. Caps every 37 iterations after the first
    # route.
    solved_at_stop = 0
    for seed in range(4):
        g = random_geometric_graph(400, 0.1, seed=seed)[0]
        picks = random.Random(seed).sample(largest_component(g), 6)
        dests = DestinationSet.build(picks[0], picks[1], objectives=tuple(picks[2:]))
        full = plan(g, dests, light_cfg(rng_seed=seed, time_budget=math.inf))
        assert full.stop_reason == "optimal"
        for cap in range(full.solutions[0].iteration + 37, full.iterations, 37):
            result = plan(g, dests, light_cfg(rng_seed=seed, time_budget=math.inf, max_iterations=cap))
            assert (result.status, result.stop_reason) == ("solved", "max_iterations")
            dg = ordering.DestGraph(result.distance_matrix, dests.source_index, dests.target_index, dests.required)
            assert result.final.total_cost <= ordering.solve(dg).total_cost * (1 + 1e-9), cap
            solved_at_stop += result.final.iteration == cap
    assert solved_at_stop > 0


@pytest.mark.parametrize("exact_max", [ordering.EXACT_MAX, -1], ids=["exact", "ga"])
def test_each_solve_builds_one_destination_graph_and_closure(monkeypatch, exact_max):
    # Every solve, the GA run's final one too, builds one DestGraph of the
    # matrix and runs one Floyd-Warshall on it; nothing else builds either.
    monkeypatch.setattr(ordering, "EXACT_MAX", exact_max)
    g, _ = random_geometric_graph(150, 0.15, seed=31)
    picks = random.Random(31).sample(largest_component(g), 6)
    dests = DestinationSet.build(picks[0], picks[1], objectives=tuple(picks[2:]))
    events = []  # "graph" per DestGraph built, "closure" per Floyd-Warshall, "solve" per stitch
    real_closure, real_stitch = ordering._metric_closure, stitch_node_path

    class CountedDestGraph(ordering.DestGraph):
        __slots__ = ()

        def __init__(self, *args):
            events.append("graph")
            super().__init__(*args)

    def counted_closure(dg):
        events.append("closure")
        return real_closure(dg)

    def stitching(*args):
        events.append("solve")
        return real_stitch(*args)

    monkeypatch.setattr(planner_module, "DestGraph", CountedDestGraph)
    monkeypatch.setattr(ordering, "_metric_closure", counted_closure)
    monkeypatch.setattr(planner_module, "stitch_node_path", stitching)
    result = plan(g, dests, light_cfg(rng_seed=3))
    assert (result.status, result.stop_reason) == ("solved", "optimal" if exact_max >= 0 else "fixpoint")
    solves = result.solver_calls + (exact_max < 0)
    assert result.solver_calls >= 2 and len(result.solutions) >= 2
    assert events == ["graph", "closure", "solve"] * solves


@pytest.mark.parametrize("exact_max", [ordering.EXACT_MAX, -1], ids=["exact", "ga"])
def test_every_solve_orders_the_closure_of_the_current_matrix(monkeypatch, exact_max):
    # Every solve goes through ordering.solve with a DestGraph of the matrix
    # at that moment: with no GaConfig in exact runs, so Held-Karp orders it,
    # and with one in GA runs, whose final solve is one call more.
    monkeypatch.setattr(ordering, "EXACT_MAX", exact_max)
    table = []  # the run's ConnectionTable
    exact = []  # one entry per solve: whether it had no GaConfig
    real_update, real_solve = planner_module.update_connections, ordering.solve

    def update(conn, *args):
        table[:] = [conn]
        return real_update(conn, *args)

    def solve(dg, cfg=None):
        assert np.array_equal(dg.theta, table[0].matrix)
        exact.append(cfg is None)
        return real_solve(dg, cfg)

    monkeypatch.setattr(planner_module, "update_connections", update)
    monkeypatch.setattr(ordering, "solve", solve)
    for seed in range(4):
        g = random_geometric_graph(80, 0.2, seed=seed)[0]
        picks = random.Random(seed).sample(largest_component(g), 6)
        dests = DestinationSet.build(picks[0], picks[1], objectives=tuple(picks[2:]))
        exact.clear()
        result = plan(g, dests, light_cfg(rng_seed=seed, time_budget=math.inf))
        assert result.status == "solved"
        assert result.solver_calls >= 2
        assert exact == [exact_max >= 0] * (result.solver_calls + (exact_max < 0))


def test_final_matrix_dominates_dijkstra_distances():
    g, _ = random_geometric_graph(120, 0.15, seed=77)
    comp = largest_component(g)
    rng = random.Random(4)
    picks = rng.sample(comp, 5)
    dests = DestinationSet.build(picks[0], picks[1], objectives=tuple(picks[2:]))
    result = plan(g, dests, light_cfg(rng_seed=9))
    assert result.status == "solved"
    for i, ni in enumerate(dests.node_ids):
        sp = dijkstra(g, ni)
        for k, nk in enumerate(dests.node_ids):
            if math.isfinite(result.distance_matrix[i][k]):
                assert result.distance_matrix[i][k] >= sp.cost[nk] - 1e-9


def test_saturated_disconnected_reports_no_path():
    # Two separate components: the source's tree saturates its own without
    # meeting the target's, which proves no path.
    g = RoutingGraph(pts(4), [(0, 1, 1.0), (2, 3, 1.0)])
    dests = DestinationSet.build(0, 2)
    result = plan(g, dests, light_cfg(rng_seed=0, time_budget=0.2))
    assert result.status == "no_path"
    assert result.final is None
    assert result.explored_nodes >= 2


def test_first_saturated_required_tree_proves_no_path():
    # A 30 x 30 grid plus one isolated node. The isolated node's tree is
    # saturated from the start, so its first turn ends the run, long before
    # the grid node's tree could saturate 900 nodes.
    side = 30
    edges = [(r * side + c, r * side + c + 1, 1.0) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c, 1.0) for r in range(side - 1) for c in range(side)]
    island = side * side
    g = RoutingGraph(pts(island + 1), edges)
    cfg = light_cfg(rng_seed=1, max_iterations=10)
    for dests, iterations in ((DestinationSet.build(0, island), 1), (DestinationSet.build(island, 0), 0)):
        result = plan(g, dests, cfg)
        assert (result.status, result.stop_reason, result.iterations) == ("no_path", "fixpoint", iterations)
        assert result.final is None


def test_budget_exhaustion_reports_no_path_yet():
    # Connected, but two iterations cannot join trees rooted far apart.
    g, _ = random_geometric_graph(120, 0.15, seed=1)
    source = largest_component(g)[0]
    cost = dijkstra(g, source).cost
    target = max((c, v) for v, c in enumerate(cost) if math.isfinite(c))[1]
    result = plan(g, DestinationSet.build(source, target), light_cfg(rng_seed=2, max_iterations=2))
    assert result.status == "no_path_yet"
    assert result.final is None
    assert result.iterations == 2
    assert result.distance_matrix[0][1] == INF


def test_stop_reason_names_what_ended_the_loop(monkeypatch):
    g, _ = random_geometric_graph(120, 0.15, seed=1)
    comp = largest_component(g)
    dests = DestinationSet.build(comp[0], comp[-1], objectives=(comp[5],))
    proved = plan(g, dests, light_cfg(rng_seed=2, time_budget=math.inf))
    assert (proved.status, proved.stop_reason) == ("solved", "optimal")
    # Above ordering.EXACT_MAX the genetic solver orders the matrix, after
    # phase 1 has emitted the same first route and phase 2 has searched every
    # required pair, the exact run's legs among them.
    with monkeypatch.context() as m:
        m.setattr(ordering, "EXACT_MAX", 0)
        ga = plan(g, dests, light_cfg(rng_seed=2, time_budget=math.inf))
    assert replace(ga.solutions[0], wall_time=0.0) == replace(proved.solutions[0], wall_time=0.0)
    assert ga.iterations >= proved.iterations
    assert ga.stop_reason == "fixpoint"
    capped = plan(g, dests, light_cfg(rng_seed=2, time_budget=math.inf, max_iterations=5))
    assert (capped.iterations, capped.stop_reason) == (5, "max_iterations")
    first = plan(g, dests, light_cfg(rng_seed=2, time_budget=math.inf, stop_after_first=True))
    assert (len(first.solutions), first.stop_reason) == (1, "first_solution")
    # A clock that moves a second per reading: the budget ends before the
    # first iteration.
    ticks = iter(range(10**6))
    monkeypatch.setattr(planner_module, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
    timed = plan(g, dests, light_cfg(rng_seed=2, time_budget=0.5))
    assert (timed.status, timed.iterations, timed.stop_reason) == ("no_path_yet", 0, "time_budget")
    # A required tree saturated without meeting the other: a fixpoint too.
    apart = plan(RoutingGraph(pts(4), [(0, 1, 1.0), (2, 3, 1.0)]), DestinationSet.build(0, 2), light_cfg())
    assert (apart.status, apart.stop_reason) == ("no_path", "fixpoint")


def test_pseudo_on_bridge_speeds_first_solution():
    fixture = bug_trap(8, 15, 1)
    g = fixture.graph
    s, t = fixture.scenario.source, fixture.scenario.target
    pseudo = fixture.informed_scenario.pseudos[0][0]
    base = DestinationSet.build(s, t)
    informed = add_pseudo_destinations(base, [(pseudo, False)])
    cfg = light_cfg(rng_seed=123, stop_after_first=True)
    plain_run = plan(g, base, cfg)
    informed_run = plan(g, informed, cfg)
    assert plain_run.status == informed_run.status == "solved"
    print(
        f"bug-trap iterations plain={plain_run.solutions[0].iteration} "
        f"informed={informed_run.solutions[0].iteration}"
    )
    assert informed_run.solutions[0].iteration < plain_run.solutions[0].iteration


def test_unreachable_pseudo_is_ignored():
    g = RoutingGraph(pts(4), [(0, 1, 2.0), (0, 2, 3.0), (1, 2, 10.0)])  # node 3 isolated
    base = DestinationSet.build(0, 2, objectives=(1,))
    informed = add_pseudo_destinations(base, [(3, False)])
    result = plan(g, informed, light_cfg(rng_seed=5))
    assert result.status == "solved"
    assert result.final.total_cost == 7.0
    assert 3 not in result.final.node_path


def connectivity_cases():
    """Seeded destination sets on a graph whose largest component leaves a
    17-node island: three plain sets, two with an optional pseudo
    destination (one inside the component, one on the island), and one with
    a required objective on the island, which has no route."""
    g = random_geometric_graph(300, 0.08, seed=1)[0]
    comp = largest_component(g)
    inside = set(comp)
    island = max(
        ({u for u, c in enumerate(dijkstra(g, v).cost) if c < INF} for v in range(g.node_count) if v not in inside),
        key=len,
    )
    assert len(island) == 17
    for seed in (1, 2, 3):
        picks = random.Random(seed).sample(comp, 7)
        base = DestinationSet.build(picks[0], picks[1], objectives=tuple(picks[2:6]))
        yield g, base, seed
        if seed == 1:
            yield g, add_pseudo_destinations(base, [(picks[6], False)]), seed
            yield g, add_pseudo_destinations(base, [(min(island), False)]), seed
            yield g, DestinationSet.build(picks[0], picks[1], objectives=(*picks[2:5], min(island))), seed


def test_first_route_comes_in_the_first_connected_iteration(monkeypatch):
    # Phase 1 checks the connectivity only when some matrix entry first turns
    # finite, the only time it can change. Each phase-1 iteration calls
    # update_connections once, so the n-th call is iteration n.
    real_update = planner_module.update_connections
    real_connected = planner_module.destinations_connected
    statuses = []
    for g, dests, seed in connectivity_cases():
        connected_after: list[bool] = []  # per update_connections call
        finite_at: list[int] = []  # finite matrix entries at each connectivity check

        def update(conn, trees, changed, owner):
            improved = real_update(conn, trees, changed, owner)
            connected_after.append(real_connected(conn.matrix, dests.required))
            return improved

        def connected(matrix, required=None):
            finite_at.append(sum(x < INF for row in matrix for x in row))
            return real_connected(matrix, required)

        monkeypatch.setattr(planner_module, "update_connections", update)
        monkeypatch.setattr(planner_module, "destinations_connected", connected)
        result = plan(g, dests, light_cfg(rng_seed=seed, time_budget=math.inf))
        statuses.append(result.status)
        if result.status == "no_path":
            assert result.solutions == []
            assert not any(connected_after)
        else:
            assert result.solutions[0].iteration == connected_after.index(True) + 1
        assert finite_at and finite_at[0] > dests.count
        assert all(a < b for a, b in zip(finite_at, finite_at[1:]))
    assert statuses == ["solved"] * 3 + ["no_path"] + ["solved"] * 2


def test_invariants_hold_after_every_operation():
    # Mirror the plan loop by hand and validate trees + connection cache
    # after each extend/rewire/update batch.
    g, _ = random_geometric_graph(60, 0.22, seed=14)
    comp = largest_component(g)
    rng = random.Random(6)
    picks = rng.sample(comp, 3)
    trees = [SearchTree(n, g) for n in picks]
    conn = ConnectionTable(3)
    for it in range(150):
        tree = trees[it % 3]
        if not tree.expandable:
            continue
        v_rand = rng.randrange(g.node_count)
        anchor = nearest_expandable(tree, v_rand, g)
        added = extend(tree, anchor, v_rand, g)
        changed = set(added)
        for v in added:
            _, ch = rewire(tree, v, g)
            changed.update(ch)
        update_connections(conn, trees, sorted(changed), it % 3)
        validate_tree(tree, g)
        validate_connections(conn, trees)


@st.composite
def small_planner_cases(draw):
    """A random small graph, maybe disconnected, with 2-4 destinations.

    Tie-heavy cases put the nodes on a 3 x 3 lattice of points and give the
    edges weights 1 or 2, so distances and costs tie exactly.
    """
    n = draw(st.integers(2, 24))
    ties = draw(st.booleans())
    grid = 2 if ties else 1000
    weights = st.sampled_from([1.0, 2.0]) if ties else st.floats(0.5, 10.0)
    cells = draw(st.lists(st.tuples(st.integers(0, grid), st.integers(0, grid)), min_size=n, max_size=n))
    nodes = [GeoPoint(45.0 + 1e-5 * a, 7.0 + 1e-5 * b) for a, b in cells]
    triples = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weights), max_size=3 * n))
    edges = [(u, v, w) for u, v, w in triples if u != v]
    k = draw(st.integers(2, min(n, 4)))
    picks = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    return RoutingGraph(nodes, edges), picks, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(small_planner_cases())
def test_validators_hold_after_every_iteration(case):
    # Mirror the plan loop, round-robin over the trees with a frontier, and
    # rebuild every tree and matrix entry from scratch after each iteration,
    # until all trees saturate. Half the cases scan every frontier on numpy.
    g, picks, seed, numpy_scan = case
    dests = DestinationSet.build(picks[0], picks[1], objectives=tuple(picks[2:]))
    cfg = PlannerConfig(rng_seed=seed)
    rng = random.Random(seed)
    trees = [SearchTree(v, g) for v in dests.node_ids]
    conn = ConnectionTable(dests.count)
    for tree in trees:
        validate_tree(tree, g)
    with mock.patch.object(planner_module, "NUMPY_SCAN_MIN", 1 if numpy_scan else planner_module.NUMPY_SCAN_MIN):
        while any(t.expandable for t in trees):
            for idx, tree in enumerate(trees):
                if not tree.expandable:
                    continue
                v_rand = sample(cfg, g, dests, rng)
                anchor = nearest_expandable(tree, v_rand, g)
                assert anchor == nearest_by_haversine(g, tree.expandable.ids, v_rand)
                added = extend(tree, anchor, v_rand, g)
                assert added
                changed = set(added)
                for v in added:
                    changed.update(rewire(tree, v, g)[1])
                update_connections(conn, trees, sorted(changed), idx)
                validate_tree(tree, g)
                validate_connections(conn, trees)
    for tree in trees:
        sp = dijkstra(g, tree.root_node)
        assert tree_nodes(tree) == [v for v in range(g.node_count) if math.isfinite(sp.cost[v])]


# ---------------------------------------------------------------------------
# Phase 2: exact leg searches to a proved optimum
# ---------------------------------------------------------------------------

def assert_proved_optimal(g, dests, result):
    """Checks a run that ends "optimal" against Dijkstra and the oracle.

    Every matrix entry is at least its Dijkstra distance, every hop of the
    final order is exact, and the final route costs the oracle optimum.
    Entries off the final order may stay above their distance: phase 2 of an
    exact run searches only the legs of its lower-bound orders.
    """
    assert result.stop_reason == "optimal"
    theta = np.array([[dijkstra(g, a).cost[b] for b in dests.node_ids] for a in dests.node_ids])
    matrix = result.distance_matrix
    for i in range(dests.count):
        for k in range(dests.count):
            assert matrix[i][k] >= theta[i][k] * (1 - 1e-9), (i, k)
    order = result.final.visit_order.order
    for a, b in zip(order, order[1:]):
        assert math.isclose(matrix[a][b], theta[a][b], rel_tol=1e-9), (a, b)
    dg = ordering.DestGraph(np.minimum(theta, theta.T), 0, dests.count - 1, dests.required)
    opt, _ = ordering.brute_force_oracle(dg)
    assert math.isclose(result.final.total_cost, opt, rel_tol=1e-9)


def run_checking_leg_searches(g, dests, cfg):
    """``plan`` with its leg search, ``bound_order`` and ``stitch_node_path`` wrapped.

    Returns the result and the searched pairs, and reads the matrix from the
    ``ConnectionTable`` that phase 1's ``update_connections`` gets.

    Asserts that every search is of a pair (i, k), i < k, of required
    destinations not searched before: in an exact run a leg of the latest
    lower-bound order, in a GA run the next pair in row order. At every
    lower-bound order and at the end, every searched pair's matrix entry
    equals ``graph.dijkstra``'s distance bit for bit, unless the pair's tree
    witness summed to a float below it, which then stays the entry; and the
    bound matrix holds the entry for a searched pair and at most the
    Dijkstra distance for any other. Every solve stitches its order once, so
    stitch calls mark the solves: each phase-2 solve but a GA run's final one
    orders a matrix that some search lowered since the previous solve, and
    no fall is left unordered when a lower-bound order is solved or the run
    ends "optimal" or "fixpoint". A GA run that ends "fixpoint" has searched
    every required pair, and a run that ends "optimal" must pass
    ``assert_proved_optimal``.
    """
    index = {v: i for i, v in enumerate(dests.node_ids)}
    exact = sum(dests.required) - 2 <= ordering.EXACT_MAX
    keep = [i for i in range(dests.count) if dests.required[i]]
    rows = [(a, b) for p, a in enumerate(keep) for b in keep[p + 1 :]]
    dist = [[dijkstra(g, a).cost[b] for b in dests.node_ids] for a in dests.node_ids]
    searched: list[tuple[int, int]] = []
    orders: list[list[int]] = []
    solved: list[list[list[float]]] = []  # the matrix at each solve
    table: list[ConnectionTable] = []
    real_search = planner_module.bidirectional_astar
    real_bound, real_update = planner_module.bound_order, planner_module.update_connections
    real_stitch = planner_module.stitch_node_path

    def check_searched(matrix):
        for i, k in searched:
            assert matrix[i][k] == matrix[k][i], (i, k)
            if (i, k) in table[0].legs:
                assert matrix[i][k] == dist[i][k], (i, k)
            else:
                assert matrix[i][k] < dist[i][k] and math.isclose(matrix[i][k], dist[i][k], rel_tol=1e-12), (i, k)

    def bound(matrix, keep_, source, target):
        check_searched(table[0].matrix)
        assert table[0].matrix == solved[-1]
        for p, i in enumerate(keep_):
            for q, k in enumerate(keep_):
                if p != q and (min(i, k), max(i, k)) in searched:
                    assert matrix[p, q] == table[0].matrix[i][k], (i, k)
                elif p != q:
                    assert matrix[p, q] <= dist[i][k], (i, k)
        out = real_bound(matrix, keep_, source, target)
        orders.append(out[0])
        return out

    def search(graph, s, t, *budget):
        pair = (index[s], index[t])
        assert pair not in searched and dests.required[pair[0]] and dests.required[pair[1]], pair
        if exact:
            legs = {(min(a, b), max(a, b)) for a, b in zip(orders[-1], orders[-1][1:])}
            assert pair in legs, (pair, orders[-1])
        else:
            assert pair == rows[len(searched)], pair
        out = real_search(graph, s, t, *budget)
        searched.append(pair)
        return out

    def update(conn, *args):
        table[:] = [conn]
        return real_update(conn, *args)

    def stitch(seq, trees, conn, graph):
        solved.append([row[:] for row in conn.matrix])
        return real_stitch(seq, trees, conn, graph)

    wrapped = dict(bidirectional_astar=search, bound_order=bound, update_connections=update, stitch_node_path=stitch)
    with mock.patch.multiple(planner_module, **wrapped):
        result = plan(g, dests, cfg)
    check_searched(result.distance_matrix)
    in_loop = solved[: result.solver_calls]
    assert len(solved) == result.solver_calls + (bool(result.solutions) and not exact)
    assert all(a != b for a, b in zip(in_loop, in_loop[1:]))
    if result.stop_reason in ("optimal", "fixpoint") and result.solutions:
        assert result.distance_matrix == in_loop[-1]
    if result.stop_reason == "fixpoint" and result.solutions:
        assert searched == rows
    if result.stop_reason == "optimal":
        assert_proved_optimal(g, dests, result)
    return result, searched


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(small_planner_cases())
def test_runs_that_end_optimal_hold_the_exact_matrix_and_the_optimum(case):
    # The fourth destination, when drawn, is an optional pseudo destination,
    # which may lie in another component. Every search is of an unsearched
    # leg of the current lower-bound order (run_checking_leg_searches), and
    # every searched pair's entry is exact.
    g, picks, seed, _ = case
    dests = DestinationSet.build(
        picks[0], picks[1], objectives=tuple(picks[2:3]), pseudos=[(p, False) for p in picks[3:]]
    )
    result, searched = run_checking_leg_searches(g, dests, PlannerConfig(rng_seed=seed, time_budget=math.inf))
    edges = list(g.edges())
    if result.status != "solved":
        assert (result.status, result.stop_reason) == ("no_path", "fixpoint")
        # The first required tree to saturate ends the run: each tree's turn
        # adds a node, so the one in the smallest required component
        # saturates within c of its turns.
        c = min(
            sum(map(math.isfinite, bellman_ford(g.node_count, edges, a)))
            for a, req in zip(dests.node_ids, dests.required)
            if req
        )
        assert result.iterations <= dests.count * c
        return
    assert result.stop_reason == "optimal" and searched
    for i, k in searched:
        exact = bellman_ford(g.node_count, edges, dests.node_ids[i])
        assert math.isclose(result.distance_matrix[i][k], exact[dests.node_ids[k]], rel_tol=1e-9), (i, k)
    theta = np.array([[dijkstra(g, a).cost[b] for b in dests.node_ids] for a in dests.node_ids])
    dg = ordering.DestGraph(np.minimum(theta, theta.T), 0, dests.count - 1, dests.required)
    opt, _ = ordering.brute_force_oracle(dg)
    assert math.isclose(result.final.total_cost, opt, rel_tol=1e-9)


@st.composite
def connected_cases_with_a_pseudo(draw):
    """A random connected graph of 5-24 nodes: a random spanning tree plus
    extra edges, with weights 1 or 2 (many ties) or drawn from [0.5, 10].
    Destinations: source, target, 0-2 objectives and one optional pseudo."""
    n = draw(st.integers(5, 24))
    weights = st.sampled_from([1.0, 2.0]) if draw(st.booleans()) else st.floats(0.5, 10.0)
    edges = [(v, draw(st.integers(0, v - 1)), draw(weights)) for v in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weights), max_size=2 * n))
    edges += [(u, v, w) for u, v, w in extra if u != v]
    k = draw(st.integers(3, 5))
    picks = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    dests = DestinationSet.build(picks[0], picks[1], objectives=tuple(picks[2:-1]), pseudos=[(picks[-1], False)])
    return RoutingGraph(pts(n), edges), dests, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(connected_cases_with_a_pseudo())
def test_lower_bound_lies_below_the_optimum_and_meets_it_at_optimal(case):
    # The bound never exceeds the optimum, which no emitted route undercuts,
    # and a run that ends "optimal" closes the gap. Every draw ends there, so
    # run_checking_leg_searches checks each search and the proved optimum.
    g, dests, seed = case
    result, _ = run_checking_leg_searches(g, dests, PlannerConfig(rng_seed=seed, time_budget=math.inf))
    assert (result.status, result.stop_reason) == ("solved", "optimal")
    theta = np.array([[dijkstra(g, a).cost[b] for b in dests.node_ids] for a in dests.node_ids])
    opt, _ = ordering.brute_force_oracle(
        ordering.DestGraph(np.minimum(theta, theta.T), 0, dests.count - 1, dests.required)
    )
    assert result.lower_bound <= opt * (1 + 1e-9)
    assert all(opt <= s.total_cost * (1 + 1e-9) for s in result.solutions)
    assert math.isclose(result.lower_bound, result.final.total_cost, rel_tol=1e-9)


def test_exact_runs_pop_only_trees_with_an_open_required_pair():
    # Phase 2 pops only inside leg searches, whose two trees grow from the
    # ends of a required pair still open (not searched before). The golden
    # cases, then random geometric graphs of 60-150 nodes with two objectives
    # and two optional pseudo destinations. run_checking_leg_searches checks
    # every search of the exact runs, and of the same runs ordered by the
    # genetic solver, which search every required pair; the exact runs
    # search a subset of those pairs, on some runs a smaller one.
    cases = [(g, dests, seed) for g, dests in golden_cases() for seed in (1, 2)]
    for seed in range(8):
        rng = random.Random(seed)
        g = random_geometric_graph(rng.randint(60, 150), 0.2, seed=seed)[0]
        picks = rng.sample(largest_component(g), 6)
        pseudos = [(p, False) for p in picks[4:]]
        cases.append((g, DestinationSet.build(picks[0], picks[1], objectives=tuple(picks[2:4]), pseudos=pseudos), seed))
    fewer = 0
    for g, dests, seed in cases:
        cfg = light_cfg(rng_seed=seed, time_budget=math.inf)
        result, searched = run_checking_leg_searches(g, dests, cfg)
        assert result.stop_reason == "optimal" and searched and result.lower_bound is not None
        with mock.patch.object(ordering, "EXACT_MAX", -1):
            ga, ga_searched = run_checking_leg_searches(g, dests, cfg)
        assert ga.stop_reason == "fixpoint" and ga.lower_bound is None
        assert set(searched) <= set(ga_searched)
        fewer += len(searched) < len(ga_searched)
    assert fewer > 0


def test_phase_two_pops_only_trees_with_an_open_pair():
    # The golden cases, then random geometric graphs of 40-120 nodes with 3-6
    # destinations, every one run to the proved optimum. Each phase-2
    # iteration is a pop of a leg search, and run_checking_leg_searches
    # asserts that each search is of an open pair: a leg of the latest
    # lower-bound order that no earlier search took.
    cases = [(g, dests, seed) for g, dests in golden_cases() for seed in (1, 2)]
    for seed in range(20):
        rng = random.Random(seed)
        g = random_geometric_graph(rng.randint(40, 120), 0.2, seed=seed)[0]
        picks = rng.sample(largest_component(g), rng.randint(3, 6))
        cases.append((g, DestinationSet.build(picks[0], picks[1], objectives=tuple(picks[2:])), seed))
    real_search = planner_module.bidirectional_astar
    pops = []

    def search(*args):
        res = real_search(*args)
        pops.append(res.explored_nodes)
        return res

    with mock.patch.object(planner_module, "bidirectional_astar", search):
        for g, dests, seed in cases:
            pops.clear()
            result, searched = run_checking_leg_searches(g, dests, light_cfg(rng_seed=seed, time_budget=math.inf))
            assert result.stop_reason == "optimal" and len(pops) == len(searched)
            assert sum(pops) == result.iterations - result.solutions[0].iteration


def test_runs_build_their_heuristic_rows_in_one_kernel_call():
    # Phase 2 builds the heuristic rows of every required destination once,
    # in one great_circle_m call, and hands them to each leg search, which
    # makes no call of its own; an exact run's L reads its great-circle
    # entries from the same rows. So a run makes one call however many legs
    # it searches, exact or ordered by the genetic solver. The planner
    # reaches the kernel only through baselines.
    assert not hasattr(planner_module, "great_circle_m")
    cases = list(golden_cases())
    real_gc, real_search = baselines.great_circle_m, planner_module.bidirectional_astar
    calls = searches = 0

    def gc(*args):
        nonlocal calls
        calls += 1
        return real_gc(*args)

    def search(*args):
        nonlocal searches
        searches += 1
        return real_search(*args)

    seen = []
    with mock.patch.object(baselines, "great_circle_m", gc), mock.patch.object(planner_module, "bidirectional_astar", search):
        for exact_max in (ordering.EXACT_MAX, -1):
            with mock.patch.object(ordering, "EXACT_MAX", exact_max):
                for g, dests in cases:
                    calls = searches = 0
                    result = plan(g, dests, light_cfg(rng_seed=1, time_budget=math.inf))
                    assert result.stop_reason == ("optimal" if exact_max >= 0 else "fixpoint")
                    assert calls == 1
                    seen.append(searches)
    assert len(set(seen)) > 2 and min(seen) > 1


def test_runs_capped_inside_a_leg_search_end_at_the_cap_and_replay():
    # A cap that falls inside a leg search stops the search after the pop
    # that reaches it: the run ends with exactly that many iterations, and a
    # rerun with the same cap is trace-identical.
    real_search = planner_module.bidirectional_astar
    stopped = []  # pops of each search that the cap stopped

    def search(*args):
        try:
            return real_search(*args)
        except NoPathYet as exc:
            stopped.append(exc.explored_nodes)
            raise

    runs = 0
    with mock.patch.object(planner_module, "bidirectional_astar", search):
        for g, dests in golden_cases():
            full = plan(g, dests, light_cfg(rng_seed=1, time_budget=math.inf))
            first = full.solutions[0].iteration
            for cap in (first + 1, (first + full.iterations) // 2, full.iterations - 1):
                stopped.clear()
                cfg = light_cfg(rng_seed=1, time_budget=math.inf, max_iterations=cap)
                capped = plan(g, dests, cfg)
                assert (capped.status, capped.stop_reason, capped.iterations) == ("solved", "max_iterations", cap)
                assert len(stopped) == 1 and stopped[0] > 0
                rerun = plan(g, dests, cfg)
                assert trace_digest(rerun) == trace_digest(capped)
                assert rerun.distance_matrix == capped.distance_matrix
                runs += 1
    assert runs == 9


def test_stitched_routes_mix_searched_legs_and_tree_witnesses():
    # A route follows the searched path of every leg phase 2 searched, read
    # in the order's direction, and the tree witness of every other leg: from
    # one root up to the pair's connection node, then down to the other root.
    # The cost is node_path_cost's. The golden runs, then the same runs
    # ordered by the genetic solver, whose first rows of searches leave the
    # other pairs to their witnesses: some stitched orders take both kinds of
    # leg.
    real_stitch = planner_module.stitch_node_path
    mixed = 0

    def stitching(seq, trees, conn, graph):
        nonlocal mixed
        path, cost = real_stitch(seq, trees, conn, graph)
        expected = [trees[seq.order[0]].root_node]
        kinds = set()
        for a, b in zip(seq.order, seq.order[1:]):
            if a == b:
                continue
            pair = (min(a, b), max(a, b))
            kinds.add(pair in conn.legs)
            if pair in conn.legs:
                nodes = conn.legs[pair]
                expected += (nodes if a < b else nodes[::-1])[1:]
            else:
                c = conn.best[pair]
                expected += path_from_root(trees[a].parent, c)[1:] + path_from_root(trees[b].parent, c)[-2::-1]
        assert path == expected
        assert cost == node_path_cost(g, path)
        mixed += kinds == {True, False}
        return path, cost

    with mock.patch.object(planner_module, "stitch_node_path", stitching):
        for exact_max in (ordering.EXACT_MAX, -1):
            with mock.patch.object(ordering, "EXACT_MAX", exact_max):
                for g, dests, cfg in golden_runs():
                    plan(g, dests, cfg)
    assert mixed > 0


def test_emitted_costs_are_the_exact_sums_of_their_node_paths():
    # Every emitted cost is node_path_cost of the emitted path, bit for bit,
    # also in runs whose rewire reparented nodes before the first route.
    reparented_before_first = []
    real_rewire = planner_module.rewire

    def counting_rewire(tree, v_new, graph):
        out = real_rewire(tree, v_new, graph)
        reparented_before_first[-1] += out[0]
        return out

    emitted = 0
    with mock.patch.object(planner_module, "rewire", counting_rewire):
        for g, dests, cfg in golden_runs():
            reparented_before_first.append(0)
            result = plan(g, dests, cfg)
            for sol in result.solutions:
                assert sol.total_cost == node_path_cost(g, sol.node_path)
            emitted += len(result.solutions)
    assert emitted > 12 and max(reparented_before_first) > 0


def test_phase_one_runs_unchanged_to_the_first_route():
    # A full run emits its first route at the iteration, and with the trace,
    # of a run stopped there; phase 2 then ends proved optimal, with every
    # matrix entry at or above its Dijkstra distance and the final order's
    # hops at it, and reruns identically.
    for g, dests in golden_cases():
        for seed in (3, 4):
            full = plan(g, dests, light_cfg(rng_seed=seed, time_budget=math.inf))
            first = plan(g, dests, light_cfg(rng_seed=seed, time_budget=math.inf, stop_after_first=True))
            assert first.stop_reason == "first_solution"
            assert replace(full.solutions[0], wall_time=0.0) == replace(first.solutions[0], wall_time=0.0)
            assert full.solutions[0].iteration == first.iterations
            assert full.stop_reason == "optimal" and full.iterations > first.iterations
            assert_proved_optimal(g, dests, full)
            rerun = plan(g, dests, light_cfg(rng_seed=seed, time_budget=math.inf))
            assert trace_digest(rerun) == trace_digest(full)
            assert rerun.distance_matrix == full.distance_matrix


def test_max_iterations_cap_respected():
    g, _ = random_geometric_graph(120, 0.15, seed=1)
    comp = largest_component(g)
    dests = DestinationSet.build(comp[0], comp[-1])
    result = plan(g, dests, light_cfg(rng_seed=2, max_iterations=5))
    assert result.iterations <= 5


def test_must_visit_pseudo_appears_in_path():
    edges = [(0, 1, 2.0), (0, 2, 3.0), (1, 2, 10.0), (2, 3, 1.0)]
    g = RoutingGraph(pts(4), edges)
    base = DestinationSet.build(0, 2, objectives=(1,))
    informed = add_pseudo_destinations(base, [(3, True)])
    result = plan(g, informed, light_cfg(rng_seed=7))
    assert result.status == "solved"
    assert 3 in result.final.node_path
    assert result.final.total_cost == 9.0
    validate_node_path(g, informed, result.final.node_path)


# ---------------------------------------------------------------------------
# Golden traces
# ---------------------------------------------------------------------------

def golden_cases():
    """Three geometric graphs with seeded destinations. The last keeps its edge
    weights on coordinates rounded to 1e-3 degrees, so many nodes coincide and
    exact distance ties reach both nearest-node choices."""
    fine = random_geometric_graph(220, 0.12, seed=5)[0]
    rounded = RoutingGraph([GeoPoint(round(p.lat, 3), round(p.lon, 3)) for p in fine.nodes], list(fine.edges()))
    assert len(set(rounded.nodes)) < rounded.node_count // 2
    graphs = [
        (random_geometric_graph(300, 0.1, seed=3)[0], 6),
        (random_geometric_graph(250, 0.12, seed=17)[0], 8),
        (rounded, 6),
    ]
    for i, (g, k) in enumerate(graphs):
        picks = random.Random(i).sample(largest_component(g), k)
        yield g, DestinationSet.build(picks[0], picks[1], objectives=tuple(picks[2:]))


def trace_digest(result) -> str:
    """First 16 hex digits of a SHA-256 over the run's integer trace.

    The 0 holds the place of a count of skipped solves that the planner no
    longer keeps, so the digests of runs that never skipped one, every
    first-route run, carry over.
    """
    key = (
        result.iterations,
        result.explored_nodes,
        result.solver_calls,
        0,
        [(s.iteration, list(map(int, s.visit_order.order)), list(map(int, s.node_path))) for s in result.solutions],
    )
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


# Per graph of golden_cases(), per planner seed 1 and 2: the fixpoint run's
# digest, then the first-route run's. Any change to the planner's choices
# (sampling, nearest frontier node, extend, parent choice, rewire, matrix
# witnesses, solve triggers, the solvers' orders, the phase-2 leg searches)
# changes some of them. The fixpoint runs end proved optimal in phase 2; the
# first-route runs end inside phase 1.
GOLDEN_TRACES = [
    "e0defd244610c4e5", "960577490d42b18f", "c68d31edff436343", "7fb66f4956608268",
    "6104e0402153b91f", "09406b24b09419bb", "d4347c404a169a7a", "2d54020055a92202",
    "ae0bd2e020fe5432", "a25197d1a1034317", "14532007d42ac66b", "4bd72533a758fb60",
]
# The same runs' (iterations, explored nodes, solver calls). Neither tree
# growth nor the leg searches read solver output, so the first two do not
# depend on when the solver runs.
GOLDEN_COUNTS = [
    (298, 304, 3), (75, 81, 1), (287, 293, 3), (64, 70, 1),
    (153, 161, 3), (56, 64, 1), (165, 173, 3), (68, 76, 1),
    (970, 976, 5), (57, 63, 1), (965, 971, 5), (52, 58, 1),
]


def golden_runs():
    for g, dests in golden_cases():
        for seed in (1, 2):
            for first in (False, True):
                yield g, dests, light_cfg(rng_seed=seed, time_budget=math.inf, stop_after_first=first)


def counts(result):
    return result.iterations, result.explored_nodes, result.solver_calls


def test_seeded_traces_match_the_golden_digests():
    results = [plan(g, dests, cfg) for g, dests, cfg in golden_runs()]
    assert all(r.status == "solved" for r in results)
    assert [trace_digest(r) for r in results] == GOLDEN_TRACES
    assert [counts(r) for r in results] == GOLDEN_COUNTS


def bench_shaped_runs():
    """Two graphs of each bench planner workload's shape, each run to its first
    route and to the fixpoint with the default config."""
    for n, radius, k in ((600, 0.075, 10), (2000, 0.04, 7)):
        for seed in (1, 2):
            g = random_geometric_graph(n, radius, seed=seed)[0]
            picks = random.Random(seed).sample(largest_component(g), k)
            dests = DestinationSet.build(picks[0], picks[1], objectives=tuple(picks[2:]))
            for first in (True, False):
                yield g, dests, PlannerConfig(rng_seed=seed, time_budget=math.inf, stop_after_first=first)


def emission_digest(result) -> str:
    """First 16 hex digits of a SHA-256 over the iterations, explored nodes and
    every emission's cost, order and node path."""
    key = (
        result.iterations,
        result.explored_nodes,
        [(s.total_cost, list(map(int, s.visit_order.order)), list(map(int, s.node_path))) for s in result.solutions],
    )
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


# Per run of bench_shaped_runs(): 600 nodes and 10 destinations on graph
# seeds 1 and 2, then 2 000 nodes and 7 destinations on the same seeds; per
# graph the first-route run, then the fixpoint run. A change to the hot loop
# that moves a choice or a float changes one of them.
BENCH_SHAPED_TRACES = [
    "323b069835352d97", "648f65bbd127641d", "4df67f49877cdd60", "46ec0abe05e52448",
    "4cada94fb8e781ec", "e92018796fec151f", "edc17b679559c0c6", "4569d57f61aaa553",
]


def test_bench_shaped_traces_match_their_digests():
    results = [plan(g, dests, cfg) for g, dests, cfg in bench_shaped_runs()]
    assert [r.stop_reason for r in results] == ["first_solution", "optimal"] * 4
    assert [emission_digest(r) for r in results] == BENCH_SHAPED_TRACES


def test_exact_planner_dominates_the_ga_planner(monkeypatch):
    # Phase 1 reads no solver output, so both planners emit their first route
    # at the same iteration, here at the same cost (the orders may differ at
    # a tie). A GA run then searches every required pair, an exact run only
    # the legs of its lower-bound orders: on these runs the exact one pops
    # fewer times and ends no dearer.
    exact = [plan(g, dests, cfg) for g, dests, cfg in golden_runs()]
    monkeypatch.setattr(ordering, "EXACT_MAX", -1)
    ga = [plan(g, dests, cfg) for g, dests, cfg in golden_runs()]
    fewer = 0  # runs in which the exact run pops strictly fewer
    for e, r in zip(exact, ga):
        assert (e.solutions[0].iteration, e.solutions[0].total_cost) == (r.solutions[0].iteration, r.solutions[0].total_cost)
        assert e.iterations <= r.iterations
        assert e.final.total_cost <= r.final.total_cost * (1 + 1e-9)
        fewer += e.iterations < r.iterations
    assert fewer == 6


def test_runs_above_exact_max_keep_the_ga_planner_trace():
    # 11 required intermediates, one more than ordering.EXACT_MAX: the GA
    # solver orders every solve, and the run ends "fixpoint" once phase 2
    # has searched every required pair.
    assert ordering.EXACT_MAX == 10
    g = random_geometric_graph(200, 0.13, seed=11)[0]
    picks = random.Random(13).sample(largest_component(g), 13)
    dests = DestinationSet.build(picks[0], picks[1], objectives=tuple(picks[2:]))
    result = plan(g, dests, light_cfg(rng_seed=1, time_budget=math.inf))
    assert (result.status, result.stop_reason) == ("solved", "fixpoint")
    assert counts(result) == (1937, 1950, 13)
    assert trace_digest(result) == "fb2e9a6782449199"

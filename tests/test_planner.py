import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from multiroute.geo import GeoPoint
from multiroute.graph import RoutingGraph, dijkstra
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
    update_connections,
    validate_node_path,
)
from multiroute import ordering
from multiroute import planner as planner_module
from multiroute.ordering import GaConfig

from oracles import (
    bfs_components,
    nearest_by_haversine,
    random_weighted_graph_edges,
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
    kw.setdefault(
        "final_polish_ga", GaConfig(mutation_count=200, crossover_count=200, generations=3)
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
    assert tree.expandable == set()
    assert nearest_expandable(tree, 1, g) is None


def test_nearest_matches_exhaustive_scan():
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
            assert anchor == nearest_by_haversine(g, tree.expandable, v_rand)
            candidates = [n for n, _ in g.neighbors(anchor) if n not in tree.cost]
            added = extend(tree, anchor, v_rand, g)
            assert added[0] == nearest_by_haversine(g, candidates, v_rand)
            for v in added:
                rewire(tree, v, g)
            validate_tree(tree, g)


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
    assert tree.expandable == {1}


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
        # Recompute costs by walking from the root.
        for node in tree.cost:
            total = 0.0
            cur = node
            while tree.parent[cur] is not None:
                total += g.edge_weight(tree.parent[cur], cur)
                cur = tree.parent[cur]
            assert tree.cost[node] == pytest.approx(total, rel=1e-12)


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


def test_rewire_propagates_to_subtree():
    # 0-1 long, 1-2 chain hanging under 1; later 0-3-1 shortcut rewires 1 and drags 2.
    edges = [(0, 1, 10.0), (1, 2, 1.0), (0, 3, 1.0), (3, 1, 1.0)]
    g = RoutingGraph(pts(4), edges)
    tree = SearchTree(0, g)
    choose_parent(tree, 1, g)  # cost 10
    choose_parent(tree, 2, g)  # cost 11
    choose_parent(tree, 3, g)  # cost 1
    count, changed = rewire(tree, 3, g)
    assert count == 1
    assert set(changed) == {1, 2}
    assert tree.cost[1] == 2.0 and tree.cost[2] == 3.0
    validate_tree(tree, g)


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
    equal = 0
    for node, cost in tree.cost.items():
        assert cost >= sp.cost[node] - 1e-9
        if abs(cost - sp.cost[node]) <= 1e-9 * max(1.0, cost):
            equal += 1
    rate = equal / len(tree.cost)
    print(f"tree-vs-dijkstra equality rate: {rate:.3f} over {len(tree.cost)} nodes")
    assert rate > 0.5


# ---------------------------------------------------------------------------
# update_connections / destinations_connected
# ---------------------------------------------------------------------------

def test_node_in_single_tree_changes_nothing():
    g = detour_triangle_graph()
    trees = [SearchTree(0, g), SearchTree(2, g)]
    conn = ConnectionTable(2)
    assert update_connections(conn, trees, 0, 0) == []
    assert conn.matrix[0][1] == INF


def test_first_shared_node_makes_entry_finite():
    g = detour_triangle_graph()
    trees = [SearchTree(0, g), SearchTree(2, g)]
    conn = ConnectionTable(2)
    extend(trees[0], 0, 2, g)  # tree 0 reaches node 2
    improved = update_connections(conn, trees, 2, 0)
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
        shared = [v for v in sorted(changed) if v in other.cost]
        if shared:
            break
        for v in sorted(changed):
            update_connections(conn, trees, v, owner)
        validate_connections(conn, trees)
    else:
        pytest.fail("trees never met")
    skipped = min(shared, key=lambda v: tree.cost[v] + other.cost[v])
    for v in sorted(changed - {skipped}):
        update_connections(conn, trees, v, owner)
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
        for v in sorted(changed):
            update_connections(conn, trees, v, it % 2)
        history.append(conn.matrix[0][1])
    validate_connections(conn, trees)
    assert all(x >= y - 1e-12 for x, y in zip(history, history[1:]))
    assert all(x >= true_dist - 1e-9 for x in history if math.isfinite(x))
    assert conn.matrix[0][1] == pytest.approx(true_dist, rel=0.05)


def test_connected_trivial_cases():
    assert destinations_connected([[0.0, 5.0], [5.0, 0.0]]) is True
    assert destinations_connected([[0.0, INF], [INF, 0.0]]) is False
    # An isolated optional destination does not break required connectivity.
    m = [[0.0, 5.0, INF], [5.0, 0.0, INF], [INF, INF, 0.0]]
    assert destinations_connected(m, required=[True, True, False]) is True
    assert destinations_connected(m) is False


def test_connected_matches_bfs_on_random_threshold_matrices():
    rng = random.Random(12)
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
        assert destinations_connected(m) is (bfs_components(n, pairs) == 1)


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
        res = plan(g, dests, light_cfg(rng_seed=42))
        return (
            [(s.iteration, s.total_cost, s.explored_nodes, s.visit_order.order, s.node_path) for s in res.solutions],
            res.iterations,
            res.explored_nodes,
            res.distance_matrix,
            res.solver_calls,
            res.solver_skips,
        )

    first = run()
    assert first == run()
    # The run saturates, and some of its matrix improvements leave the
    # required destinations' closure unchanged.
    assert first[-2] > 0 and first[-1] > 0


def unit_grid(rows, cols):
    pts = [GeoPoint(45.0 + 1e-4 * r, 7.0 + 1e-4 * c) for r in range(rows) for c in range(cols)]
    edges = []
    for v in range(rows * cols):
        if (v + 1) % cols:
            edges.append((v, v + 1, 1.0))
        if v + cols < rows * cols:
            edges.append((v, v + cols, 1.0))
    return RoutingGraph(pts, edges)


def test_in_loop_solve_runs_only_when_the_required_closure_changes(monkeypatch):
    # Source, objective and target on the top row of a 4 x 7 unit grid: the
    # objective lies on every shortest source-target path, so once both of its
    # pairs are exact a better source-target meeting point cannot lower the
    # closure. Integer weights keep the closure sums exact.
    g = unit_grid(4, 7)
    dests = DestinationSet.build(0, 6, objectives=(3,))
    cfg_loop = GaConfig(mutation_count=60, crossover_count=60, generations=2)
    events = []

    def checked(dg):
        out = ordering.required_closure(dg)
        events.append(("check", dg.theta.copy(), out[0].copy()))
        return out

    def solved(dg, cfg):
        events.append(("solve", dg.theta.copy(), cfg.mutation_count == cfg_loop.mutation_count))
        return ordering.solve(dg, cfg)

    spy = SimpleNamespace(required_closure=checked, solve=solved, NoSequenceError=ordering.NoSequenceError)
    monkeypatch.setattr(planner_module, "ordering", spy)
    dominated = lowered = 0
    for seed in range(6):
        events.clear()
        costs = []

        def check(sol: AnytimeSolution) -> None:
            costs.append(sol.total_cost)
            validate_node_path(g, dests, sol.node_path)

        result = plan(g, dests, light_cfg(rng_seed=seed, solver_ga=cfg_loop), on_solution=check)
        assert result.status == "solved"
        assert all(a > b for a, b in zip(costs, costs[1:]))
        last = None  # (matrix, closure) of the check the last in-loop solve followed
        runs = skips = 0
        for i, (kind, theta, closure) in enumerate(events):
            if kind != "check":
                continue
            ran = i + 1 < len(events) and events[i + 1][0] == "solve" and events[i + 1][2]
            if last is None:
                assert ran, "the first in-loop solve of a run is never skipped"
            elif np.array_equal(closure, last[1]):
                assert not ran
                # A pair improved, but its entry stays above the path
                # through a third destination.
                down = theta < last[0]
                dominated += bool(np.any(theta[down] > closure[down]))
            else:
                assert ran
                lowered += bool(np.any(closure < last[1]))
            runs += ran
            skips += not ran
            if ran:
                last = (theta, closure)
        assert (result.solver_calls, result.solver_skips) == (runs, skips)
        # The full-strength polish always runs, last.
        assert events[-1][0] == "solve" and not events[-1][2]
    assert dominated > 0 and lowered > 0


def test_in_loop_solve_reuses_the_closure_of_its_change_test(monkeypatch):
    # The skip test computes the required closure of the DestGraph it then
    # hands to solve; solve finds it there. The final polish makes its own.
    g, _ = random_geometric_graph(150, 0.15, seed=31)
    picks = random.Random(31).sample(largest_component(g), 6)
    dests = DestinationSet.build(picks[0], picks[1], objectives=tuple(picks[2:]))
    cfg = light_cfg(rng_seed=3)
    real_closure, real_solve = ordering._metric_closure, ordering.solve
    closures = 0
    solves = []  # (in loop, closures made before the call, closures made by its return)

    def counted_closure(dg):
        nonlocal closures
        closures += 1
        return real_closure(dg)

    def counted_solve(dg, ga_cfg):
        entry = closures
        out = real_solve(dg, ga_cfg)
        solves.append((ga_cfg.mutation_count == cfg.solver_ga.mutation_count, entry, closures))
        return out

    monkeypatch.setattr(ordering, "_metric_closure", counted_closure)
    monkeypatch.setattr(ordering, "solve", counted_solve)
    result = plan(g, dests, cfg)
    assert result.status == "solved"
    assert sum(s[0] for s in solves) == result.solver_calls >= 2
    prev_exit = 0
    for in_loop, entry, exit_ in solves[:-1]:
        assert in_loop
        # Its skip test made one closure since the last solve; it made none.
        assert entry > prev_exit and exit_ == entry
        prev_exit = exit_
    in_loop, entry, exit_ = solves[-1]
    assert not in_loop and exit_ == entry + 1
    # One closure per skip test, skipped or not, and one for the polish.
    assert closures == result.solver_calls + result.solver_skips + 1


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
    # Two separate components: both trees saturate without meeting.
    g = RoutingGraph(pts(4), [(0, 1, 1.0), (2, 3, 1.0)])
    dests = DestinationSet.build(0, 2)
    result = plan(g, dests, light_cfg(rng_seed=0, time_budget=0.2))
    assert result.status == "no_path"
    assert result.final is None
    assert result.explored_nodes >= 2


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
        for v in sorted(changed):
            update_connections(conn, trees, v, it % 3)
        validate_tree(tree, g)
        validate_connections(conn, trees)


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

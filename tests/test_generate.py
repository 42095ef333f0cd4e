import math
from collections import deque

import numpy as np
import pytest

from multiroute.generate import (
    bug_trap,
    largest_component,
    random_complete_destgraph,
    random_geometric_graph,
    random_incomplete_destgraph,
    random_scenario,
)
from multiroute.graph import RoutingGraph
from multiroute.graphio import serialize_edgelist
from multiroute.planner import destinations_connected

from oracles import all_pairs_geometric_edges


def reachable_without(graph, start, banned):
    seen = {start}
    q = deque([start])
    while q:
        u = q.popleft()
        for v, _ in graph.adj[u]:
            if v != banned and v not in seen:
                seen.add(v)
                q.append(v)
    return seen


def find_bridges(graph):
    """Tarjan low-link bridge finder (iterative)."""
    n = graph.node_count
    disc = [-1] * n
    low = [0] * n
    bridges = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack = [(root, -1, iter([v for v, _ in graph.adj[root]]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, parent, it = stack[-1]
            advanced = False
            for v in it:
                if disc[v] == -1:
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, u, iter([w for w, _ in graph.adj[v]])))
                    advanced = True
                    break
                elif v != parent:
                    low[u] = min(low[u], disc[v])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] > disc[p]:
                        bridges.append((p, u))
        # restart loop for next component
    return bridges


# ---------------------------------------------------------------------------
# Geometric graphs
# ---------------------------------------------------------------------------

def test_geometric_graph_reproducible_bytes():
    g1, ids1 = random_geometric_graph(100, 0.15, seed=7)
    g2, ids2 = random_geometric_graph(100, 0.15, seed=7)
    assert serialize_edgelist(g1, ids1) == serialize_edgelist(g2, ids2)
    g3, _ = random_geometric_graph(100, 0.15, seed=8)
    assert serialize_edgelist(g3, ids1) != serialize_edgelist(g1, ids1)


@pytest.mark.parametrize(
    "n, radius",
    [(2000, 0.04), (600, 0.075), (150, 0.15), (80, 0.25), (100, 0.15), (60, 1.0), (30, math.sqrt(2.0)), (2, 0.5)],
)
def test_geometric_graph_matches_the_all_pairs_loop(n, radius):
    # Cell bucketing must build exactly the graph of the all-pairs test.
    for seed in range(12):
        g, ids = random_geometric_graph(n, radius, seed)
        reference = RoutingGraph(g.nodes, all_pairs_geometric_edges(n, radius, seed))
        assert serialize_edgelist(g, ids) == serialize_edgelist(reference, ids), seed


def test_geometric_graph_edges_respect_radius():
    g, _ = random_geometric_graph(60, 0.2, seed=1)
    assert g.node_count == 60
    assert g.edge_count > 0


def test_random_scenario_nodes_in_one_component():
    g, ids = random_geometric_graph(120, 0.14, seed=3)
    spec = random_scenario(g, ids, 5, seed=3)
    comp = set(largest_component(g))
    nodes = [spec.source, spec.target, *spec.objectives]
    assert len(set(nodes)) == 7
    assert all(ids.resolve(n) in comp for n in nodes)


# ---------------------------------------------------------------------------
# Bug traps
# ---------------------------------------------------------------------------

def test_bug_trap_all_paths_pass_entry_node():
    fx = bug_trap(20, 5, 1)
    g = fx.graph
    comp = largest_component(g)
    assert len(comp) == g.node_count  # connected
    s, t = fx.scenario.source, fx.scenario.target
    seen = reachable_without(g, s, banned=fx.entry_node)
    assert t not in seen


def test_bug_trap_wide_entry_not_single_cut():
    fx = bug_trap(10, 4, 2)
    s, t = fx.scenario.source, fx.scenario.target
    seen = reachable_without(fx.graph, s, banned=fx.entry_node)
    assert t in seen  # a second corridor row keeps them connected


def test_water_gap_has_exactly_one_bridge():
    fx = bug_trap(8, 4, 1, water_gap=True)
    comp = largest_component(fx.graph)
    assert len(comp) == fx.graph.node_count
    bridges = find_bridges(fx.graph)
    assert len(bridges) == 1


def test_bug_trap_degenerate_sizes_refused():
    with pytest.raises(ValueError):
        bug_trap(2, 5, 1)
    with pytest.raises(ValueError):
        bug_trap(10, 0, 1)
    with pytest.raises(ValueError):
        bug_trap(10, 5, 11)


def test_informed_scenario_pseudo_is_on_passage():
    fx = bug_trap(12, 6, 1)
    (pseudo, must), = fx.informed_scenario.pseudos
    assert must is False
    s = fx.scenario.source
    # The pseudo is unreachable once the entry node is removed: it sits past it.
    seen = reachable_without(fx.graph, s, banned=fx.entry_node)
    assert fx.ids.resolve(pseudo) not in seen


# ---------------------------------------------------------------------------
# Destination-graph instances
# ---------------------------------------------------------------------------

def test_complete_instances_are_metric():
    dg = random_complete_destgraph(8, seed=5)
    th = dg.theta
    assert np.array_equal(th, th.T)
    assert np.all(np.isfinite(th))
    n = dg.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert th[i, j] <= th[i, k] + th[k, j] + 1e-12


def test_incomplete_instances_connected_over_required():
    for seed in range(30):
        dg = random_incomplete_destgraph(7, seed=seed)
        assert destinations_connected(dg.rows, dg.required)
        off = dg.theta[~np.eye(dg.n, dtype=bool)]
        assert np.any(~np.isfinite(off)) or math.isfinite(off.max())


def test_instances_deterministic():
    a = random_complete_destgraph(6, seed=9)
    b = random_complete_destgraph(6, seed=9)
    assert np.array_equal(a.theta, b.theta)
    c = random_incomplete_destgraph(6, seed=9)
    d = random_incomplete_destgraph(6, seed=9)
    assert np.array_equal(c.theta, d.theta)

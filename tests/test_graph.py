import math
import random

import pytest

from multiroute.geo import GeoPoint
from multiroute.graph import (
    GraphError,
    RoutingGraph,
    dijkstra,
    path_from_root,
)

from oracles import bellman_ford, random_weighted_graph_edges


def grid_points(n):
    return [GeoPoint(45.0 + 1e-4 * i, 7.0) for i in range(n)]


# ---------------------------------------------------------------------------
# RoutingGraph construction
# ---------------------------------------------------------------------------

def test_adjacency_symmetric_and_sorted():
    g = RoutingGraph(grid_points(4), [(0, 1, 5.0), (2, 1, 3.0), (3, 0, 1.0)])
    half_edges = [(u, v, w) for u in range(4) for v, w in g.adj[u]]
    assert sorted(half_edges) == sorted((v, u, w) for u, v, w in half_edges)
    for u in range(4):
        ids = [v for v, _ in g.adj[u]]
        assert ids == sorted(ids)


def test_duplicate_edges_collapse_to_minimum():
    g = RoutingGraph(grid_points(2), [(0, 1, 5.0), (1, 0, 3.0), (0, 1, 9.0)])
    assert g.edge_count == 1
    assert g.edge_weight(0, 1) == 3.0


def test_default_weight_is_haversine():
    from multiroute.geo import haversine

    pts = grid_points(2)
    g = RoutingGraph(pts, [(0, 1, None)])
    assert g.edge_weight(0, 1) == haversine(pts[0], pts[1])


@pytest.mark.parametrize("seed", range(5))
def test_edge_lookups_match_an_independent_edge_map(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 30)
    raw = random_weighted_graph_edges(rng, n, extra_edges=2 * n)
    raw += [(v, u, w + rng.choice((-0.5, 0.5))) for u, v, w in rng.sample(raw, len(raw) // 3)]
    expected: dict[tuple[int, int], float] = {}
    for u, v, w in raw:
        key = (min(u, v), max(u, v))
        expected[key] = min(w, expected.get(key, math.inf))
    g = RoutingGraph(grid_points(n), raw)
    listed = list(g.edges())
    assert listed == sorted((u, v, w) for (u, v), w in expected.items())
    for u, v, w in listed:
        assert g.edge_weight(u, v) == w and g.edge_weight(v, u) == w
    outside = (-n - 1, -n, -1, n, n + 3)
    for u in (*range(n), *outside):
        for v in (*range(n), *outside):
            if (min(u, v), max(u, v)) not in expected:
                assert g.edge_weight(u, v) is None, (u, v)


@pytest.mark.parametrize("edge", [(0, 0, 1.0), (0, 1, 0.0), (0, 1, -2.0), (0, 1, math.inf), (0, 5, 1.0)])
def test_bad_edges_rejected(edge):
    with pytest.raises(GraphError):
        RoutingGraph(grid_points(3), [edge])


# ---------------------------------------------------------------------------
# Dijkstra
# ---------------------------------------------------------------------------

def test_dijkstra_single_node():
    g = RoutingGraph(grid_points(1), [])
    sp = dijkstra(g, 0)
    assert sp.cost == [0.0]
    assert sp.parent == [None]


def test_dijkstra_path_graph():
    g = RoutingGraph(grid_points(3), [(0, 1, 2.0), (1, 2, 3.0)])
    sp = dijkstra(g, 0)
    assert sp.cost[2] == 5.0
    assert sp.path_to(2) == [0, 1, 2]


def test_great_circle_scale():
    from multiroute.generate import random_geometric_graph
    from multiroute.geo import haversine
    from multiroute.graphio import parse_edgelist, serialize_edgelist

    g, ids = random_geometric_graph(200, 0.15, seed=4)
    assert g.great_circle_scale() == 1.0
    assert parse_edgelist(serialize_edgelist(g, ids))[0].great_circle_scale() == 1.0
    pts = [GeoPoint(45.0, 7.0), GeoPoint(45.001, 7.0), GeoPoint(45.001, 7.0)]
    h = haversine(pts[0], pts[1])
    # Edge 1-2 joins two nodes at one point and has no ratio.
    g = RoutingGraph(pts, [(0, 1, h / 4), (1, 2, 5.0), (0, 2, 2 * h)])
    assert g.great_circle_scale() == 0.25


def test_path_from_root_on_dict_and_list_parents():
    assert path_from_root({4: None, 7: 4, 2: 7}, 2) == [4, 7, 2]
    assert path_from_root({4: None, 7: 4, 2: 7}, 4) == [4]
    assert path_from_root([None, 0, 1, 1], 3) == [0, 1, 3]
    assert path_from_root([None, 0, 1, 1], 0) == [0]


def test_dijkstra_unreachable_marked_infinite():
    g = RoutingGraph(grid_points(3), [(0, 1, 2.0)])
    sp = dijkstra(g, 0)
    assert not sp.reachable(2)
    with pytest.raises(GraphError):
        sp.path_to(2)


def test_dijkstra_invalid_source():
    g = RoutingGraph(grid_points(2), [(0, 1, 2.0)])
    with pytest.raises(GraphError):
        dijkstra(g, 7)


def test_dijkstra_matches_bellman_ford_on_random_graphs():
    rng = random.Random(42)
    for _ in range(20):
        n = 50
        edges = random_weighted_graph_edges(rng, n, extra_edges=60)
        g = RoutingGraph(grid_points(n), edges)
        src = rng.randrange(n)
        sp = dijkstra(g, src)
        expected = bellman_ford(n, edges, src)
        for v in range(n):
            assert sp.cost[v] == pytest.approx(expected[v], rel=1e-12)


def test_dijkstra_triangle_property():
    rng = random.Random(7)
    n = 40
    edges = random_weighted_graph_edges(rng, n, extra_edges=50)
    g = RoutingGraph(grid_points(n), edges)
    sp = dijkstra(g, 0)
    for u, v, w in edges:
        assert sp.cost[v] <= sp.cost[u] + w + 1e-9
        assert sp.cost[u] <= sp.cost[v] + w + 1e-9


def test_dijkstra_parent_chain_costs_are_consistent():
    rng = random.Random(11)
    n = 30
    edges = random_weighted_graph_edges(rng, n, extra_edges=40)
    g = RoutingGraph(grid_points(n), edges)
    sp = dijkstra(g, 3)
    for v in range(n):
        if sp.parent[v] is not None:
            w = g.edge_weight(sp.parent[v], v)
            assert sp.cost[v] == pytest.approx(sp.cost[sp.parent[v]] + w, rel=1e-12)


import math
import random

import pytest

from multiroute.generate import random_geometric_graph
from multiroute.geo import GeoPoint
from multiroute.graph import (
    GraphError,
    RoutingGraph,
    dijkstra,
    path_from_root,
)
from multiroute.graphio import parse_edgelist, serialize_edgelist

from oracles import bellman_ford, random_weighted_graph_edges
from oracles import great_circle_scale as oracle_scale


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
    assert sp.cost == [0.0, 2.0, 5.0]
    assert path_from_root(sp.parent, 2) == [0, 1, 2]


def test_great_circle_scale():
    from multiroute.geo import haversine

    g, ids = random_geometric_graph(200, 0.15, seed=4)
    assert g.great_circle_scale() == 1.0
    assert parse_edgelist(serialize_edgelist(g, ids))[0].great_circle_scale() == 1.0
    pts = [GeoPoint(45.0, 7.0), GeoPoint(45.001, 7.0), GeoPoint(45.001, 7.0)]
    h = haversine(pts[0], pts[1])
    # Edge 1-2 joins two nodes at one point and has no ratio.
    g = RoutingGraph(pts, [(0, 1, h / 4), (1, 2, 5.0), (0, 2, 2 * h)])
    assert g.great_circle_scale() == 0.25


def test_great_circle_scale_equals_the_scalar_pass():
    # Perturbed weights put the least ratio on some edge in the middle of the
    # dict; golden graph 2 of test_planner (coordinates rounded to 1e-3
    # degrees) has coincident nodes and a scale far below 1.
    for seed in range(8):
        rng = random.Random(seed)
        base, _ = random_geometric_graph(rng.choice((60, 300, 900)), 0.12, seed=seed)
        g = RoutingGraph(base.nodes, [(v, u, w * rng.uniform(0.3, 1.7)) for u, v, w in base.edges()])
        assert g.great_circle_scale() == oracle_scale(g) < 1.0
    fine = random_geometric_graph(220, 0.12, seed=5)[0]
    rounded = RoutingGraph([GeoPoint(round(p.lat, 3), round(p.lon, 3)) for p in fine.nodes], list(fine.edges()))
    assert rounded.great_circle_scale() == oracle_scale(rounded)
    assert round(rounded.great_circle_scale(), 3) == 0.044


def test_default_weights_give_a_scale_of_exactly_one():
    # A default weight and the scale's length of the same edge must be the
    # same bits, whichever way round the edge was given; a ratio of
    # 0.9999999999999998 would weaken every A* heuristic a little.
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(300, 2000)
        g, ids = random_geometric_graph(n, math.sqrt(10 / (math.pi * n)), seed=rng.getrandbits(32))
        assert g.great_circle_scale() == oracle_scale(g) == 1.0
        flipped = RoutingGraph(g.nodes, [(v, u, None) for u, v, _ in g.edges()])
        assert list(flipped.edges()) == list(g.edges())
        parsed = parse_edgelist(serialize_edgelist(g, ids))[0]
        assert parsed.great_circle_scale() == 1.0


@pytest.mark.parametrize(
    "edges, message",
    [
        # A weightless edge between coincident nodes, then a self-loop: the
        # default weights come after the pass, but the first bad edge is named.
        ([(0, 1, 5.0), (1, 2, None), (3, 3, 1.0)], r"^edge \(1, 2\) has non-positive or non-finite weight 0\.0$"),
        ([(0, 1, None), (2, 1, None), (0, 4, 1.0)], r"^edge \(2, 1\) has non-positive or non-finite weight 0\.0$"),
        ([(0, 1, None), (3, 3, 1.0), (1, 2, None)], r"^self-loop at node 3$"),
        ([(0, 1, None), (0, 3, -2.0), (2, 1, None)], r"^edge \(0, 3\) has non-positive or non-finite weight -2\.0$"),
        ([(0, 1, None), (0, 9, None), (1, 2, None)], r"^edge \(0, 9\) references a node outside 0\.\.3$"),
        ([(0, 1, None), (0, 3, float("nan")), (2, 1, None)], r"^edge \(0, 3\) has non-positive or non-finite weight nan$"),
    ],
)
def test_the_first_bad_edge_in_input_order_is_named(edges, message):
    pts = [GeoPoint(45.0, 7.0), GeoPoint(45.001, 7.0), GeoPoint(45.001, 7.0), GeoPoint(45.002, 7.0)]

    def bad(u, v, w):
        if not (0 <= u < 4 and 0 <= v < 4) or u == v:
            return True
        return pts[u] == pts[v] if w is None else not 0.0 < w < math.inf

    first = next((u, v) for u, v, w in edges if bad(u, v, w))
    with pytest.raises(GraphError, match=message) as exc:
        RoutingGraph(pts, edges)
    assert exc.value.edge == first
    with pytest.raises(GraphError, match=message) as exc:
        RoutingGraph(pts, iter(edges))
    assert exc.value.edge == first


def test_path_from_root_on_dict_and_list_parents():
    assert path_from_root({4: None, 7: 4, 2: 7}, 2) == [4, 7, 2]
    assert path_from_root({4: None, 7: 4, 2: 7}, 4) == [4]
    assert path_from_root([None, 0, 1, 1], 3) == [0, 1, 3]
    assert path_from_root([None, 0, 1, 1], 0) == [0]


def test_dijkstra_unreachable_marked_infinite():
    g = RoutingGraph(grid_points(3), [(0, 1, 2.0)])
    sp = dijkstra(g, 0)
    assert sp.cost == [0.0, 2.0, math.inf]
    assert sp.parent == [None, 0, None]


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


import random
import re
import sys

import pytest

from multiroute.geo import GeoPoint, great_circle_m, haversine
from multiroute.graph import RoutingGraph
from multiroute.graphio import (
    IdMap,
    ParseError,
    ScenarioSpec,
    parse_edgelist,
    parse_osm_xml,
    parse_scenario,
    resolve_scenario,
    serialize_edgelist,
    serialize_scenario,
)

from oracles import random_weighted_graph_edges


# ---------------------------------------------------------------------------
# OSM XML
# ---------------------------------------------------------------------------

def osm(body: str) -> str:
    return f"<osm version='0.6'>{body}</osm>"


def test_two_node_highway_way():
    xml = osm(
        "<node id='10' lat='45.0' lon='7.0'/>"
        "<node id='11' lat='45.001' lon='7.0'/>"
        "<way id='1'><nd ref='10'/><nd ref='11'/><tag k='highway' v='residential'/></way>"
    )
    g, ids = parse_osm_xml(xml)
    assert g.node_count == 2
    assert g.edge_count == 1
    a, b = ids.resolve(10), ids.resolve(11)
    assert g.edge_weight(a, b) == haversine(GeoPoint(45.0, 7.0), GeoPoint(45.001, 7.0))


def test_way_without_highway_dropped():
    xml = osm(
        "<node id='10' lat='45.0' lon='7.0'/>"
        "<node id='11' lat='45.001' lon='7.0'/>"
        "<way id='1'><nd ref='10'/><nd ref='11'/><tag k='waterway' v='river'/></way>"
    )
    g, ids = parse_osm_xml(xml)
    assert g.node_count == 0
    assert g.edge_count == 0


def test_malformed_xml_reports_line():
    bad = "<osm>\n<node id='1' lat='45' lon='7'/>\n<way></osm>"
    with pytest.raises(ParseError, match=r"line \d+"):
        parse_osm_xml(bad)


def test_missing_nd_ref_names_way():
    xml = osm(
        "<node id='10' lat='45.0' lon='7.0'/>"
        "<way id='77'><nd ref='10'/><nd ref='999'/><tag k='highway' v='primary'/></way>"
    )
    with pytest.raises(ParseError, match="way 77"):
        parse_osm_xml(xml)


def test_repeated_node_id_names_the_id():
    # Keeping either element would silently move node 10 (or an edge of it).
    xml = osm(
        "<node id='10' lat='45.0' lon='7.0'/>"
        "<node id='11' lat='45.001' lon='7.0'/>"
        "<node id='10' lat='45.002' lon='7.0'/>"
        "<way id='1'><nd ref='10'/><nd ref='11'/><tag k='highway' v='residential'/></way>"
    )
    with pytest.raises(ParseError, match="^duplicate node id 10$"):
        parse_osm_xml(xml)


@pytest.mark.parametrize(
    "lat, lon, problem",
    [
        ("95", "7.0", "latitude"),
        ("45.0", "-181", "longitude"),
        ("nan", "7.0", "non-finite"),
        ("45.0", "inf", "non-finite"),
    ],
)
def test_out_of_range_coordinates_name_the_node(lat, lon, problem):
    xml = osm(f"<node id='10' lat='45.0' lon='7.0'/><node id='42' lat='{lat}' lon='{lon}'/>")
    with pytest.raises(ParseError, match=f"^node 42: {problem}"):
        parse_osm_xml(xml)


def test_hundred_way_fixture_matches_independent_count():
    rng = random.Random(5)
    n_nodes = 120
    nodes = "".join(
        f"<node id='{i}' lat='{45.0 + i * 1e-4}' lon='7.0'/>" for i in range(n_nodes)
    )
    ways = []
    for w in range(100):
        refs = rng.sample(range(n_nodes), rng.randint(2, 5))
        nd = "".join(f"<nd ref='{r}'/>" for r in refs)
        tag = "<tag k='highway' v='x'/>" if w % 4 else "<tag k='building' v='x'/>"
        ways.append(f"<way id='{w}'>{nd}{tag}</way>")
    xml = osm(nodes + "".join(ways))

    # Independent script-style oracle: regex over the raw text.
    kept_pairs = set()
    kept_nodes = set()
    for way in re.findall(r"<way .*?</way>", xml):
        if "k='highway'" not in way:
            continue
        refs = [int(r) for r in re.findall(r"<nd ref='(\d+)'/>", way)]
        for a, b in zip(refs, refs[1:]):
            if a != b:
                kept_pairs.add((min(a, b), max(a, b)))
                kept_nodes.update((a, b))

    g, ids = parse_osm_xml(xml)
    assert g.node_count == len(kept_nodes)
    assert g.edge_count == len(kept_pairs)


@pytest.mark.parametrize("nd", ["<nd ref='999'/>", "<nd ref='x'/>", "<nd/>"])
def test_a_coincident_pair_in_an_earlier_way_is_named_before_a_later_bad_ref(nd):
    # RoutingGraph measures the edges, so the parser builds the graph of the
    # ways read so far before it raises a later way's error.
    nodes = (
        "<node id='10' lat='45.0' lon='7.0'/><node id='11' lat='45.0' lon='7.0'/>"
        "<node id='12' lat='45.001' lon='7.0'/>"
    )
    fine = "<way id='2'><nd ref='10'/><nd ref='12'/><tag k='highway' v='primary'/></way>"
    coincident = "<way id='3'><nd ref='12'/><nd ref='11'/><nd ref='10'/><tag k='highway' v='primary'/></way>"
    later = f"<way id='4'><nd ref='12'/>{nd}<tag k='highway' v='primary'/></way>"
    with pytest.raises(ParseError, match="^way 3 joins nodes 11 and 10, which lie at one point$"):
        parse_osm_xml(osm(nodes + fine + coincident + later))
    with pytest.raises(ParseError, match="^way 4 "):
        parse_osm_xml(osm(nodes + fine + later + coincident))


def test_osm_ways_are_measured_in_a_fixed_number_of_kernel_calls(monkeypatch):
    # Only RoutingGraph measures edges, all in one pass: the great_circle_m
    # calls of a parse do not grow with the number of ways.
    real = great_circle_m
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "multiroute" and getattr(module, "great_circle_m", None) is real:
            monkeypatch.setattr(module, "great_circle_m", counted)

    def parse_calls(n_ways):
        nodes = "".join(f"<node id='{i}' lat='{45.0 + i * 1e-4}' lon='7.0'/>" for i in range(n_ways + 1))
        tag = "<tag k='highway' v='x'/>"
        ways = "".join(f"<way id='{i}'><nd ref='{i}'/><nd ref='{i + 1}'/>{tag}</way>" for i in range(n_ways))
        calls.clear()
        g, _ = parse_osm_xml(osm(nodes + ways))
        assert g.edge_count == n_ways
        return len(calls)

    assert parse_calls(1) == parse_calls(40) > 0


# ---------------------------------------------------------------------------
# Edge-list format
# ---------------------------------------------------------------------------

TRIANGLE = """graph v1
# a comment
n 1 45.0 7.0
n 2 45.001 7.0
n 3 45.0 7.001
e 1 2 10.0
e 2 3 20.0
e 3 1 15.0
"""


def test_triangle_file():
    g, ids = parse_edgelist(TRIANGLE)
    assert g.node_count == 3
    assert g.edge_count == 3
    assert g.edge_weight(ids.resolve(1), ids.resolve(2)) == 10.0


def test_negative_weight_rejected():
    bad = "graph v1\nn 1 45.0 7.0\nn 2 45.001 7.0\ne 1 2 -1\n"
    with pytest.raises(ParseError, match="weight"):
        parse_edgelist(bad)


def test_zero_weight_rejected():
    bad = "graph v1\nn 1 45.0 7.0\nn 2 45.001 7.0\ne 1 2 0\n"
    with pytest.raises(ParseError):
        parse_edgelist(bad)


def test_self_loop_names_external_id_and_line():
    bad = "graph v1\nn 5 45.0 7.0\nn 9 45.001 7.0\ne 9 9 3.0\n"
    with pytest.raises(ParseError, match=r"^line 4: self-loop at node 9$"):
        parse_edgelist(bad)


def test_weightless_edge_between_coincident_nodes_names_external_ids():
    bad = "graph v1\nn 5 45.0 7.0\nn 9 45.0 7.0\ne 5 9\n"
    with pytest.raises(ParseError, match=r"^line 4: nodes 5 and 9 lie at one point"):
        parse_edgelist(bad)
    xml = osm(
        "<node id='10' lat='45.0' lon='7.0'/><node id='11' lat='45.0' lon='7.0'/>"
        "<way id='3'><nd ref='10'/><nd ref='11'/><tag k='highway' v='primary'/></way>"
    )
    with pytest.raises(ParseError, match="way 3 joins nodes 10 and 11"):
        parse_osm_xml(xml)


@pytest.mark.parametrize("later", ["e 5 5 1.0", "x 1", "e 5 8", "e 9 7 -1", "n 7 45.0 7.0"])
def test_a_weightless_edge_between_coincident_nodes_is_named_before_later_errors(later):
    # The coincident-node test runs in one kernel call after the lines, or
    # before an error that a later line raises, so the first bad line is named.
    text = f"graph v1\nn 5 45.0 7.0\nn 9 45.0 7.0\nn 7 45.001 7.0\ne 5 9\ne 9 7\n{later}\n"
    with pytest.raises(ParseError, match=r"^line 5: nodes 5 and 9 lie at one point"):
        parse_edgelist(text)
    with pytest.raises(ParseError, match=r"^line 7: "):
        parse_edgelist(text.replace("e 5 9\n", "e 5 9 2.0\n"))


@pytest.mark.parametrize("parse", [parse_edgelist, parse_scenario])
def test_non_utf8_bytes_name_the_offset(parse):
    with pytest.raises(ParseError, match="offset 4$"):
        parse(b"# \xc3\xa9\xff\n")


def test_dangling_endpoint_rejected():
    bad = "graph v1\nn 1 45.0 7.0\ne 1 9 5.0\n"
    with pytest.raises(ParseError, match="undeclared"):
        parse_edgelist(bad)


def test_missing_header_rejected():
    with pytest.raises(ParseError, match="header"):
        parse_edgelist("n 1 45.0 7.0\n")


def test_missing_weight_defaults_to_haversine():
    text = "graph v1\nn 1 45.0 7.0\nn 2 45.001 7.0\ne 1 2\n"
    g, ids = parse_edgelist(text)
    expected = haversine(GeoPoint(45.0, 7.0), GeoPoint(45.001, 7.0))
    assert g.edge_weight(0, 1) == expected


def test_serialize_parse_round_trip_random_graphs():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(2, 25)
        pts = [
            GeoPoint(rng.uniform(44.0, 46.0), rng.uniform(6.0, 8.0)) for _ in range(n)
        ]
        edges = random_weighted_graph_edges(rng, n, extra_edges=rng.randint(0, 20))
        g = RoutingGraph(pts, edges)
        ids = IdMap()
        for i in range(n):
            ids.add(1000 + 7 * i)
        text = serialize_edgelist(g, ids)
        g2, ids2 = parse_edgelist(text)
        assert ids2.to_external == ids.to_external
        assert g2.node_count == g.node_count
        assert g2.nodes == g.nodes
        assert list(g2.edges()) == list(g.edges())
        # Round-trip is exact, so a second serialization is byte-identical.
        assert serialize_edgelist(g2, ids2) == text


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

def ids_for(n: int) -> IdMap:
    ids = IdMap()
    for i in range(n):
        ids.add(100 + i)
    return ids


def test_scenario_without_objectives_has_two_destinations():
    spec = parse_scenario("source 100\ntarget 101\n")
    dests = resolve_scenario(spec, ids_for(2))
    assert dests.count == 2
    assert dests.kinds == ("source", "target")


def test_duplicate_objective_rejected():
    spec = parse_scenario("source 100\ntarget 101\nobjectives 102 102\n")
    assert spec.objectives == (102, 102)
    with pytest.raises(ParseError, match="^objective 102 duplicates another destination$"):
        resolve_scenario(spec, ids_for(3))


def test_objective_equal_to_source_rejected():
    spec = parse_scenario("source 100\ntarget 101\nobjectives 100\n")
    with pytest.raises(ParseError, match="^objective 100 duplicates another destination$"):
        resolve_scenario(spec, ids_for(2))


def test_pseudo_equal_to_source_names_external_id():
    spec = parse_scenario("source 107\ntarget 101\npseudo 107\n")
    with pytest.raises(ParseError, match="^pseudo destination 107 equals the source or target$"):
        resolve_scenario(spec, ids_for(8))


def test_unknown_external_id_named_in_error():
    spec = parse_scenario("source 100\ntarget 999\n")
    with pytest.raises(ParseError, match="999"):
        resolve_scenario(spec, ids_for(2))


def test_twenty_five_objective_scenario_has_27_destinations():
    objectives = " ".join(str(102 + i) for i in range(25))
    spec = parse_scenario(f"source 100\ntarget 101\nobjectives {objectives}\n")
    dests = resolve_scenario(spec, ids_for(27))
    assert dests.count == 27


def test_pseudo_parsing_and_must_visit_flag():
    spec = parse_scenario("source 100\ntarget 101\npseudo 102\npseudo 103 must_visit\n")
    assert spec.pseudos == ((102, False), (103, True))
    dests = resolve_scenario(spec, ids_for(4))
    assert dests.required == (True, False, True, True)
    assert dests.kinds == ("source", "pseudo", "pseudo", "target")


def test_scenario_round_trip():
    spec = ScenarioSpec(source=1, target=2, objectives=(5, 6), pseudos=((7, True), (8, False)))
    assert parse_scenario(serialize_scenario(spec)) == spec


def test_source_equal_target_rejected():
    spec = parse_scenario("source 100\ntarget 100\n")
    with pytest.raises(ParseError, match="^source and target must differ$"):
        resolve_scenario(spec, ids_for(1))


@pytest.mark.parametrize(
    "text, line",
    [
        ("source 1\nsource 2\ntarget 3\n", "line 2: repeated source record 'source 2'"),
        ("source 1\ntarget 3\n# note\ntarget 3\n", "line 4: repeated target record 'target 3'"),
    ],
)
def test_repeated_source_or_target_rejected(text, line):
    with pytest.raises(ParseError, match=f"^{line}$"):
        parse_scenario(text)


@pytest.mark.parametrize(
    "text, line",
    [
        ("graph v1\nn 0 45.0 7.0\n", "line 1: unknown scenario record 'graph v1'"),
        ("source 1\ntarget 2\npseudo 3 maybe\n", "line 3: expected 'must_visit', got 'maybe'"),
    ],
)
def test_scenario_errors_name_their_line_once(text, line):
    # An edge list passed as a scenario, and a bad pseudo flag.
    with pytest.raises(ParseError, match=f"^{line}$"):
        parse_scenario(text)

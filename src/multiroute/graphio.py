"""Graph and scenario ingestion: OSM XML subset, edge-list text, scenarios."""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace

import numpy as np

from .geo import GeoPoint, great_circle_m
from .graph import GraphError, RoutingGraph
from .planner import DestinationSet


class ParseError(ValueError):
    """Raised for malformed graph or scenario input."""


def _text(data: bytes | str) -> str:
    """``data`` as text; bytes must be UTF-8."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: invalid byte at offset {exc.start}") from None


@dataclass
class IdMap:
    """Bijection between external 64-bit ids and dense internal node ids."""

    to_internal: dict[int, int] = field(default_factory=dict)
    to_external: list[int] = field(default_factory=list)

    def add(self, external: int) -> int:
        existing = self.to_internal.get(external)
        if existing is not None:
            return existing
        internal = len(self.to_external)
        self.to_internal[external] = internal
        self.to_external.append(external)
        return internal

    def resolve(self, external: int) -> int:
        try:
            return self.to_internal[external]
        except KeyError:
            raise ParseError(f"unknown node id {external}") from None

    def __len__(self) -> int:
        return len(self.to_external)


@dataclass(frozen=True)
class ScenarioSpec:
    """A routing task in external node ids."""

    source: int
    target: int
    objectives: tuple[int, ...] = ()
    pseudos: tuple[tuple[int, bool], ...] = ()


def _lengths(ends: list[tuple[GeoPoint, GeoPoint]]) -> list[float]:
    """Great-circle length of each point pair, in one kernel call."""
    if not ends:
        return []
    lat1, lon1, lat2, lon2 = np.array([(p.lat, p.lon, q.lat, q.lon) for p, q in ends]).T
    return great_circle_m(lat1, lon1, lat2, lon2).tolist()


# ---------------------------------------------------------------------------
# OSM XML subset
# ---------------------------------------------------------------------------

def parse_osm_xml(data: bytes | str) -> tuple[RoutingGraph, IdMap]:
    """Build a routing graph from OSM XML nodes and highway-tagged ways.

    Ways without any ``highway`` tag are dropped; consecutive ``nd`` refs of a
    retained way become undirected edges weighted by their haversine length;
    nodes that end up with no retained edge are dropped.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, col = exc.position
        raise ParseError(f"malformed XML at line {line}, column {col}: {exc.msg}") from None
    coords: dict[int, GeoPoint] = {}
    for node in root.iter("node"):
        try:
            ext = int(node.attrib["id"])
            lat = float(node.attrib["lat"])
            lon = float(node.attrib["lon"])
        except (KeyError, ValueError) as exc:
            raise ParseError(f"node element missing or bad id/lat/lon: {exc}") from None
        if ext in coords:
            raise ParseError(f"duplicate node id {ext}")
        try:
            coords[ext] = GeoPoint(lat, lon)
        except ValueError as exc:
            raise ParseError(f"node {ext}: {exc}") from None
    edge_pairs: list[tuple[int, int]] = []
    for way in root.iter("way"):
        way_id = way.attrib.get("id", "?")
        if not any(tag.attrib.get("k") == "highway" for tag in way.iter("tag")):
            continue
        refs = []
        for nd in way.iter("nd"):
            try:
                ref = int(nd.attrib["ref"])
            except (KeyError, ValueError):
                raise ParseError(f"way {way_id} has an nd element without a valid ref") from None
            if ref not in coords:
                raise ParseError(f"way {way_id} references missing node {ref}")
            refs.append(ref)
        pairs = [(a, b) for a, b in zip(refs, refs[1:]) if a != b]
        for (a, b), d in zip(pairs, _lengths([(coords[a], coords[b]) for a, b in pairs])):
            if d == 0.0:
                raise ParseError(f"way {way_id} joins nodes {a} and {b}, which lie at one point")
        edge_pairs.extend(pairs)
    ids = IdMap()
    for a, b in edge_pairs:
        ids.add(a)
        ids.add(b)
    points = [coords[ext] for ext in ids.to_external]
    edges = [(ids.to_internal[a], ids.to_internal[b], None) for a, b in edge_pairs]
    try:
        graph = RoutingGraph(points, edges)
    except GraphError as exc:
        raise ParseError(str(exc)) from None
    return graph, ids


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------

EDGELIST_HEADER = "graph v1"


def parse_edgelist(data: bytes | str) -> tuple[RoutingGraph, IdMap]:
    """Parse the native edge-list format.

    UTF-8 text: a ``graph v1`` header, ``n <id> <lat> <lon>`` node lines,
    ``e <id> <id> [weight-meters]`` edge lines, ``#`` comments. Omitted
    weights default to the haversine length of the edge.
    """
    ids = IdMap()
    internal = ids.to_internal
    points: list[GeoPoint] = []
    edges: list[tuple[int, int, float | None]] = []
    weightless: list[tuple[int, int, int]] = []  # (line, external a, external b)
    header = False

    def check_weightless() -> None:
        """Reject the first weightless edge so far whose nodes lie at one point."""
        ends = [(points[internal[a]], points[internal[b]]) for _, a, b in weightless]
        for (no, a, b), d in zip(weightless, _lengths(ends)):
            if d == 0.0:
                raise ParseError(f"line {no}: nodes {a} and {b} lie at one point, so the edge needs a weight")

    # The coincident-node test of weightless edges runs in one kernel call
    # after the lines, or before an error that a later line raises, so the
    # first bad line is still the one named.
    try:
        for no, raw in enumerate(_text(data).splitlines(), start=1):
            ln = raw.strip()
            if not ln or ln.startswith("#"):
                continue
            if not header:
                if ln != EDGELIST_HEADER:
                    raise ParseError(f"missing '{EDGELIST_HEADER}' header line")
                header = True
                continue
            parts = ln.split()
            kind = parts[0]
            if kind == "n":
                if len(parts) != 4:
                    raise ParseError(f"line {no}: node line needs 'n <id> <lat> <lon>'")
                try:
                    ext, lat, lon = int(parts[1]), float(parts[2]), float(parts[3])
                    point = GeoPoint(lat, lon)
                except ValueError as exc:
                    raise ParseError(f"line {no}: {exc}") from None
                if ext in internal:
                    raise ParseError(f"line {no}: duplicate node id {ext}")
                ids.add(ext)
                points.append(point)
            elif kind == "e":
                if len(parts) not in (3, 4):
                    raise ParseError(f"line {no}: edge line needs 'e <id> <id> [weight]'")
                try:
                    a, b = int(parts[1]), int(parts[2])
                    w = float(parts[3]) if len(parts) == 4 else None
                except ValueError as exc:
                    raise ParseError(f"line {no}: {exc}") from None
                ia, ib = internal.get(a), internal.get(b)
                if ia is None or ib is None:
                    raise ParseError(f"line {no}: edge references undeclared node")
                if a == b:
                    raise ParseError(f"line {no}: self-loop at node {a}")
                if w is None:
                    weightless.append((no, a, b))
                elif not math.isfinite(w) or w <= 0.0:
                    raise ParseError(f"line {no}: edge weight must be positive and finite, got {w}")
                edges.append((ia, ib, w))
            else:
                raise ParseError(f"line {no}: unknown record kind {kind!r}")
    except ParseError:
        check_weightless()
        raise
    if not header:
        raise ParseError(f"missing '{EDGELIST_HEADER}' header line")
    check_weightless()
    try:
        graph = RoutingGraph(points, edges)
    except GraphError as exc:
        raise ParseError(str(exc)) from None
    return graph, ids


def serialize_edgelist(graph: RoutingGraph, ids: IdMap | None = None) -> str:
    """Render a graph in the edge-list format; inverse of :func:`parse_edgelist`."""
    ext = ids.to_external if ids is not None else list(range(graph.node_count))
    out = [EDGELIST_HEADER]
    for i, p in enumerate(graph.nodes):
        out.append(f"n {ext[i]} {p.lat!r} {p.lon!r}")
    for u, v, w in graph.edges():
        out.append(f"e {ext[u]} {ext[v]} {w!r}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

def parse_scenario(data: bytes | str) -> ScenarioSpec:
    """Parse a scenario file.

    Keys, one per line: ``source <id>`` and ``target <id>`` (once each),
    ``objectives <id>...`` (repeatable), ``pseudo <id> [must_visit]``
    (repeatable); ``#`` comments.
    """
    data = _text(data)
    source: int | None = None
    target: int | None = None
    objectives: list[int] = []
    pseudos: list[tuple[int, bool]] = []
    for no, raw in enumerate(data.splitlines(), start=1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        key = parts[0]
        try:  # the handler prefixes every message, ParseError's too, with the line
            if (key == "source" and source is not None) or (key == "target" and target is not None):
                raise ParseError(f"repeated {key} record {ln!r}")
            if key == "source" and len(parts) == 2:
                source = int(parts[1])
            elif key == "target" and len(parts) == 2:
                target = int(parts[1])
            elif key == "objectives":
                objectives.extend(int(p) for p in parts[1:])
            elif key == "pseudo" and len(parts) in (2, 3):
                if len(parts) == 3 and parts[2] != "must_visit":
                    raise ParseError(f"expected 'must_visit', got {parts[2]!r}")
                pseudos.append((int(parts[1]), len(parts) == 3))
            else:
                raise ParseError(f"unknown scenario record {ln!r}")
        except ValueError as exc:
            raise ParseError(f"line {no}: {exc}") from None
    if source is None or target is None:
        raise ParseError("scenario must define both source and target")
    if source == target:
        raise ParseError("scenario source and target must differ")
    if len(set(objectives)) != len(objectives):
        raise ParseError("scenario objectives must be distinct")
    return ScenarioSpec(
        source=source,
        target=target,
        objectives=tuple(objectives),
        pseudos=tuple(pseudos),
    )


def serialize_scenario(spec: ScenarioSpec) -> str:
    out = [f"source {spec.source}", f"target {spec.target}"]
    if spec.objectives:
        out.append("objectives " + " ".join(str(o) for o in spec.objectives))
    for p, mv in spec.pseudos:
        out.append(f"pseudo {p} must_visit" if mv else f"pseudo {p}")
    return "\n".join(out) + "\n"


def resolve_scenario(spec: ScenarioSpec, ids: IdMap) -> DestinationSet:
    """Map a scenario's external ids onto internal destination indices.

    The destination roles are checked over the external ids, so errors name
    the ids the scenario file uses.
    """
    try:
        external = DestinationSet.build(spec.source, spec.target, spec.objectives, spec.pseudos)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    try:
        return replace(external, node_ids=tuple(ids.resolve(n) for n in external.node_ids))
    except ParseError as exc:
        raise ParseError(f"scenario references {exc}") from None

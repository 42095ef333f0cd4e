"""Anytime multi-destination route planning on weighted geographic graphs."""

from .geo import EARTH_RADIUS_M, GeoPoint, haversine
from .graph import GraphError, RoutingGraph, ShortestPaths, dijkstra
from .graphio import (
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
from .ordering import (
    DestGraph,
    GaConfig,
    NoSequenceError,
    OracleStats,
    VisitSequence,
    brute_force_oracle,
    oracle_stats,
    solve,
)
from .planner import (
    AnytimeSolution,
    DestinationSet,
    PlanResult,
    PlannerConfig,
    add_pseudo_destinations,
    plan,
)
from .baselines import BaselineResult, NoPathError, NoPathYet, anastar, bidirectional_astar

__version__ = "0.1.0"

__all__ = [
    "EARTH_RADIUS_M",
    "GeoPoint",
    "haversine",
    "GraphError",
    "RoutingGraph",
    "ShortestPaths",
    "dijkstra",
    "IdMap",
    "ParseError",
    "ScenarioSpec",
    "parse_edgelist",
    "parse_osm_xml",
    "parse_scenario",
    "resolve_scenario",
    "serialize_edgelist",
    "serialize_scenario",
    "DestGraph",
    "GaConfig",
    "NoSequenceError",
    "OracleStats",
    "VisitSequence",
    "brute_force_oracle",
    "oracle_stats",
    "solve",
    "AnytimeSolution",
    "DestinationSet",
    "PlanResult",
    "PlannerConfig",
    "add_pseudo_destinations",
    "plan",
    "BaselineResult",
    "NoPathError",
    "NoPathYet",
    "anastar",
    "bidirectional_astar",
    "__version__",
]

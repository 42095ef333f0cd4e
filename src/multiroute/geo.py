"""Geographic points and great-circle distance."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True)
class GeoPoint:
    """A latitude/longitude pair in degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"non-finite coordinates ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} outside [-180, 180]")


def haversine(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters on a sphere of radius 6,371,000 m."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    s = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(s)))


def unit_xyz(points: Sequence[GeoPoint]) -> np.ndarray:
    """Cartesian coordinates of ``points`` on the unit sphere, one row each.

    The chord between two rows is 2·sin(θ/2) for great-circle angle θ, which
    rises strictly with θ on [0, π]: ordering by squared chord length is
    ordering by great-circle distance.
    """
    lat = np.radians([p.lat for p in points])
    lon = np.radians([p.lon for p in points])
    cos_lat = np.cos(lat)
    return np.column_stack((cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)))

"""Geographic points and great-circle distance."""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def great_circle_m(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Haversine great-circle distance in meters on a sphere of radius 6,371,000 m.

    Takes degrees, as numbers or arrays that broadcast together, and returns
    an array of their shape. This is the package's one haversine, and every
    great-circle number (default edge weights, ``great_circle_scale``, the A*
    heuristics, the planner's lower bound) comes from it. Every element goes
    through the same elementwise operations; ``tests/test_geo.py`` checks that
    a value does not depend on the arrays' length, offset, stride or
    broadcast, and that a call on scalars (``haversine``) gives the same bits.
    Squares are products, because numpy rounds a scalar ``** 2`` differently
    from an array one.
    """
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    a = np.sin(np.radians(np.subtract(lat2, lat1)) / 2.0)
    b = np.sin(np.radians(np.subtract(lon2, lon1)) / 2.0)
    s = a * a + np.cos(phi1) * np.cos(phi2) * (b * b)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def haversine(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters between two points (``great_circle_m``)."""
    return float(great_circle_m(a.lat, a.lon, b.lat, b.lon))


def unit_xyz(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Cartesian coordinates on the unit sphere of points given in degrees, one row each.

    The chord between two rows is 2·sin(θ/2) for great-circle angle θ, which
    rises strictly with θ on [0, π]: ordering by squared chord length is
    ordering by great-circle distance.
    """
    lat = np.radians(lat)
    lon = np.radians(lon)
    cos_lat = np.cos(lat)
    return np.column_stack((cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)))

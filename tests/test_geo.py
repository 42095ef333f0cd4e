import math
import random

import numpy as np
import pytest

from multiroute.geo import EARTH_RADIUS_M, GeoPoint, great_circle_m, haversine


def test_identical_points_zero():
    p = GeoPoint(0.0, 0.0)
    assert haversine(p, p) == 0.0


def test_quarter_great_circle():
    d = haversine(GeoPoint(0.0, 0.0), GeoPoint(0.0, 90.0))
    assert d == pytest.approx(math.pi / 2 * EARTH_RADIUS_M, abs=1e-6)


def test_paris_to_london_pinned():
    # Value computed beforehand with an independent high-precision evaluation.
    d = haversine(GeoPoint(48.8566, 2.3522), GeoPoint(51.5074, -0.1278))
    assert d == pytest.approx(343556.06, abs=1.0)


def test_symmetry_and_positivity():
    a = GeoPoint(12.34, -56.78)
    b = GeoPoint(-43.21, 87.65)
    assert haversine(a, b) == haversine(b, a)
    assert haversine(a, b) > 0.0


def test_antipodal_does_not_exceed_half_circumference():
    d = haversine(GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0))
    assert d == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-12)


@pytest.mark.parametrize(
    "lat,lon",
    [(91.0, 0.0), (-90.5, 0.0), (0.0, 180.5), (0.0, -181.0), (float("nan"), 0.0), (0.0, float("inf"))],
)
def test_invalid_coordinates_rejected(lat, lon):
    with pytest.raises(ValueError):
        GeoPoint(lat, lon)


def test_array_calls_give_the_bits_of_scalar_calls():
    # Every pair gets the value haversine gives it, whatever the array's
    # length (SIMD loops have bodies and tails), its offset, its stride or a
    # broadcast, so a default edge weight, the graph's scale and a heuristic
    # read the same length for one pair.
    rng = random.Random(29)
    n = 4000
    local = [(45.0 + 0.01 * rng.random(), 7.0 + 0.01 * rng.random()) for _ in range(n)]
    world = [(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)) for _ in range(n)]
    for pts in (local, world):
        lat = np.array([p[0] for p in pts])
        lon = np.array([p[1] for p in pts])
        geo = [GeoPoint(*p) for p in pts]
        want = [haversine(geo[i], geo[i + 64]) for i in range(n - 64)]
        for length in (1, 3, 8, 17, 64):
            for offset in range(0, 160, 5):
                sl, sh = slice(offset, offset + length), slice(offset + 64, offset + 64 + length)
                got = great_circle_m(lat[sl], lon[sl], lat[sh], lon[sh])
                assert got.tolist() == want[offset : offset + length]
        assert great_circle_m(lat[:-64:2], lon[:-64:2], lat[64::2], lon[64::2]).tolist() == want[::2]
        assert great_circle_m(lat[:-64], lon[:-64], lat[64:], lon[64:]).tolist() == want
        k = 12
        grid = great_circle_m(lat[:k, None], lon[:k, None], lat[:k], lon[:k])
        assert grid.tolist() == [[haversine(p, q) for q in geo[:k]] for p in geo[:k]]
        assert great_circle_m(lat, lon, lat[5], lon[5]).tolist() == [haversine(p, geo[5]) for p in geo]

import numpy as np
import pytest

from starburst import (
    ABParams,
    build_field,
    extract_contours,
    find_critical_points,
    map_caustics,
)
from starburst.cli import FIXTURE_SCENARIOS


class FixtureAnalysis:
    def __init__(self, name, grid=512):
        alpha, beta, gamma, n, cusps, saddles, points, kind = FIXTURE_SCENARIOS[name]
        self.name = name
        self.params = ABParams(alpha, beta, gamma, n)
        self.n = n
        self.expected_cusps = cusps
        self.expected_saddles = saddles
        self.expected_points = points
        self.expected_kind = kind
        self.aberration = self.params.to_wavefront()
        self.field = build_field(self.aberration)
        self.search = find_critical_points(self.field)
        self.contours = extract_contours(self.field, grid)
        self.caustics = map_caustics(
            self.aberration, self.contours, self.search.points, self.field
        )


@pytest.fixture(scope="session")
def analyses():
    return {name: FixtureAnalysis(name) for name in FIXTURE_SCENARIOS}


def det_hess_g(field, x, y):
    """det(Hess G) = Gxx Gyy - Gxy^2 at (x, y), from the field's G."""
    gx, gy = field.G.differentiate("x"), field.G.differentiate("y")
    gxx, gxy, gyy = gx.differentiate("x"), gx.differentiate("y"), gy.differentiate("y")
    return float(gxx(x, y) * gyy(x, y) - gxy(x, y) ** 2)


def circular_deviation(angles, offsets):
    """Max over angles of the circular distance to the nearest offset."""
    out = 0.0
    for a in angles:
        d = min(abs((a - o + np.pi) % (2 * np.pi) - np.pi) for o in offsets)
        out = max(out, d)
    return out


def bisect_root(f, lo, hi, iters=200):
    flo = f(lo)
    assert (flo > 0) != (f(hi) > 0), "bisection bracket does not straddle a root"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

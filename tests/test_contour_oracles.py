"""The array-speed contour path against the per-vertex code it replaced.

The references below are the earlier `_stitch`, `_clip_polyline_to_disk`
and `fertility_report`, walked one vertex at a time in Python.  The new
code must give the same chains, the same pieces bit for bit and the same
fertility flags on random graphs, polylines that cross the rim, and
closed loops whose run of close vertices wraps the seam.

The reference clip takes its circle intersection from the package: the
earlier one computed it with ``@`` on 2-vectors, whose last bit depends on
the BLAS build (a fused multiply-add or not), so only the piece logic is
compared here and `_circle_hit` is checked on its own.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from starburst.caustics import (
    ContourSet,
    FertilityFlag,
    _circle_hit,
    _clip_polyline_to_disk,
    _stitch,
    fertility_report,
)
from starburst.hessian import PointClass


def reference_stitch(nbr):
    visited = bytearray(len(nbr))
    chains = []

    def walk(start):
        chain = [start]
        visited[start] = 1
        current = start
        while True:
            a, b = nbr[current]
            nexts = [k for k in (a, b) if k >= 0 and not visited[k]]
            if not nexts:
                if len(chain) > 2 and start in (a, b):
                    chain.append(start)
                return chain
            current = min(nexts)
            visited[current] = 1
            chain.append(current)

    open_ends = [k for k, (_, b) in enumerate(nbr) if b < 0]
    for key in open_ends + list(range(len(nbr))):
        if not visited[key]:
            chains.append(walk(key))
    return chains


def reference_clip(points):
    inside = np.hypot(points[:, 0], points[:, 1]) <= 1.0 + 1e-12
    if np.all(inside):
        return [points]
    pieces = []
    current = []
    for k in range(len(points)):
        if inside[k]:
            if not current and k > 0 and not inside[k - 1]:
                hit = _circle_hit(points[k - 1], points[k])
                if hit is not None:
                    current.append(hit)
            current.append(points[k])
        else:
            if current:
                hit = _circle_hit(points[k - 1], points[k])
                if hit is not None:
                    current.append(hit)
                if len(current) >= 2:
                    pieces.append(np.array(current))
                current = []
    if len(current) >= 2:
        pieces.append(np.array(current))
    return pieces


def reference_fertility(saddles, polylines, distance=0.12):
    flags = []
    for s in saddles:
        pos = np.array([s.x, s.y])
        branches = 0
        best = math.inf
        for poly in polylines:
            d = np.hypot(poly[:, 0] - pos[0], poly[:, 1] - pos[1])
            best = min(best, float(d.min()) if len(d) else math.inf)
            close = d <= distance
            if not np.any(close):
                continue
            closed = bool(np.all(poly[0] == poly[-1])) and len(poly) > 2
            body = close[:-1] if closed else close
            transitions = np.count_nonzero(np.diff(body.astype(int)) == 1)
            runs = transitions + (1 if body[0] else 0)
            if closed and body[0] and body[-1] and runs > 1:
                runs -= 1
            branches += max(runs, 1 if np.any(close) else 0)
        flags.append((branches >= 2, branches, best))
    return flags


def random_graph(rng):
    """A neighbour table, as extract_contours builds it, of random open
    chains and loops over shuffled node numbers."""
    sizes = rng.integers(2, 12, size=rng.integers(1, 8))
    loops = rng.random(len(sizes)) < 0.5
    sizes[loops] = np.maximum(sizes[loops], 3)
    label = rng.permutation(int(sizes.sum()))
    nbr = np.full((len(label), 2), -1, dtype=np.intp)
    fill = np.zeros(len(label), dtype=np.intp)
    start = 0
    for size, loop in zip(sizes.tolist(), loops.tolist()):
        ring = label[start:start + size]
        start += size
        links = list(zip(ring[:-1], ring[1:])) + ([(ring[-1], ring[0])] if loop else [])
        for a, b in links:
            nbr[a, fill[a]], nbr[b, fill[b]] = b, a
            fill[a] += 1
            fill[b] += 1
    swap = (fill == 2) & (rng.random(len(label)) < 0.5)
    nbr[swap] = nbr[swap, ::-1]
    return nbr


@pytest.mark.parametrize("seed", range(200))
def test_stitch_matches_reference(seed):
    nbr = random_graph(np.random.default_rng(seed))
    got = [chain.tolist() for chain in _stitch(nbr)]
    assert got == reference_stitch(nbr.tolist())


def test_stitch_loop_starts_at_lowest_node_towards_lower_neighbour():
    nbr = np.array([[4, 2], [3, 2], [1, 0], [4, 1], [0, 3]])
    assert [c.tolist() for c in _stitch(nbr)] == [[0, 2, 1, 3, 4, 0]]


def assert_same_pieces(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def wavy_polyline(rng, closed):
    """A polyline winding about the unit circle, crossing it many times."""
    count = int(rng.integers(5, 200))
    t = np.sort(rng.uniform(0.0, 2.0 * math.pi, count))
    r = 1.0 + rng.uniform(0.02, 0.3) * np.sin(rng.integers(1, 9) * t + rng.uniform(0, 6))
    r += rng.normal(0.0, 0.05, count)
    pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    return np.vstack([pts, pts[:1]]) if closed else pts


@pytest.mark.parametrize("seed", range(100))
def test_clip_matches_reference_on_rim_crossings(seed):
    rng = np.random.default_rng(seed)
    points = wavy_polyline(rng, closed=bool(seed % 2))
    assert_same_pieces(_clip_polyline_to_disk(points), reference_clip(points))


@pytest.mark.parametrize("points", [
    [(-0.5, 1.0), (0.0, 1.0), (0.5, 1.0)],           # touches the rim at a vertex
    [(-0.5, 1.0), (0.5, 1.0)],                       # tangent segment, no vertex in
    [(1.5, 0.0), (0.0, 0.0), (0.2, 0.1), (0.0, 1.5)],  # starts and ends outside
    [(0.0, 0.0), (2.0, 0.0), (0.0, 0.5)],            # single vertex runs
    [(0.0, 0.0), (0.5, 0.0), (0.9, 0.0)],            # all inside
    [(2.0, 0.0), (0.0, 2.0)],                        # all outside
    [(1.0, 0.0), (1.0 + 1e-13, 0.0), (1.0 + 1e-11, 0.0)],  # on the rim tolerance
])
def test_clip_matches_reference_on_edge_cases(points):
    points = np.array(points, dtype=float)
    assert_same_pieces(_clip_polyline_to_disk(points), reference_clip(points))


def test_circle_hit_takes_plain_products():
    # the hit of a segment is the same bits as pure-Python float arithmetic,
    # whatever BLAS numpy uses
    rng = np.random.default_rng(5)
    for _ in range(500):
        a, b = rng.uniform(-1.5, 1.5, 2), rng.uniform(-1.5, 1.5, 2)
        hit = _circle_hit(a, b)
        ax, ay = a.tolist()
        dx, dy = (b - a).tolist()
        aa = dx * dx + dy * dy
        bb = 2.0 * (ax * dx + ay * dy)
        cc = ax * ax + ay * ay - 1.0
        disc = bb * bb - 4.0 * aa * cc
        if disc < 0.0:
            assert hit is None
            continue
        sq = math.sqrt(disc)
        ts = [t for t in sorted(((-bb - sq) / (2 * aa), (-bb + sq) / (2 * aa)))
              if 0.0 <= t <= 1.0]
        if not ts:
            assert hit is None
        else:
            assert hit.tolist() == [ax + ts[0] * dx, ay + ts[0] * dy]
            assert abs(math.hypot(*hit) - 1.0) < 1e-15


def random_contours(rng):
    """Open polylines and closed loops about the origin; a closed loop's
    start is placed at random, so its run near a saddle can wrap the seam."""
    polylines = []
    for _ in range(int(rng.integers(1, 6))):
        count = int(rng.integers(3, 120))
        c = rng.uniform(-0.5, 0.5, 2)
        t = rng.uniform(0, 2 * math.pi) + np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        r = rng.uniform(0.05, 0.4) * (1.0 + 0.5 * np.sin(rng.integers(1, 5) * t))
        pts = c + np.column_stack([r * np.cos(t), r * np.sin(t)])
        if rng.random() < 0.6:
            pts = np.vstack([pts, pts[:1]])
        else:
            pts = pts[:int(rng.integers(2, count + 1))]
        polylines.append(pts)
    return tuple(polylines)


def check_fertility(saddles, polylines, distance=0.12):
    got = fertility_report(saddles, ContourSet(polylines, 64), distance)
    want = reference_fertility(saddles, polylines, distance)
    assert [(f.fertile, f.branch_count, f.min_distance) for f in got] == want
    for flag, s in zip(got, saddles):
        assert isinstance(flag, FertilityFlag) and flag.point is s
        assert type(flag.fertile) is bool and type(flag.branch_count) is int
        assert type(flag.min_distance) is float


@pytest.mark.parametrize("seed", range(100))
def test_fertility_matches_reference(seed):
    rng = np.random.default_rng(seed)
    polylines = random_contours(rng)
    cloud = np.concatenate(polylines)
    # saddles at vertices (so some run is always close) and at random
    picks = cloud[rng.integers(0, len(cloud), 4)] + rng.normal(0, 0.02, (4, 2))
    spots = np.vstack([picks, rng.uniform(-1, 1, (4, 2))])
    saddles = [SimpleNamespace(x=float(x), y=float(y)) for x, y in spots]
    check_fertility(saddles, polylines, float(rng.uniform(0.02, 0.3)))


def test_fertility_close_run_wrapping_the_seam():
    # a closed circular loop whose first and last vertices are both near the
    # saddle: one branch, not two
    t = np.linspace(0.0, 2.0 * math.pi, 41)
    loop = np.column_stack([0.5 * np.cos(t), 0.5 * np.sin(t)])
    loop[-1] = loop[0]
    saddle = SimpleNamespace(x=0.5, y=0.0)
    check_fertility([saddle], (loop,))
    flag, = fertility_report([saddle], ContourSet((loop,), 64))
    assert flag.branch_count == 1 and flag.fertile is False


def test_fertility_without_contours():
    saddle = SimpleNamespace(x=0.0, y=0.0)
    check_fertility([saddle], ())


@pytest.mark.parametrize("name", ["3star", "4star", "5star", "6star", "8stars"])
def test_fixture_fertility_matches_reference(analyses, name):
    a = analyses[name]
    saddles = [p for p in a.search.points if p.kind == PointClass.SADDLE]
    check_fertility(saddles, a.contours.polylines)

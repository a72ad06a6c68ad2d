"""The array-speed contour path against the per-vertex code it replaced.

The references below are the earlier `_stitch` and `fertility_report`,
walked one vertex at a time in Python.  The new code must give the same
chains and the same fertility flags on random graphs and on closed loops
whose run of close vertices wraps the seam.

`per_peak_profile_peaks` and `per_saddle_fertility` are the verdict's tip
pick and `fertility_report` as they were before each became one array
pass: one scan of every vertex per peak, with np.remainder, and one
np.hypot of every vertex per saddle.  The reference still skips a peak
whose bin holds no vertex, counting the occupancy from the profile's
vertex bins; the package reads its pairing bins from the same vertex
bins, which can differ by one from floor(phi / width) on a bin edge.
The tips and flags must match them field for field, bit for bit.

The contours' clip to the pupil is the polar mesh's last ring, on
rho = 1.  `reference_rim_crossings` finds where G's zero meets the rim one
arc at a time, from G at the mesh's rim nodes as the package evaluates it,
and completes them by W's reflection and turns; the contours must meet the
rim there and only there, on random W of either mesh and on lines placed
at the rim's edge cases.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from starburst import (
    BivariatePolynomial,
    WaveAberration,
    ZernikeTerm,
    build_field,
    extract_contours,
    find_critical_points,
    map_caustics,
)
from starburst.caustics import (
    _PROMINENCE_REL,
    ContourSet,
    FertilityFlag,
    SpikeTip,
    _find_peaks,
    _mesh,
    _profile_peaks,
    _radial_profile,
    _stitch,
    fertility_report,
)
from starburst.cli import FIXTURE_SCENARIOS
from starburst.hessian import PointClass
from starburst.regions import ABParams
from starburst.zernike import horner, ray_coefficients


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


def reference_rim_crossings(field, resolution):
    """Where G's zero meets the rim, found one arc at a time between the
    wedge's rim nodes by linear interpolation in t, and completed by W's
    reflection and turns as angles."""
    _, t, sin, cos, turns, mirror = _mesh(field, resolution)
    values = horner(ray_coefficients(field.G.coeffs, sin, cos), 1.0).tolist()
    t = t.tolist()
    angles = []
    for k in range(len(t) - 1):
        if (values[k] > 0.0) != (values[k + 1] > 0.0):
            s = values[k] / (values[k] - values[k + 1])
            angles.append(t[k] + s * (t[k + 1] - t[k]))
    if mirror:
        angles = [a + 2.0 * math.pi * q / turns
                  for a in angles + [-a for a in angles] for q in range(turns)]
    return np.array([(math.sin(a), math.cos(a)) for a in angles]).reshape(-1, 2)


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


def random_rim_field(seed):
    """A W, and a contour grid, whose G meets the rim: defocus plus one to
    three terms whose |m| are multiples of a random g; even seeds have a
    mirror at t = 0 (no m < 0), odd ones a sine term.  A draw whose G does
    not change sign on the rim is drawn again."""
    rng = np.random.default_rng(seed)
    while True:
        g = int(rng.integers(1, 7))
        terms = {(2, 0): float(rng.uniform(-0.3, 0.3))}
        for k in range(int(rng.integers(1, 4))):
            m = g * int(rng.integers(1 if k == 0 else 0, 3))
            n = min(max(m + 2 * int(rng.integers(0, 3)), 3 if m % 2 else 4), 12)
            sign = -1 if seed % 2 and k == 0 else 1
            terms[n, sign * m] = float(rng.uniform(-0.2, 0.2))
        w = WaveAberration(tuple(ZernikeTerm(*nm, c) for nm, c in terms.items()))
        field, grid = build_field(w), int(rng.choice([64, 97, 128, 257]))
        if len(reference_rim_crossings(field, grid)):
            return field, grid


def check_rim_crossings(field, resolution):
    """The completed contours stay in the closed disk and meet the rim on
    rho = 1 exactly where `reference_rim_crossings` does, one vertex each."""
    contours = extract_contours(field, resolution)
    cloud = np.concatenate([*contours, np.empty((0, 2))])
    r = np.hypot(cloud[:, 0], cloud[:, 1])
    assert np.all(r <= 1.0 + 1e-15)
    got = cloud[r >= 1.0 - 1e-12]
    want = reference_rim_crossings(field, resolution)
    assert len(got) == len(want)
    if len(got):
        gap = np.hypot(*(got[:, None, :] - want[None, :, :]).transpose(2, 0, 1))
        assert gap.min(axis=0).max() < 1e-12 and gap.min(axis=1).max() < 1e-12
    return contours, got


@pytest.mark.parametrize("seed", range(100))
def test_clip_matches_reference_on_rim_crossings(seed):
    # the polar mesh clips the contours to the pupil by construction: its
    # last ring is the rim, so a contour ends where it crosses a rim arc
    check_rim_crossings(*random_rim_field(seed))


@pytest.mark.parametrize("points", [
    [(-0.5, 1.0), (0.5, 1.0)],                     # tangent at the rim node t = 0
    [(-0.5, 0.45), (0.0, 0.45), (0.5, 0.45)],      # the same line twice: no sign change
    [(-1.0, 0.0), (1.0, 0.0)],                     # a diameter across the mirror line
    [(0.0, -1.0), (0.0, 1.0)],                     # along the rays t = 0 and t = pi
    [(1.5, 0.0), (0.0, 0.0), (0.2, 0.1), (0.0, 1.5)],  # three lines, one through the centre
    [(2.0, 0.0), (0.0, 2.0)],                      # wholly outside
    [(1.0 - 1e-13, -1.0), (1.0 - 1e-13, 1.0)],     # a chord just inside the rim
])
def test_clip_matches_reference_on_edge_cases(points):
    # G vanishes on the lines through each pair of consecutive points; the
    # mesh is chosen from W = G, so a line with no x term is marched on the
    # half-disk wedge and completed by the reflection x -> -x
    c = np.ones((1, 1))
    for (ax, ay), (bx, by) in zip(points[:-1], points[1:]):
        # (b - a) x (q - a) = (bx - ax)(y - ay) - (by - ay)(x - ax)
        line = np.array([[(by - ay) * ax - (bx - ax) * ay, bx - ax], [ay - by, 0.0]])
        product = np.zeros((len(c) + 1, len(c) + 1))
        for (i, j), coeff in np.ndenumerate(line):
            product[i:i + len(c), j:j + len(c)] += coeff * c
        c = product
    G = BivariatePolynomial(c)
    check_rim_crossings(SimpleNamespace(G=G, W=G, fold=1), 64)


def test_circle_hit_takes_plain_products():
    # a contour's hit on the unit circle, a rim vertex of the meshed wedge,
    # is the same bits as scalar float arithmetic on its arc's two node
    # values, whatever BLAS numpy uses: numpy's sin and cos of the
    # interpolated t, times rho = 1
    for seed in range(20):
        field, grid = random_rim_field(seed)
        _, t, sin, cos, _, _ = _mesh(field, grid)
        values = horner(ray_coefficients(field.G.coeffs, sin, cos), 1.0).tolist()
        t = t.tolist()
        angles = []
        for k in range(len(t) - 1):
            if (values[k] > 0.0) != (values[k + 1] > 0.0):
                s = values[k] / (values[k] - values[k + 1])
                angles.append(t[k] + s * (t[k + 1] - t[k]))
        want = np.column_stack([np.sin(angles), np.cos(angles)]).tolist()
        wedge = extract_contours(field, grid).wedge
        # rim vertices come last in the wedge, in t order
        got = wedge[np.hypot(wedge[:, 0], wedge[:, 1]) >= 1.0 - 1e-12]
        assert got.tolist() == want
        assert np.all(np.abs(np.hypot(got[:, 0], got[:, 1]) - 1.0) < 1e-15)


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


def per_peak_profile_peaks(profile, vertex_bins, r, phi, threshold):
    """`_profile_peaks` as it was: every peak with an occupied bin scans
    all vertices for the ones in its five bins, with np.remainder."""
    bins = len(profile)
    occupied = np.bincount(vertex_bins, minlength=bins) > 0
    idx, prominences = _find_peaks(np.tile(profile, 3))
    tips = {}
    width = 2.0 * math.pi / bins
    for k, pk in enumerate(idx):
        if not (bins <= pk < 2 * bins):
            continue
        b = pk - bins
        if not occupied[b]:
            continue
        radius = profile[b]
        if radius < threshold or prominences[k] < _PROMINENCE_REL * radius:
            continue
        lo = (b - 2) * width
        hi = (b + 3) * width
        dphi = (phi - lo) % (2.0 * math.pi)
        sel = dphi < (hi - lo)
        if not np.any(sel):
            continue
        j = np.nonzero(sel)[0][np.argmax(r[sel])]
        tips[int(j)] = SpikeTip(radius_arcmin=float(r[j]), angle=float(phi[j]))
    return sorted(tips.values(), key=lambda t: t.angle)


def per_saddle_fertility(saddles, contours, distance=0.12):
    """`fertility_report` as it was: one pass over every vertex per saddle."""
    polylines = contours.polylines
    if not polylines:
        return tuple(FertilityFlag(s, False, 0, math.inf) for s in saddles)
    cloud = np.concatenate(polylines)
    counts = np.array([len(poly) for poly in polylines])
    firsts = np.cumsum(counts) - counts
    lasts = firsts + counts - 1
    closed = np.array([len(poly) > 2 and bool(np.all(poly[0] == poly[-1]))
                       for poly in polylines])
    body = np.ones(len(cloud), dtype=bool)
    body[lasts[closed]] = False
    head = np.zeros(len(cloud), dtype=bool)
    head[firsts] = True
    flags = []
    for s in saddles:
        d = np.hypot(cloud[:, 0] - s.x, cloud[:, 1] - s.y)
        close = d <= distance
        starts = close & body
        starts[1:] &= ~close[:-1] | head[1:]
        runs = np.add.reduceat(starts, firsts, dtype=np.intp)
        runs -= closed & close[firsts] & close[lasts - 1] & (runs > 1)
        branches = int(runs.sum())
        flags.append(FertilityFlag(s, branches >= 2, branches, float(d.min())))
    return tuple(flags)


def bits(value: float) -> int:
    return int(np.float64(value).view(np.uint64))


def assert_same_tips(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g.radius_arcmin) is float and type(g.angle) is float
        assert (bits(g.radius_arcmin), bits(g.angle)) == (bits(w.radius_arcmin), bits(w.angle))


def assert_same_flags(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.point is w.point
        assert type(g.fertile) is bool and type(g.branch_count) is int
        assert (g.fertile, g.branch_count) == (w.fertile, w.branch_count)
        assert bits(g.min_distance) == bits(w.min_distance)


def _terms(*terms):
    return tuple(ZernikeTerm(*t) for t in terms)


def _plus_coma(name):
    """A fixture's wavefront plus 0.005 um of Z_3^1."""
    w = ABParams(*FIXTURE_SCENARIOS[name][:4]).to_wavefront()
    return WaveAberration(w.terms + _terms((3, 1, 0.005)))


VERDICT_WAVEFRONTS = {
    **{name: ABParams(*row[:4]).to_wavefront() for name, row in FIXTURE_SCENARIOS.items()},
    "highorder": WaveAberration(_terms((4, 0, 0.2), (12, 12, 0.02), (2, 0, 0.02))),
    "3star+coma": _plus_coma("3star"),
    "6star+coma": _plus_coma("6star"),
    # p = 1, with 9 saddles: 0.2 Z_4^0 + 0.05 Z_5^5 + 0.03 Z_6^2 + 0.04 Z_3^-1
    "mixed": WaveAberration(_terms((4, 0, 0.2), (5, 5, 0.05), (6, 2, 0.03), (3, -1, 0.04))),
}


@pytest.fixture(scope="module")
def verdict_inputs():
    out = {}
    for name, w in VERDICT_WAVEFRONTS.items():
        field = build_field(w)
        search = find_critical_points(field)
        contours = extract_contours(field, 512)
        caustics = map_caustics(w, contours, search.points, field)
        cloud = np.concatenate([c for c in caustics.retina_curves if len(c) >= 2])
        out[name] = (search, contours, _radial_profile(cloud, caustics.center))
    return out


@pytest.mark.parametrize("name", sorted(VERDICT_WAVEFRONTS))
def test_profile_peaks_match_per_peak_reference(verdict_inputs, name):
    profile = verdict_inputs[name][2]
    checked = 0
    for threshold in (1.0, 0.1, 1e-9):
        want = per_peak_profile_peaks(*profile, threshold)
        assert_same_tips(_profile_peaks(*profile, threshold), want)
        checked += len(want)
    assert checked


@pytest.mark.parametrize("name", sorted(VERDICT_WAVEFRONTS))
def test_fertility_matches_per_saddle_reference(verdict_inputs, name):
    search, contours, _ = verdict_inputs[name]
    assert search.saddles
    for distance in (0.12, 0.01, 0.5):
        assert_same_flags(fertility_report(search.saddles, contours, distance),
                          per_saddle_fertility(search.saddles, contours, distance))


@pytest.mark.parametrize("seed", range(40))
def test_profile_peaks_match_per_peak_reference_on_random_clouds(seed):
    # spiky clouds, with vertices at angle 0, just below 2 pi and (about
    # the origin) at exactly 2 pi after the remainder, so peak windows wrap
    # both ends of the profile; and one at each k 2 pi / 360, on the bin
    # edges, where the profile's bin and floor(phi / width) can differ
    rng = np.random.default_rng(seed)
    count = int(rng.integers(50, 3000))
    t = rng.uniform(0.0, 2.0 * math.pi, count)
    t[:3] = [0.0, np.nextafter(2.0 * math.pi, 0.0), -1e-300]
    t = np.concatenate([t, np.arange(360) * (2.0 * math.pi / 360)])
    count = len(t)
    spikes = rng.integers(1, 13)
    radius = 1.0 + rng.uniform(0.1, 2.0) * np.cos(spikes * t + rng.uniform(0, 6)) ** 8
    radius += rng.normal(0.0, 0.01, count)
    center = rng.uniform(-1.0, 1.0, 2) if seed % 2 else np.zeros(2)
    cloud = center + np.column_stack([radius * np.sin(t), radius * np.cos(t)])
    profile = _radial_profile(cloud, center)
    assert seed % 2 or profile[3][2] == 2.0 * math.pi
    floor_bins = np.minimum((profile[3] / (2.0 * math.pi / 360)).astype(np.intp), 359)
    assert seed % 2 or np.any(profile[1] != floor_bins)
    for threshold in (0.5, 1.5):
        assert_same_tips(_profile_peaks(*profile, threshold),
                         per_peak_profile_peaks(*profile, threshold))


@pytest.mark.parametrize("distance", [0.0, 1e-170, 1e-155, 2.5e-150, 0.05, 0.5, 1e300])
def test_fertility_at_the_distance_and_below_the_normal_range(distance):
    # vertices at, just inside and just outside the distance from each
    # saddle, and offsets too small to square in the normal range
    rng = np.random.default_rng(17)
    saddles = [SimpleNamespace(x=float(x), y=float(y)) for x, y in rng.uniform(-0.5, 0.5, (5, 2))]
    polylines = []
    for s in saddles:
        t = rng.uniform(0.0, 2.0 * math.pi, 12)
        radius = distance * np.array([1.0, 1.0, 1.0, 1.0 - 1e-16, 1.0 + 1e-16, 1.0 + 1e-12,
                                      1.0 - 1e-12, 0.5, 2.0, 0.0, 1e-300, 3.0])
        pts = np.column_stack([s.x + radius * np.cos(t), s.y + radius * np.sin(t)])
        tiny = np.array([[s.x + 1e-170, s.y], [s.x, s.y - 3e-160], [s.x + 2e-155, s.y + 2e-155]])
        polylines += [pts, np.vstack([tiny, tiny[:1]]), rng.uniform(-1, 1, (20, 2))]
    # saddles on x = 0 with branches along their own row, so each distance
    # is |x| exactly: one branch starts at the distance, one a step inside
    # it and one a step outside; two more start at the distance on either
    # side, their nearest vertices tied
    probe, tie = SimpleNamespace(x=0.0, y=0.25), SimpleNamespace(x=0.0, y=-0.375)
    steps = (distance, -np.nextafter(distance, 0.0), np.nextafter(distance, math.inf))
    probes = tuple(np.array([[x, probe.y], [2.0 * x, probe.y]]) for x in steps)
    ties = tuple(np.array([[x, tie.y], [2.0 * x, tie.y]]) for x in (distance, -distance))
    for s, own, nearest in ((probe, probes, np.nextafter(distance, 0.0)), (tie, ties, distance)):
        flag, = fertility_report([s], ContourSet(own, 64), distance)
        assert (flag.branch_count, flag.min_distance) == (2, nearest)
    saddles += [probe, tie]
    polylines += [*probes, *ties]
    contours = ContourSet(tuple(polylines), 64)
    assert_same_flags(fertility_report(saddles, contours, distance),
                      per_saddle_fertility(saddles, contours, distance))


@pytest.mark.parametrize("radii", [
    {358: 3.0, 359: 1.0, 0: 2.0, 1: 1.0},   # peak 0's window wraps back past 2 pi
    {358: 1.0, 359: 2.0, 0: 1.0, 1: 3.0},   # peak 359's window wraps on past 0
])
def test_tip_of_a_window_that_wraps(radii):
    # a peak next to the seam whose tallest vertex lies two bins away,
    # across the seam: the pick must follow the window round
    width = 2.0 * math.pi / 360
    angles = np.array([(b + 0.5) * width for b in range(360)])
    r = np.array([radii.get(b, 0.5) for b in range(360)])
    cloud = np.column_stack([r * np.sin(angles), r * np.cos(angles)])
    profile = _radial_profile(cloud, np.zeros(2))
    want = per_peak_profile_peaks(*profile, 0.1)
    assert any(t.radius_arcmin == 3.0 for t in want)
    assert_same_tips(_profile_peaks(*profile, 0.1), want)

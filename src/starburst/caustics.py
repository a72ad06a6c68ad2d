"""Zero-contour extraction, retina mapping, and the starburst verdict.

The zero-level set of the Hessian determinant G is traced over the pupil
with marching squares (linear edge interpolation, ambiguous cells resolved
by the cell-center value) and optically mapped to retina angular
coordinates through xi = -dW/dx, eta = -dW/dy, taken with respect to the
physical pupil coordinate so the result is in milliradians, reported in
arcminutes.

The starburst verdict counts spike tips as protrusions of the radial
extent profile of the mapped curves and classifies the pattern as
equally distanced (p tips at one radius) or non-equally distanced
(2p tips alternating between two radii).  The verdict is a model
prediction under the working assumption that spike tips correspond to
cusp caustics or closely spaced fold-caustic pairs that are resolvable
beyond the visibility threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import find_peaks
from scipy.spatial import cKDTree

from .hessian import CriticalPoint, HessianField
from .zernike import WaveAberration

ARCMIN_PER_MRAD = 10800.0 / (1000.0 * math.pi)  # ~3.437747
MIN_GRID_RESOLUTION = 64  # smallest contour grid extract_contours accepts

# Verdict constants (see starburst_verdict).
_PROFILE_BINS = 360  # 1-degree bins of the radial extent profile
_PROMINENCE_REL = 0.05
_SECONDARY_RATIO = 0.4
_MERIDIAN_TOL = 0.04  # radians
_RADIUS_SPLIT = 0.1
# symmetry_order: Hausdorff tolerance relative to the cloud diameter, and
# the largest p tried
_SYMMETRY_TOL_REL = 1e-3
_P_MAX = 12

VERDICT_NOTE = (
    "model prediction: spike tips are assumed to arise from cusp caustics "
    "or closely spaced fold-caustic pairs resolvable beyond the visibility "
    "threshold"
)


@dataclass(frozen=True)
class ContourSet:
    """Zero-level polylines of G in normalized pupil coordinates."""

    polylines: tuple[np.ndarray, ...]
    grid_resolution: int
    degenerate: bool = False

    def __iter__(self):
        return iter(self.polylines)

    def __len__(self) -> int:
        return len(self.polylines)

    @property
    def vertex_count(self) -> int:
        return sum(len(p) for p in self.polylines)


@dataclass(frozen=True)
class ProjectedCusp:
    point: CriticalPoint
    xi: float
    eta: float


@dataclass(frozen=True)
class CausticSet:
    """Pupil contours, their retina images, and projected cusps of Gauss."""

    pupil_contours: ContourSet
    retina_curves: tuple[np.ndarray, ...]
    projected_cusps: tuple[ProjectedCusp, ...]
    aberration: WaveAberration
    # Retina image of the pupil center: the symmetry center of the pattern.
    # The vertex-cloud centroid is biased by the direction-dependent vertex
    # density of the extracted contours, so it is not used.
    center: np.ndarray


@dataclass(frozen=True)
class SpikeTip:
    radius_arcmin: float
    angle: float


@dataclass(frozen=True)
class SymmetryResult:
    p: int
    residual: float
    tolerance: float


@dataclass(frozen=True)
class StarburstSummary:
    p_fold: int
    point_count: int
    kind: str  # "equally_distanced" | "non_equally_distanced" | "none"
    spike_tips: tuple[SpikeTip, ...]
    visibility_threshold: float
    note: str = VERDICT_NOTE
    detail: str = ""
    symmetry: SymmetryResult | None = None  # None when there is no caustic


EQUALLY_DISTANCED = "equally_distanced"
NON_EQUALLY_DISTANCED = "non_equally_distanced"
NO_STARBURST = "none"


# --------------------------------------------------------------------------
# Marching squares
# --------------------------------------------------------------------------


def _case_table() -> np.ndarray:
    """The 16-case marching-squares table (Lorensen & Cline, 1987, in 2-D).

    A cell's corner code has bit 0 for (i, j), 1 for (i+1, j), 2 for
    (i+1, j+1) and 3 for (i, j+1) when G > 0 there; its edges are numbered
    0 bottom, 1 right, 2 top, 3 left.  Row ``code`` lists the crossed edge
    pairs joined inside the cell, -1 padded.  The saddle codes 5 and 10 are
    listed for a positive cell center: a cell whose center is not positive
    is looked up under the complementary code."""
    table = np.full((16, 2, 2), -1, dtype=np.intp)
    corners = ((0, 1), (1, 2), (3, 2), (0, 3))  # the corner bits of each edge
    for code in range(1, 15):
        bit = [(code >> k) & 1 for k in range(4)]
        crossed = [e for e, (a, b) in enumerate(corners) if bit[a] != bit[b]]
        if len(crossed) == 2:
            table[code, 0] = crossed
    table[5] = [(0, 1), (2, 3)]
    table[10] = [(0, 3), (2, 1)]
    return table


_CASES = _case_table()


def _stitch(nbr):
    """Chains of node indices through a graph of degree 1 or 2.

    ``nbr[k]`` holds the one or two neighbours of node k, -1 padded.  Open
    chains start at their lower-numbered end, loops at their lowest node and
    run first towards its lower neighbour; a loop repeats its start."""
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
                # close the loop if the start is still reachable
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


def _clip_polyline_to_disk(points: np.ndarray):
    """Split a polyline into pieces inside the closed unit disk, inserting
    circle-intersection vertices at each crossing."""
    inside = np.hypot(points[:, 0], points[:, 1]) <= 1.0 + 1e-12
    if np.all(inside):
        return [points]
    pieces = []
    current: list[np.ndarray] = []

    def circle_hit(a, b):
        d = b - a
        aa = d @ d
        bb = 2.0 * (a @ d)
        cc = a @ a - 1.0
        disc = bb * bb - 4.0 * aa * cc
        if disc < 0.0 or aa == 0.0:
            return None
        sq = math.sqrt(disc)
        for t in sorted(((-bb - sq) / (2 * aa), (-bb + sq) / (2 * aa))):
            if 0.0 <= t <= 1.0:
                return a + t * d
        return None

    for k in range(len(points)):
        if inside[k]:
            if not current and k > 0 and not inside[k - 1]:
                hit = circle_hit(points[k - 1], points[k])
                if hit is not None:
                    current.append(hit)
            current.append(points[k])
        else:
            if current:
                hit = circle_hit(points[k - 1], points[k])
                if hit is not None:
                    current.append(hit)
                if len(current) >= 2:
                    pieces.append(np.array(current))
                current = []
    if len(current) >= 2:
        pieces.append(np.array(current))
    return pieces


def extract_contours(field: HessianField, resolution: int = 512) -> ContourSet:
    """Marching-squares zero contours of G inside the unit pupil."""
    if resolution < MIN_GRID_RESOLUTION:
        raise ValueError(f"resolution must be at least {MIN_GRID_RESOLUTION}")
    if field.G.is_zero:
        return ContourSet((), resolution, degenerate=True)
    n = resolution
    xs = ys = np.linspace(-1.0, 1.0, n)
    values = field.G.grid(xs, ys)

    pos = (values > 0.0).astype(np.uint8)
    code = pos[:-1, :-1] | pos[1:, :-1] << 1 | pos[1:, 1:] << 2 | pos[:-1, 1:] << 3
    # mask cells whose closest point to the origin lies outside the disk
    cx = np.clip(0.0, xs[:-1], xs[1:])
    cy = np.clip(0.0, ys[:-1], ys[1:])
    outside = (cx[:, None] ** 2 + cy[None, :] ** 2) > 1.0
    ci, cj = np.nonzero((code != 0) & (code != 15) & ~outside)
    if ci.size == 0:
        return ContourSet((), resolution)

    # saddle cells: decide the pairing by the sign of G at the cell center
    case = code[ci, cj]
    saddle = np.flatnonzero((case == 5) | (case == 10))
    half = 0.5 * (xs[1] - xs[0])
    center = field.G(xs[ci[saddle]] + half, ys[cj[saddle]] + half)
    case[saddle[~(center > 0.0)]] ^= 15

    # edge ids keep the (kind, i, j) order, "h" before "v": the horizontal
    # edge (i, j)-(i+1, j) is i*n + j, the vertical (i, j)-(i, j+1) is
    # h_count + i*(n-1) + j
    h_count = (n - 1) * n
    edges = np.column_stack([
        ci * n + cj,                           # bottom
        h_count + (ci + 1) * (n - 1) + cj,     # right
        ci * n + cj + 1,                       # top
        h_count + ci * (n - 1) + cj,           # left
    ])
    slots = _CASES[case]
    used = slots[:, :, 0] >= 0
    pairs = edges[np.nonzero(used)[0][:, None], slots[used]]

    # neighbour table over the crossed edges; an edge lies in at most two
    # cells and is used once by each, so every node has one or two
    nodes, ends = np.unique(pairs, return_inverse=True)
    ends = ends.reshape(-1, 2)
    order = np.argsort(ends.ravel(), kind="stable")
    src, dst = ends.ravel()[order], ends[:, ::-1].ravel()[order]
    second = np.concatenate([[False], src[1:] == src[:-1]])
    nbr = np.full((len(nodes), 2), -1, dtype=np.intp)
    nbr[src, second.astype(np.intp)] = dst

    # linear interpolation of the zero crossing along each edge
    points = np.empty((len(nodes), 2))
    h = nodes < h_count
    i, j = np.divmod(nodes[h], n)
    v0, v1 = values[i, j], values[i + 1, j]
    t = v0 / (v0 - v1)
    points[h, 0] = xs[i] + t * (xs[i + 1] - xs[i])
    points[h, 1] = ys[j]
    i, j = np.divmod(nodes[~h] - h_count, n - 1)
    v0, v1 = values[i, j], values[i, j + 1]
    t = v0 / (v0 - v1)
    points[~h, 0] = xs[i]
    points[~h, 1] = ys[j] + t * (ys[j + 1] - ys[j])

    polylines = []
    for chain in _stitch(nbr.tolist()):
        for piece in _clip_polyline_to_disk(points[chain]):
            if len(piece) >= 2:
                piece.flags.writeable = False
                polylines.append(piece)
    return ContourSet(tuple(polylines), resolution)


# --------------------------------------------------------------------------
# Retina mapping
# --------------------------------------------------------------------------


def _retina_image(points, wx, wy, pupil_radius: float) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    scale = ARCMIN_PER_MRAD / pupil_radius
    xi = -wx(pts[:, 0], pts[:, 1]) * scale
    eta = -wy(pts[:, 0], pts[:, 1]) * scale
    return np.column_stack([xi, eta])


def map_to_retina(points, w: WaveAberration) -> np.ndarray:
    """Map pupil points to retina angular coordinates (xi, eta) in arcmin.

    xi = -dW/dx, eta = -dW/dy with respect to the physical pupil
    coordinate (normalized coordinate times the pupil radius), i.e.
    micrometres per millimetre = milliradians, converted to arcminutes.
    """
    poly = w.to_polynomial()
    return _retina_image(
        points, poly.differentiate("x"), poly.differentiate("y"), w.pupil_radius
    )


def map_caustics(
    w: WaveAberration,
    contours: ContourSet,
    critical_points: tuple[CriticalPoint, ...],
    field: HessianField,
) -> CausticSet:
    """Retina images (as in map_to_retina) of the contour vertices, the
    critical points and the pupil center, mapped in one evaluation of the
    built field's Wx and Wy."""
    polylines = contours.polylines
    cusps = np.array([(p.x, p.y) for p in critical_points], dtype=float).reshape(-1, 2)
    pts = np.concatenate([*polylines, cusps, [(0.0, 0.0)]])
    img = _retina_image(pts, field.Wx, field.Wy, w.pupil_radius)
    img.flags.writeable = False
    cuts = np.cumsum([len(poly) for poly in polylines] + [len(cusps)])
    *retina, cusp_img, center = np.split(img, cuts)
    projected = [
        ProjectedCusp(pt, float(xi), float(eta))
        for pt, (xi, eta) in zip(critical_points, cusp_img)
    ]
    return CausticSet(
        pupil_contours=contours,
        retina_curves=tuple(retina),
        projected_cusps=tuple(projected),
        aberration=w,
        center=center[0],
    )


# --------------------------------------------------------------------------
# Distances, symmetry, verdict
# --------------------------------------------------------------------------


_NEAREST_VERTICES = 6  # KD-tree candidates per distance query


class _PolylineDistance:
    """Nearest-distance queries from points to a family of polylines.

    A KD-tree over the vertices proposes candidates; the exact distance is
    then taken over the segments adjacent to the nearest vertices, which
    removes the vertex-spacing floor from the estimate.
    """

    def __init__(self, polylines):
        lengths = np.array([len(poly) for poly in polylines])
        self.verts = np.concatenate(polylines)
        self.starts = np.concatenate([poly[:-1] for poly in polylines])
        self.ends = np.concatenate([poly[1:] for poly in polylines])
        # segment ids run on across polylines: vertex g of polyline k starts
        # segment g - k and ends segment g - k - 1
        vertex = np.arange(len(self.verts))
        local = vertex - np.repeat(np.cumsum(lengths) - lengths, lengths)
        after = vertex - np.repeat(np.arange(len(lengths)), lengths)
        has_prev = local > 0
        has_next = local < np.repeat(lengths, lengths) - 1
        adjacent = np.column_stack([
            np.where(has_prev, after - 1, np.where(has_next, after, -1)),
            np.where(has_prev & has_next, after, -1),
        ])
        pad = int(np.max(has_prev.astype(int) + has_next))
        self.vert_segments = adjacent[:, :pad]
        self.tree = cKDTree(self.verts)

    def distances(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        k = min(_NEAREST_VERTICES, len(self.verts))
        _, idx = self.tree.query(pts, k=k)
        idx = np.atleast_2d(idx)
        cand = self.vert_segments[idx].reshape(len(pts), -1)
        valid = cand >= 0
        safe = np.where(valid, cand, 0)
        a = self.starts[safe]
        b = self.ends[safe]
        d = b - a
        denom = np.einsum("ijk,ijk->ij", d, d)
        ap = pts[:, None, :] - a
        t = np.einsum("ijk,ijk->ij", ap, d) / np.where(denom > 0, denom, 1.0)
        t = np.clip(t, 0.0, 1.0)
        proj = a + t[..., None] * d
        dist = np.linalg.norm(pts[:, None, :] - proj, axis=2)
        dist = np.where(valid, dist, np.inf)
        return dist.min(axis=1)


def _rotate(points: np.ndarray, angle: float, center: np.ndarray) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    rel = points - center
    return np.column_stack(
        [c * rel[:, 0] - s * rel[:, 1], s * rel[:, 0] + c * rel[:, 1]]
    ) + center


_SCREEN_STRIDE = 16  # every how many vertices symmetry_order screens a p on


def symmetry_order(caustics: CausticSet) -> SymmetryResult:
    """Largest p in {2.._P_MAX} whose 2 pi / p rotation maps the retina
    vertex cloud onto itself within a Hausdorff tolerance; p=1 if none.

    Each p is screened on every _SCREEN_STRIDE-th vertex first.  A subset's
    largest distance is a lower bound on the whole cloud's, so a p whose
    subset misses the tolerance is rejected exactly, and only the p that
    pass the screen are checked on the full cloud.  When no p passes, the
    residual is the smallest full-cloud residual; the screen bounds decide
    which p can still hold it, and only those are computed in full."""
    curves = [c for c in caustics.retina_curves if len(c) >= 2]
    if not curves:
        raise ValueError("empty caustic set")
    cloud = np.concatenate(curves, axis=0)
    center = caustics.center
    diameter = 2.0 * float(np.max(np.linalg.norm(cloud - center, axis=1)))
    if diameter == 0.0:
        raise ValueError("caustic cloud has zero extent")
    tol = _SYMMETRY_TOL_REL * diameter
    geom = _PolylineDistance(curves)

    def residual(points, p):
        angle = 2.0 * math.pi / p
        d1 = geom.distances(_rotate(points, angle, center)).max()
        d2 = geom.distances(_rotate(points, -angle, center)).max()
        return max(float(d1), float(d2))

    sample = cloud[::_SCREEN_STRIDE]
    bounds = {}
    best_residual = math.inf
    for p in range(_P_MAX, 1, -1):
        bound = residual(sample, p)
        if bound >= tol:
            bounds[p] = bound
            continue
        full = residual(cloud, p)
        if full < tol:
            return SymmetryResult(p, full, tol)
        best_residual = min(best_residual, full)
    for p in sorted(bounds, key=bounds.get):
        if bounds[p] >= best_residual:
            break
        best_residual = min(best_residual, residual(cloud, p))
    return SymmetryResult(1, best_residual, tol)


def _wavefront_fold_order(w: WaveAberration) -> int:
    """p-fold symmetry readable from the azimuthal frequencies (0 = axial)."""
    orders = [abs(t.m) for t in w.terms if t.m != 0 and t.coeff != 0.0]
    if not orders:
        return 0
    return int(np.gcd.reduce(orders))


def _radial_profile(cloud: np.ndarray, centroid: np.ndarray):
    rel = cloud - centroid
    r = np.hypot(rel[:, 0], rel[:, 1])
    phi = np.arctan2(rel[:, 0], rel[:, 1]) % (2.0 * math.pi)
    idx = np.minimum((phi / (2.0 * math.pi) * _PROFILE_BINS).astype(int),
                     _PROFILE_BINS - 1)
    profile = np.zeros(_PROFILE_BINS)
    np.maximum.at(profile, idx, r)
    occupied = np.zeros(_PROFILE_BINS, dtype=bool)
    occupied[idx] = True
    return profile, occupied, r, phi


def _profile_peaks(profile, occupied, r, phi, threshold):
    """Circular local maxima of the radial-extent profile.

    Peaks are found on the periodically extended profile; each peak must
    exceed the visibility threshold and protrude by at least
    _PROMINENCE_REL of its own radius above its surroundings.  The tip
    is the exact vertex of largest radius near the peak bin."""
    bins = len(profile)
    ext = np.tile(profile, 3)
    idx, props = find_peaks(ext, prominence=1e-12)
    tips = []
    width = 2.0 * math.pi / bins
    for k, pk in enumerate(idx):
        if not (bins <= pk < 2 * bins):
            continue
        b = pk - bins
        if not occupied[b]:
            continue
        radius = profile[b]
        if radius < threshold or props["prominences"][k] < _PROMINENCE_REL * radius:
            continue
        lo = (b - 2) * width
        hi = (b + 3) * width
        dphi = (phi - lo) % (2.0 * math.pi)
        sel = dphi < (hi - lo)
        if not np.any(sel):
            continue
        j = np.nonzero(sel)[0][np.argmax(r[sel])]
        tips.append(SpikeTip(radius_arcmin=float(r[j]), angle=float(phi[j])))
    return sorted(tips, key=lambda t: t.angle)


def _meridian_aligned(tips, p):
    """Keep tips lying on the p-fold reflection meridians.

    The meridian fan is anchored at the dominant tip; starburst points sit
    on reflection planes, so admissible angles differ from the anchor by
    multiples of pi / p."""
    if not tips:
        return []
    anchor = max(tips, key=lambda t: t.radius_arcmin).angle
    step = math.pi / p
    kept = []
    for t in tips:
        d = (t.angle - anchor) % step
        if min(d, step - d) <= _MERIDIAN_TOL:
            kept.append(t)
    return kept


def starburst_verdict(
    caustics: CausticSet,
    *,
    threshold_arcmin: float = 1.0,
) -> StarburstSummary:
    """Count spike tips on the mapped caustic and classify the starburst.

    Tips are local maxima of the 1-degree-binned radial extent profile
    that (i) exceed the visibility threshold, (ii) protrude by at least
    _PROMINENCE_REL of their radius, (iii) lie on a symmetry meridian
    (within _MERIDIAN_TOL radians), and (iv) reach at least
    _SECONDARY_RATIO of the dominant tip radius -- shorter protrusions
    are treated as part of the central pattern rather than starburst
    points.  _RADIUS_SPLIT is the relative gap separating "two distinct
    tip radii" from a single ring of tips.  The p-fold symmetry comes from
    one ``symmetry_order`` pass and is returned as ``symmetry``.
    """
    if not 0.0 < threshold_arcmin < math.inf:
        raise ValueError("threshold_arcmin must be positive and finite")
    curves = [c for c in caustics.retina_curves if len(c) >= 2]
    if not curves:
        return StarburstSummary(
            p_fold=_wavefront_fold_order(caustics.aberration),
            point_count=0,
            kind=NO_STARBURST,
            spike_tips=(),
            visibility_threshold=threshold_arcmin,
            detail="no caustic curves",
        )
    cloud = np.concatenate(curves, axis=0)
    center = caustics.center
    profile, occupied, r, phi = _radial_profile(cloud, center)
    tips = _profile_peaks(profile, occupied, r, phi, threshold_arcmin)
    symmetry = symmetry_order(caustics)
    p = symmetry.p
    tips = _meridian_aligned(tips, p)
    if tips:
        r_max = max(t.radius_arcmin for t in tips)
        tips = [t for t in tips if t.radius_arcmin >= _SECONDARY_RATIO * r_max]
    if not tips:
        return StarburstSummary(
            p_fold=p,
            point_count=0,
            kind=NO_STARBURST,
            spike_tips=(),
            visibility_threshold=threshold_arcmin,
            detail="no resolvable meridian-aligned tips above the threshold",
            symmetry=symmetry,
        )
    radii = np.array([t.radius_arcmin for t in tips])
    spread = float((radii.max() - radii.min()) / radii.max())
    if len(tips) == p and spread <= _RADIUS_SPLIT:
        kind, detail = EQUALLY_DISTANCED, f"{p} tips at a single radius"
    elif len(tips) == 2 * p and spread > _RADIUS_SPLIT:
        long_short = radii >= 0.5 * (radii.max() + radii.min())
        alternating = all(
            long_short[i] != long_short[(i + 1) % len(tips)] for i in range(len(tips))
        )
        if alternating:
            kind = NON_EQUALLY_DISTANCED
            detail = f"{len(tips)} tips alternating between two radii"
        else:
            kind = NO_STARBURST
            detail = "tip radii do not alternate with the symmetry"
    elif len(tips) == 2 * p:
        kind, detail = NON_EQUALLY_DISTANCED, f"{len(tips)} tips, marginal radius split"
    else:
        kind = NO_STARBURST
        detail = f"{len(tips)} tips inconsistent with {p}-fold symmetry"
    return StarburstSummary(
        p_fold=p,
        point_count=len(tips) if kind != NO_STARBURST else 0,
        kind=kind,
        spike_tips=tuple(tips),
        visibility_threshold=threshold_arcmin,
        detail=detail,
        symmetry=symmetry,
    )


# --------------------------------------------------------------------------
# Fertility
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FertilityFlag:
    point: CriticalPoint
    fertile: bool
    branch_count: int
    min_distance: float


def fertility_report(
    saddles,
    contours: ContourSet,
    distance: float = 0.12,
) -> tuple[FertilityFlag, ...]:
    """Flag each saddle fertile when at least two distinct zero-contour
    branches pass within ``distance`` (normalized pupil units).

    A closed polyline snaking past the saddle twice counts as two
    branches: passes are maximal runs of consecutive vertices within the
    distance, with circular wrap for closed polylines.
    """
    flags = []
    for s in saddles:
        pos = np.array([s.x, s.y])
        branches = 0
        best = math.inf
        for poly in contours.polylines:
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
                runs -= 1  # wrap joins the first and last run
            branches += max(runs, 1 if np.any(close) else 0)
        flags.append(
            FertilityFlag(
                point=s,
                fertile=branches >= 2,
                branch_count=branches,
                min_distance=best,
            )
        )
    return tuple(flags)

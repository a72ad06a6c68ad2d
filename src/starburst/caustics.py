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


@dataclass(frozen=True)
class SpikeTip:
    radius_arcmin: float
    angle: float


@dataclass(frozen=True)
class StarburstSummary:
    p_fold: int
    point_count: int
    kind: str  # "equally_distanced" | "non_equally_distanced" | "none"
    spike_tips: tuple[SpikeTip, ...]
    visibility_threshold: float
    note: str = VERDICT_NOTE
    detail: str = ""


EQUALLY_DISTANCED = "equally_distanced"
NON_EQUALLY_DISTANCED = "non_equally_distanced"
NO_STARBURST = "none"


# --------------------------------------------------------------------------
# Marching squares
# --------------------------------------------------------------------------


def _edge_point(key, xs, ys, values):
    kind, i, j = key
    if kind == "h":
        v0, v1 = values[i, j], values[i + 1, j]
        t = v0 / (v0 - v1)
        return (xs[i] + t * (xs[i + 1] - xs[i]), ys[j])
    v0, v1 = values[i, j], values[i, j + 1]
    t = v0 / (v0 - v1)
    return (xs[i], ys[j] + t * (ys[j + 1] - ys[j]))


def _cell_segments(i, j, values, g_center):
    """Edge-key pairs crossed by the zero level inside cell (i, j)."""
    p00 = values[i, j] > 0.0
    p10 = values[i + 1, j] > 0.0
    p11 = values[i + 1, j + 1] > 0.0
    p01 = values[i, j + 1] > 0.0
    bottom = ("h", i, j)
    top = ("h", i, j + 1)
    left = ("v", i, j)
    right = ("v", i + 1, j)
    code = (p00, p10, p11, p01)
    if code in ((True, True, True, True), (False, False, False, False)):
        return []
    crossings = []
    if p00 != p10:
        crossings.append(bottom)
    if p10 != p11:
        crossings.append(right)
    if p01 != p11:
        crossings.append(top)
    if p00 != p01:
        crossings.append(left)
    if len(crossings) == 2:
        return [tuple(crossings)]
    # opposite-corner ambiguity: connect around the corners whose sign
    # differs from the cell-center sample
    center_positive = g_center() > 0.0
    if p00 == p11:
        if center_positive == p00:
            return [(bottom, right), (top, left)]
        return [(bottom, left), (top, right)]
    if center_positive == p10:
        return [(bottom, left), (top, right)]
    return [(bottom, right), (top, left)]


def _stitch(segments):
    """Join edge-key segments into ordered vertex-key chains."""
    adjacency: dict = {}
    for a, b in segments:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    visited = set()
    chains = []

    def walk(start):
        chain = [start]
        visited.add(start)
        current = start
        while True:
            nexts = [k for k in adjacency[current] if k not in visited]
            if not nexts:
                # close the loop if the start is still reachable
                if len(chain) > 2 and start in adjacency[current] and chain[0] != chain[-1]:
                    chain.append(start)
                return chain
            nxt = sorted(nexts)[0]
            visited.add(nxt)
            chain.append(nxt)
            current = nxt

    open_ends = sorted(k for k, v in adjacency.items() if len(v) == 1)
    for key in open_ends:
        if key not in visited:
            chains.append(walk(key))
    for key in sorted(adjacency):
        if key not in visited:
            chains.append(walk(key))
    return chains


def _clip_polyline_to_disk(points: np.ndarray, radius: float = 1.0):
    """Split a polyline into pieces inside the closed disk, inserting
    circle-intersection vertices at each crossing."""
    inside = np.hypot(points[:, 0], points[:, 1]) <= radius + 1e-12
    if np.all(inside):
        return [points]
    pieces = []
    current: list[np.ndarray] = []

    def circle_hit(a, b):
        d = b - a
        aa = d @ d
        bb = 2.0 * (a @ d)
        cc = a @ a - radius * radius
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
    xs = ys = np.linspace(-1.0, 1.0, resolution)
    values = field.G.grid(xs, ys)

    pos = values > 0.0
    change_x = pos[:-1, :] != pos[1:, :]
    change = np.zeros((resolution - 1, resolution - 1), dtype=bool)
    change |= change_x[:, :-1] | change_x[:, 1:]
    change_y = pos[:, :-1] != pos[:, 1:]
    change |= change_y[:-1, :] | change_y[1:, :]

    # mask cells whose closest point to the origin lies outside the disk
    cx = np.clip(0.0, xs[:-1], xs[1:])
    cy = np.clip(0.0, ys[:-1], ys[1:])
    outside = (cx[:, None] ** 2 + cy[None, :] ** 2) > 1.0
    change &= ~outside

    segments = []
    half = 0.5 * (xs[1] - xs[0])
    for i, j in zip(*np.nonzero(change)):
        g_center = lambda i=i, j=j: field.G(xs[i] + half, ys[j] + half)
        segments.extend(_cell_segments(i, j, values, g_center))
    if not segments:
        return ContourSet((), resolution)

    chains = _stitch(segments)
    polylines = []
    for chain in chains:
        pts = np.array([_edge_point(k, xs, ys, values) for k in chain])
        for piece in _clip_polyline_to_disk(pts):
            if len(piece) >= 2:
                piece.flags.writeable = False
                polylines.append(piece)
    return ContourSet(tuple(polylines), resolution)


# --------------------------------------------------------------------------
# Retina mapping
# --------------------------------------------------------------------------


def map_to_retina(points, w: WaveAberration) -> np.ndarray:
    """Map pupil points to retina angular coordinates (xi, eta) in arcmin.

    xi = -dW/dx, eta = -dW/dy with respect to the physical pupil
    coordinate (normalized coordinate times the pupil radius), i.e.
    micrometres per millimetre = milliradians, converted to arcminutes.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    poly = w.to_polynomial()
    wx = poly.differentiate("x")
    wy = poly.differentiate("y")
    scale = ARCMIN_PER_MRAD / w.pupil_radius
    xi = -wx(pts[:, 0], pts[:, 1]) * scale
    eta = -wy(pts[:, 0], pts[:, 1]) * scale
    return np.column_stack([xi, eta])


def map_caustics(
    w: WaveAberration,
    contours: ContourSet,
    critical_points: tuple[CriticalPoint, ...] = (),
) -> CausticSet:
    retina = []
    for poly in contours.polylines:
        img = map_to_retina(poly, w)
        img.flags.writeable = False
        retina.append(img)
    projected = []
    if critical_points:
        img = map_to_retina([(p.x, p.y) for p in critical_points], w)
        projected = [
            ProjectedCusp(pt, float(xi), float(eta))
            for pt, (xi, eta) in zip(critical_points, img)
        ]
    return CausticSet(
        pupil_contours=contours,
        retina_curves=tuple(retina),
        projected_cusps=tuple(projected),
        aberration=w,
    )


# --------------------------------------------------------------------------
# Distances, symmetry, verdict
# --------------------------------------------------------------------------


class _PolylineDistance:
    """Nearest-distance queries from points to a family of polylines.

    A KD-tree over the vertices proposes candidates; the exact distance is
    then taken over the segments adjacent to the nearest vertices, which
    removes the vertex-spacing floor from the estimate.
    """

    def __init__(self, polylines):
        starts = []
        ends = []
        verts = []
        vert_segments = []
        seg_id = 0
        for poly in polylines:
            for k in range(len(poly)):
                verts.append(poly[k])
                adj = []
                if k > 0:
                    adj.append(seg_id + k - 1)
                if k < len(poly) - 1:
                    adj.append(seg_id + k)
                vert_segments.append(adj)
            for k in range(len(poly) - 1):
                starts.append(poly[k])
                ends.append(poly[k + 1])
            seg_id += len(poly) - 1
        self.starts = np.array(starts)
        self.ends = np.array(ends)
        self.verts = np.array(verts)
        pad = max(len(a) for a in vert_segments)
        self.vert_segments = np.full((len(vert_segments), pad), -1, dtype=int)
        for i, adj in enumerate(vert_segments):
            self.vert_segments[i, : len(adj)] = adj
        self.tree = cKDTree(self.verts)

    def distances(self, points: np.ndarray, k: int = 6) -> np.ndarray:
        pts = np.atleast_2d(points)
        k = min(k, len(self.verts))
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


@dataclass(frozen=True)
class SymmetryResult:
    p: int
    residual: float
    tolerance: float


def _pattern_center(caustics: CausticSet) -> np.ndarray:
    """Retina image of the pupil center: the symmetry center of the pattern.

    The vertex-cloud centroid is biased by the direction-dependent vertex
    density of the extracted contours, so it is not used."""
    return map_to_retina([(0.0, 0.0)], caustics.aberration)[0]


def symmetry_order(
    caustics: CausticSet, tol_rel: float = 1e-3, p_max: int = 12
) -> SymmetryResult:
    """Largest p in {2..p_max} whose 2 pi / p rotation maps the retina
    vertex cloud onto itself within a Hausdorff tolerance; p=1 if none."""
    curves = [c for c in caustics.retina_curves if len(c) >= 2]
    if not curves:
        raise ValueError("empty caustic set")
    cloud = np.concatenate(curves, axis=0)
    center = _pattern_center(caustics)
    diameter = 2.0 * float(np.max(np.linalg.norm(cloud - center, axis=1)))
    if diameter == 0.0:
        raise ValueError("caustic cloud has zero extent")
    tol = tol_rel * diameter
    geom = _PolylineDistance(curves)
    best_residual = math.inf
    for p in range(p_max, 1, -1):
        angle = 2.0 * math.pi / p
        d1 = geom.distances(_rotate(cloud, angle, center)).max()
        d2 = geom.distances(_rotate(cloud, -angle, center)).max()
        residual = max(float(d1), float(d2))
        if residual < tol:
            return SymmetryResult(p, residual, tol)
        best_residual = min(best_residual, residual)
    return SymmetryResult(1, best_residual, tol)


def _wavefront_fold_order(w: WaveAberration) -> int:
    """p-fold symmetry readable from the azimuthal frequencies (0 = axial)."""
    orders = [abs(t.m) for t in w.terms if t.m != 0 and t.coeff != 0.0]
    if not orders:
        return 0
    return int(np.gcd.reduce(orders))


def _radial_profile(cloud: np.ndarray, centroid: np.ndarray, bins: int = 360):
    rel = cloud - centroid
    r = np.hypot(rel[:, 0], rel[:, 1])
    phi = np.arctan2(rel[:, 0], rel[:, 1]) % (2.0 * math.pi)
    idx = np.minimum((phi / (2.0 * math.pi) * bins).astype(int), bins - 1)
    profile = np.zeros(bins)
    np.maximum.at(profile, idx, r)
    occupied = np.zeros(bins, dtype=bool)
    occupied[idx] = True
    return profile, occupied, r, phi


def _profile_peaks(profile, occupied, r, phi, threshold, prominence_rel, bins):
    """Circular local maxima of the radial-extent profile.

    Peaks are found on the periodically extended profile; each peak must
    exceed the visibility threshold and protrude by at least
    ``prominence_rel`` of its own radius above its surroundings.  The tip
    is the exact vertex of largest radius near the peak bin."""
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
        if radius < threshold or props["prominences"][k] < prominence_rel * radius:
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


def _meridian_aligned(tips, p, tol):
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
        if min(d, step - d) <= tol:
            kept.append(t)
    return kept


def starburst_verdict(
    caustics: CausticSet,
    saddles: tuple[CriticalPoint, ...] = (),
    threshold_arcmin: float = 1.0,
    profile_bins: int = 360,
    prominence_rel: float = 0.05,
    secondary_ratio: float = 0.4,
    meridian_tol: float = 0.04,
    radius_split: float = 0.1,
) -> StarburstSummary:
    """Count spike tips on the mapped caustic and classify the starburst.

    Tips are local maxima of the 1-degree-binned radial extent profile
    that (i) exceed the visibility threshold, (ii) protrude by at least
    ``prominence_rel`` of their radius, (iii) lie on a symmetry meridian
    (within ``meridian_tol`` radians), and (iv) reach at least
    ``secondary_ratio`` of the dominant tip radius -- shorter protrusions
    are treated as part of the central pattern rather than starburst
    points.  ``radius_split`` is the relative gap separating "two distinct
    tip radii" from a single ring of tips.
    """
    if threshold_arcmin <= 0.0:
        raise ValueError("threshold_arcmin must be positive")
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
    center = _pattern_center(caustics)
    profile, occupied, r, phi = _radial_profile(cloud, center, profile_bins)
    tips = _profile_peaks(
        profile, occupied, r, phi, threshold_arcmin, prominence_rel, profile_bins
    )
    p = symmetry_order(caustics).p
    tips = _meridian_aligned(tips, p, meridian_tol)
    if tips:
        r_max = max(t.radius_arcmin for t in tips)
        tips = [t for t in tips if t.radius_arcmin >= secondary_ratio * r_max]
    if not tips:
        return StarburstSummary(
            p_fold=p,
            point_count=0,
            kind=NO_STARBURST,
            spike_tips=(),
            visibility_threshold=threshold_arcmin,
            detail="no resolvable meridian-aligned tips above the threshold",
        )
    radii = np.array([t.radius_arcmin for t in tips])
    spread = float((radii.max() - radii.min()) / radii.max())
    if len(tips) == p and spread <= radius_split:
        kind, detail = EQUALLY_DISTANCED, f"{p} tips at a single radius"
    elif len(tips) == 2 * p and spread > radius_split:
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

"""Zero-contour extraction, retina mapping, and the starburst verdict.

The zero-level set of the Hessian determinant G is traced over the pupil
with marching squares (linear edge interpolation, ambiguous cells resolved
by the cell-center value) on a polar mesh that keeps W's symmetry: one
wedge of a W with a mirror, completed by its exact reflection and turns,
or the whole periodic disk.  It is optically mapped to retina angular
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

from .hessian import CriticalPoint, HessianField
from .zernike import WaveAberration, _ranges, ray_coefficients

ARCMIN_PER_MRAD = 10800.0 / (1000.0 * math.pi)  # ~3.437747
MIN_GRID_RESOLUTION = 64  # smallest contour grid extract_contours accepts
# largest; analyze then peaks at 48 MB RSS on the order-12 wedge and 109 MB on
# a W with no mirror (the whole periodic mesh, evaluated a tile at a time)
MAX_GRID_RESOLUTION = 4096

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
    # the meshed wedge's vertices, and how the polylines complete them;
    # None only for polylines built by hand for fertility_report
    wedge: np.ndarray | None = None
    completion: Completion | None = None

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
    """Retina images of the pupil contours, and projected cusps of Gauss."""

    retina_curves: tuple[np.ndarray, ...]
    projected_cusps: tuple[ProjectedCusp, ...]
    aberration: WaveAberration
    # Retina image of the pupil center: the symmetry center of the pattern.
    # The vertex-cloud centroid is biased by the direction-dependent vertex
    # density of the extracted contours, so it is not used.
    center: np.ndarray
    # the (g, vertices, 2) turned copies of the wedge's image when the
    # curves complete a mirror W's wedge by g >= 2 turns, else None
    sectors: np.ndarray | None = None


@dataclass(frozen=True)
class SpikeTip:
    radius_arcmin: float
    angle: float


@dataclass(frozen=True)
class SymmetryResult:
    """symmetry_order's p, the exact residual of its rotation (None for
    p = 1) and the tolerance it was held to."""

    p: int
    residual: float | None
    tolerance: float


@dataclass(frozen=True)
class StarburstSummary:
    p_fold: int
    point_count: int
    kind: str  # "equally_distanced" | "non_equally_distanced" | "none"
    spike_tips: tuple[SpikeTip, ...]
    detail: str = ""
    # symmetry_order's result; None without a caustic or for axial W
    symmetry: SymmetryResult | None = None


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


def _stitch(nbr: np.ndarray):
    """Chains of node indices through a graph of degree 1 or 2.

    ``nbr[k]`` holds the one or two neighbours of node k, -1 padded.  Open
    chains start at their lower-numbered end, loops at their lowest node and
    run first towards its lower neighbour; a loop repeats its start.  A walk
    goes on to the neighbour that is not the node it came from, so it costs
    one comparison per node."""
    seen = np.zeros(len(nbr), dtype=bool)
    table = nbr.tolist()
    chains = []

    def walk(start):
        a, b = table[start]
        prev, current = start, (a if b < 0 or a < b else b)
        chain = [start]
        while current >= 0 and current != start:
            chain.append(current)
            a, b = table[current]
            prev, current = current, (b if a == prev else a)
        if current == start:
            chain.append(start)
        chain = np.array(chain, dtype=np.intp)
        seen[chain] = True
        return chain

    for end in np.flatnonzero(nbr[:, 1] < 0).tolist():
        if not seen[end]:
            chains.append(walk(end))
    # what is left is loops; each starts at its lowest node
    start = 0
    while start < len(nbr):
        start += int(np.argmin(seen[start:]))
        if seen[start]:
            break
        chains.append(walk(start))
    return chains


_TILE_BUDGET = 1 << 17  # mesh values evaluated at once, 1 MB


@dataclass(frozen=True)
class Completion:
    """How a contour or caustic set is assembled from the vertices of one
    meshed wedge: ``turns`` copies of the wedge turned by 2 pi k / turns,
    each with its reflection x -> -x when ``mirror``, copy 2k the turned
    copy and 2k + 1 the reflection of copy 2(-k) (without ``mirror`` only
    copy 0, the wedge itself).  Vertex v of the concatenated curves is
    vertex ``source[v]`` of copy ``copy[v]``; at each position of
    ``joins`` it is instead the mean of that copy's and copy ``other``'s
    vertex, a vertex on a mirror line shared by two copies."""

    turns: int
    mirror: bool
    copy: np.ndarray
    source: np.ndarray
    joins: np.ndarray
    other: np.ndarray
    lengths: tuple[int, ...]

    def copies(self, points: np.ndarray) -> np.ndarray:
        """The (copies, len(points), 2) turned and reflected copies of the
        wedge's ``points``, about the origin; copy 0 is ``points``."""
        k = np.arange(self.turns)
        angle = 2.0 * math.pi * np.minimum(k, self.turns - k) / self.turns
        # a turn by -a is the turn by a with sin negated, so copy 2(-k) + 1
        # is the exact reflection of copy 2k; a zero up to rounding is 0
        c = np.where(np.abs(np.cos(angle)) < 1e-15, 0.0, np.cos(angle))
        s = np.where(np.abs(np.sin(angle)) < 1e-15, 0.0, np.sin(angle))
        s = np.where(k > self.turns - k, -s, s)[:, None]
        x, y = points[:, 0], points[:, 1]
        turned = np.stack([x * c[:, None] + y * s, y * c[:, None] - x * s], axis=-1)
        turned[0] = points
        if not self.mirror:
            return turned
        out = np.empty((2 * self.turns,) + points.shape)
        out[0::2] = turned
        out[1::2] = turned[(-k) % self.turns] * [-1.0, 1.0]
        return out

    def curves(self, copies: np.ndarray) -> tuple[np.ndarray, ...]:
        """The curves, read-only, from `copies` of the wedge's vertices."""
        flat = copies[self.copy, self.source]
        flat[self.joins] = (0.5 * flat[self.joins]
                            + 0.5 * copies[self.other, self.source[self.joins]])
        flat.flags.writeable = False
        return tuple(np.split(flat, np.cumsum(self.lengths)[:-1])) if self.lengths else ()


def _wedge_pieces(chains, kind, turns):
    """The curves of the completed caustic as lists of (chain, copy,
    forward) pieces, for the wedge's chains of node indices whose end
    nodes have ``kind`` 0 (a mirror end on t = 0), 1 (on the wedge's other
    mirror line) or 2 (the rim, or a loop).  Each completed curve is copies
    of one chain: a mirror end meets the same node of the copy across that
    mirror line, copy 2k + 1 across t = 0 and copy 2k + 3 across the other
    line (copy 2k - 2 from copy 2k + 1), taken mod 2 turns."""
    def across(c, end):
        k = c // 2
        if c % 2 == 0:
            return 2 * (k + end) % (2 * turns) + 1
        return 2 * (k - end) % (2 * turns)

    curves = []
    for q, chain in enumerate(chains):
        a, b = int(kind[chain[0]]), int(kind[chain[-1]])
        if chain[0] == chain[-1] or a == b == 2:
            curves += [[(q, c, True)] for c in range(2 * turns)]
            continue
        forward = not (b == 2 or (a, b) == (1, 0))
        first = b if not forward else a
        last = a if not forward else b
        if first == 2:  # rim to mirror: one copy and the copy across
            curves += [[(q, c, forward), (q, across(c, last), not forward)]
                       for c in range(0, 2 * turns, 2)]
        elif first == last:  # a loop through two copies
            curves += [[(q, c, forward), (q, across(c, last), not forward), None]
                       for c in range(0, 2 * turns, 2)]
        else:  # a loop about the centre through every copy
            c, loop = 0, []
            for _ in range(turns):
                loop += [(q, c, forward), (q, across(c, 1), not forward)]
                c = across(across(c, 1), 0)
            curves.append(loop + [None])
    return curves


def _layout(chains, kind, turns, mirror):
    """The `Completion` of the chains of wedge nodes: pieces as
    `_wedge_pieces` lists them when ``mirror``, else each chain once."""
    if not mirror:
        pieces = [[(q, 0, True)] for q in range(len(chains))]
    else:
        pieces = _wedge_pieces(chains, kind, turns)
    copy, source, joins, other, lengths = [], [], [], [], []
    for curve in pieces:
        closed = curve[-1] is None
        curve = curve[:-1] if closed else curve
        start = len(copy)
        for n, (q, c, forward) in enumerate(curve):
            nodes = chains[q] if forward else chains[q][::-1]
            if n:  # the junction with the previous piece, on a mirror line
                joins.append(len(copy) - 1)
                other.append(c)
                nodes = nodes[1:]
            copy += [c] * len(nodes)
            source += nodes.tolist()
        if closed:  # the last vertex is the first, on the line of both
            joins.append(start)
            other.append(copy[-1])
            copy[-1:], source[-1:] = [copy[start]], [source[start]]
            joins.append(len(copy) - 1)
            other.append(other[-1])
        lengths.append(len(copy) - start)
    as_int = [np.array(v, dtype=np.intp) for v in (copy, source, joins, other)]
    return Completion(turns, mirror, *as_int, tuple(lengths))


def _mesh(field, resolution):
    """(rho, t, sin t, cos t, turns, mirror) of the polar mesh of W's
    symmetry: rho uniform on [0, 1]; t on the wedge [0, pi / turns] when W
    has a mirror at t = 0 (no odd power of x), else periodic on [0, 2 pi],
    its last column the first's.  Both steps are at most 2 / (resolution -
    1), the rho step and the rim arc step."""
    h = 2.0 / (resolution - 1)
    m = math.ceil(1.0 / h - 1e-9)
    rho = np.arange(m + 1) / m
    mirror = not np.any(field.W.coeffs[1::2])
    turns = max(field.fold, 1) if mirror else 1
    span = math.pi / turns if mirror else 2.0 * math.pi
    t = np.linspace(0.0, span, math.ceil(span / h - 1e-9) + 1)
    sin, cos = np.sin(t), np.cos(t)
    if not mirror:
        sin[-1], cos[-1] = sin[0], cos[0]
    return rho, t, sin, cos, turns, mirror


def _ray_values(a: np.ndarray, rho) -> np.ndarray:
    """G at the radii rho on the rays of `zernike.ray_coefficients` a, shape
    (len(rho), a.shape[1]): Horner in rho, each step a product with a
    contiguous copy of rho per ray, not a broadcast."""
    r = np.repeat(np.asarray(rho, dtype=float)[:, None], a.shape[1], axis=1)
    out = np.empty(r.shape)
    out[:] = a[-1]
    for ak in a[-2::-1]:
        out *= r
        out += ak
    return out


def extract_contours(field: HessianField, resolution: int = 512) -> ContourSet:
    """Marching-squares zero contours of G inside the unit pupil, on the
    polar (rho, t) index mesh of `_mesh`, completed by W's reflection and
    turns (`Completion`).

    The mesh is evaluated a tile of t columns at a time.  Cells are (i, j)
    to (i + 1, j + 1) in (rho, t) index; a saddle cell is paired by the sign
    of G at its centre.  Crossings are interpolated linearly in rho along a
    ray and in t along an arc, so a rim vertex lies on rho = 1.  A vertex on
    a mirror line is its own image; the periodic mesh's last column is its
    first, so a curve crosses t = 0 with no seam vertex."""
    if not MIN_GRID_RESOLUTION <= resolution <= MAX_GRID_RESOLUTION:
        raise ValueError(f"resolution must be at least {MIN_GRID_RESOLUTION} "
                         f"and at most {MAX_GRID_RESOLUTION}")
    rho, t, sin, cos, turns, mirror = _mesh(field, resolution)
    ni, nj = len(rho), len(t)
    a = ray_coefficients(field.G.coeffs, sin, cos)
    cells, corners = [], []
    width = max(_TILE_BUDGET // ni, 2)
    for j0 in range(0, nj - 1, width - 1):
        values = _ray_values(a[:, j0:j0 + width], rho)
        pos = (values > 0.0).view(np.uint8)
        code = pos[:-1, :-1] | pos[1:, :-1] << 1 | pos[1:, 1:] << 2 | pos[:-1, 1:] << 3
        # the mixed cells: codes 1..14 (code 0 wraps to 255)
        ci, cj = np.divmod(np.flatnonzero((code - 1) < 14), code.shape[1])
        cells.append(np.column_stack([ci, cj + j0, code[ci, cj]]))
        corners.append(np.column_stack([values[ci, cj], values[ci + 1, cj],
                                        values[ci + 1, cj + 1], values[ci, cj + 1]]))
    ci, cj, case = np.concatenate(cells).T
    v = np.concatenate(corners)

    # saddle cells: decide the pairing by the sign of G at the cell centre
    saddle = np.flatnonzero((case == 5) | (case == 10))
    rc = 0.5 * (rho[ci[saddle]] + rho[ci[saddle] + 1])
    tc = 0.5 * (t[cj[saddle]] + t[cj[saddle] + 1])
    centre = field.G(rc * np.sin(tc), rc * np.cos(tc))
    case[saddle[~(centre > 0.0)]] ^= 15

    # edge ids keep the (kind, i, j) order, radial before angular: the
    # radial edge (i, j)-(i+1, j) is i*nj + j, the angular (i, j)-(i, j+1)
    # is radial + i*(nj-1) + j; the periodic mesh's last radial column is
    # its first
    radial = (ni - 1) * nj
    edges = np.column_stack([
        ci * nj + cj,                          # (i, j)-(i+1, j)
        radial + (ci + 1) * (nj - 1) + cj,     # (i+1, j)-(i+1, j+1)
        ci * nj + cj + 1,                      # (i, j+1)-(i+1, j+1)
        radial + ci * (nj - 1) + cj,           # (i, j)-(i, j+1)
    ])
    if not mirror:
        edges[:, 2] -= np.where(cj + 1 == nj - 1, nj - 1, 0)
    ends = np.array([(0, 1), (1, 2), (3, 2), (0, 3)])  # each edge's corners
    slots = _CASES[case]
    used = slots[:, :, 0] >= 0
    cell = np.nonzero(used)[0][:, None]
    pairs = edges[cell, slots[used]]

    # neighbour table over the crossed edges; an edge lies in at most two
    # cells and is used once by each, so every node has one or two
    nodes, first, inverse = np.unique(pairs, return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1, 2)
    order = np.argsort(inverse.ravel(), kind="stable")
    src, dst = inverse.ravel()[order], inverse[:, ::-1].ravel()[order]
    second = np.concatenate([[False], src[1:] == src[:-1]])
    nbr = np.full((len(nodes), 2), -1, dtype=np.intp)
    nbr[src, second.astype(np.intp)] = dst

    # linear interpolation of the zero crossing along each edge, from the
    # corner values of a cell that holds it: in rho along a ray, in t along
    # an arc
    host, slot = cell.repeat(2, axis=1).ravel()[first], slots[used].ravel()[first]
    v0, v1 = (v[host, ends[slot, k]] for k in (0, 1))
    s = v0 / (v0 - v1)
    is_radial = nodes < radial
    i, j = np.divmod(np.where(is_radial, nodes, nodes - radial),
                     np.where(is_radial, nj, nj - 1))
    r = np.where(is_radial, rho[i] + s * (rho[np.minimum(i + 1, ni - 1)] - rho[i]), rho[i])
    ta = t[j] + s * (t[np.minimum(j + 1, nj - 1)] - t[j])
    sn = np.where(is_radial, sin[j], np.sin(ta))
    cs = np.where(is_radial, cos[j], np.cos(ta))
    wedge = np.column_stack([r * sn, r * cs])
    wedge.flags.writeable = False

    # end kinds: 0 on t = 0, 1 on the wedge's other mirror line, 2 the rim
    kind = np.where(is_radial, np.where(j == 0, 0, 1), 2)
    completion = _layout(_stitch(nbr), kind, turns, mirror)
    return ContourSet(completion.curves(completion.copies(wedge)), resolution,
                      wedge, completion)


# --------------------------------------------------------------------------
# Retina mapping
# --------------------------------------------------------------------------


def _retina_image(points, wx, wy, pupil_radius: float) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    scale = ARCMIN_PER_MRAD / pupil_radius
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        xi = -wx(pts[:, 0], pts[:, 1]) * scale
        eta = -wy(pts[:, 0], pts[:, 1]) * scale
    img = np.column_stack([xi, eta])
    if not np.all(np.isfinite(img)):
        raise ValueError(f"retina map is not finite at pupil radius {pupil_radius:g} mm")
    return img


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
    built field's Wx and Wy.  Contours completed from a wedge are mapped at
    the wedge's vertices and completed by the same reflection and turns: W
    is unchanged by them, so its gradient turns and reflects with the
    pupil, about the origin, where a W of g >= 2 turns has grad W = 0."""
    done = contours.completion
    cusps = np.array([(p.x, p.y) for p in critical_points], dtype=float).reshape(-1, 2)
    pts = np.concatenate([contours.wedge, cusps, [(0.0, 0.0)]])
    img = _retina_image(pts, field.Wx, field.Wy, w.pupil_radius)
    img.flags.writeable = False
    wedge, cusp_img, center = np.split(img, np.cumsum([len(contours.wedge), len(cusps)]))
    copies = done.copies(wedge)
    sectors = copies[0::2] if done.mirror and done.turns >= 2 else None
    projected = [
        ProjectedCusp(pt, float(xi), float(eta))
        for pt, (xi, eta) in zip(critical_points, cusp_img)
    ]
    return CausticSet(
        retina_curves=done.curves(copies),
        projected_cusps=tuple(projected),
        aberration=w,
        center=center[0],
        sectors=sectors,
    )


# --------------------------------------------------------------------------
# Distances, symmetry, verdict
# --------------------------------------------------------------------------


_PAIR_BUDGET = 1 << 14  # (point, segment) pairs evaluated at once, about 2 MB
_EXACT_REACH = 1.0 - 1e-9  # of a cell side: margin for rounding in the cell index


class _PolylineDistance:
    """Nearest-segment distances from points to a family of polylines,
    exact below a cap.

    The segments are bucketed on one uniform grid (Bentley & Friedman, ACM
    Comput. Surv. 1979).  A cell lists every segment whose bounding box
    touches it or one of its 8 neighbours, so a point's candidates hold
    every segment within one cell side of it.  The side reaches the cap: a
    point with no candidate within it is at least the cap from every
    segment, and any other point's nearest candidate is its nearest segment.
    """

    def __init__(self, polylines, cap: float):
        starts = np.concatenate([poly[:-1] for poly in polylines])
        ends = np.concatenate([poly[1:] for poly in polylines])
        self.ax, self.ay = starts.T
        self.dx, self.dy = (ends - starts).T
        den = self.dx * self.dx + self.dy * self.dy
        self.den = np.where(den > 0, den, 1.0)
        lo, hi = np.minimum(starts, ends), np.maximum(starts, ends)
        self.origin, self.cap = lo.min(axis=0), cap
        length = np.sqrt(den[den > 0])  # side: >= 1/16 of the longest
        side = max(float(np.median(length)), float(length.max()) / 16) if length.size else 1.0
        # one step up from cap / _EXACT_REACH makes side * _EXACT_REACH >= cap
        self.side = max(side, float(np.nextafter(cap / _EXACT_REACH, math.inf)))
        # cell (i, j), from (-1, -1) on, has id (i + 1) * (last[1] + 2) + j + 1;
        # ids lists the listing cells, first and count their slots in segs,
        # the segment ids sorted by cell
        c0, c1 = (np.floor((v - self.origin) / self.side).astype(np.intp) for v in (lo, hi))
        span, self.last = c1 - c0 + 3, c1.max(axis=0) + 1
        count = span[:, 0] * span[:, 1]
        seg = np.repeat(np.arange(len(count)), count)
        di, dj = np.divmod(_ranges(np.zeros_like(count), count), span[:, 1][seg])
        cell = (c0[:, 0] * (self.last[1] + 2) + c0[:, 1])[seg] + di * (self.last[1] + 2) + dj
        order = np.argsort(cell)
        cell = cell[order]
        new = np.ones(len(cell), dtype=bool)
        new[1:] = cell[1:] != cell[:-1]
        self.first = np.flatnonzero(new)
        self.ids, self.count = cell[self.first], np.diff(self.first, append=len(cell))
        self.segs = seg[order]

    def _cells(self, pts: np.ndarray):
        """(n, first): each point's number of candidate segments and the
        slot of the first in segs."""
        last, ids = self.last, self.ids
        c = np.clip(np.floor((pts - self.origin) / self.side), -1, last).astype(np.intp) + 1
        cells = c[:, 0] * (last[1] + 2) + c[:, 1]
        pos = np.minimum(np.searchsorted(ids, cells), len(ids) - 1)
        return np.where(ids[pos] == cells, self.count[pos], 0), self.first[pos]

    def _runs(self, pts: np.ndarray, n: np.ndarray, first: np.ndarray):
        """(lo, hi, nearest): the exact distance from each of the points lo
        to hi to its nearest candidate segment, inf with no candidate, for
        runs of about _PAIR_BUDGET (point, segment) pairs."""
        cuts = np.searchsorted(np.cumsum(n), np.arange(_PAIR_BUDGET, n.sum(), _PAIR_BUDGET))
        for lo, hi in zip((0, *cuts), (*cuts, len(pts))):
            nn, has = n[lo:hi], n[lo:hi] > 0
            best = np.full(hi - lo, np.inf)
            if has.any():
                seg = self.segs[_ranges(first[lo:hi], nn)]
                who = np.repeat(np.arange(lo, hi), nn)
                px, py = pts[:, 0][who], pts[:, 1][who]
                ax, ay, dx, dy = self.ax[seg], self.ay[seg], self.dx[seg], self.dy[seg]
                t = np.clip(((px - ax) * dx + (py - ay) * dy) / self.den[seg], 0.0, 1.0)
                ex, ey = px - (ax + t * dx), py - (ay + t * dy)
                best[has] = np.minimum.reduceat(np.sqrt(ex * ex + ey * ey),
                                                (np.cumsum(nn) - nn)[has])
            yield lo, hi, best

    def distances(self, pts: np.ndarray) -> np.ndarray:
        """min(distance to the nearest segment, cap) for each point, exact,
        from its candidates."""
        best = np.empty(len(pts))
        for lo, hi, nearest in self._runs(pts, *self._cells(pts)):
            best[lo:hi] = nearest
        return np.minimum(best, self.cap)

    def farthest(self, points: np.ndarray) -> float:
        """min(largest distance of the points, cap), found run by run: a
        point with no candidate segment, or the first run that holds a
        point at the cap, gives the cap with no further pairs."""
        n, first = self._cells(points)
        if not n.all():
            return self.cap
        largest = 0.0
        for _, _, nearest in self._runs(points, n, first):
            largest = float(nearest.max(initial=largest))
            if largest >= self.cap:
                return self.cap
        return largest


def _rotate(points: np.ndarray, angle: float, center: np.ndarray) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    rel = points - center
    return np.column_stack(
        [c * rel[:, 0] - s * rel[:, 1], s * rel[:, 0] + c * rel[:, 1]]
    ) + center


def _candidates(w: WaveAberration) -> list[int]:
    """The p in {_P_MAX, ..., 2}, largest first, that divide the |m| of some
    nonzero term of W with m != 0: a turn by 2 pi / p leaves a term of
    frequency m unchanged only when p divides m."""
    ms = {abs(t.m) for t in w.terms if t.coeff != 0.0 and t.m != 0}
    return [p for p in range(_P_MAX, 1, -1) if any(m % p == 0 for m in ms)]


def symmetry_order(caustics: CausticSet) -> SymmetryResult:
    """Largest candidate p (`_candidates`) whose 2 pi / p rotation
    maps the retina vertex cloud onto itself within a Hausdorff tolerance;
    p=1, with no residual, if none does.

    A caustic completed from a mirror W's wedge by g >= 2 turns is g-fold by
    construction: only the candidates that are proper multiples of g are
    searched, and p = g otherwise, its residual the largest distance between
    a vertex of either neighbouring sector turned back by 2 pi / g and the
    same vertex of the first sector: the rounding of the turns.  A searched
    p's residual is the largest exact distance from the whole cloud, rotated
    both ways, to the caustic polylines, found only up to the tolerance."""
    curves = [c for c in caustics.retina_curves if len(c) >= 2]
    if not curves:
        raise ValueError("empty caustic set")
    cloud = np.concatenate(curves, axis=0)
    center = caustics.center
    with np.errstate(over="ignore"):  # reported below
        diameter = 2.0 * float(np.max(np.linalg.norm(cloud - center, axis=1)))
    if not np.any(cloud != center):
        raise ValueError("caustic cloud has zero extent")
    where = f"the distance arithmetic at pupil radius {caustics.aberration.pupil_radius:g} mm"
    if not math.isfinite(diameter * diameter):  # squared in the distance queries
        raise ValueError(f"retina caustic overflows {where}")
    tol = _SYMMETRY_TOL_REL * diameter
    if tol * tol < np.finfo(float).tiny:  # a subnormal square loses the residual's digits
        raise ValueError(f"retina caustic underflows {where}")
    sectors = caustics.sectors
    g = 1 if sectors is None else len(sectors)
    orders = [p for p in _candidates(caustics.aberration) if p > g and p % g == 0]
    if orders:
        geom = _PolylineDistance(curves, tol)
        for p in orders:
            angle = 2.0 * math.pi / p
            both = np.concatenate([_rotate(cloud, s * angle, center) for s in (1.0, -1.0)])
            residual = geom.farthest(both)
            if residual < tol:
                return SymmetryResult(p, residual, tol)
    if g == 1:
        return SymmetryResult(1, None, tol)
    # sector 1 lies 2 pi / g on in t, so _rotate turns it back by +2 pi / g
    origin = np.zeros(2)
    residual = max(float(np.max(np.hypot(*(_rotate(sectors[k], k * 2.0 * math.pi / g, origin)
                                             - sectors[0]).T)))
                   for k in (1, -1))
    return SymmetryResult(g, residual, tol)


def _radial_profile(cloud: np.ndarray, centroid: np.ndarray):
    """(profile, bins, r, phi): each vertex's radius, angle in [0, 2 pi] and
    angle bin about the centre, and each bin's largest radius (0 if empty)."""
    rel = cloud - centroid
    r = np.hypot(rel[:, 0], rel[:, 1])
    phi = np.arctan2(rel[:, 0], rel[:, 1]) % (2.0 * math.pi)
    idx = np.minimum((phi / (2.0 * math.pi) * _PROFILE_BINS).astype(int),
                     _PROFILE_BINS - 1)
    profile = np.zeros(_PROFILE_BINS)
    np.maximum.at(profile, idx, r)
    return profile, idx, r, phi


def _find_peaks(x: np.ndarray):
    """Local maxima of the 1-D array x with their topographic prominence,
    keeping those with prominence >= 1e-12: what
    ``scipy.signal.find_peaks(x, prominence=1e-12)`` returns as indices and
    ``prominences``, bit for bit.

    A maximal run of equal values is a peak when both of its neighbours are
    lower, so a run touching either end of x is not one; the peak index is
    the run's middle, (left + right) // 2.  The prominence is x[peak] minus
    the larger of the two side minima, each taken over the run of values
    <= x[peak] that reaches out from the peak on that side."""
    n = len(x)
    if n < 3:
        return np.empty(0, dtype=np.intp), np.empty(0)
    starts = np.flatnonzero(np.concatenate([[True], x[1:] != x[:-1]]))
    ends = np.append(starts[1:] - 1, n - 1)
    v = x[starts]
    top = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    peaks = (starts[top] + ends[top]) // 2
    height = x[peaks]
    # each side's run ends before the nearest value that is not <= the peak's
    stop = ~(x <= height[:, None])
    after = np.arange(n) > peaks[:, None]
    left, right = stop & ~after, stop & after
    first = np.where(left.any(axis=1), n - left[:, ::-1].argmax(axis=1), 0)
    last = np.where(right.any(axis=1), right.argmax(axis=1), n)
    # side minima over [first, peak] and [peak, last); the odd reduceat
    # segments lie between two runs and are dropped
    padded = np.append(x, 0.0)
    left_min = np.minimum.reduceat(padded, np.column_stack([first, peaks + 1]).ravel())[::2]
    right_min = np.minimum.reduceat(padded, np.column_stack([peaks, last]).ravel())[::2]
    prominences = height - np.maximum(left_min, right_min)
    keep = prominences >= 1e-12
    return peaks[keep], prominences[keep]


def _profile_peaks(profile, q, r, phi, threshold):
    """Circular local maxima of `_radial_profile`'s profile, q its bins.

    Peaks are found on the periodically extended profile; each peak must
    exceed the visibility threshold and protrude by at least
    _PROMINENCE_REL of its own radius above its surroundings.  The tip
    is the exact vertex of largest radius in bins b - 2 to b + 2 about the
    peak bin b, the first such vertex on a tie; adjacent peaks that share
    that vertex give one tip.  Every peak's tip is picked in one pass over
    (peak, vertex) pairs, each peak paired only with the vertices in its
    bin and the three on either side: a vertex's bin is at most one off
    the bin its angle lies in."""
    bins = len(profile)
    idx, prominences = _find_peaks(np.tile(profile, 3))
    middle = (bins <= idx) & (idx < 2 * bins)
    b, prominences = idx[middle] - bins, prominences[middle]
    radius = profile[b]  # > 0 over a profile >= 0, so b holds a vertex
    b = b[~(radius < threshold) & ~(prominences < _PROMINENCE_REL * radius)]
    width = 2.0 * math.pi / bins
    lo = (b - 2) * width
    span = (b + 3) * width - lo
    # the vertices by bin, in index order within a bin
    order = np.argsort(q, kind="stable")
    first = np.searchsorted(q[order], np.arange(bins + 1))
    near = (b[:, None] + np.arange(-3, 4)) % bins
    count = first[near + 1] - first[near]
    vertex = order[_ranges(first[near].ravel(), count.ravel())]
    peak = np.repeat(np.arange(len(b)), count.sum(axis=1))
    sel = np.remainder(phi[vertex] - lo[peak], 2.0 * math.pi) < span[peak]
    peak, vertex = peak[sel], vertex[sel]
    # by peak, then largest radius, then lowest index: each peak's first
    rank = np.lexsort((vertex, -r[vertex], peak))
    peak, vertex = peak[rank], vertex[rank]
    picks = vertex[np.diff(peak, prepend=-1) != 0]
    # a vertex that tips several peaks is listed once, where it came first
    tips = [SpikeTip(radius_arcmin=float(r[j]), angle=float(phi[j]))
            for j in dict.fromkeys(picks.tolist())]
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


def _tip_pattern(radii, p):
    """(kind, detail) of the verdict for tips of these radii, listed by
    angle, on a caustic of p-fold symmetry: p tips at one radius, or 2p tips
    alternating between two radii, make a starburst.  Radii that differ by
    more than _RADIUS_SPLIT of the largest are two radii."""
    if not radii:
        return NO_STARBURST, "no resolvable meridian-aligned tips above the threshold"
    radii, count = np.array(radii), len(radii)
    spread = (radii.max() - radii.min()) / radii.max()
    if count == p and spread <= _RADIUS_SPLIT:
        return EQUALLY_DISTANCED, f"{p} tips at a single radius"
    if count != 2 * p:
        return NO_STARBURST, f"{count} tips inconsistent with {p}-fold symmetry"
    if spread > _RADIUS_SPLIT:
        long_tip = radii >= 0.5 * (radii.max() + radii.min())
        if np.all(long_tip != np.roll(long_tip, 1)):
            return NON_EQUALLY_DISTANCED, f"{count} tips alternating between two radii"
        return NO_STARBURST, "tip radii do not alternate with the symmetry"
    return NON_EQUALLY_DISTANCED, f"{count} tips, marginal radius split"


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
    points.  ``_tip_pattern`` classifies the tips.  The p-fold symmetry
    comes from one ``symmetry_order`` pass and is returned as ``symmetry``;
    an axially symmetric W (no term with m != 0) gets p_fold 0 and no
    starburst.
    """
    if not 0.0 < threshold_arcmin < math.inf:
        raise ValueError("threshold_arcmin must be positive and finite")
    p, symmetry, tips = caustics.aberration.fold_order(), None, []
    curves = [c for c in caustics.retina_curves if len(c) >= 2]
    if not p:
        # an axial caustic is rings, which every rotation maps onto themselves
        kind, detail = NO_STARBURST, "axially symmetric wavefront"
    elif not curves:
        kind, detail = NO_STARBURST, "no caustic curves"
    else:
        profile = _radial_profile(np.concatenate(curves), caustics.center)
        tips = _profile_peaks(*profile, threshold_arcmin)
        symmetry = symmetry_order(caustics)
        p = symmetry.p
        tips = _meridian_aligned(tips, p)
        r_max = max((t.radius_arcmin for t in tips), default=0.0)
        tips = [t for t in tips if t.radius_arcmin >= _SECONDARY_RATIO * r_max]
        kind, detail = _tip_pattern([t.radius_arcmin for t in tips], p)
    return StarburstSummary(
        p_fold=p,
        point_count=len(tips) if kind != NO_STARBURST else 0,
        kind=kind,
        spike_tips=tuple(tips),
        detail=detail,
        symmetry=symmetry,
    )


# --------------------------------------------------------------------------
# Fertility
# --------------------------------------------------------------------------


_SCAN_BUDGET = 1 << 16  # (saddle, vertex) pairs of one fertility_report pass


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
    distance, with circular wrap for closed polylines.  All saddles are one
    (saddles x vertices) pass over the vertices of all polylines together,
    _SCAN_BUDGET pairs at a time.
    """
    polylines = contours.polylines
    if not polylines:
        return tuple(FertilityFlag(s, False, 0, math.inf) for s in saddles)
    cloud = np.concatenate(polylines)
    counts = np.array([len(poly) for poly in polylines])
    firsts = np.cumsum(counts) - counts
    lasts = firsts + counts - 1
    closed = np.array([len(poly) > 2 and bool(np.all(poly[0] == poly[-1]))
                       for poly in polylines])
    # a run starts at a vertex within the distance whose predecessor in its
    # polyline is not; the repeated last vertex of a closed one is no vertex
    body = np.ones(len(cloud), dtype=bool)
    body[lasts[closed]] = False
    head = np.zeros(len(cloud), dtype=bool)
    head[firsts] = True
    saddles = tuple(saddles)
    sx = np.array([s.x for s in saddles], dtype=float)[:, None]
    sy = np.array([s.y for s in saddles], dtype=float)[:, None]
    flags = []
    step = max(_SCAN_BUDGET // len(cloud), 1)
    for rows in (slice(k, k + step) for k in range(0, len(saddles), step)):
        d = np.hypot(cloud[:, 0] - sx[rows], cloud[:, 1] - sy[rows])
        close = d <= distance
        starts = close & body
        starts[:, 1:] &= ~close[:, :-1] | head[1:]
        runs = np.add.reduceat(starts, firsts, axis=1, dtype=np.intp)
        # wrap joins the first and last run of a closed polyline
        runs -= closed & close[:, firsts] & close[:, lasts - 1] & (runs > 1)
        flags += [FertilityFlag(point=s, fertile=branches >= 2, branch_count=branches,
                                min_distance=nearest)
                  for s, branches, nearest in zip(saddles[rows], runs.sum(axis=1).tolist(),
                                                  d.min(axis=1).tolist())]
    return tuple(flags)

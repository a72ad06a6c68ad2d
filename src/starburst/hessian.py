"""Hessian-determinant field construction and cusp-of-Gauss search.

The Hessian determinant G = Wxx*Wyy - Wxy^2 of a wave aberration W is
built exactly in the monomial basis.  Critical points of G ("cusps of
Gauss") are located with a grid-seeded damped Newton iteration on
grad G = 0 and classified by the sign of det(Hess G): saddle if negative,
extremum if positive, degenerate inside its rounding bound (`_det_rounding_bound`).

G is built in one place, `_determinant_stack`, on a stack of W's
coefficients (`wavefront_stack`): `build_field` stacks one W of any
terms, `three_term_stacks` one W = alpha Z_2^0 + beta Z_4^0 + gamma Z_n^n
per entry of its coefficient arrays, so both give the same bits for the
same W.  Each census takes G alone, as a stack of coefficient arrays, and
derives G's first and second derivatives itself, once per call.

A W that has the mirror census (`_has_mirror_census`: alpha Z_2^0 + beta
Z_4^0 + gamma Z_n^n, and a constant) has every critical point of G on its
2n mirror meridians; `mirror_census` finds them as the certified roots of
G's restriction to two of them, and `find_critical_points` runs it for
such a field.  The 2-D seeded search below is the census of every other W.

The search is deterministic: seeds come from fixed grids, one Newton
kernel (`_newton`) runs data-parallel over points and fields, and results
are deduplicated and listed ring by ring (`_ring_order`).  A field whose W
is g-fold (g >= 2; `WaveAberration.fold_order`) is solved from the seeds
of one sector of angle 2 pi / g and the centre, and its roots are turned
into the other sectors and polished by the same kernel
(`_complete_orbits`); every zoom pass evaluates its seed grid only on the
half-plane or quadrant that holds the sectors (`_grid_axes`), and the
zoom-1 grid sets each field's |grad G| scale.  The fields of a
stack share one fold, so the crop is every field's.  Each zoom pass
seeds each grid node once, so no two seeds share (field, x, y) and each
counts once in the unconverged-seed message.  A pass reads the sign
changes of Gx and Gy from one 4-bit code per node, and the local minima
of |grad G| = np.hypot(Gx, Gy).  Each Newton trial is one evaluation of
the (Gx, Gy, Gxx, Gxy, Gyy) stack, whose Hessian the next step reuses;
the loop keeps only the running seeds' state, compacted, and drops a seed
when it stops.
Every seed runs to its own best iterate, damped and then, once
converged, undamped: deduplication keeps each root's best, and which
seed that is decides the noise-level digits of the reported point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .regions import _horner, _polish, _real_roots
from .zernike import (
    MAX_RADIAL_ORDER,
    BivariatePolynomial,
    CapabilityError,
    WaveAberration,
    _ranges,
    _trim,
    derivative,
    gathered_values,
    grid_values,
    product,
    ray_coefficients,
    row_widths,
    wavefront_stack,
)


class PointClass(str, enum.Enum):
    SADDLE = "saddle"
    EXTREMUM = "extremum"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class HessianField:
    """The four polynomials the pipeline reads: W, its gradient (Wx, Wy)
    and G = Wxx Wyy - Wxy^2; ``fold``, the order g of a rotation symmetry
    of W (`WaveAberration.fold_order`), which the census exploits when
    g >= 2; and ``mirror``, whether W has the mirror census
    (`_has_mirror_census`), which `find_critical_points` then runs."""

    W: BivariatePolynomial
    Wx: BivariatePolynomial
    Wy: BivariatePolynomial
    G: BivariatePolynomial
    fold: int
    mirror: bool = False


_OVERFLOW = "wavefront coefficients overflow the Hessian determinant"
_UNDERFLOW = "wavefront coefficients underflow the Hessian determinant"


def _determinant_stack(w: np.ndarray):
    """(Wx, Wy, G) of every polynomial of a (DX, DY, ...) stack of W's
    coefficients, G = Wxx Wyy - Wxy^2 with `product`, trimmed as `_trim`.
    ValueError when a coefficient of W, Wx, Wy or G is not finite, or when
    a field's factors Wxx and Wyy, or Wxy, are nonzero but both products of
    their largest |coefficients| are below the smallest normal float: G is
    then 0 or subnormal, and the census would take it for a constant G."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        wx, wy = derivative(w, 0), derivative(w, 1)
        wxx, wxy, wyy = derivative(wx, 0), derivative(wx, 1), derivative(wy, 1)
        xx, xy, yy = (np.abs(p).max(axis=(0, 1)) for p in (wxx, wxy, wyy))
        if np.any((np.maximum(xx * yy, xy * xy) < np.finfo(float).tiny)
                  & ((xx != 0.0) & (yy != 0.0) | (xy != 0.0))):
            raise ValueError(_UNDERFLOW)
        first, second = product(wxx, wyy), product(wxy, wxy)
        g = np.zeros(np.maximum(first.shape, second.shape))
        g[: first.shape[0], : first.shape[1]] = first
        g[: second.shape[0], : second.shape[1]] -= second
    if not all(np.isfinite(p).all() for p in (w, wx, wy, g)):
        raise ValueError(_OVERFLOW)
    return wx, wy, _trim(g)


def field_from_polynomial(w_poly: BivariatePolynomial, fold: int,
                          mirror: bool = False) -> HessianField:
    """The field of W given as a polynomial, with ``fold`` the order of its
    rotation symmetry (1 assumes none) and ``mirror`` whether W has the
    mirror census; ValueError as `_determinant_stack`."""
    if w_poly.degree > MAX_RADIAL_ORDER:
        raise CapabilityError(
            f"wavefront degree {w_poly.degree} exceeds supported maximum {MAX_RADIAL_ORDER}"
        )
    wx, wy, g = (BivariatePolynomial(p) for p in _determinant_stack(w_poly.coeffs))
    return HessianField(W=w_poly, Wx=wx, Wy=wy, G=g, fold=fold, mirror=mirror)


def _has_mirror_census(w: WaveAberration) -> bool:
    """Whether W has the mirror census: its nonzero terms lie in {Z_0^0,
    Z_2^0, Z_4^0, Z_n^n} with Z_4^0 and Z_n^n nonzero and 2 <= n <= 12.
    This is the one place that picks the census of a W.

    Such a G is P(rho) + Q(rho) cos(n theta) with Q = -k_n beta gamma rho^n,
    k_n > 0, so dG/dtheta = 0 forces sin(n theta) = 0 off the centre: every
    critical point lies on one of the 2n mirror meridians theta = k pi / n."""
    nonzero = {(t.n, t.m) for t in w.terms if t.coeff != 0.0}
    harmonic = nonzero - {(0, 0), (2, 0), (4, 0)}
    if len(harmonic) != 1 or (4, 0) not in nonzero:
        return False
    ((n, m),) = harmonic
    return m == n and 2 <= n <= MAX_RADIAL_ORDER


def build_field(w: WaveAberration) -> HessianField:
    """The full derivative field of a wave aberration, ``mirror`` set when W
    has the mirror census (`_has_mirror_census`); ValueError when it overflows
    or underflows (`_determinant_stack`); the census checks Hess G squares."""
    return field_from_polynomial(w.to_polynomial(), w.fold_order(), _has_mirror_census(w))


def _stack(arrays) -> np.ndarray:
    """(DX_k, DY_k, ...) coefficient arrays of one trailing shape, zero-padded
    to the largest (DX, DY) into one (DX, DY, len(arrays), ...) stack;
    (1, 1, 0) for none."""
    dx, dy = np.max([a.shape[:2] for a in arrays] + [(1, 1)], axis=0)
    out = np.zeros((dx, dy, len(arrays)) + (arrays[0].shape[2:] if arrays else ()))
    for k, a in enumerate(arrays):
        out[: a.shape[0], : a.shape[1], k] = a
    return out


def three_term_stacks(n: int, alpha, beta, gamma) -> np.ndarray:
    """G's (DX, DY, fields) coefficient stack for W = alpha Z_2^0 + beta Z_4^0
    + gamma Z_n^n, one field per entry of the coefficient arrays, with the
    bits of `build_field`'s G of the same W; ValueError as `_determinant_stack`."""
    return _determinant_stack(wavefront_stack(((2, 0), (4, 0), (n, n)),
                                              [alpha, beta, gamma]))[2]


# Census constants.
_GRID_SIZE = 64  # seed-grid cells per axis, per zoom pass
_MAX_ITERATIONS = 100
_DAMPING = 0.5
_MAX_HALVINGS = 6
_POLISH_ITERATIONS = 8
GRADIENT_TOL = 1e-10  # accepted |grad G|, relative to its grid maximum
DEDUP_RADIUS = 1e-6  # a fraction of the domain radius R, as every census length
_BOUNDARY_CLAMP = 1e-9
_DEGENERATE_POINT_LIMIT = 50
# Extra zoomed seeding passes around the origin: saddle rings shrink
# toward the pupil center close to region boundaries, below the cell
# size of the base grid.
_ZOOM_FACTORS = (1.0, 0.125, 0.015625)
# Unit roundoffs u per (deg G + 3) that G restricted to t = pi / n adds (`mirror_census`):
# sin t and cos t are within 6u of exact, relative to themselves, each power 2u more, so
# a_k is within (7k + 6)u of exact, relative to the |c| restriction; G_nn's weights add 16u.
_RAY_ROUNDS = 8


@dataclass(frozen=True)
class CriticalPoint:
    """A cusp of Gauss: critical point of the Hessian determinant."""

    x: float
    y: float
    rho: float
    theta: float
    kind: PointClass
    g_value: float
    hess_g_det: float
    on_boundary: bool = False


@dataclass(frozen=True)
class CriticalPointSearch:
    """Deduplicated critical points in ring order (`_ring_order`) plus
    diagnostics: ``gradient_scale`` is, for `census_from_stacks`, the
    largest |grad G| on the nodes of the zoom-1 seed grid, cropped to the
    field's fold (`_grid_axes`), which sets the Newton tolerances (0 when G
    is constant or its gradient vanishes there); for `mirror_census`, the
    bound of |dG/dy| on its mirror segments."""

    points: tuple[CriticalPoint, ...]
    degenerate: bool = False
    message: str = ""
    gradient_scale: float = 0.0

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def saddles(self) -> tuple[CriticalPoint, ...]:
        return tuple(p for p in self.points if p.kind is PointClass.SADDLE)


# Seed-grid corners are shifted by an irrational fraction of a cell so that
# grid lines never coincide with the x = 0 / y = 0 mirror axes of symmetric
# wavefronts, where one gradient component vanishes identically and exact
# zeros would defeat the sign-change test.
_GRID_SHIFT_X = (math.sqrt(2.0) - 1.0) / 2.0
_GRID_SHIFT_Y = (math.sqrt(3.0) - 1.0) / 2.0


def _grid_axes(radius: float, fold: int = 1):
    """The node coordinates (xs, ys) of the corner grid of _GRID_SIZE cells
    per axis on the square of half-side ``radius``, cropped to what seeding
    a field of fold g = ``fold`` reads (whole for g <= 1): for g >= 2 its
    sector 0 <= theta < 2 pi / g lies in x >= 0, and for g >= 4 in y >= 0
    too, so the nodes from -2h on, h the cell size, are kept on those axes.
    The first kept node's mask has lost neighbours, but it lies in no
    sector.  Every zoom pass, zoom 1 included, evaluates its grid on this
    crop, and the zoom-1 grid's nodes set the field's |grad G| scale."""
    h = 2.0 * radius / _GRID_SIZE
    xs = np.linspace(-radius, radius, _GRID_SIZE + 1) + _GRID_SHIFT_X * h
    ys = np.linspace(-radius, radius, _GRID_SIZE + 1) + _GRID_SHIFT_Y * h
    return (xs[xs >= -2.0 * h] if fold >= 2 else xs,
            ys[ys >= -2.0 * h] if fold >= 4 else ys)


def _sign_change_cells(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Cells of a corner grid where both gx and gy change sign: each node's
    4-bit code (gx > 0, gx < 0, gy > 0, gy < 0), ORed over the cell's four
    corners, has every bit set.  A zero, -0.0 or NaN sets no bit."""
    code = (gx > 0).view(np.uint8)
    code |= (gx < 0).view(np.uint8) << 1
    code |= (gy > 0).view(np.uint8) << 2
    code |= (gy < 0).view(np.uint8) << 3
    cell = code[..., :-1, :-1] | code[..., 1:, :-1]
    cell |= code[..., :-1, 1:]
    cell |= code[..., 1:, 1:]
    return cell == 15


def _local_min_mask(v: np.ndarray) -> np.ndarray:
    """Cells no greater than any of their (up to) 8 neighbours over the last
    two axes, as a separable 3x3 minimum: v <= min(v, neighbours) is v <=
    min(neighbours), and both are False where the block holds a NaN."""
    least = v.copy()  # over each cell's column of three, then its row
    np.minimum(least[..., 1:, :], v[..., :-1, :], out=least[..., 1:, :])
    np.minimum(least[..., :-1, :], v[..., 1:, :], out=least[..., :-1, :])
    columns = least.copy()
    np.minimum(least[..., 1:], columns[..., :-1], out=least[..., 1:])
    np.minimum(least[..., :-1], columns[..., 1:], out=least[..., :-1])
    return v <= least


def _collect_seeds(grad: np.ndarray, domain_radius: float, fold: int):
    """(field index, x, y) seeds from every zoom pass, each seeded once, and
    each field's largest |grad G| on the zoom-1 grid, for a stack whose
    fields share the fold g = ``fold``.  A pass seeds the centre of every
    cell of its corner grid where both components of ``grad`` change sign,
    then every node that is a corner of such a cell or a local minimum of
    |grad G|.  Each pass reads only the part of its grid that holds the
    sector (`_grid_axes`).  For g >= 2 only the seeds in the sector 0 <=
    theta < 2 pi / g are kept, plus one at the centre of each field, which
    its symmetry fixes, so the kept seeds are those of the whole grid.
    |grad G| is np.hypot(gx, gy)."""
    blocks = []
    for zoom in _ZOOM_FACTORS:
        radius = domain_radius * zoom
        xs, ys = _grid_axes(radius, fold)
        gx, gy = grid_values(grad, xs, ys)
        cells = _sign_change_cells(gx, gy)
        norm = np.hypot(gx, gy)
        if zoom == 1.0:
            gscale = norm.max(axis=(1, 2))
        h = 2.0 * radius / _GRID_SIZE
        f, ci, cj = np.unravel_index(np.flatnonzero(cells), cells.shape)
        blocks.append((f, xs[ci] + 0.5 * h, ys[cj] + 0.5 * h))
        nodes = _local_min_mask(norm)
        rows, cols = cells.shape[1:]
        for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)):  # each such cell's corners
            nodes[:, di:di + rows, dj:dj + cols] |= cells
        f, i, j = np.unravel_index(np.flatnonzero(nodes), nodes.shape)
        blocks.append((f, xs[i], ys[j]))
    centre = np.arange(grad.shape[-1] if fold >= 2 else 0)
    blocks.append((centre, np.zeros(centre.size), np.zeros(centre.size)))
    f, x, y = (np.concatenate(parts) for parts in zip(*blocks))
    keep = (fold <= 1) | (np.arctan2(x, y) % (2.0 * math.pi) < 2.0 * math.pi / max(fold, 1))
    return f[keep], x[keep], y[keep], gscale


def _newton_step(gx, gy, gxx, gxy, gyy):
    """Newton step (dx, dy) for grad G = 0 at a point, given grad G = (gx,
    gy) and Hess G = [[gxx, gxy], [gxy, gyy]] there (the rows of one
    evaluation of the census's Newton stack); not finite where det(Hess G)
    is 0."""
    det = gxx * gyy - gxy * gxy
    with np.errstate(divide="ignore", invalid="ignore"):
        dx = -(gyy * gx - gxy * gy) / det
        dy = -(-gxy * gx + gxx * gy) / det
    return dx, dy


def _newton(newton, fidx, x, y, domain_radius: float, accept_tol, floor_tol):
    """Newton on grad G = 0 from every seed at once; point k belongs to field
    ``fidx[k]``.  Every trial point is one evaluation of the (Gx, Gy, Gxx,
    Gxy, Gyy) stack ``newton``, so the next step reuses the Hessian of the
    last.  A step that does not lower |grad G| is halved, up to
    _MAX_HALVINGS times.  A point that no halving moves stops, unless its
    |grad G| is within ``accept_tol[k]``: then it takes up to
    _POLISH_ITERATIONS full steps of at most 0.05 R, and keeps its best
    iterate (full steps help where |grad G| is not monotone along Newton's
    direction, as on near-axial rings).  A point also stops at |grad G| <=
    ``floor_tol[k]``.  Returns each seed's best iterate and its |grad G|.

    The state of the points still running is kept in compacted arrays, in
    seed order, and a point leaves them, its best iterate written out, on
    the iteration it stops; the stack's `row_widths` are taken once.  All
    halvings of the points a step left worse are one evaluation: taken
    level by level, only where the last level was still worse, they need
    fewer points but more calls, and on the census's stacks a call's fixed
    cost outweighs the points saved."""
    widths = row_widths(newton)
    v = gathered_values(newton, fidx, x, y, widths)
    gn = np.hypot(v[0], v[1])
    best_x, best_y, best_gn = x.copy(), y.copy(), gn.copy()
    idx = np.flatnonzero(np.isfinite(gn) & (gn > floor_tol))  # the running seeds
    fi, x, y, v, gn = fidx[idx], x[idx], y[idx], v[:, idx], gn[idx]
    accept, floor = accept_tol[idx], floor_tol[idx]
    bx, by, bgn = x.copy(), y.copy(), gn.copy()
    full = np.full(idx.size, -1)  # full steps taken; -1 while damped
    for _ in range(_MAX_ITERATIONS):
        if idx.size == 0:
            break
        polish = full >= 0
        dx, dy = _newton_step(*v)
        step = np.hypot(dx, dy)
        ok = np.isfinite(step) & ~(polish & (step > 0.05 * domain_radius))
        dx[~ok] = dy[~ok] = 0.0
        nx, ny = x + dx, y + dy
        nv = gathered_values(newton, fi, nx, ny, widths)
        ngn = np.hypot(nv[0], nv[1])
        # where a damped step grows |grad G|, take its first halving that
        # does not, else the last; every halving of those points is one
        # evaluation
        worse = np.flatnonzero(~polish & ~(ngn <= gn))
        if worse.size:
            scale = np.cumprod(np.full((_MAX_HALVINGS, 1), _DAMPING), axis=0)
            hx = x[worse] + scale * dx[worse]
            hy = y[worse] + scale * dy[worse]
            hv = gathered_values(newton, np.tile(fi[worse], _MAX_HALVINGS),
                                 hx.ravel(), hy.ravel(), widths).reshape(len(nv), _MAX_HALVINGS, -1)
            hgn = np.hypot(hv[0], hv[1])
            better = hgn <= gn[worse]
            better[-1] = True
            pick = better.argmax(axis=0)
            col = np.arange(worse.size)
            nx[worse], ny[worse] = hx[pick, col], hy[pick, col]
            nv[:, worse], ngn[worse] = hv[:, pick, col], hgn[pick, col]
        improved = ngn < bgn
        bx[improved], by[improved], bgn[improved] = nx[improved], ny[improved], ngn[improved]
        move = improved | polish  # a damped point moves only downhill
        x[move], y[move], gn[move], v[:, move] = nx[move], ny[move], ngn[move], nv[:, move]
        stalled = ~polish & ~improved
        full[polish] += 1
        full[stalled & (bgn <= accept)] = 0
        stop = ((stalled & (full < 0)) | (full >= _POLISH_ITERATIONS)
                | (polish & (~ok | (step <= 1e-16 * domain_radius)))
                | ~(gn > floor)
                | (np.hypot(x, y) > 4.0 * domain_radius))
        if stop.any():
            done = idx[stop]
            best_x[done], best_y[done], best_gn[done] = bx[stop], by[stop], bgn[stop]
            run = ~stop
            idx, fi, x, y, v, gn = idx[run], fi[run], x[run], y[run], v[:, run], gn[run]
            accept, floor, bx, by, bgn = accept[run], floor[run], bx[run], by[run], bgn[run]
            full = full[run]
    best_x[idx], best_y[idx], best_gn[idx] = bx, by, bgn
    return best_x, best_y, best_gn


def _dedup(fidx, x, y, gn, radius: float) -> np.ndarray:
    """Indices of the points kept: in order of field, then |grad G|, each
    unless within ``radius`` (np.hypot) of an earlier kept point of its
    field.  Resolved in rounds over the close pairs: a point whose earlier
    neighbours are all dropped is kept, and drops its later neighbours."""
    order = np.lexsort((gn, fidx))
    f, px, py = fidx[order], x[order], y[order]
    # candidate pairs: by (field, x), as complex numbers compare, each point
    # with the later ones of its field at most 2 radius further in x
    by_x = np.lexsort((px, f))
    key = f[by_x] + 1j * px[by_x]
    count = np.searchsorted(key, key + 2j * radius, side="right") - np.arange(len(key)) - 1
    a = np.repeat(np.arange(len(key)), count)
    b = _ranges(np.arange(1, len(key) + 1), count)
    i, j = np.minimum(by_x[a], by_x[b]), np.maximum(by_x[a], by_x[b])
    near = np.hypot(px[i] - px[j], py[i] - py[j]) <= radius
    i, j = i[near], j[near]
    kept = np.zeros(len(order), dtype=bool)
    dropped = np.zeros(len(order), dtype=bool)
    while not np.all(kept | dropped):
        blocked = np.zeros(len(order), dtype=bool)
        blocked[j[~dropped[i]]] = True
        kept |= ~blocked & ~dropped
        dropped[j[kept[i]]] = True
    return order[kept]


def _unmatched(fidx, x, y, cf, cx, cy, rank, radius: float) -> np.ndarray:
    """Indices, in order, of the points (cf, cx, cy) that `_dedup` keeps
    beside the deduplicated points (fidx, x, y), which rank first and so
    are all kept: each point is dropped within ``radius`` of a point of
    either set that ranks before it (lower ``rank``)."""
    n = fidx.size
    kept = _dedup(np.concatenate([fidx, cf]), np.concatenate([x, cx]),
                  np.concatenate([y, cy]), np.concatenate([np.full(n, -1.0), rank]), radius)
    return np.sort(kept[kept >= n]) - n


def _complete_orbits(newton, fidx, x, y, fold: int, R: float, accept_tol, floor_tol):
    """The copies, as (fidx, x, y), that complete the orbits of the
    deduplicated points (fidx, x, y) of a stack whose fields share the fold
    g = ``fold``.  Each point off the centre is turned by 2 pi k / g for
    k = 1..g-1 (no turn for g < 2); a copy within DEDUP_RADIUS R of a point
    already found is dropped, the rest are polished by `_newton`, and a
    copy is added if it converges inside the disk onto no point already
    found.  A field with more than _DEGENERATE_POINT_LIMIT points, which is
    flagged non-isolated either way, is not completed."""
    small = np.bincount(fidx) <= _DEGENERATE_POINT_LIMIT
    src = np.flatnonzero(small[fidx] & (np.hypot(x, y) > DEDUP_RADIUS * R))
    turns = np.arange(1, fold)
    at = np.repeat(src, turns.size)
    phi = 2.0 * math.pi * np.tile(turns, src.size) / fold
    c, s = np.cos(phi), np.sin(phi)
    cf, cx, cy = fidx[at], x[at] * c + y[at] * s, y[at] * c - x[at] * s
    new = _unmatched(fidx, x, y, cf, cx, cy, np.zeros(at.size), DEDUP_RADIUS * R)
    cf, cx, cy = cf[new], cx[new], cy[new]
    cx, cy, gn = _newton(newton, cf, cx, cy, R, accept_tol[cf], floor_tol[cf])
    ok = (gn <= accept_tol[cf]) & (np.hypot(cx, cy) <= R * (1.0 + _BOUNDARY_CLAMP))
    cf, cx, cy, gn = cf[ok], cx[ok], cy[ok], gn[ok]
    new = _unmatched(fidx, x, y, cf, cx, cy, gn, DEDUP_RADIUS * R)
    return cf[new], cx[new], cy[new]


def _det_rounding_bound(hess, size, n) -> np.ndarray:
    """A bound on the rounding error of det(Hess G) = a d - b^2 computed from
    (a, b, d) = ``hess``, (Gxx, Gxy, Gyy) at each point.  Each is within
    gamma_n = n u / (1 - n u) of its ``size``, its |coefficient| polynomial
    at (|x|, |y|) (Higham 2002, eq. 5.3): Horner in x and y rounds a term
    c_ij x^i y^j 2 (i + j) + 2 times, the derivatives its coefficient twice,
    so n = 2 deg G.  a d - b^2 adds 4u (|a d| + b^2) to the errors carried."""
    a, b, d = hess
    u = np.finfo(float).eps / 2.0  # the unit roundoff
    ea, eb, ed = (n * u / (1.0 - n * u) * s for s in size)
    return (abs(a) * ed + abs(d) * ea + ea * ed + (2.0 * abs(b) + eb) * eb
            + 4.0 * u * (abs(a * d) + b * b))


def _locate(x: float, y: float, R: float) -> tuple:
    """(x, y, rho, theta, on_boundary) of a located point, clamped onto the
    rim of the disk of radius R when just outside it."""
    r = math.hypot(x, y)
    on_boundary = r >= R * (1.0 - 1e-12)
    if r > R:
        x, y, r = x * R / r, y * R / r, R
    theta = 0.0 if r < 1e-12 * R else math.atan2(x, y) % (2.0 * math.pi)
    if 2.0 * math.pi - theta < 1e-9:
        theta = 0.0
    return x, y, r, theta, on_boundary


def _ring_order(points, R: float) -> tuple:
    """``points`` by rho, each ring by theta: a point whose rho is within
    1e-9 R of the previous point's is on its ring.  The members of a ring
    share rho up to rounding, so (rho, theta) would order them by noise."""
    rings: list[list[CriticalPoint]] = []
    for p in sorted(points, key=lambda p: p.rho):
        if rings and p.rho - rings[-1][-1].rho <= 1e-9 * R:
            rings[-1].append(p)
        else:
            rings.append([p])
    return tuple(p for ring in rings for p in sorted(ring, key=lambda p: p.theta))


def find_critical_points(
    field: HessianField, domain_radius: float = 1.0
) -> CriticalPointSearch:
    """Locate all cusps of Gauss inside the disk of radius ``domain_radius``
    (the unit pupil, or a dilated one): `mirror_census` of one when W has
    it (``mirror``), else `census_from_stacks` of one."""
    census = mirror_census if field.mirror else census_from_stacks
    return census(field.G.coeffs[:, :, None], field.fold, domain_radius)[0]


def _checked(g, fold, domain_radius):
    """(G trimmed, each field's degree, its (Gxx, Gxy, Gyy) as a (DX, DY, 3,
    fields) stack) for a census of the stack ``g`` on the disk of radius R =
    ``domain_radius``; ValueError for an R that is not positive and finite,
    a ``g`` that is not a stack, a ``fold`` that is not a non-negative
    integer, and unless every coefficient of G is finite and each field's
    Hess G on the disk can be squared, as det(Hess G) = Gxx Gyy - Gxy^2
    squares it (nothing squares G): twice the square of the largest of its
    bounds sum |c_ij| R^(i+j), Horner's values of |c| at (R, R), must be 0
    or a normal float (NaN fails too).  The products and the Horner steps
    are `derivative`'s and `grid_values`', so all of it keeps its bits."""
    R = domain_radius
    if not (R > 0 and math.isfinite(R)):
        raise ValueError(f"domain_radius must be positive and finite, got {R}")
    g = np.asarray(g, dtype=float)
    if g.ndim != 3:  # a lone polynomial's columns would pass for fields
        raise ValueError(f"g must be a (DX, DY, fields) coefficient stack, got shape {g.shape}")
    if isinstance(fold, bool) or not isinstance(fold, int) or fold < 0:
        raise ValueError(f"fold must be a non-negative integer, got {fold!r}")
    g = _trim(g)
    i, j = np.arange(g.shape[0])[:, None, None], np.arange(g.shape[1])[:, None]
    hess = np.zeros(g.shape[:2] + (3,) + g.shape[2:])  # Gxx, Gxy, Gyy, zero-padded
    with np.errstate(over="ignore", invalid="ignore"):
        hess[:-2, :, 0] = g[2:] * i[2:] * i[1:-1]
        hess[:-1, :-1, 1] = g[1:, 1:] * i[1:] * j[1:]
        hess[:, :-2, 2] = g[:, 2:] * j[2:] * j[1:-1]
        # Horner in x, then y, of |c| at (R, R)
        bound = np.polyval(np.polyval(np.abs(hess)[::-1], R)[::-1], R).max(axis=0)
        square = 2.0 * bound * bound
    if not (np.isfinite(square).all() and np.isfinite(g).all()):
        raise ValueError(_OVERFLOW)
    if np.any((bound != 0.0) & (square < np.finfo(float).tiny)):
        raise ValueError(_UNDERFLOW)
    return g, np.where(g != 0.0, i + j, 0).max(axis=(0, 1)), hess


def _classed_points(n_fields: int, fidx, located, g_value, det, bound, R: float) -> list[tuple]:
    """Each field's points in ring order (`_ring_order`): point k of field
    ``fidx[k]`` at ``located[k]`` (`_locate`), with G ``g_value[k]`` and det
    Hess G ``det[k]``, classed by its sign outside ``bound[k]``."""
    points: list[list[CriticalPoint]] = [[] for _ in range(n_fields)]
    for (x, y, r, theta, on_boundary), f, value, d, e in zip(
            located, fidx.tolist(), g_value, det, bound):
        kind = (PointClass.SADDLE if d < -e else
                PointClass.EXTREMUM if d > e else PointClass.DEGENERATE)
        points[f].append(CriticalPoint(x, y, r, theta, kind, float(value), float(d), on_boundary))
    return [_ring_order(p, R) for p in points]


def census_from_stacks(
    g: np.ndarray, fold: int, domain_radius: float = 1.0
) -> list[CriticalPointSearch]:
    """Census of every field of ``g``, a (DX, DY, fields) stack of G's
    coefficients, inside the disk of radius ``domain_radius``, by the 2-D
    seeded Newton search.  G's first derivatives are taken here, once per
    call, with `zernike.derivative`, and its second with `_checked`'s.

    ``fold`` is the fold g every field of the stack shares: G is unchanged
    by a turn of 2 pi / g, as it is when W is (for g <= 1 nothing is
    assumed).  For g >= 2 only the seeds of one sector of angle 2 pi / g
    and the centre are solved (`_collect_seeds`), and the roots found are
    turned into the other sectors (`_complete_orbits`).  Every off-centre
    critical point then has an orbit of g points, and a census whose
    off-centre count is not a multiple of g says so.  Each result is the
    field's census alone: it does not depend on the other fields of the
    stack.

    Returns a flagged empty result for a field whose G is constant (every
    coefficient but [0, 0] zero) or whose critical set is non-isolated (more
    deduplicated points than ``_DEGENERATE_POINT_LIMIT``, as happens for
    axially symmetric W).  ValueError as `_checked`.
    """
    R = domain_radius
    g, degree, hess = _checked(g, fold, R)
    n_fields = g.shape[-1]
    if not n_fields:
        return []
    constant = ~np.any(g.reshape(-1, n_fields)[1:], axis=0)
    # (Gx, Gy, Gxx, Gxy, Gyy): seeding (the first two), Newton, the points' Hess G
    newton = _stack([derivative(g, 0), derivative(g, 1), *np.moveaxis(hess, 2, 0)])
    fidx, x, y, gscale = _collect_seeds(newton[:, :, :2], R, fold)
    accept_tol, floor_tol = GRADIENT_TOL * gscale, 1e-16 * gscale
    live = ~constant[fidx] & (gscale[fidx] != 0.0)
    fidx, x, y = fidx[live], x[live], y[live]
    n_seeds = np.bincount(fidx, minlength=n_fields)
    x, y, gn = _newton(newton, fidx, x, y, R, accept_tol[fidx], floor_tol[fidx])
    ok = gn <= accept_tol[fidx]
    n_unconverged = np.bincount(fidx[~ok], minlength=n_fields)
    keep = ok & (np.hypot(x, y) <= R * (1.0 + _BOUNDARY_CLAMP))
    fidx, x, y, gn = fidx[keep], x[keep], y[keep], gn[keep]

    # keep the best-converged representative of each cluster
    kept = _dedup(fidx, x, y, gn, DEDUP_RADIUS * R)
    fidx, x, y = fidx[kept], x[kept], y[kept]
    copies = _complete_orbits(newton, fidx, x, y, fold, R, accept_tol, floor_tol)
    fidx, x, y = (np.concatenate(pair) for pair in zip((fidx, x, y), copies))
    n_kept = np.bincount(fidx, minlength=n_fields)
    kept = n_kept[fidx] <= _DEGENERATE_POINT_LIMIT
    fidx, x, y = fidx[kept], x[kept], y[kept]
    n_off = np.bincount(fidx[np.hypot(x, y) > DEDUP_RADIUS * R], minlength=n_fields)
    # each point located, then valued
    located = [_locate(float(px), float(py), R) for px, py in zip(x, y)]
    px, py = np.array([p[:2] for p in located]).reshape(-1, 2).T
    value = gathered_values(g, fidx, px, py)
    hess = gathered_values(newton[:, :, 2:], fidx, px, py)
    size = gathered_values(np.abs(newton[:, :, 2:]), fidx, np.abs(px), np.abs(py))
    bound = _det_rounding_bound(hess, size, 2 * degree[fidx])
    # b ** 2 of a numpy float is pow(), which can differ from b * b in the
    # last bit; the determinants reported have always used it
    det = [a * d - b**2 for a, b, d in zip(*hess)]
    points = _classed_points(n_fields, fidx, located, value, det, bound, R)

    results = []
    for f in range(n_fields):
        degenerate, notes = False, []
        if constant[f]:
            degenerate, notes = True, ["hessian determinant is constant"]
        elif gscale[f] == 0.0:
            degenerate, notes = True, ["gradient of G vanishes on the sample grid"]
        elif n_kept[f] > _DEGENERATE_POINT_LIMIT:
            degenerate = True
            notes = [f"non-isolated critical set ({n_kept[f]} deduplicated points)"]
        else:
            if n_unconverged[f]:
                notes.append(f"{n_unconverged[f]} of {n_seeds[f]} seeds did not converge")
            if fold >= 2 and n_off[f] % fold:
                notes.append(f"off-centre count {n_off[f]} is not a multiple of "
                             f"the {fold}-fold symmetry")
        results.append(CriticalPointSearch(
            points[f], degenerate, "; ".join(notes), float(gscale[f])))
    return results


def _root_count(coeffs: list[float]) -> int | None:
    """The number of distinct real roots in (0, 1) of the polynomial P of
    ascending float coefficients, by Descartes' rule of signs on dyadic
    halvings of (0, 1) (Collins & Akritas, 1976): the sign variations of
    (1 + x)^d P(1 / (1 + x)) bound P's roots in (0, 1) and share their
    parity, and P_L(x) = 2^d P(x / 2), P_R(x) = P_L(x + 1) move the halves
    onto (0, 1).  Floats are dyadic rationals, so the coefficients, scaled to
    integers, are transformed exactly.  None when a halving point is a root,
    or an interval narrower than DEDUP_RADIUS still has two variations or
    more (a double root, or two roots that close)."""
    def shifted(p):  # p(x + 1), by repeated synthetic division
        p = list(p)
        for i in range(len(p) - 1):
            for j in range(len(p) - 2, i - 1, -1):
                p[j] += p[j + 1]
        return p

    ratios = [c.as_integer_ratio() for c in coeffs]
    den = max(m for _, m in ratios)
    d, count, todo = len(coeffs) - 1, 0, [([n * (den // m) for n, m in ratios], 1.0)]
    while todo:
        p, width = todo.pop()
        signs = [c > 0 for c in shifted(p[::-1]) if c]
        variations = sum(a != b for a, b in zip(signs, signs[1:]))
        if variations <= 1:
            count += variations
            continue
        left = [c << (d - k) for k, c in enumerate(p)]
        right = shifted(left)
        if width < DEDUP_RADIUS or not right[0]:
            return None
        todo += [(left, width / 2.0), (right, width / 2.0)]
    return count


def mirror_census(
    g: np.ndarray, fold: int, domain_radius: float = 1.0
) -> list[CriticalPointSearch]:
    """Census of every field of ``g``, a (DX, DY, fields) stack of the G of
    wavefronts of order n = ``fold`` that have it (`_has_mirror_census`),
    inside the disk of radius R = ``domain_radius``, from the roots of G on
    its mirror lines t = 0 and pi / n.

    One `zernike.ray_coefficients` call restricts G, Gxx, Gxy, Gyy and
    their |c| to both mirrors, G = sum a_k rho^k.  G's derivative across a
    mirror is 0, so its critical points there are the centre and the roots
    of q = sum k a_k rho^(k-2), solved in u = rho / R for every field and
    mirror at once (`regions._real_roots`, `regions._polish`); a root within
    d = DEDUP_RADIUS of another is dropped, and each root in
    (0, 1 + _BOUNDARY_CLAMP] stands for its orbit of n points.  A root is
    certified when q changes sign across [u - d, u + d] (from 0 when u < d),
    an interval that meets no other root's, beyond Horner's a-priori bound
    gamma_m sum |a|_k |u|^k at both ends (Higham 2002, §5.1), |a| the
    restriction of |c| and m = 2 deg G of the field, as in
    `_det_rounding_bound`; on t = pi / n, whose sin and cos are rounded, m
    adds _RAY_ROUNDS (deg G + 3), and t = 0 reads G's x^0 row bit for bit.
    The roots in (0, 1) are complete when their number certified equals
    `_root_count` of q; then any other candidate in (0, 1) is no root, and
    is dropped.  Each failed check is named in the field's message.

    Each orbit, and the centre, is valued and classed once, with its
    mirror's m, at its located rho (`_locate`) on that mirror: G, and
    det(Hess G) = G_rhorho G_nn (G_rho,n = 0 on a mirror), G_nn = cos^2 t Gxx
    - 2 sin t cos t Gxy + sin^2 t Gyy; its n points, turned exactly, carry
    those values.  ``gradient_scale`` is the larger of the mirrors' bounds
    sum |k a_k| R^(k-1) of |dG/drho| on [0, R].  ValueError as `_checked`,
    and for a fold below 2."""
    R = domain_radius
    g, degree, hess = _checked(g, fold, R)
    if fold < 2:
        raise ValueError(f"the mirror census needs a fold of at least 2, got {fold}")
    n_fields = g.shape[2]
    if not n_fields:
        return []
    # G, Gxx, Gxy, Gyy and their |c| on t = 0 and pi / n (cos t as sin(pi / 2
    # - t), 0 at n = 2) as (k, polynomial, column mirror * n_fields + field),
    # zero-padded to k = 2 at least, as q needs
    polys = np.concatenate([g[:, :, None], hess], axis=2)
    t = math.pi / fold
    sin, cos = np.array([[0.0, math.sin(t)], [1.0, math.sin(math.pi / 2.0 - t)]])
    rays = ray_coefficients(np.concatenate([polys, np.abs(polys)], axis=2)[:, :, :, None],
                            sin[:, None], cos[:, None])
    rays = rays.reshape(len(rays), 8, -1)
    rays = np.concatenate([rays, np.zeros((max(3 - len(rays), 0), 8, rays.shape[2]))])
    # q of each mirror and field, and its |c| restriction, in u
    k = np.arange(len(rays) - 2)[:, None]
    dq = rays[2:, 0::4].swapaxes(0, 1) * (k + 2)
    m, e = math.frexp(R)  # R^k = 2^(k (e - 1)) (2 m)^k: no power overflows,
    with np.errstate(over="ignore"):  # and no subnormal c loses a bit
        a, size = np.ldexp(dq, k * (e - 1)) * (2 * m)**k
    col, u = _real_roots(a)
    inside = (0.0 < u) & (u <= 1.0 + _BOUNDARY_CLAMP)
    col, u = col[inside], _polish(a[:, col[inside]], u[inside])[0]
    order = np.lexsort((u, col))
    col, u = col[order], u[order]
    keep = (0.0 < u) & (u <= 1.0 + _BOUNDARY_CLAMP)
    keep[1:] &= (np.diff(col) != 0) | (np.diff(u) > DEDUP_RADIUS)
    col, u = col[keep], u[keep]
    ends = np.stack([np.maximum(u - DEDUP_RADIUS, 0.0), u + DEDUP_RADIUS])
    value = _horner(a[:, col], ends)[0]
    rounds = np.concatenate([2 * degree, 2 * degree + _RAY_ROUNDS * (degree + 3)])
    unit = np.finfo(float).eps / 2.0
    bound = rounds[col] * unit / (1.0 - rounds[col] * unit) * _horner(size[:, col], ends)[0]
    overlap = (np.diff(col) == 0) & (np.diff(u) <= 2.0 * DEDUP_RADIUS)
    certified = ((value[0] < 0.0) != (value[1] < 0.0)) & (np.abs(value) > bound).all(axis=0)
    certified[1:] &= ~overlap  # disjoint intervals prove distinct roots
    certified[:-1] &= ~overlap
    found = np.bincount(col[certified & (u < 1.0)], minlength=2 * n_fields)
    counts = [_root_count(column) for column in a.T.tolist()]
    # where Descartes' count is the number certified, the rest in (0, 1) are no roots
    settled = np.array([-1 if c is None else c for c in counts]) == found
    col, u, certified = (v[certified | (u >= 1.0) | ~settled[col]] for v in (col, u, certified))
    unproven = np.bincount(col[~certified], minlength=2 * n_fields)

    # centres, then roots, at rho on their mirror: the restrictions, G_rhorho, then G_nn
    at = np.concatenate([np.arange(n_fields), col])
    rho = np.array([0.0] * n_fields + [_locate(0.0, r, R)[1] for r in (R * u).tolist()])
    curves = np.zeros((len(rays), 10, at.size))
    curves[:, :8], curves[:-2, 8:] = rays[..., at], (dq * (k + 1))[..., at].swapaxes(0, 1)
    g_value, xx, xy, yy, _, s_xx, s_xy, s_yy, hess_rr, rr_bound = np.polyval(curves[::-1], rho)
    c2, sc, s2 = np.array([cos * cos, 2.0 * sin * cos, sin * sin])[:, at // n_fields]
    hess_nn, nn_bound = c2 * xx - sc * xy + s2 * yy, c2 * s_xx + sc * s_xy + s2 * s_yy
    det = hess_nn * hess_rr
    det_bound = _det_rounding_bound((hess_nn, 0.0, hess_rr), (nn_bound, 0.0, rr_bound), rounds[at])
    # each orbit's n points, turned exactly, with its values
    orbit = np.concatenate([np.arange(n_fields), n_fields + np.repeat(np.arange(col.size), fold)])
    phi = (2.0 * np.arange(fold) + col[:, None] // n_fields) * math.pi / fold
    x = np.concatenate([np.zeros(n_fields), (R * u[:, None] * np.sin(phi)).ravel()])
    y = np.concatenate([np.zeros(n_fields), (R * u[:, None] * np.cos(phi)).ravel()])
    located = [_locate(px, py, R) for px, py in zip(x.tolist(), y.tolist())]
    points = _classed_points(n_fields, at[orbit] % n_fields, located,
                             g_value[orbit], det[orbit], det_bound[orbit], R)
    scale = R * _horner(np.abs(a), 1.0)[0].reshape(2, n_fields).max(axis=0)
    results = []
    for f in range(n_fields):
        notes = []
        for c, name in ((f, "0"), (n_fields + f, f"pi/{fold}")):
            if unproven[c]:
                notes.append(f"no sign change of their own certifies {unproven[c]} root(s) "
                             f"on the theta = {name} mirror")
            if counts[c] != found[c]:
                notes.append(f"the theta = {name} mirror has {found[c]} certified roots inside "
                             "the disk, and Descartes' rule " + (
                                 "cannot isolate its roots" if counts[c] is None
                                 else f"counts {counts[c]}"))
        results.append(CriticalPointSearch(points[f], False, "; ".join(notes), float(scale[f])))
    return results


def saddle_upper_bound(w: WaveAberration) -> int:
    """Combinatorial bound (n-2)(2n-5) on saddle cusps for degree n >= 3."""
    n = w.degree()
    if n < 3:
        return 0
    return (n - 2) * (2 * n - 5)


@dataclass(frozen=True)
class RescaleReport:
    """Outcome of comparing critical points before/after a pupil dilation."""

    factor: float
    passed: bool
    max_position_error: float
    count: int
    degenerate: bool
    message: str = ""


def rescale_check(w: WaveAberration, factor: float) -> RescaleReport:
    """Verify that critical points of W(x/r, y/r) are the r-scaled points of W.

    Positions are compared in normalized (unit-pupil) coordinates; classes
    must agree and the correspondence must be a bijection.  A failed check
    says why, and names the coefficients of the dilated G that underflowed.
    """
    if not (factor > 0 and math.isfinite(factor)):
        raise ValueError(f"factor must be positive and finite, got {factor}")
    base_field = build_field(w)
    base = find_critical_points(base_field)
    scaled_field = field_from_polynomial(w.to_polynomial().rescale_domain(factor), w.fold_order(),
                                         base_field.mirror)
    scaled = find_critical_points(scaled_field, domain_radius=factor)

    def failed(count, degenerate, message, error=math.inf):
        # name the coefficients of the dilated G that are subnormal, and the
        # nonzero ones of the undilated G that are 0 in it
        g, dilated = np.moveaxis(_stack([base_field.G.coeffs, scaled_field.G.coeffs]), 2, 0)
        subnormal = np.count_nonzero((dilated != 0.0) & (np.abs(dilated) < np.finfo(float).tiny))
        lost = np.count_nonzero((g != 0.0) & (dilated == 0.0))
        if subnormal or lost:
            message += (f"; underflow in the dilated G: {subnormal} subnormal coefficients, "
                        f"{lost} of the undilated G's {np.count_nonzero(g)} nonzero ones lost")
        return RescaleReport(factor, False, error, count, degenerate, message)

    if base.degenerate and scaled.degenerate:
        return RescaleReport(factor, True, 0.0, 0, True, "degenerate in both domains")
    if base.degenerate != scaled.degenerate:
        return failed(0, True, "degeneracy flags disagree")
    if len(base) != len(scaled):
        return failed(len(base), False, f"count mismatch: {len(base)} vs {len(scaled)}")
    used = set()
    max_err = 0.0
    for p in base.points:
        best_j, best_d = -1, math.inf
        for j, q in enumerate(scaled.points):
            if j in used:
                continue
            d = math.hypot(q.x / factor - p.x, q.y / factor - p.y)
            if d < best_d:
                best_j, best_d = j, d
        if best_j < 0 or scaled.points[best_j].kind is not p.kind:
            return failed(len(base), False, "class mismatch")
        used.add(best_j)
        max_err = max(max_err, best_d)
    if max_err >= 1e-8:
        return failed(len(base), False, f"position error {max_err:.3g}", max_err)
    return RescaleReport(factor, True, max_err, len(base), False)

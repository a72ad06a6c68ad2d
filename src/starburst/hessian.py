"""Hessian-determinant field construction and cusp-of-Gauss search.

The Hessian determinant G = Wxx*Wyy - Wxy^2 of a wave aberration W is
built exactly in the monomial basis.  Critical points of G ("cusps of
Gauss") are located with a grid-seeded damped Newton iteration on
grad G = 0 and classified by the sign of det(Hess G): saddle if negative,
extremum if positive, degenerate inside a scale-normalized threshold band.

The census takes G alone, as a stack of coefficient arrays, and derives
G's first and second derivatives itself, once per call.  For the
three-term family W = alpha Z_2^0 + beta Z_4^0 + gamma Z_n^n that stack is
contracted from a cached basis of pair polynomials (`three_term_stacks`);
`build_field` serves any W.

The search is deterministic: seeds come from fixed grids, one Newton
kernel (`_newton`) runs data-parallel over points and fields, and results
are deduplicated and listed ring by ring (`_ring_order`).  A field whose W
is g-fold (g >= 2; `WaveAberration.fold_order`) is solved from the seeds
of one sector of angle 2 pi / g and the centre, and its roots are turned
into the other sectors and polished by the same kernel
(`_complete_orbits`).  Each zoom pass seeds each grid node once, so no two
seeds share (field, x, y) and each counts once in the unconverged-seed
message.  A pass reads the sign
changes of Gx and Gy from one 4-bit code per node, and the local minima of
|grad G| from gx^2 + gy^2 scaled by a power of two per field, not from
np.hypot.  Each Newton trial is one evaluation of the (Gx, Gy, Gxx, Gxy,
Gyy) stack, whose Hessian the next step reuses; the loop keeps only the
running seeds' state, compacted, and drops a seed when it stops.  Every
seed runs to its own best iterate, damped and then, once converged,
undamped: deduplication keeps each root's best, and which seed that is
decides the noise-level digits of the reported point.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .zernike import (
    MAX_RADIAL_ORDER,
    BivariatePolynomial,
    CapabilityError,
    WaveAberration,
    ZernikeTerm,
    _trim,
    derivative,
    gathered_values,
    grid_values,
    row_widths,
)


class PointClass(str, enum.Enum):
    SADDLE = "saddle"
    EXTREMUM = "extremum"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class HessianField:
    """The four polynomials the pipeline reads: W, its gradient (Wx, Wy)
    and G = Wxx Wyy - Wxy^2; and ``fold``, the order g of a rotation
    symmetry of W (`WaveAberration.fold_order`), which the census exploits
    when g >= 2."""

    W: BivariatePolynomial
    Wx: BivariatePolynomial
    Wy: BivariatePolynomial
    G: BivariatePolynomial
    fold: int


def _derivatives(w_poly: BivariatePolynomial):
    """(Wx, Wy, Wxx, Wxy, Wyy) of the polynomial W."""
    wx = w_poly.differentiate("x")
    wy = w_poly.differentiate("y")
    return wx, wy, wx.differentiate("x"), wx.differentiate("y"), wy.differentiate("y")


def field_from_polynomial(w_poly: BivariatePolynomial, fold: int) -> HessianField:
    """The field of W given as a polynomial, with ``fold`` the order of its
    rotation symmetry (1 assumes none)."""
    if w_poly.degree > MAX_RADIAL_ORDER:
        raise CapabilityError(
            f"wavefront degree {w_poly.degree} exceeds supported maximum {MAX_RADIAL_ORDER}"
        )
    wx, wy, wxx, wxy, wyy = _derivatives(w_poly)
    xx, xy, yy = (np.abs(p.coeffs).max(initial=0.0) for p in (wxx, wxy, wyy))
    _require_normal_products(np.array([xx, xy]), np.array([yy, xy]))
    return HessianField(W=w_poly, Wx=wx, Wy=wy, G=wxx * wyy - wxy * wxy, fold=fold)


_OVERFLOW = "wavefront coefficients overflow the Hessian determinant"
_UNDERFLOW = "wavefront coefficients underflow the Hessian determinant"


def _require_normal_products(left, right) -> None:
    """ValueError when some pair of a field's Hessian factors, paired along
    axis 0 (each a coefficient, or a polynomial's largest |coefficient|), is
    nonzero in both, but every pair's product is below the smallest normal
    float: G, the sum of those products, is then 0 or subnormal, and the
    census would take it for a constant G.  Overflowing products are left
    for the overflow checks."""
    with np.errstate(over="ignore", invalid="ignore"):
        small = np.max(np.abs(left * right), axis=0) < np.finfo(float).tiny
    if np.any(small & np.any((left != 0.0) & (right != 0.0), axis=0)):
        raise ValueError(_UNDERFLOW)


def _require_squarable(g_hess: np.ndarray, r: float) -> None:
    """ValueError unless the census can square the values of G and of Hess G
    of each field of a (G, Gxx, Gxy, Gyy) stack on the disk of radius r:
    |G|^2 scales the band, det(Hess G) = Gxx Gyy - Gxy^2.  Each polynomial's
    sum |c_ij| r^(i+j), the Horner value of |c| at (r, r), bounds its values
    there; twice the square of G's bound, and of the largest of Gxx, Gxy and
    Gyy's, must each be 0 or a normal float (NaN fails too).  Hess G is R^2
    smaller than G on a disk of radius R, so neither bound stands for both."""
    with np.errstate(over="ignore", invalid="ignore"):
        bound = grid_values(np.abs(g_hess), [r], [r])[..., 0, 0]
        bound = np.stack([bound[0], bound[1:].max(axis=0)])
        square = 2.0 * bound * bound
    if not np.isfinite(square).all():
        raise ValueError(_OVERFLOW)
    if np.any((bound != 0.0) & (square < np.finfo(float).tiny)):
        raise ValueError(_UNDERFLOW)


def build_field(w: WaveAberration) -> HessianField:
    """The full derivative field of a wave aberration; ValueError when it
    overflows.  Whether the census can square G is the census's check."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        field = field_from_polynomial(w.to_polynomial(), w.fold_order())
    if not all(np.isfinite(p.coeffs).all() for p in (field.W, field.Wx, field.Wy, field.G)):
        raise ValueError(_OVERFLOW)
    return field


def _stack(arrays) -> np.ndarray:
    """(DX_k, DY_k, ...) coefficient arrays of one trailing shape, zero-padded
    to the largest (DX, DY) into one (DX, DY, len(arrays), ...) stack;
    (1, 1, 0) for none."""
    dx, dy = np.max([a.shape[:2] for a in arrays] + [(1, 1)], axis=0)
    out = np.zeros((dx, dy, len(arrays)) + (arrays[0].shape[2:] if arrays else ()))
    for k, a in enumerate(arrays):
        out[: a.shape[0], : a.shape[1], k] = a
    return out


# The three-term family W = alpha Z_2^0 + beta Z_4^0 + gamma Z_n^n: G is
# quadratic in (alpha, beta, gamma), so it is a sum of one pair polynomial
# per product of two coefficients, in this order.
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


@functools.cache
def _pair_basis(n: int) -> np.ndarray:
    """The (DX, DY, 6) coefficient stack of the three-term family's pair
    polynomials of G for order n, one per entry of _PAIRS."""
    hessians = [_derivatives(ZernikeTerm(k, m, 1.0).to_polynomial())[2:]
                for k, m in ((2, 0), (4, 0), (n, n))]
    pairs = []
    for a, b in _PAIRS:
        (pxx, pxy, pyy), (qxx, qxy, qyy) = hessians[a], hessians[b]
        g = pxx * qyy - pxy * qxy
        if a != b:  # c_a c_b appears twice in G = Wxx Wyy - Wxy^2
            g = g + qxx * pyy - qxy * pxy
        pairs.append(g.coeffs)
    basis = _stack(pairs)
    basis.flags.writeable = False  # shared by every caller
    return basis


def three_term_stacks(n: int, alpha, beta, gamma) -> np.ndarray:
    """G's (DX, DY, fields) coefficient stack for W = alpha Z_2^0 + beta Z_4^0
    + gamma Z_n^n, one field per entry of the coefficient arrays, contracted
    from the cached pair basis; products that overflow are left for the
    census to reject; ValueError when they underflow
    (`_require_normal_products`)."""
    c = np.array([alpha, beta, gamma], dtype=float)
    left, right = c[[a for a, _ in _PAIRS]], c[[b for _, b in _PAIRS]]
    _require_normal_products(left, right)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.tensordot(_pair_basis(n), left * right, axes=1)


# Census constants.
_GRID_SIZE = 64  # seed-grid cells per axis, per zoom pass
_MAX_ITERATIONS = 100
_DAMPING = 0.5
_MAX_HALVINGS = 6
_POLISH_ITERATIONS = 8
GRADIENT_TOL = 1e-10  # accepted |grad G|, relative to its grid maximum
DEDUP_RADIUS = 1e-6  # a fraction of the domain radius R, as every census length
# |det Hess G| below DEGENERACY_REL_THRESHOLD * (max |G| on grid / R^2)^2, in
# det Hess G's units, is classified degenerate.  1e-12 keeps a >1e6 margin
# over the double-precision evaluation noise while not swallowing the
# genuinely small determinants of rings close to a merge transition.
DEGENERACY_REL_THRESHOLD = 1e-12
_BOUNDARY_CLAMP = 1e-9
_DEGENERATE_POINT_LIMIT = 50
# Extra zoomed seeding passes around the origin: saddle rings shrink
# toward the pupil center close to region boundaries, below the cell
# size of the base grid.
_ZOOM_FACTORS = (1.0, 0.125, 0.015625)


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
    diagnostics."""

    points: tuple[CriticalPoint, ...]
    degenerate: bool = False
    message: str = ""
    g_scale: float = 0.0
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


def _grid_axes(radius: float, least: int = 1):
    """The node coordinates (xs, ys) of the corner grid of _GRID_SIZE cells
    per axis on the square of half-side ``radius``, cropped to what seeding
    a stack whose smallest fold is ``least`` reads (whole for least <= 1):
    for least >= 2 every field's sector 0 <= theta < 2 pi / g lies in
    x >= 0, and for least >= 4 in y >= 0 too, so the nodes from -2h on, h
    the cell size, are kept on those axes.  The first kept node's mask has
    lost neighbours, but it lies in no sector."""
    h = 2.0 * radius / _GRID_SIZE
    xs = np.linspace(-radius, radius, _GRID_SIZE + 1) + _GRID_SHIFT_X * h
    ys = np.linspace(-radius, radius, _GRID_SIZE + 1) + _GRID_SHIFT_Y * h
    return (xs[xs >= -2.0 * h] if least >= 2 else xs,
            ys[ys >= -2.0 * h] if least >= 4 else ys)


def _in_sector(x, y, fold) -> np.ndarray:
    """Whether each point lies in its field's sector 0 <= theta < 2 pi / g,
    theta = atan2(x, y), for the field's fold g; every point when g <= 1."""
    theta = np.arctan2(x, y) % (2.0 * math.pi)
    return (fold <= 1) | (theta < 2.0 * math.pi / np.maximum(fold, 1))


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


def _collect_seeds(grad: np.ndarray, domain_radius: float, base, fold: np.ndarray):
    """(field index, x, y) seeds from every zoom pass, each seeded once, and
    each field's largest |grad G| on the whole zoom-1 grid.  A pass seeds
    the centre of every cell of its corner grid where both components of
    ``grad`` change sign, then every node that is a corner of such a cell
    or a local minimum of |grad G|.  ``base`` is the whole zoom-1 corner
    grid (gx, gy) of ``grad``, scaled in place.  A field of fold g >= 2
    keeps only the seeds in its sector 0 <= theta < 2 pi / g, plus one at
    the centre, which its symmetry fixes; each pass reads only the part of
    its grid that holds the sectors of the stack's smallest fold
    (`_grid_axes`), so the kept seeds are those of the whole grid.

    The minima are taken on gx^2 + gy^2, not on np.hypot(gx, gy), after the
    sign changes are read: each field's gx and gy are scaled by one exact
    power of two that puts the largest component of its zoom-1 grid in
    [0.5, 1), so every square there is below 2 at any coefficient scale.
    The mask can then differ from hypot's only where two neighbouring nodes'
    |grad G| agree to a few ulps (the square rounds twice, hypot once), or
    where both are below 2^-511 of the field's largest, whose squares lose
    bits below the normal range.  The largest |grad G| is still hypot's:
    hypot is taken only at the nodes whose square is within 1e-12 of the
    field's largest square, and unscaled exactly."""
    gx, gy = base
    top = np.maximum(np.abs(gx).max(axis=(1, 2)), np.abs(gy).max(axis=(1, 2)))
    # 2^-e for the largest component's exponent e, kept a normal float
    power = np.clip(-np.frexp(top)[1], -1022, 1023)
    scale = np.ldexp(1.0, power)[:, None, None]
    least = int(fold.min())
    blocks = []
    for zoom in _ZOOM_FACTORS:
        radius = domain_radius * zoom
        xs, ys = _grid_axes(radius, least)
        if zoom != 1.0:
            gx, gy = grid_values(grad, xs, ys)
        # zoom 1's grid is whole: its masks are read where xs and ys start
        i, j = gx.shape[1] - xs.size, gx.shape[2] - ys.size
        cells = _sign_change_cells(gx[:, i:, j:], gy[:, i:, j:])
        gx *= scale
        gy *= scale
        square = gx * gx
        square += gy * gy
        if zoom == 1.0:
            gscale = _largest_norm(gx, gy, square, scale)
        h = 2.0 * radius / _GRID_SIZE
        f, ci, cj = np.unravel_index(np.flatnonzero(cells), cells.shape)
        blocks.append((f, xs[ci] + 0.5 * h, ys[cj] + 0.5 * h))
        nodes = _local_min_mask(square[:, i:, j:])
        rows, cols = cells.shape[1:]
        for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)):  # each such cell's corners
            nodes[:, di:di + rows, dj:dj + cols] |= cells
        f, i, j = np.unravel_index(np.flatnonzero(nodes), nodes.shape)
        blocks.append((f, xs[i], ys[j]))
    centre = np.flatnonzero(fold >= 2)
    blocks.append((centre, np.zeros(centre.size), np.zeros(centre.size)))
    f, x, y = (np.concatenate(parts) for parts in zip(*blocks))
    keep = _in_sector(x, y, fold[f])
    return f[keep], x[keep], y[keep], gscale


def _largest_norm(gx, gy, square, scale) -> np.ndarray:
    """Each field's largest np.hypot of the unscaled (gx, gy), given gx and
    gy scaled by ``scale`` and ``square`` = gx^2 + gy^2: hypot is taken only
    where the square is within 1e-12 of the field's largest, which holds
    hypot's largest.  Dividing by the power of two is exact for those nodes;
    a component it would round is too small to move hypot.  NaN for a field
    whose squares hold a NaN."""
    top = square.max(axis=(1, 2))
    near = np.flatnonzero(square >= (top * (1.0 - 1e-12))[:, None, None])
    f = near // square[0].size
    unscale = scale.ravel()[f]
    norm = np.hypot(gx.ravel()[near] / unscale, gy.ravel()[near] / unscale)
    largest = np.where(np.isnan(top), np.nan, 0.0)
    np.maximum.at(largest, f, norm)
    return largest


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
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(count) - count, count)
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


def _complete_orbits(newton, fidx, x, y, fold, R: float, accept_tol, floor_tol):
    """The copies, as (fidx, x, y), that complete the orbits of the
    deduplicated points (fidx, x, y).  Each point off the centre of a field
    of fold g >= 2 is turned by 2 pi k / g for k = 1..g-1; a copy within
    DEDUP_RADIUS R of a point already found is dropped, the rest are
    polished by `_newton`, and a copy is added if it converges inside the
    disk onto no point already found.  A field with more than
    _DEGENERATE_POINT_LIMIT points, which is flagged non-isolated either
    way, is not completed."""
    small = np.bincount(fidx, minlength=fold.size) <= _DEGENERATE_POINT_LIMIT
    src = np.flatnonzero((fold[fidx] >= 2) & small[fidx]
                         & (np.hypot(x, y) > DEDUP_RADIUS * R))
    turns = fold[fidx[src]] - 1
    at = np.repeat(src, turns)
    k = np.arange(at.size) - np.repeat(np.cumsum(turns) - turns, turns) + 1
    phi = 2.0 * math.pi * k / fold[fidx[at]]
    c, s = np.cos(phi), np.sin(phi)
    cf, cx, cy = fidx[at], x[at] * c + y[at] * s, y[at] * c - x[at] * s
    new = _unmatched(fidx, x, y, cf, cx, cy, np.zeros(at.size), DEDUP_RADIUS * R)
    cf, cx, cy = cf[new], cx[new], cy[new]
    cx, cy, gn = _newton(newton, cf, cx, cy, R, accept_tol[cf], floor_tol[cf])
    ok = (gn <= accept_tol[cf]) & (np.hypot(cx, cy) <= R * (1.0 + _BOUNDARY_CLAMP))
    cf, cx, cy, gn = cf[ok], cx[ok], cy[ok], gn[ok]
    new = _unmatched(fidx, x, y, cf, cx, cy, gn, DEDUP_RADIUS * R)
    return cf[new], cx[new], cy[new]


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
    (the unit pupil, or a dilated one): `find_critical_points_batch` of one."""
    return find_critical_points_batch([field], domain_radius)[0]


def find_critical_points_batch(
    fields, domain_radius: float = 1.0
) -> list[CriticalPointSearch]:
    """Census of every field inside the disk of radius ``domain_radius``,
    run as one array program; each result is the field's census alone:
    `census_from_stacks` of the fields' stacked G and folds."""
    return census_from_stacks(_stack([f.G.coeffs for f in fields]),
                              [f.fold for f in fields], domain_radius)


def census_from_stacks(
    g: np.ndarray, folds, domain_radius: float = 1.0
) -> list[CriticalPointSearch]:
    """Census of every field of ``g``, a (DX, DY, fields) stack of G's
    coefficients, inside the disk of radius ``domain_radius``, run as one
    array program.  G's first and second derivatives are taken here, once,
    for the whole stack, with `differentiate`'s product.

    ``folds`` gives each field's fold g (one int for all, or one per
    field): G is unchanged by a turn of 2 pi / g, as it is when W is (for
    g <= 1 nothing is assumed).  For g >= 2 only the seeds of one sector
    of angle 2 pi / g and the centre are solved (`_collect_seeds`), and the
    roots found are turned into the other sectors (`_complete_orbits`).
    Every off-centre critical point then has an orbit of g points, and a
    census whose off-centre count is not a multiple of g says so.

    Returns a flagged empty result for a field whose G is constant (every
    coefficient but [0, 0] zero) or whose critical set is non-isolated (more
    deduplicated points than ``_DEGENERATE_POINT_LIMIT``, as happens for
    axially symmetric W).  ValueError first as `_require_squarable`, or
    when ``folds`` is not one non-negative integer per field.
    """
    if not (domain_radius > 0 and math.isfinite(domain_radius)):
        raise ValueError(f"domain_radius must be positive and finite, got {domain_radius}")
    R = domain_radius
    g = np.asarray(g, dtype=float)
    if g.ndim != 3:  # a lone polynomial's columns would pass for fields
        raise ValueError(f"g must be a (DX, DY, fields) coefficient stack, got shape {g.shape}")
    n_fields = g.shape[-1]
    fold = np.asarray(folds)
    if fold.ndim > 1 or fold.size not in (1, n_fields) or fold.size and (
            fold.dtype.kind not in "iu" or fold.min() < 0):
        raise ValueError(f"folds must be one non-negative integer per field, got {folds!r}")
    fold = np.broadcast_to(fold, (n_fields,))
    g = _trim(g)
    with np.errstate(over="ignore"):  # reported by _require_squarable
        gx, gy = derivative(g, 0), derivative(g, 1)
        gxx, gxy, gyy = derivative(gx, 0), derivative(gx, 1), derivative(gy, 1)
    g_hess = _stack([g, gxx, gxy, gyy])  # the located points' values
    _require_squarable(g_hess, R)
    if not n_fields:
        return []
    # the zoom-1 seed grid also sets the gradient and |G| scales
    grid = grid_values(_stack([g, gx, gy]), *_grid_axes(R))
    g_abs_scale = np.max(np.abs(grid[0]), axis=(1, 2))
    constant = ~np.any(g.reshape(-1, n_fields)[1:], axis=0)
    newton = _stack([gx, gy, gxx, gxy, gyy])  # seeding (the first two), Newton
    fidx, x, y, gscale = _collect_seeds(newton[:, :, :2], R, grid[1:], fold)
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
    located = [_locate(float(px), float(py), R) for px, py in zip(x, y)]
    px, py = np.array([p[:2] for p in located]).reshape(-1, 2).T
    values = gathered_values(g_hess, fidx, px, py)
    points: list[list[CriticalPoint]] = [[] for _ in range(n_fields)]
    for (cx, cy, r, theta, on_boundary), f, value, a, b, d in zip(
            located, fidx.tolist(), *values):
        # b ** 2 of a numpy float is pow(), which can differ from b * b in
        # the last bit; the determinants reported have always used it
        det = float(a * d - b**2)
        band = DEGENERACY_REL_THRESHOLD * float(g_abs_scale[f] / (R * R)) ** 2
        kind = (PointClass.SADDLE if det < -band else
                PointClass.EXTREMUM if det > band else PointClass.DEGENERATE)
        points[f].append(CriticalPoint(cx, cy, r, theta, kind, float(value), det, on_boundary))

    results = []
    for f in range(n_fields):
        scales = (float(g_abs_scale[f]), float(gscale[f]))
        degenerate, notes = False, []
        if constant[f]:
            degenerate, notes, scales = True, ["hessian determinant is constant"], (0.0, 0.0)
        elif gscale[f] == 0.0:
            degenerate, scales = True, (0.0, 0.0)
            notes = ["gradient of G vanishes on the sample grid"]
        elif n_seeds[f] == 0:
            notes = ["no seeds"]
        elif n_kept[f] > _DEGENERATE_POINT_LIMIT:
            degenerate = True
            notes = [f"non-isolated critical set ({n_kept[f]} deduplicated points)"]
        else:
            if n_unconverged[f]:
                notes.append(f"{n_unconverged[f]} of {n_seeds[f]} seeds did not converge")
            if fold[f] >= 2 and n_off[f] % fold[f]:
                notes.append(f"off-centre count {n_off[f]} is not a multiple of "
                             f"the {fold[f]}-fold symmetry")
        results.append(CriticalPointSearch(
            _ring_order(points[f], R), degenerate, "; ".join(notes), *scales))
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
    must agree and the correspondence must be a bijection.
    """
    if not (factor > 0 and math.isfinite(factor)):
        raise ValueError(f"factor must be positive and finite, got {factor}")
    base = find_critical_points(build_field(w))
    scaled_field = field_from_polynomial(w.to_polynomial().rescale_domain(factor),
                                         w.fold_order())
    scaled = find_critical_points(scaled_field, domain_radius=factor)
    if base.degenerate and scaled.degenerate:
        return RescaleReport(factor, True, 0.0, 0, True, "degenerate in both domains")
    if base.degenerate != scaled.degenerate:
        return RescaleReport(
            factor, False, math.inf, 0, True, "degeneracy flags disagree"
        )
    if len(base) != len(scaled):
        return RescaleReport(
            factor,
            False,
            math.inf,
            len(base),
            False,
            f"count mismatch: {len(base)} vs {len(scaled)}",
        )
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
            return RescaleReport(
                factor, False, math.inf, len(base), False, "class mismatch"
            )
        used.add(best_j)
        max_err = max(max_err, best_d)
    return RescaleReport(factor, max_err < 1e-8, max_err, len(base), False)

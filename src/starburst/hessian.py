"""Hessian-determinant field construction and cusp-of-Gauss search.

The Hessian determinant G = Wxx*Wyy - Wxy^2 of a wave aberration W is
built exactly in the monomial basis together with its first and second
derivatives.  Critical points of G ("cusps of Gauss") are located with a
grid-seeded damped Newton iteration on grad G = 0 and classified by the
sign of det(Hess G): saddle if negative, extremum if positive, degenerate
inside a scale-normalized threshold band.

The search is deterministic: seeds come from fixed grids, the Newton
batch is data-parallel, and results are deduplicated and sorted by
(rho, theta).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .zernike import (
    MAX_RADIAL_ORDER,
    BivariatePolynomial,
    CapabilityError,
    WaveAberration,
)


class PointClass(str, enum.Enum):
    SADDLE = "saddle"
    EXTREMUM = "extremum"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class HessianField:
    """W, its derivatives to second order, G, and derivatives of G."""

    W: BivariatePolynomial
    Wx: BivariatePolynomial
    Wy: BivariatePolynomial
    Wxx: BivariatePolynomial
    Wxy: BivariatePolynomial
    Wyy: BivariatePolynomial
    G: BivariatePolynomial
    Gx: BivariatePolynomial
    Gy: BivariatePolynomial
    Gxx: BivariatePolynomial
    Gxy: BivariatePolynomial
    Gyy: BivariatePolynomial

    def grad_g(self, x, y):
        return self.Gx(x, y), self.Gy(x, y)

    def det_hess_g(self, x, y):
        return self.Gxx(x, y) * self.Gyy(x, y) - self.Gxy(x, y) ** 2


def field_from_polynomial(w_poly: BivariatePolynomial) -> HessianField:
    if w_poly.degree > MAX_RADIAL_ORDER:
        raise CapabilityError(
            f"wavefront degree {w_poly.degree} exceeds supported maximum {MAX_RADIAL_ORDER}"
        )
    wx = w_poly.differentiate("x")
    wy = w_poly.differentiate("y")
    wxx = wx.differentiate("x")
    wxy = wx.differentiate("y")
    wyy = wy.differentiate("y")
    g = wxx * wyy - wxy * wxy
    gx = g.differentiate("x")
    gy = g.differentiate("y")
    return HessianField(
        W=w_poly,
        Wx=wx,
        Wy=wy,
        Wxx=wxx,
        Wxy=wxy,
        Wyy=wyy,
        G=g,
        Gx=gx,
        Gy=gy,
        Gxx=gx.differentiate("x"),
        Gxy=gx.differentiate("y"),
        Gyy=gy.differentiate("y"),
    )


def build_field(w: WaveAberration) -> HessianField:
    """Build the full derivative field for a wave aberration."""
    return field_from_polynomial(w.to_polynomial())


@dataclass(frozen=True)
class SolverOptions:
    grid_size: int = 64
    max_iterations: int = 100
    damping: float = 0.5
    max_halvings: int = 6
    gradient_tol: float = 1e-10
    dedup_radius: float = 1e-6
    # |det Hess G| below degeneracy_rel_threshold * (max |G| on grid)^2 is
    # classified degenerate.  1e-12 keeps a >1e6 margin over the
    # double-precision evaluation noise while not swallowing the genuinely
    # small determinants of rings close to a merge transition.
    degeneracy_rel_threshold: float = 1e-12
    boundary_clamp: float = 1e-9
    degenerate_point_limit: int = 50
    domain_radius: float = 1.0
    # Extra zoomed seeding passes around the origin: saddle rings shrink
    # toward the pupil center close to region boundaries, below the cell
    # size of the base grid.
    zoom_factors: tuple[float, ...] = (1.0, 0.125, 0.015625)


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
    """Deduplicated, (rho, theta)-ordered critical points plus diagnostics."""

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


def _corner_grid(field: HessianField, radius: float, n: int):
    h = 2.0 * radius / n
    xs = np.linspace(-radius, radius, n + 1) + _GRID_SHIFT_X * h
    ys = np.linspace(-radius, radius, n + 1) + _GRID_SHIFT_Y * h
    return xs, ys, field.Gx.grid(xs, ys), field.Gy.grid(xs, ys)


def _sign_change_cells(v: np.ndarray) -> np.ndarray:
    c = np.stack([v[:-1, :-1], v[1:, :-1], v[:-1, 1:], v[1:, 1:]])
    return np.any(c > 0, axis=0) & np.any(c < 0, axis=0)


def _local_min_mask(v: np.ndarray) -> np.ndarray:
    p = np.pad(v, 1, constant_values=np.inf)
    best = np.full_like(v, np.inf)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            best = np.minimum(best, p[1 + di : 1 + di + v.shape[0], 1 + dj : 1 + dj + v.shape[1]])
    return v <= best


def _collect_seeds(field: HessianField, opts: SolverOptions, base) -> np.ndarray:
    """Seeds from every zoom pass; ``base`` is the zoom-1 corner grid."""
    seeds = []
    for zoom in opts.zoom_factors:
        radius = opts.domain_radius * zoom
        xs, ys, gx, gy = base if zoom == 1.0 else _corner_grid(field, radius, opts.grid_size)
        cells = _sign_change_cells(gx) & _sign_change_cells(gy)
        ci, cj = np.nonzero(cells)
        if ci.size:
            # center plus corners of every flagged cell
            x0, y0 = xs[ci], ys[cj]
            h = 2.0 * radius / opts.grid_size
            for dx, dy in ((0.5, 0.5), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
                seeds.append(np.column_stack([x0 + dx * h, y0 + dy * h]))
        gn = np.hypot(gx, gy)
        mi, mj = np.nonzero(_local_min_mask(gn))
        seeds.append(np.column_stack([xs[mi], ys[mj]]))
    if not seeds:
        return np.empty((0, 2))
    return np.concatenate(seeds, axis=0)


def _newton_batch(field: HessianField, pts: np.ndarray, opts: SolverOptions, conv_tol: float):
    x = pts[:, 0].copy()
    y = pts[:, 1].copy()
    gx, gy = field.grad_g(x, y)
    gn = np.hypot(gx, gy)
    active = np.isfinite(gn) & (gn > conv_tol)
    span = 2.0 * opts.domain_radius
    for _ in range(opts.max_iterations):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        xi, yi = x[idx], y[idx]
        a = field.Gxx(xi, yi)
        b = field.Gxy(xi, yi)
        d = field.Gyy(xi, yi)
        det = a * d - b * b
        bad = ~np.isfinite(det) | (det == 0.0)
        gxi, gyi = gx[idx], gy[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = -(d * gxi - b * gyi) / det
            dy = -(-b * gxi + a * gyi) / det
        dx[bad] = 0.0
        dy[bad] = 0.0
        # damped update: halve the step while the gradient norm grows
        scale = np.ones_like(dx)
        nx, ny = xi + dx, yi + dy
        ngx, ngy = field.grad_g(nx, ny)
        ngn = np.hypot(ngx, ngy)
        for _ in range(opts.max_halvings):
            worse = ~(ngn <= gn[idx]) & (scale > opts.damping**opts.max_halvings)
            if not np.any(worse):
                break
            scale[worse] *= opts.damping
            nx[worse] = xi[worse] + scale[worse] * dx[worse]
            ny[worse] = yi[worse] + scale[worse] * dy[worse]
            ngx_w, ngy_w = field.grad_g(nx[worse], ny[worse])
            ngx[worse] = ngx_w
            ngy[worse] = ngy_w
            ngn[worse] = np.hypot(ngx_w, ngy_w)
        step = np.hypot(nx - xi, ny - yi)
        progressed = ngn < gn[idx]
        x[idx] = np.where(progressed, nx, xi)
        y[idx] = np.where(progressed, ny, yi)
        gn_new = np.where(progressed, ngn, gn[idx])
        gx[idx] = np.where(progressed, ngx, gxi)
        gy[idx] = np.where(progressed, ngy, gyi)
        gn[idx] = gn_new
        stop = (
            (gn_new <= conv_tol)
            | bad
            | ~progressed
            | (step <= 1e-15)
            | ~np.isfinite(gn_new)
            | (np.hypot(x[idx], y[idx]) > 2.0 * span)
        )
        active[idx[stop]] = False
    return np.column_stack([x, y]), gn


def _newton_polish(field: HessianField, pts: np.ndarray, domain_radius: float,
                   iterations: int = 8):
    """Undamped Newton refinement of already-located points.

    The damped search can stall a few micro-cells away from strongly
    anisotropic saddles (the gradient norm is not monotone along Newton's
    direction there); full steps converge quadratically once inside the
    basin.  Keeps the best iterate seen per point."""
    x = pts[:, 0].copy()
    y = pts[:, 1].copy()
    gx, gy = field.grad_g(x, y)
    best_gn = np.hypot(gx, gy)
    best_x, best_y = x.copy(), y.copy()
    active = np.ones(len(x), dtype=bool)
    max_step = 0.05 * domain_radius
    for _ in range(iterations):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        xi, yi = x[idx], y[idx]
        a = field.Gxx(xi, yi)
        b = field.Gxy(xi, yi)
        d = field.Gyy(xi, yi)
        gxi, gyi = field.grad_g(xi, yi)
        det = a * d - b * b
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = -(d * gxi - b * gyi) / det
            dy = -(-b * gxi + a * gyi) / det
        step = np.hypot(dx, dy)
        ok = np.isfinite(step) & (step <= max_step)
        nx = np.where(ok, xi + dx, xi)
        ny = np.where(ok, yi + dy, yi)
        ngx, ngy = field.grad_g(nx, ny)
        ngn = np.hypot(ngx, ngy)
        improved = ok & np.isfinite(ngn) & (ngn < best_gn[idx])
        gidx = idx[improved]
        best_gn[gidx] = ngn[improved]
        best_x[gidx] = nx[improved]
        best_y[gidx] = ny[improved]
        x[idx] = nx
        y[idx] = ny
        active[idx] = ok & (step > 1e-16)
    return np.column_stack([best_x, best_y]), best_gn


def classify_point(
    field: HessianField, x: float, y: float, threshold: float
) -> tuple[PointClass, float]:
    """Classify a critical point by the sign of det(Hess G)."""
    det = float(field.det_hess_g(x, y))
    if det < -threshold:
        return PointClass.SADDLE, det
    if det > threshold:
        return PointClass.EXTREMUM, det
    return PointClass.DEGENERATE, det


def find_critical_points(
    field: HessianField, opts: SolverOptions | None = None
) -> CriticalPointSearch:
    """Locate all cusps of Gauss inside the (possibly dilated) pupil disk.

    Returns a flagged empty result when G is constant or when the critical
    set is non-isolated (more deduplicated points than
    ``opts.degenerate_point_limit``, as happens for axially symmetric W).
    """
    opts = opts or SolverOptions()
    if field.G.degree <= 0:
        return CriticalPointSearch(
            (), degenerate=True, message="hessian determinant is constant"
        )
    # the zoom-1 seed grid also sets the gradient and |G| scales
    xs, ys, gx, gy = base = _corner_grid(field, opts.domain_radius, opts.grid_size)
    gscale = float(np.max(np.hypot(gx, gy)))
    g_abs_scale = float(np.max(np.abs(field.G.grid(xs, ys))))
    if gscale == 0.0:
        return CriticalPointSearch(
            (), degenerate=True, message="gradient of G vanishes on the sample grid"
        )
    conv_tol = 1e-12 * max(1.0, gscale)
    accept_tol = opts.gradient_tol * max(1.0, gscale)
    det_threshold = opts.degeneracy_rel_threshold * g_abs_scale**2

    seeds = _collect_seeds(field, opts, base)
    if seeds.size == 0:
        return CriticalPointSearch((), message="no seeds", g_scale=g_abs_scale,
                                   gradient_scale=gscale)
    pts, gn = _newton_batch(field, seeds, opts, conv_tol)

    ok = np.isfinite(gn) & (gn <= accept_tol)
    n_unconverged = int(np.count_nonzero(~ok))
    pts, gn = pts[ok], gn[ok]
    if len(pts):
        pts, gn = _newton_polish(field, pts, opts.domain_radius)
        keep = gn <= accept_tol
        pts, gn = pts[keep], gn[keep]
    rho = np.hypot(pts[:, 0], pts[:, 1])
    R = opts.domain_radius
    inside = rho <= R + opts.boundary_clamp
    pts, gn, rho = pts[inside], gn[inside], rho[inside]

    # keep the best-converged representative of each cluster
    order = np.argsort(gn, kind="stable")
    kept: list[int] = []
    for i in order:
        p = pts[i]
        if all(math.hypot(p[0] - pts[j][0], p[1] - pts[j][1]) > opts.dedup_radius for j in kept):
            kept.append(i)
    if len(kept) > opts.degenerate_point_limit:
        return CriticalPointSearch(
            (),
            degenerate=True,
            message=f"non-isolated critical set ({len(kept)} deduplicated points)",
            g_scale=g_abs_scale,
            gradient_scale=gscale,
        )

    points = []
    for i in kept:
        x, y = float(pts[i][0]), float(pts[i][1])
        r = math.hypot(x, y)
        on_boundary = False
        if r > R:
            x, y = x * R / r, y * R / r
            r = R
            on_boundary = True
        elif r >= R * (1.0 - 1e-12):
            on_boundary = True
        if r < 1e-12:
            theta = 0.0
        else:
            theta = math.atan2(x, y) % (2.0 * math.pi)
            if 2.0 * math.pi - theta < 1e-9:
                theta = 0.0
        kind, det = classify_point(field, x, y, det_threshold)
        points.append(
            CriticalPoint(
                x=x,
                y=y,
                rho=r,
                theta=theta,
                kind=kind,
                g_value=float(field.G(x, y)),
                hess_g_det=det,
                on_boundary=on_boundary,
            )
        )
    points.sort(key=lambda p: (p.rho, p.theta))
    message = ""
    if n_unconverged:
        message = f"{n_unconverged} of {len(seeds)} seeds did not converge"
    return CriticalPointSearch(
        tuple(points), message=message, g_scale=g_abs_scale, gradient_scale=gscale
    )


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


def rescale_check(
    w: WaveAberration, factor: float, opts: SolverOptions | None = None
) -> RescaleReport:
    """Verify that critical points of W(x/r, y/r) are the r-scaled points of W.

    Positions are compared in normalized (unit-pupil) coordinates; classes
    must agree and the correspondence must be a bijection.
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    opts = opts or SolverOptions()
    base = find_critical_points(build_field(w), opts)
    scaled_field = field_from_polynomial(w.to_polynomial().rescale_domain(factor))
    scaled = find_critical_points(
        scaled_field, replace(opts, domain_radius=opts.domain_radius * factor)
    )
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

"""Closed-form saddle predictions for W = alpha Z_2^0 + beta Z_4^0 + gamma Z_n^n.

For this three-term family with n in {3, 4, 5, 6}, the angular part of
grad G = 0 separates: every non-central critical point sits at radius rho
solving A(rho) - B(rho) = 0 with angles theta = 2k pi / n (the "even"
family) or A(rho) + B(rho) = 0 with theta = (2k+1) pi / n (the "odd"
family), where

    A(rho) = 192 b (sqrt(15) a - 15 b) + 8640 b^2 rho^2
             - g^2 (n-2)(n-1)^2 n^2 (n+1) rho^(2n-6)
    B(rho) = 12 sqrt(10) b g (n-1) n^2 sqrt(n+1) rho^(n-2)

(a, b, g = alpha, beta, gamma).  W(a, b, -g) is W rotated by pi / n, so
the odd family at gamma is the even family at -gamma.  One inequality
table in the (gamma, alpha) plane decides whether the even family's ring
consists of saddles, with boundary curves alpha_1^+, alpha_2(^{+/-}),
alpha_3 and gamma thresholds depending on n.  Every bound is beta times a
function of gamma / beta, and G is homogeneous in (a, b, g), so both are
solved at beta = 1 (`_closed_form` scales and checks p once per call):
for any beta > 0 with |gamma / beta| below ~1e153.

A prediction walks the table on Python floats (`_table_walk`); a ring
step (`_with_rings`) then solves the candidate radii of every active
family of many walks in one `_family_rings` call.  Of a family's
candidates, the saddle ring is the one where det(Hess G) < 0, a closed
form in A' - B' read from the slope that `_polish` ends on, so no
polynomial field is built to choose it.

Angle-family bookkeeping follows the package-wide polar convention
(x, y) = (rho sin theta, rho cos theta).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .zernike import CapabilityError, WaveAberration, ZernikeTerm, horner

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)
SQRT10 = math.sqrt(10.0)
SQRT15 = math.sqrt(15.0)
SQRT70 = math.sqrt(70.0)
SQRT89 = math.sqrt(89.0)
SQRT210 = math.sqrt(210.0)

SUPPORTED_ORDERS = (3, 4, 5, 6)

EVEN_FAMILY = "even"  # theta = 2 k pi / n      <-> A - B = 0
ODD_FAMILY = "odd"    # theta = (2k+1) pi / n   <-> A + B = 0
# each family with the sign s of gamma at which it is the even family
_FAMILIES = ((EVEN_FAMILY, 1.0), (ODD_FAMILY, -1.0))


@dataclass(frozen=True)
class ABParams:
    """Coefficients (micrometres) of the three-term aberration and its order n."""

    alpha: float
    beta: float
    gamma: float
    n: int

    def __post_init__(self) -> None:
        if self.n not in SUPPORTED_ORDERS:
            raise CapabilityError(
                f"supported orders are {SUPPORTED_ORDERS}, got n={self.n}"
            )
        object.__setattr__(self, "n", int(self.n))
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, float(getattr(self, name)))
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.beta == 0.0:
            raise ValueError("beta must be nonzero")

    def to_wavefront(self, pupil_radius: float = WaveAberration.pupil_radius) -> WaveAberration:
        terms = []
        if self.alpha != 0.0:
            terms.append(ZernikeTerm(2, 0, self.alpha))
        terms.append(ZernikeTerm(4, 0, self.beta))
        if self.gamma != 0.0:
            terms.append(ZernikeTerm(self.n, self.n, self.gamma))
        return WaveAberration(tuple(terms), pupil_radius=pupil_radius)


def _closed_form(p: ABParams) -> tuple[ABParams, tuple]:
    """p in units of beta, (alpha / beta, 1, gamma / beta, n), and its even
    family's `_ab_coefficients` (the odd family's are these with c_b
    negated, as at -gamma / beta).  ValueError unless the closed forms can
    solve p: beta > 0 (the tables are stated for it; flipping the sign of
    beta would desynchronize the reported angle families) and every ratio
    and coefficient of A -+ B is finite.  A's gamma^2 coefficient outgrows
    alpha_1^+, so `_named_bounds` cannot overflow once this check passes."""
    if p.beta <= 0.0:
        raise ValueError(
            "closed-form region predicates require beta > 0; "
            "re-express the aberration with positive spherical coefficient"
        )
    a, t = p.alpha / p.beta, p.gamma / p.beta
    if not (math.isfinite(a) and math.isfinite(t)):
        raise ValueError(_OVERFLOW)
    q = ABParams(a, 1.0, t, p.n)
    coeffs = _ab_coefficients(q)
    if not all(map(math.isfinite, coeffs)):
        raise ValueError(_OVERFLOW)
    return q, coeffs


def _ab_coefficients(p: ABParams):
    """(c_a0, c_a2, c_ahi, c_b) of A = c_a0 + c_a2 rho^2 - c_ahi rho^(2n-6)
    and B = c_b rho^(n-2)."""
    a, b, g, n = p.alpha, p.beta, p.gamma, p.n
    return (
        192.0 * b * (SQRT15 * a - 15.0 * b),
        8640.0 * b * b,
        g * g * (n - 2) * (n - 1) ** 2 * n * n * (n + 1),
        12.0 * SQRT10 * b * g * (n - 1) * n * n * math.sqrt(n + 1.0),
    )


def _ab_polynomial(n: int, coeffs, sign: float) -> np.ndarray:
    """Ascending rho-coefficients of A + sign*B of order n, from A and B's
    `_ab_coefficients` (arrays of them give a stack, one column each):
    sign = -1 for the even family, +1 for the odd family, 0 for A alone."""
    c_a0, c_a2, c_ahi, c_b = coeffs
    c = np.zeros((max(2, 2 * n - 6) + 1, *np.shape(c_a0)))
    c[0] = c_a0
    c[2] += c_a2
    c[2 * n - 6] -= c_ahi
    c[n - 2] += sign * c_b
    return c


def _horner(c, x):
    """(value, derivative) at x of the polynomial with ascending coefficients
    c; each c[k] broadcasts against x, so a (degree + 1, k) array c holds k
    polynomials, one per column, each evaluated at its own entry of x.
    `_polish`'s Newton step, the one caller that needs a slope: the value
    takes `zernike.horner`'s steps, and the slope is carried along with it,
    not taken by Horner on the derivative's coefficients, so that
    tests/golden/verify_results.txt keeps its bits."""
    value = slope = 0.0
    for ck in reversed(c):
        slope = slope * x + value
        value = value * x + ck
    return value, slope


def ab_functions(p: ABParams):
    """Radial factors (A, B) of grad G = 0; callables accepting scalars/arrays."""
    coeffs = _ab_coefficients(p)
    a = _ab_polynomial(p.n, coeffs, 0.0)
    b = _ab_polynomial(p.n, coeffs, 1.0) - a
    return tuple(lambda rho, c=c: horner(c, rho) for c in (a, b))


@dataclass(frozen=True)
class RadiiResult:
    """Real roots of A -+ B = 0 in (0, 1), labeled by angle family.

    ``degenerate_circle`` holds radii of the gamma = 0 case, where both
    families collapse onto a rotationally symmetric circle of critical
    points (flagged ``non_generic``).
    """

    even: tuple[float, ...]
    odd: tuple[float, ...]
    degenerate_circle: tuple[float, ...] = ()
    non_generic: bool = False

    def for_family(self, family: str) -> tuple[float, ...]:
        return self.even if family == EVEN_FAMILY else self.odd


def _family_rings(n: int, coeffs):
    """(column, rho, det Hess G) arrays of every root rho in (0, 1) of A - B,
    by column, then rho: the candidate rings of order n of each family
    whose `_ab_coefficients` are a column of ``coeffs`` (a (4, k) stack, or
    one family's four), as the even family.  Columns with no odd power of
    rho (gamma = 0, or n even) are solved in t = rho^2, all in one
    `_real_roots` call, then `_polish`, whose last slope gives the det.

    Z_n^n is harmonic, so G = P(rho) + Q(rho) cos(n theta) with
    Q = -(4 c_b / n) rho^n, c_b being B's coefficient.  On the even
    meridians, where cos(n theta) = 1, dG/drho = 4 rho (A - B) and
    dG/dtheta = d2G/drho dtheta = 0.  At a root of A - B the Hessian is
    therefore diagonal in polar coordinates: G_rhorho = 4 rho (A' - B') and
    G_thetatheta / rho^2 = 4 n c_b rho^(n-2), whose product is
    16 n c_b rho^(n-1) (A' - B')(rho).
    """
    coeffs = np.asarray(coeffs, dtype=float).reshape(4, -1)
    c = _ab_polynomial(n, coeffs, -1.0)
    in_t = ~c[1::2].any(axis=0)  # a polynomial in t = rho^2
    col, rho = _real_roots(np.where(in_t, np.concatenate([c[::2], 0.0 * c[1::2]]), c))
    np.sqrt(np.maximum(rho, 0.0), out=rho, where=in_t[col])
    inside = (0.0 < rho) & (rho < 1.0)
    col, (rho, slope) = col[inside], _polish(c[:, col[inside]], rho[inside])
    inside = (0.0 < rho) & (rho < 1.0)
    order = np.lexsort((rho[inside], col[inside]))
    col, rho, slope = (v[inside][order] for v in (col, rho, slope))
    return col, rho, 16.0 * n * coeffs[3, col] * rho ** (n - 1) * slope


def _polish(c, x):
    """(root, slope) of each root x of the polynomials c (as `_horner` reads
    them) after up to two Newton steps, each taken where it lowers |value|
    (not at a zero slope or on overflow); a root refusing one refuses both."""
    x = np.array(x, dtype=float)
    value, slope = _horner(c, x)
    with np.errstate(all="ignore"):
        for _ in range(2):
            cand = x - value / slope
            cand_value, cand_slope = _horner(c, cand)
            take = abs(cand_value) < abs(value)
            if not take.any():  # every root refuses this step, and so the next
                break
            for old, new in ((x, cand), (value, cand_value), (slope, cand_slope)):
                np.copyto(old, new, where=take)
    return x, slope


_IMAG_TOL = 1e-10  # |imag| of a real root, relative to max(1, largest |root|)
_EPS = np.finfo(float).eps


def _real_roots(coeffs: np.ndarray):
    """(column, root) arrays of the real roots of each polynomial of a
    (degree + 1, k) stack of ascending coefficients, one per column: the
    real eigenvalues of its companion matrix, rotated as numpy's polyroots
    rotates it, the polynomials of one degree solved in one
    np.linalg.eigvals.  Leading coefficients up to eps times a polynomial's
    largest are dropped first: on (0, 1) such a term is below the rounding
    of the others, and dividing by it could overflow."""
    c = np.asarray(coeffs, dtype=float)
    size = np.abs(c)
    big = size > _EPS * size.max(axis=0)
    degree = (len(c) - 1 - big[::-1].argmax(axis=0)) * big.any(axis=0)
    columns, roots = [np.empty(0, dtype=int)], [np.empty(0)]
    for d in sorted(set(degree.tolist()) - {0}):
        k = np.flatnonzero(degree == d)
        m = np.repeat(np.eye(d, k=1)[None], k.size, axis=0)
        m[:, :, 0] = np.divide(c[d - 1::-1, k], -c[d, k]).T
        rts = m[:, 0] if d == 1 else np.linalg.eigvals(m)  # 1 x 1: its own eigenvalue
        scale = np.maximum(1.0, abs(rts).max(axis=1))
        i, j = np.nonzero(abs(rts.imag) <= _IMAG_TOL * scale[:, None])
        columns.append(k[i])
        roots.append(rts.real[i, j])
    return np.concatenate(columns), np.concatenate(roots)


def saddle_radii(p: ABParams) -> RadiiResult:
    """Candidate ring radii per angle family (roots of A -+ B in (0, 1)),
    the rings ``predict_saddles`` chooses among."""
    q, coeffs = _closed_form(p)
    col, rho, _ = _family_rings(q.n, np.array([coeffs, (*coeffs[:3], -coeffs[3])]).T)
    even, odd = (tuple(rho[col == k].tolist()) for k in range(2))
    if p.gamma == 0.0:
        # B == 0: the families coincide, and A = 0 is a circle of critical points
        return RadiiResult(even=(), odd=(), degenerate_circle=even, non_generic=True)
    return RadiiResult(even=even, odd=odd)


# --------------------------------------------------------------------------
# Inequality table
# --------------------------------------------------------------------------


class _Row(NamedTuple):
    """lo < value < hi on both axes; None is an absent bound.  The alpha
    bounds are arrays when the rows were built for an array of gammas.
    ``labels`` names the row in each family, in _FAMILIES order."""

    labels: tuple[str, str]
    gamma_lo: float | None
    gamma_hi: float | None
    alpha_lo: float | np.ndarray | None
    alpha_hi: float | np.ndarray | None


_OVERFLOW = "wavefront coefficients overflow the closed-form region bounds"


def _named_bounds(n: int, t) -> dict:
    """Boundary values of the inequality table at beta = 1 and gamma = t:
    every bound is beta times a function of gamma / beta.  None reads
    alpha.  ``t`` may be an array of nonzero values: the bounds that depend
    on it are then arrays, each element computed by the scalar operations in
    the same order, under np.errstate.  Where alpha_2 (a power of 1/t) has
    no float value, at t = 0 or when t * t underflows, it is left out (inf
    in an array).
    ValueError when alpha_1^+ overflows, as t * t does for |t| above ~1e153
    (every caller also reads -t, where it is alpha_1^-).
    """
    array = isinstance(t, np.ndarray)
    with (np.errstate(over="ignore", invalid="ignore", divide="ignore") if array
          else contextlib.nullcontext()):  # reported below
        out = {"sqrt15_beta": SQRT15}
        if n == 3:
            out["alpha1_plus"] = (-120.0 + 9.0 * SQRT10 * t + 3.0 * t * t) / (4.0 * SQRT15)
            out["alpha2"] = (60.0 + 3.0 * t * t) / (4.0 * SQRT15)
            out["alpha3"] = (480.0 + 33.0 * t * t) / (32.0 * SQRT15)
            out["gamma_star"] = 4.0 * SQRT10
        elif n == 4:
            out["alpha1_plus"] = (-60.0 + 30.0 * SQRT2 * t + 15.0 * t * t) / (2.0 * SQRT15)
            out["sqrt2_beta"] = SQRT2
            out["3sqrt2_beta"] = 3.0 * SQRT2
        elif n == 5:
            out["alpha1_plus"] = (-60.0 + 25.0 * SQRT15 * t + 75.0 * t * t) / (2.0 * SQRT15)
            try:
                out["alpha2_plus"] = 9.0 * (4561.0 + 445.0 * SQRT89) / (1024.0 * SQRT15 * t * t)
                out["alpha2_minus"] = 9.0 * (4561.0 - 445.0 * SQRT89) / (1024.0 * SQRT15 * t * t)
            except ZeroDivisionError:  # t = 0, or t * t underflows
                pass
            out["gamma1_plus"] = SQRT15 * (SQRT89 + 5.0) / 40.0
            out["gamma1_minus"] = SQRT15 * (SQRT89 - 5.0) / 40.0
        else:  # n == 6
            out["alpha1_plus"] = (-120.0 + 45.0 * SQRT70 * t + 525.0 * t * t) / (4.0 * SQRT15)
            try:  # signed: proportional to 1/t
                out["alpha2_plus"] = math.sqrt(2.0 / 7.0) * (9.0 + 4.0 * SQRT3) / t
                out["alpha2_minus"] = math.sqrt(2.0 / 7.0) * (9.0 - 4.0 * SQRT3) / t
            except ZeroDivisionError:  # t = 0
                pass
            out["gamma1_plus"] = (SQRT210 + SQRT70) / 35.0
            out["gamma1_minus"] = (SQRT210 - SQRT70) / 35.0
    if not (np.isfinite(out["alpha1_plus"]).all() if array else math.isfinite(out["alpha1_plus"])):
        raise ValueError(_OVERFLOW)
    return out


def _family_rows(n: int, t) -> list[_Row]:
    """The even family's saddle-existence rows at gamma = t, in units of
    beta; the odd family's rows at t are these rows at -t.

    ``t`` may be an array of nonzero values (see `_named_bounds`).  Where
    alpha_2 is left out, its rows get infinite alpha bounds; those rows
    need |t| > gamma_1, so they are inactive there either way.
    """
    nb = _named_bounds(n, t)
    s15b, a1p = nb["sqrt15_beta"], nb["alpha1_plus"]
    if n == 3:
        a2, gs = nb["alpha2"], nb["gamma_star"]
        return [
            _Row(("gamma<0, alpha1+<alpha<alpha2", "gamma>0, alpha1-<alpha<alpha2"),
                 None, 0.0, a1p, a2),
            _Row(("0<gamma<4*sqrt(10)*beta, alpha2<alpha<alpha3",
                  "-4*sqrt(10)*beta<gamma<0, alpha2<alpha<alpha3"),
                 0.0, gs, a2, nb["alpha3"]),
            _Row(("gamma>4*sqrt(10)*beta, alpha2<alpha<alpha1+",
                  "gamma<-4*sqrt(10)*beta, alpha2<alpha<alpha1-"),
                 gs, None, a2, a1p),
        ]
    if n == 4:
        return [
            _Row(("-3*sqrt(2)*beta<gamma<0, alpha1+<alpha<sqrt(15)*beta",
                  "0<gamma<3*sqrt(2)*beta, alpha1-<alpha<sqrt(15)*beta"),
                 -nb["3sqrt2_beta"], 0.0, a1p, s15b),
            _Row(("gamma>sqrt(2)*beta, sqrt(15)*beta<alpha<alpha1+",
                  "gamma<-sqrt(2)*beta, sqrt(15)*beta<alpha<alpha1-"),
                 nb["sqrt2_beta"], None, s15b, a1p),
        ]
    g1p, g1m = nb["gamma1_plus"], nb["gamma1_minus"]
    a2p = nb.get("alpha2_plus", math.inf)
    a2m = nb.get("alpha2_minus", math.inf)
    if n == 5:
        return [
            _Row(("gamma<-gamma1+, sqrt(15)*beta-alpha2+<alpha<sqrt(15)*beta",
                  "gamma>gamma1+, sqrt(15)*beta-alpha2+<alpha<sqrt(15)*beta"),
                 None, -g1p, s15b - a2p, s15b),
            _Row(("-gamma1+<gamma<0, alpha1+<alpha<sqrt(15)*beta",
                  "0<gamma<gamma1+, alpha1-<alpha<sqrt(15)*beta"),
                 -g1p, 0.0, a1p, s15b),
            _Row(("gamma>gamma1-, sqrt(15)*beta-alpha2-<alpha<alpha1+",
                  "gamma<-gamma1-, sqrt(15)*beta-alpha2-<alpha<alpha1-"),
                 g1m, None, s15b - a2m, a1p),
        ]
    # n == 6: alpha_2 is odd in gamma, so the odd labels flip its sign
    return [
        _Row(("gamma>gamma1-, sqrt(15)*beta-alpha2-<alpha<alpha1+",
              "gamma<-gamma1-, sqrt(15)*beta+alpha2-<alpha<alpha1-"),
             g1m, None, s15b - a2m, a1p),
        _Row(("-gamma1+<gamma<0, alpha1+<alpha<sqrt(15)*beta",
              "0<gamma<gamma1+, alpha1-<alpha<sqrt(15)*beta"),
             -g1p, 0.0, a1p, s15b),
        _Row(("gamma<=-gamma1+, sqrt(15)*beta+alpha2+<alpha<sqrt(15)*beta",
              "gamma>=gamma1+, sqrt(15)*beta-alpha2+<alpha<sqrt(15)*beta"),
             None, -g1p, s15b + a2p, s15b),
    ]


_BOUNDARY_REL_TOL = 1e-12


def _row_state(t, a, row: _Row):
    """(strictly active, active up to the boundary tolerance), elementwise,
    at gamma = t and alpha = a in units of beta.

    t, a and the row's bounds may be scalars or arrays that broadcast.  On
    each axis tol = 1e-12 * max(1, |value|, |lo|, |hi|) over the present
    bounds: relative, with beta as the unit, so a diagram at any beta is
    the same diagram scaled.  Strict needs every slack (value - lo,
    hi - value) above tol, loose above -tol: one comparison per slack each.
    Rounding is monotone, so this tol is the largest of the products
    1e-12 * x over the four factors, and the booleans are those of comparing
    each slack with every product.  Only an axis with an array operand
    takes np.maximum, folding in the bounds before |value| so that tol
    takes the grid's shape once; on scalars it is one builtin max, so they
    stay Python floats and give Python bools.
    """
    strict = loose = True
    for value, lo, hi in ((t, row.gamma_lo, row.gamma_hi),
                          (a, row.alpha_lo, row.alpha_hi)):
        if (isinstance(value, np.ndarray) or isinstance(lo, np.ndarray)
                or isinstance(hi, np.ndarray)):
            scale = 1.0
            for bound in (lo, hi):
                if bound is not None:
                    scale = np.maximum(scale, abs(bound))
            tol = _BOUNDARY_REL_TOL * np.maximum(scale, abs(value))
        else:  # an absent bound counts as 0, which the 1 already covers
            tol = _BOUNDARY_REL_TOL * max(1.0, abs(value), abs(lo or 0.0), abs(hi or 0.0))
        neg_tol = -tol
        if lo is not None:
            slack = value - lo
            strict = strict & (slack > tol)
            loose = loose & (slack > neg_tol)
        if hi is not None:
            slack = hi - value
            strict = strict & (slack > tol)
            loose = loose & (slack > neg_tol)
    return strict, loose


@dataclass(frozen=True)
class Ring:
    """One ring of n uniformly spaced saddle points."""

    rho: float
    family: str
    theta_offsets: tuple[float, ...]


@dataclass(frozen=True)
class SaddlePrediction:
    count: int
    rings: tuple[Ring, ...]
    region_label: str
    n: int
    boundary: bool = False
    non_generic: bool = False
    warnings: tuple[str, ...] = ()
    # distance of (gamma, alpha) to the nearest table inequality or to
    # gamma = 0, in units of beta and relative to bounds above 1
    boundary_slack: float = 0.0

    @property
    def families(self) -> tuple[str, ...]:
        return tuple(r.family for r in self.rings)


def predict_saddles(p: ABParams) -> SaddlePrediction:
    """Closed-form saddle census: count in {0, n, 2n}, rings, region label.

    Boundary equalities within the relative tolerance 1e-12 are reported
    with ``boundary=True`` rather than resolved either way.  The same walk
    of the table gives ``boundary_slack``, which ``verify`` uses to keep its
    samples away from the boundaries, where the strict inequalities (and
    the numerical census) become ill-conditioned.  Solved in units of
    beta, so the prediction at c * p is the prediction at p.  ``verify``
    runs the same table walk and ring step on many draws at once.
    """
    return _with_rings([_table_walk(p)])[0]


def _table_walk(p: ABParams):
    """(fields, coefficients, families): `predict_saddles` of p before its
    ring step, as the prediction's keyword arguments but rings and warnings,
    its even family's `_ab_coefficients` in units of beta and the (index,
    name, sign of gamma, label) of each family active in the table."""
    q, coeffs = _closed_form(p)
    if p.gamma == 0.0:
        return dict(count=0, region_label="gamma=0: axially symmetric, no isolated saddles",
                    n=p.n, non_generic=True, boundary_slack=0.0), coeffs, []
    a, families, boundary, slack = q.alpha, [], False, abs(q.gamma)
    for k, (family, s) in enumerate(_FAMILIES):
        t = s * q.gamma  # the family, as even
        strict_rows, loose_rows = [], []
        for row in _family_rows(q.n, t):
            for value, bound in zip((t, t, a, a), row[1:]):
                if bound is not None and math.isfinite(bound):
                    slack = min(slack, abs(value - bound) / max(1.0, abs(bound)))
            strict, loose = _row_state(t, a, row)
            if strict:
                strict_rows.append(row)
            elif loose:
                loose_rows.append(row)
        if strict_rows or loose_rows:
            boundary = boundary or not strict_rows
            label = f"{family}: " + (strict_rows or loose_rows)[0].labels[k]
            families.append((k, family, s, label))
    return dict(count=p.n * len(families),
                region_label="; ".join(f[3] for f in families) or "outside all saddle regions",
                n=p.n, boundary=boundary, boundary_slack=slack), coeffs, families


def _with_rings(walks) -> list[SaddlePrediction]:
    """The predictions of `_table_walk`s of one order n: the candidate rings
    of all their active families in one `_family_rings` call, and of each
    family's candidates, the one with det Hess G < 0 as its saddle ring."""
    n = walks[0][0]["n"]
    stack = [(*coeffs[:3], s * coeffs[3]) for _, coeffs, families in walks
             for _, _, s, _ in families]
    candidates = [[] for _ in stack]
    if stack:
        for c, rho, det in zip(*(v.tolist() for v in _family_rings(n, np.array(stack).T))):
            candidates[c].append((rho, det))
    out, candidates = [], iter(candidates)
    angles = [tuple((2.0 * j + k) * math.pi / n for j in range(n)) for k in range(2)]
    for fields, _, families in walks:
        rings, warnings = [], []
        for k, family, _, _ in families:
            found = next(candidates)
            chosen = [Ring(rho, family, angles[k]) for rho, det in found if det < 0.0]
            if len(chosen) != 1:
                warnings.append(
                    f"{family} family: expected exactly one saddle ring, found "
                    f"{len(chosen)} among radii {tuple(rho for rho, _ in found)}"
                )
            rings.extend(chosen)
        if len(rings) != len(families):
            warnings.append("ring selection and inequality table disagree")
        out.append(SaddlePrediction(**fields, rings=tuple(sorted(rings, key=lambda r: r.rho)),
                                    warnings=tuple(warnings)))
    return out


def boundary_slacks(p: ABParams) -> list[float]:
    """[predict_saddles(p).boundary_slack], as ``min(boundary_slacks(p))`` reads it."""
    return [predict_saddles(p).boundary_slack]


def _saddles_exist(n: int, a: float, t):
    """Elementwise ``predict_saddles(ABParams(a, 1, t, n)).count > 0`` for
    nonzero t: some row of either family is active, strictly or up to the
    boundary tolerance."""
    exist = False
    for _, s in _FAMILIES:
        for row in _family_rows(n, s * t):
            exist = exist | _row_state(s * t, a, row)[1]
    return exist


_GAMMA_CAP_FACTOR = 30.0  # admissible_gamma_interval scans |gamma| <= this * beta


def admissible_gamma_interval(n: int, beta: float, alpha: float) -> tuple[float, float] | None:
    """Symmetric interval of gamma values with a positive saddle count.

    The scan covers |gamma| <= _GAMMA_CAP_FACTOR * beta and returns the
    outermost admissible magnitude (the predicate is symmetric under
    gamma -> -gamma up to a family swap).  Returns None when no gamma in
    the scanned range yields saddles.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    # checks n and the finiteness of alpha, beta and the cap
    p = ABParams(alpha, beta, _GAMMA_CAP_FACTOR * beta, n)
    a = p.alpha / p.beta
    if not math.isfinite(a):
        raise ValueError(_OVERFLOW)
    m = 2048
    ts = np.linspace(_GAMMA_CAP_FACTOR / m, _GAMMA_CAP_FACTOR, m)
    flags = _saddles_exist(p.n, a, ts)
    if not flags.any():
        return None
    last = int(np.flatnonzero(flags)[-1])
    if last + 1 >= m:
        return (-p.gamma, p.gamma)
    lo, hi = float(ts[last]), float(ts[last + 1])
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _saddles_exist(p.n, a, mid):
            lo = mid
        else:
            hi = mid
    edge = 0.5 * (lo + hi) * p.beta
    return (-edge, edge)


# --------------------------------------------------------------------------
# Region diagrams
# --------------------------------------------------------------------------

MAX_REGION_RESOLUTION = 1001  # samples per axis; regions then peaks at about 110 MB RSS

DEFAULT_WINDOWS = {
    # (gamma_lo, gamma_hi, alpha_lo, alpha_hi) in units of beta
    3: (-20.0, 20.0, -15.0, 120.0),
    4: (-4.5, 4.5, -12.0, 65.0),
    5: (-2.5, 2.5, -12.0, 10.0),
    6: (-2.5, 2.5, -15.0, 16.0),
}


@dataclass(frozen=True)
class RegionDiagram:
    n: int
    beta: float
    gamma_values: np.ndarray
    alpha_values: np.ndarray
    counts: np.ndarray          # shape (len(alpha), len(gamma))
    family_codes: np.ndarray    # 0 none, 1 even, 2 odd, 3 both
    boundary_curves: dict[str, np.ndarray]  # name -> (k, 2) array of (gamma, alpha)
    ticks: dict[str, float]


def _curve_samples(n: int, beta: float, gammas: np.ndarray) -> dict[str, np.ndarray]:
    g = gammas[gammas != 0.0]
    t = g / beta
    nb = _named_bounds(n, t)
    curves = {"alpha1_plus": nb["alpha1_plus"],
              "alpha1_minus": _named_bounds(n, -t)["alpha1_plus"]}
    if n == 3:
        curves.update(alpha2=nb["alpha2"], alpha3=nb["alpha3"])
    if n in (5, 6):
        curves["sqrt15_beta-alpha2_plus"] = nb["sqrt15_beta"] - nb["alpha2_plus"]
        curves["sqrt15_beta-alpha2_minus"] = nb["sqrt15_beta"] - nb["alpha2_minus"]
    # an alpha beyond the float range becomes +-inf, which the figure leaves
    # out with every point outside its alpha window; nothing else reads these
    with np.errstate(over="ignore"):
        return {k: np.column_stack([g, beta * a]) for k, a in curves.items()}


def _tick_values(n: int, beta: float) -> dict[str, float]:
    nb = _named_bounds(n, 1.0)  # no tick reads gamma
    if n == 3:
        named = {"4*sqrt(10)b": nb["gamma_star"]}
    elif n == 4:
        named = {"sqrt(2)b": nb["sqrt2_beta"], "3*sqrt(2)b": nb["3sqrt2_beta"],
                 "(sqrt(2)+sqrt(6))b": SQRT2 + SQRT6}
    else:
        named = {"gamma1+": nb["gamma1_plus"], "gamma1-": nb["gamma1_minus"]}
    ticks = {"sqrt(15)b": nb["sqrt15_beta"] * beta}
    for s, v in (("", beta), ("-", -beta)):
        ticks.update((s + name, v * value) for name, value in named.items())
    return ticks


def region_diagram(
    n: int,
    beta: float,
    gamma_range: tuple[float, float] | None = None,
    alpha_range: tuple[float, float] | None = None,
    resolution: int = 121,
) -> RegionDiagram:
    """Sample predicted counts/families over a (gamma, alpha) window and
    emit the named boundary curves from the same closed forms.

    The family code of a cell has bit 1 when an even-family row is strictly
    active and bit 2 for the odd family.  The rows are built once per
    family in units of beta, on the array of nonzero gamma / beta (negated
    for the odd family), and every row is tested on the whole grid at once;
    the gamma = 0 column stays 0.  Only the axes, curves and ticks carry beta.
    """
    if not np.finfo(float).tiny <= beta < math.inf:  # below, gamma / beta loses bits
        raise ValueError(f"beta must be finite and at least {np.finfo(float).tiny:g}")
    if n not in SUPPORTED_ORDERS:
        raise CapabilityError(f"supported orders are {SUPPORTED_ORDERS}, got n={n}")
    if not 2 <= resolution <= MAX_REGION_RESOLUTION:
        raise ValueError(f"resolution must be at least 2 and at most "
                         f"{MAX_REGION_RESOLUTION} per axis")
    beta = float(beta)
    w = DEFAULT_WINDOWS[n]
    if gamma_range is None:
        gamma_range = (w[0] * beta, w[1] * beta)
    if alpha_range is None:
        alpha_range = (w[2] * beta, w[3] * beta)
    for name, (lo, hi) in (("gamma", gamma_range), ("alpha", alpha_range)):
        if not (lo < hi and all(map(math.isfinite, (lo, hi, hi - lo, lo / beta, hi / beta)))):
            raise ValueError(
                f"the {name} window must be finite and increasing, in micrometres "
                f"and in units of beta, got {lo}, {hi}"
            )
    gammas = np.linspace(gamma_range[0], gamma_range[1], resolution)
    alphas = np.linspace(alpha_range[0], alpha_range[1], resolution)
    nonzero = gammas != 0.0
    t, a = gammas[nonzero] / beta, alphas[:, None] / beta
    codes = np.zeros((resolution, resolution), dtype=int)
    for k, (_, s) in enumerate(_FAMILIES):
        hit = False
        for row in _family_rows(n, s * t):
            hit = hit | _row_state(s * t, a, row)[0]
        codes[:, nonzero] |= (1 << k) * hit
    counts = n * ((codes & 1) + (codes >> 1))
    dense = np.linspace(gamma_range[0], gamma_range[1], max(512, 4 * resolution))
    return RegionDiagram(
        n=n,
        beta=beta,
        gamma_values=gammas,
        alpha_values=alphas,
        counts=counts,
        family_codes=codes,
        boundary_curves=_curve_samples(n, beta, dense),
        ticks=_tick_values(n, beta),
    )

"""Closed-form saddle predictions for W = alpha Z_2^0 + beta Z_4^0 + gamma Z_n^n.

For this three-term family with n in {3, 4, 5, 6}, the angular part of
grad G = 0 separates: every non-central critical point sits at radius rho
solving A(rho) - B(rho) = 0 with angles theta = 2k pi / n (the "even"
family) or A(rho) + B(rho) = 0 with theta = (2k+1) pi / n (the "odd"
family), where

    A(rho) = 192 b (sqrt(15) a - 15 b) + 8640 b^2 rho^2
             - g^2 (n-2)(n-1)^2 n^2 (n+1) rho^(2n-6)
    B(rho) = 12 sqrt(10) b g (n-1) n^2 sqrt(n+1) rho^(n-2)

(a, b, g = alpha, beta, gamma).  Whether a family's ring consists of
saddles is decided by explicit inequality tables in the (gamma, alpha)
plane, with boundary curves alpha_1^{+/-}, alpha_2(^{+/-}), alpha_3 and
gamma thresholds depending on n.  The tables assume beta > 0.

Of a family's candidate radii, the saddle ring is the one where
det(Hess G) < 0.  On a ring that determinant is a closed form in A' and B'
(`_ring_det_hess_g`), so no polynomial field is built to choose it.

Angle-family bookkeeping follows the package-wide polar convention
(x, y) = (rho sin theta, rho cos theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npol

from .zernike import CapabilityError, WaveAberration, ZernikeTerm

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

    def to_wavefront(self, pupil_radius: float = 3.5) -> WaveAberration:
        terms = []
        if self.alpha != 0.0:
            terms.append(ZernikeTerm(2, 0, self.alpha))
        if self.beta != 0.0:
            terms.append(ZernikeTerm(4, 0, self.beta))
        if self.gamma != 0.0:
            terms.append(ZernikeTerm(self.n, self.n, self.gamma))
        return WaveAberration(tuple(terms), pupil_radius=pupil_radius)


def _require_positive_beta(p: ABParams) -> None:
    # The inequality tables are stated for beta > 0; flipping the sign of
    # beta is not silently canonicalized because that would desynchronize
    # the reported angle families.
    if p.beta <= 0.0:
        raise ValueError(
            "closed-form region predicates require beta > 0; "
            "re-express the aberration with positive spherical coefficient"
        )


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


def ab_functions(p: ABParams):
    """Radial factors (A, B) of grad G = 0; callables accepting scalars/arrays."""
    n = p.n
    c_a0, c_a2, c_ahi, c_b = _ab_coefficients(p)

    def A(rho):
        rho = np.asarray(rho, dtype=float)
        return c_a0 + c_a2 * rho**2 - c_ahi * rho ** (2 * n - 6)

    def B(rho):
        rho = np.asarray(rho, dtype=float)
        return c_b * rho ** (n - 2)

    return A, B


def _ab_derivatives(p: ABParams):
    n = p.n
    _, c_a2, c_ahi, c_b = _ab_coefficients(p)

    def dA(rho):
        rho = np.asarray(rho, dtype=float)
        if n == 3:
            return 2.0 * c_a2 * rho
        return 2.0 * c_a2 * rho - (2 * n - 6) * c_ahi * rho ** (2 * n - 7)

    def dB(rho):
        rho = np.asarray(rho, dtype=float)
        return (n - 2) * c_b * rho ** (n - 3)

    return dA, dB


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


def _polish_root(p: ABParams, rho: float, sign: float) -> float:
    """One or two guarded Newton steps on A(rho) + sign*B(rho) = 0."""
    A, B = ab_functions(p)
    dA, dB = _ab_derivatives(p)
    f = lambda r: float(A(r) + sign * B(r))
    df = lambda r: float(dA(r) + sign * dB(r))
    val = f(rho)
    for _ in range(2):
        d = df(rho)
        if d == 0.0:
            break
        cand = rho - val / d
        cand_val = f(cand)
        if abs(cand_val) >= abs(val):
            break
        rho, val = cand, cand_val
    return rho


def _roots_in_unit_interval(p: ABParams, sign: float) -> tuple[float, ...]:
    """All roots of A + sign*B in (0, 1); sign=-1 even family, +1 odd."""
    a, b, g, n = p.alpha, p.beta, p.gamma, p.n
    roots: list[float] = []
    if n == 3:
        # quadratic 180 b^2 r^2 + sign * 9 sqrt(10) b g r + 4 b (sqrt(15) a - 15 b) - 3 g^2
        disc = 32.0 * b * (15.0 * b - SQRT15 * a) + 33.0 * g * g
        if disc >= 0.0:
            s = math.sqrt(disc)
            for r in ((-sign * 3.0 * g + s), (-sign * 3.0 * g - s)):
                roots.append(r / (12.0 * SQRT10 * b))
    elif n == 4:
        denom = 6.0 * b * b + sign * 2.0 * SQRT2 * b * g - g * g
        if denom != 0.0:
            r2 = 2.0 * b * (15.0 * b - SQRT15 * a) / (15.0 * denom)
            if r2 > 0.0:
                roots.append(math.sqrt(r2))
    elif n == 5:
        # -75 g^2 r^4 + sign*25 sqrt(15) b g r^3 + 90 b^2 r^2 + 2 sqrt(15) b (a - sqrt(15) b)
        coeffs = [
            2.0 * SQRT15 * b * (a - SQRT15 * b),
            0.0,
            90.0 * b * b,
            sign * 25.0 * SQRT15 * b * g,
            -75.0 * g * g,
        ]
        roots.extend(_real_roots(coeffs))
    else:  # n == 6, cubic in t = r^2
        coeffs = [
            4.0 * SQRT15 * b * (a - SQRT15 * b),
            180.0 * b * b,
            sign * 45.0 * SQRT70 * b * g,
            -525.0 * g * g,
        ]
        roots.extend(math.sqrt(t) for t in _real_roots(coeffs) if t > 0.0)
    out = []
    for r in roots:
        if 0.0 < r < 1.0:
            out.append(_polish_root(p, r, sign))
    return tuple(sorted(r for r in out if 0.0 < r < 1.0))


_IMAG_TOL = 1e-10  # |imag| of a real root, relative to max(1, largest |root|)


def _real_roots(coeffs: list[float]) -> list[float]:
    """Real roots of a polynomial (ascending coefficients), via the
    companion-matrix eigenvalues behind numpy's polyroots."""
    c = np.array(coeffs, dtype=float)
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        return []
    c = c[: nz[-1] + 1]
    if c.size < 2:
        return []
    rts = npol.polyroots(c)
    scale = max(1.0, float(np.max(np.abs(rts))) if rts.size else 1.0)
    return [float(r.real) for r in rts if abs(r.imag) <= _IMAG_TOL * scale]


def saddle_radii(p: ABParams) -> RadiiResult:
    """Candidate ring radii per angle family (roots of A -+ B in (0, 1))."""
    _require_positive_beta(p)
    if p.gamma == 0.0:
        # B == 0: the families coincide and A = 0 describes a full circle
        # of critical points instead of isolated rings.
        circle = tuple(
            r for r in _roots_in_unit_interval(p, 0.0) if 0.0 < r < 1.0
        )
        return RadiiResult(even=(), odd=(), degenerate_circle=circle, non_generic=True)
    return RadiiResult(
        even=_roots_in_unit_interval(p, -1.0),
        odd=_roots_in_unit_interval(p, +1.0),
    )


# --------------------------------------------------------------------------
# Inequality tables
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Row:
    """lo < value < hi on both axes; None is an absent bound.  The alpha
    bounds are arrays when the rows were built for an array of gammas."""

    label: str
    gamma_lo: float | None
    gamma_hi: float | None
    alpha_lo: float | np.ndarray | None
    alpha_hi: float | np.ndarray | None


def _named_bounds(n: int, beta: float, gamma) -> dict:
    """Boundary values of the inequality tables at (beta, gamma); none reads
    alpha.  ``gamma`` may be an array of nonzero values: the bounds that
    depend on it are then arrays, each element computed by the scalar
    operations in the same order.  Where alpha_2 (proportional to a power of
    1/gamma) has no float value, at gamma = 0 or when gamma * gamma
    underflows, it is left out.
    """
    b, g = beta, gamma
    s15b = SQRT15 * b
    out = {"sqrt15_beta": s15b}
    if n == 3:
        out["alpha1_plus"] = (-120.0 * b * b + 9.0 * SQRT10 * b * g + 3.0 * g * g) / (4.0 * SQRT15 * b)
        out["alpha1_minus"] = (-120.0 * b * b - 9.0 * SQRT10 * b * g + 3.0 * g * g) / (4.0 * SQRT15 * b)
        out["alpha2"] = (60.0 * b * b + 3.0 * g * g) / (4.0 * SQRT15 * b)
        out["alpha3"] = (480.0 * b * b + 33.0 * g * g) / (32.0 * SQRT15 * b)
        out["gamma_star"] = 4.0 * SQRT10 * b
    elif n == 4:
        out["alpha1_plus"] = (-60.0 * b * b + 30.0 * SQRT2 * b * g + 15.0 * g * g) / (2.0 * SQRT15 * b)
        out["alpha1_minus"] = (-60.0 * b * b - 30.0 * SQRT2 * b * g + 15.0 * g * g) / (2.0 * SQRT15 * b)
    elif n == 5:
        out["alpha1_plus"] = (-60.0 * b * b + 25.0 * SQRT15 * b * g + 75.0 * g * g) / (2.0 * SQRT15 * b)
        out["alpha1_minus"] = (-60.0 * b * b - 25.0 * SQRT15 * b * g + 75.0 * g * g) / (2.0 * SQRT15 * b)
        try:
            out["alpha2_plus"] = 9.0 * (4561.0 + 445.0 * SQRT89) * b**3 / (1024.0 * SQRT15 * g * g)
            out["alpha2_minus"] = 9.0 * (4561.0 - 445.0 * SQRT89) * b**3 / (1024.0 * SQRT15 * g * g)
        except ZeroDivisionError:  # gamma = 0, or gamma * gamma underflows
            pass
        out["gamma1_plus"] = SQRT15 * (SQRT89 + 5.0) * b / 40.0
        out["gamma1_minus"] = SQRT15 * (SQRT89 - 5.0) * b / 40.0
    else:  # n == 6
        out["alpha1_plus"] = (-120.0 * b * b + 45.0 * SQRT70 * b * g + 525.0 * g * g) / (4.0 * SQRT15 * b)
        out["alpha1_minus"] = (-120.0 * b * b - 45.0 * SQRT70 * b * g + 525.0 * g * g) / (4.0 * SQRT15 * b)
        try:  # signed: proportional to 1/gamma
            out["alpha2_plus"] = b * b * math.sqrt(2.0 / 7.0) * (9.0 + 4.0 * SQRT3) / g
            out["alpha2_minus"] = b * b * math.sqrt(2.0 / 7.0) * (9.0 - 4.0 * SQRT3) / g
        except ZeroDivisionError:  # gamma = 0
            pass
        out["gamma1_plus"] = b * (SQRT210 + SQRT70) / 35.0
        out["gamma1_minus"] = b * (SQRT210 - SQRT70) / 35.0
    return out


def _family_rows(n: int, beta: float, gamma) -> dict[str, list[_Row]]:
    """Saddle-existence rows per angle family at (beta, gamma).

    ``gamma`` may be an array of nonzero values (see `_named_bounds`).  Where
    alpha_2 is left out, its rows get infinite alpha bounds; those rows
    need |gamma| > gamma_1, so they are inactive there either way.

    Two entries below deviate from their most literal transcription: the
    n=5 odd-family row at gamma < -gamma_1^- bounds alpha by alpha_1^-
    (not alpha_1^+), and the n=6 even-family hyperbola row starts at
    gamma_1^- (not gamma_1^+).  Both follow from the gamma -> -gamma
    family swap symmetry and from the published two-ring regions, and are
    confirmed by the numerical census.
    """
    nb = _named_bounds(n, beta, gamma)
    b = beta
    inf = math.inf
    s15b = nb["sqrt15_beta"]
    rows: dict[str, list[_Row]] = {EVEN_FAMILY: [], ODD_FAMILY: []}
    if n == 3:
        gs = nb["gamma_star"]
        rows[EVEN_FAMILY] = [
            _Row("gamma<0, alpha1+<alpha<alpha2", None, 0.0, nb["alpha1_plus"], nb["alpha2"]),
            _Row("0<gamma<4*sqrt(10)*beta, alpha2<alpha<alpha3", 0.0, gs, nb["alpha2"], nb["alpha3"]),
            _Row("gamma>4*sqrt(10)*beta, alpha2<alpha<alpha1+", gs, None, nb["alpha2"], nb["alpha1_plus"]),
        ]
        rows[ODD_FAMILY] = [
            _Row("gamma>0, alpha1-<alpha<alpha2", 0.0, None, nb["alpha1_minus"], nb["alpha2"]),
            _Row("-4*sqrt(10)*beta<gamma<0, alpha2<alpha<alpha3", -gs, 0.0, nb["alpha2"], nb["alpha3"]),
            _Row("gamma<-4*sqrt(10)*beta, alpha2<alpha<alpha1-", None, -gs, nb["alpha2"], nb["alpha1_minus"]),
        ]
    elif n == 4:
        rows[EVEN_FAMILY] = [
            _Row("-3*sqrt(2)*beta<gamma<0, alpha1+<alpha<sqrt(15)*beta",
                 -3.0 * SQRT2 * b, 0.0, nb["alpha1_plus"], s15b),
            _Row("gamma>sqrt(2)*beta, sqrt(15)*beta<alpha<alpha1+",
                 SQRT2 * b, None, s15b, nb["alpha1_plus"]),
        ]
        rows[ODD_FAMILY] = [
            _Row("0<gamma<3*sqrt(2)*beta, alpha1-<alpha<sqrt(15)*beta",
                 0.0, 3.0 * SQRT2 * b, nb["alpha1_minus"], s15b),
            _Row("gamma<-sqrt(2)*beta, sqrt(15)*beta<alpha<alpha1-",
                 None, -SQRT2 * b, s15b, nb["alpha1_minus"]),
        ]
    elif n == 5:
        g1p, g1m = nb["gamma1_plus"], nb["gamma1_minus"]
        a2p = nb.get("alpha2_plus", inf)
        a2m = nb.get("alpha2_minus", inf)
        rows[ODD_FAMILY] = [
            _Row("gamma<-gamma1-, sqrt(15)*beta-alpha2-<alpha<alpha1-",
                 None, -g1m, s15b - a2m, nb["alpha1_minus"]),
            _Row("0<gamma<gamma1+, alpha1-<alpha<sqrt(15)*beta",
                 0.0, g1p, nb["alpha1_minus"], s15b),
            _Row("gamma>gamma1+, sqrt(15)*beta-alpha2+<alpha<sqrt(15)*beta",
                 g1p, None, s15b - a2p, s15b),
        ]
        rows[EVEN_FAMILY] = [
            _Row("gamma<-gamma1+, sqrt(15)*beta-alpha2+<alpha<sqrt(15)*beta",
                 None, -g1p, s15b - a2p, s15b),
            _Row("-gamma1+<gamma<0, alpha1+<alpha<sqrt(15)*beta",
                 -g1p, 0.0, nb["alpha1_plus"], s15b),
            _Row("gamma>gamma1-, sqrt(15)*beta-alpha2-<alpha<alpha1+",
                 g1m, None, s15b - a2m, nb["alpha1_plus"]),
        ]
    else:  # n == 6, alpha2 bounds are signed (proportional to 1/gamma)
        g1p, g1m = nb["gamma1_plus"], nb["gamma1_minus"]
        a2p = nb.get("alpha2_plus", inf)
        a2m = nb.get("alpha2_minus", inf)
        rows[ODD_FAMILY] = [
            _Row("gamma<-gamma1-, sqrt(15)*beta+alpha2-<alpha<alpha1-",
                 None, -g1m, s15b + a2m, nb["alpha1_minus"]),
            _Row("0<gamma<gamma1+, alpha1-<alpha<sqrt(15)*beta",
                 0.0, g1p, nb["alpha1_minus"], s15b),
            _Row("gamma>=gamma1+, sqrt(15)*beta-alpha2+<alpha<sqrt(15)*beta",
                 g1p, None, s15b - a2p, s15b),
        ]
        rows[EVEN_FAMILY] = [
            _Row("gamma>gamma1-, sqrt(15)*beta-alpha2-<alpha<alpha1+",
                 g1m, None, s15b - a2m, nb["alpha1_plus"]),
            _Row("-gamma1+<gamma<0, alpha1+<alpha<sqrt(15)*beta",
                 -g1p, 0.0, nb["alpha1_plus"], s15b),
            _Row("gamma<=-gamma1+, sqrt(15)*beta+alpha2+<alpha<sqrt(15)*beta",
                 None, -g1p, s15b + a2p, s15b),
        ]
    return rows


_BOUNDARY_REL_TOL = 1e-12


def _row_state(gamma, alpha, row: _Row):
    """(strictly active, active up to the boundary tolerance), elementwise.

    gamma, alpha and the row's bounds may be scalars or arrays that
    broadcast.  On each axis tol = 1e-12 * max(1, |value|, |lo|, |hi|) over
    the present bounds; strict needs every slack (value - lo, hi - value)
    above tol, loose above -tol.  Rounding is monotone, so 1e-12 * max(...)
    is the largest of the products 1e-12 * x: "slack > tol" is "slack
    exceeds every product" and "slack > -tol" is "slack exceeds some
    negated product".  That needs no elementwise max, and scalars stay
    Python floats.
    """
    strict = loose = True
    for value, lo, hi in ((gamma, row.gamma_lo, row.gamma_hi),
                          (alpha, row.alpha_lo, row.alpha_hi)):
        tols = [_BOUNDARY_REL_TOL, _BOUNDARY_REL_TOL * abs(value)]
        slacks = []
        if lo is not None:
            tols.append(_BOUNDARY_REL_TOL * abs(lo))
            slacks.append(value - lo)
        if hi is not None:
            tols.append(_BOUNDARY_REL_TOL * abs(hi))
            slacks.append(hi - value)
        for slack in slacks:
            above = False
            for tol in tols:
                strict = strict & (slack > tol)
                above = above | (slack > -tol)
            loose = loose & above
    return strict, loose


@dataclass(frozen=True)
class Ring:
    """One ring of n uniformly spaced saddle points."""

    rho: float
    family: str
    theta_offsets: tuple[float, ...]
    hess_g_det: float


@dataclass(frozen=True)
class SaddlePrediction:
    count: int
    rings: tuple[Ring, ...]
    region_label: str
    n: int
    boundary: bool = False
    non_generic: bool = False
    warnings: tuple[str, ...] = ()

    @property
    def families(self) -> tuple[str, ...]:
        return tuple(r.family for r in self.rings)


def _family_angles(n: int, family: str) -> tuple[float, ...]:
    if family == EVEN_FAMILY:
        return tuple(2.0 * k * math.pi / n for k in range(n))
    return tuple((2.0 * k + 1.0) * math.pi / n for k in range(n))


def _ring_det_hess_g(p: ABParams, rho: float, sign: float) -> float:
    """det(Hess G) on the ring of radius rho solving A + sign*B = 0.

    Z_n^n is harmonic, so G = P(rho) + Q(rho) cos(n theta) with
    Q = -(4 c_b / n) rho^n, c_b being B's coefficient.  On the family's
    meridians, where cos(n theta) = -sign, dG/drho = 4 rho (A + sign*B) and
    dG/dtheta = d2G/drho dtheta = 0.  At a root of A + sign*B the Hessian is
    therefore diagonal in polar coordinates: G_rhorho = 4 rho (A' + sign*B')
    and G_thetatheta / rho^2 = -4 sign n c_b rho^(n-2), whose product is
    -16 sign n c_b rho^(n-1) (A' + sign*B')(rho).
    """
    dA, dB = _ab_derivatives(p)
    c_b = _ab_coefficients(p)[3]
    slope = dA(rho) + sign * dB(rho)
    return float(-16.0 * sign * p.n * c_b * rho ** (p.n - 1) * slope)


def predict_saddles(p: ABParams) -> SaddlePrediction:
    """Closed-form saddle census: count in {0, n, 2n}, rings, region label.

    Boundary equalities within the relative tolerance 1e-12 are reported
    with ``boundary=True`` rather than resolved either way.
    """
    _require_positive_beta(p)
    if p.gamma == 0.0:
        return SaddlePrediction(
            count=0,
            rings=(),
            region_label="gamma=0: axially symmetric, no isolated saddles",
            n=p.n,
            non_generic=True,
        )
    rows = _family_rows(p.n, p.beta, p.gamma)
    radii = saddle_radii(p)
    rings: list[Ring] = []
    labels: list[str] = []
    warnings: list[str] = []
    boundary = False
    for family, sign in ((EVEN_FAMILY, -1.0), (ODD_FAMILY, 1.0)):
        strict_rows = []
        loose_rows = []
        for row in rows[family]:
            strict, loose = _row_state(p.gamma, p.alpha, row)
            if strict:
                strict_rows.append(row)
            elif loose:
                loose_rows.append(row)
        if not strict_rows and loose_rows:
            boundary = True
        active = bool(strict_rows) or bool(loose_rows)
        if not active:
            continue
        labels.append(f"{family}: " + (strict_rows or loose_rows)[0].label)
        candidates = radii.for_family(family)
        angles = _family_angles(p.n, family)
        chosen = []
        for rho in candidates:
            det = _ring_det_hess_g(p, rho, sign)
            if det < 0.0:
                chosen.append(Ring(rho, family, angles, det))
        if len(chosen) != 1:
            warnings.append(
                f"{family} family: expected exactly one saddle ring, found "
                f"{len(chosen)} among radii {candidates}"
            )
        rings.extend(chosen)
    count = p.n * (len(labels))
    if len(rings) != len(labels):
        warnings.append("ring selection and inequality table disagree")
    return SaddlePrediction(
        count=count,
        rings=tuple(sorted(rings, key=lambda r: r.rho)),
        region_label="; ".join(labels) if labels else "outside all saddle regions",
        n=p.n,
        boundary=boundary,
        warnings=tuple(warnings),
    )


def boundary_slacks(p: ABParams) -> list[float]:
    """Normalized distances of (gamma, alpha) to every table inequality.

    Used to exclude samples too close to a region boundary, where the
    strict inequalities (and the numerical census) become ill-conditioned.
    Includes the gamma = 0 axis.
    """
    out = [abs(p.gamma) / max(1.0, abs(p.beta))]
    for rows in _family_rows(p.n, p.beta, p.gamma).values():
        for row in rows:
            for value, lo, hi in ((p.gamma, row.gamma_lo, row.gamma_hi),
                                  (p.alpha, row.alpha_lo, row.alpha_hi)):
                for bound in (lo, hi):
                    if bound is not None and math.isfinite(bound):
                        out.append(abs(value - bound) / max(1.0, abs(bound)))
    return out


def _saddles_exist(n: int, beta: float, alpha: float, gamma):
    """Elementwise ``predict_saddles(ABParams(alpha, beta, gamma, n)).count
    > 0`` for nonzero gamma: some row of either family is active, strictly
    or up to the boundary tolerance."""
    exist = False
    for rows in _family_rows(n, beta, gamma).values():
        for row in rows:
            exist = exist | _row_state(gamma, alpha, row)[1]
    return exist


def admissible_gamma_interval(
    n: int, beta: float, alpha: float, gamma_cap_factor: float = 30.0
) -> tuple[float, float] | None:
    """Symmetric interval of gamma values with a positive saddle count.

    The scan covers |gamma| <= gamma_cap_factor * beta and returns the
    outermost admissible magnitude (the predicate is symmetric under
    gamma -> -gamma up to a family swap).  Returns None when no gamma in
    the scanned range yields saddles.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if not gamma_cap_factor > 0.0:
        raise ValueError("gamma_cap_factor must be positive")
    # checks n and the finiteness of alpha, beta and the cap
    p = ABParams(alpha, beta, gamma_cap_factor * beta, n)
    cap = p.gamma
    m = 2048
    gs = np.linspace(cap / m, cap, m)
    flags = (gs != 0.0) & _saddles_exist(p.n, p.beta, p.alpha, gs)
    if not flags.any():
        return None
    last = int(np.flatnonzero(flags)[-1])
    if last + 1 >= m:
        return (-cap, cap)
    lo, hi = float(gs[last]), float(gs[last + 1])
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _saddles_exist(p.n, p.beta, p.alpha, mid):
            lo = mid
        else:
            hi = mid
    edge = 0.5 * (lo + hi)
    return (-edge, edge)


def spherical_equivalent(alpha: float, pupil_radius: float) -> float:
    """Defocus coefficient (micrometres) to spherical equivalent (diopters)."""
    if pupil_radius <= 0.0:
        raise ValueError("pupil_radius must be positive")
    return 4.0 * SQRT3 * alpha / pupil_radius**2


# --------------------------------------------------------------------------
# Region diagrams
# --------------------------------------------------------------------------

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
    nb = _named_bounds(n, beta, g)
    curves = {"alpha1_plus": nb["alpha1_plus"], "alpha1_minus": nb["alpha1_minus"]}
    if n == 3:
        curves.update(alpha2=nb["alpha2"], alpha3=nb["alpha3"])
    if n in (5, 6):
        curves["sqrt15_beta-alpha2_plus"] = nb["sqrt15_beta"] - nb["alpha2_plus"]
        curves["sqrt15_beta-alpha2_minus"] = nb["sqrt15_beta"] - nb["alpha2_minus"]
    return {k: np.column_stack([g, a]) for k, a in curves.items()}


def _tick_values(n: int, beta: float) -> dict[str, float]:
    ticks = {"sqrt(15)b": SQRT15 * beta}
    if n == 3:
        ticks["4*sqrt(10)b"] = 4.0 * SQRT10 * beta
        ticks["-4*sqrt(10)b"] = -4.0 * SQRT10 * beta
    elif n == 4:
        for s, v in (("", 1.0), ("-", -1.0)):
            ticks[f"{s}sqrt(2)b"] = v * SQRT2 * beta
            ticks[f"{s}3*sqrt(2)b"] = v * 3.0 * SQRT2 * beta
            ticks[f"{s}(sqrt(2)+sqrt(6))b"] = v * (SQRT2 + SQRT6) * beta
    else:
        nb = _named_bounds(n, beta, beta)  # gamma value irrelevant for gamma1
        for s, v in (("", 1.0), ("-", -1.0)):
            ticks[f"{s}gamma1+"] = v * nb["gamma1_plus"]
            ticks[f"{s}gamma1-"] = v * nb["gamma1_minus"]
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
    active and bit 2 for the odd family.  The rows are built once, on the
    array of nonzero gammas, and every row is tested on the whole grid at
    once; the gamma = 0 column stays 0.
    """
    if not 0.0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    if n not in SUPPORTED_ORDERS:
        raise CapabilityError(f"supported orders are {SUPPORTED_ORDERS}, got n={n}")
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    beta = float(beta)
    w = DEFAULT_WINDOWS[n]
    if gamma_range is None:
        gamma_range = (w[0] * beta, w[1] * beta)
    if alpha_range is None:
        alpha_range = (w[2] * beta, w[3] * beta)
    for name, (lo, hi) in (("gamma", gamma_range), ("alpha", alpha_range)):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(
                f"the {name} window must be finite and increasing, got {lo}, {hi}"
            )
    gammas = np.linspace(gamma_range[0], gamma_range[1], resolution)
    alphas = np.linspace(alpha_range[0], alpha_range[1], resolution)
    nonzero = gammas != 0.0
    g = gammas[nonzero]
    rows = _family_rows(n, beta, g)
    codes = np.zeros((resolution, resolution), dtype=int)
    for bit, family in ((1, EVEN_FAMILY), (2, ODD_FAMILY)):
        hit = False
        for row in rows[family]:
            hit = hit | _row_state(g, alphas[:, None], row)[0]
        codes[:, nonzero] |= bit * hit
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

"""Zernike wavefront terms and exact bivariate polynomial arithmetic.

A wave aberration is a sum of Zernike terms over the normalized unit
pupil, with coefficients in micrometres.  Every term is converted to an
exact monomial-basis polynomial so that gradients, Hessians, and the
Hessian determinant downstream are closed-form objects rather than
finite-difference approximations.

Conventions
-----------
* Normalization: Z_n^m carries the factor sqrt(2(n+1)/(1+delta_{m0})),
  so Z_2^0 = sqrt(3)(2 rho^2 - 1), Z_4^0 = sqrt(5)(6 rho^4 - 6 rho^2 + 1)
  and Z_n^n = sqrt(2(n+1)) rho^n cos(n theta).
* Polar convention: (x, y) = (rho sin(theta), rho cos(theta)).  theta = 0
  points along +y, so Z_n^n has a crest on the +y axis.  All reported
  angles in this package (critical points, angular families, spike tips)
  use this convention; theta = atan2(x, y).
* Positive m pairs with cos(m theta), negative m with sin(|m| theta).

Coefficients are assembled from exact integer combinatorics and a single
square-root normalization factor, evaluated once in double precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

MAX_RADIAL_ORDER = 12


class CapabilityError(ValueError):
    """Requested operation is outside the supported parameter range."""


def _trim(c: np.ndarray) -> np.ndarray:
    """Drop trailing rows/columns that are zero in every polynomial of the
    (DX, DY, ...) stack ``c``, keeping at least one of each."""
    rows, cols = np.nonzero(c)[:2]
    if rows.size == 0:
        return np.zeros((1, 1) + c.shape[2:])
    return np.array(c[: rows.max() + 1, : cols.max() + 1])


def _ranges(first, count):
    """first[i], first[i] + 1, ..., first[i] + count[i] - 1 for every i, in turn."""
    return np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())


def derivative(coeffs: np.ndarray, axis: int) -> np.ndarray:
    """Exact partial derivative along axis 0 (x) or 1 (y) of every
    polynomial of a (DX, DY, ...) coefficient stack: polyder's j * c[j], in
    one product, trimmed as `_trim`."""
    j = np.arange(1, coeffs.shape[axis]).reshape((-1,) + (1,) * (coeffs.ndim - 1 - axis))
    return _trim(coeffs[(slice(None),) * axis + (slice(1, None),)] * j)


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of a[..., k] * b[..., k] for every polynomial k of two
    (DX, DY, ...) stacks of one trailing shape: b shifted by (i, j) times
    a[i, j], added in row-major order over the (i, j) where some polynomial
    of ``a`` is nonzero.  A polynomial's own zero terms add only zeros to
    sums that are never -0.0, so each product has the bits of multiplying
    its pair alone."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1) + a.shape[2:])
    for i, j in zip(*np.nonzero(np.any(a != 0.0, axis=tuple(range(2, a.ndim))))):
        out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
    return out


_TILE_BUDGET = 1 << 16  # grid values per tile of grid_values' y-steps, 512 KB


def grid_values(coeffs: np.ndarray, xs, ys) -> np.ndarray:
    """Values of sum_{i,j} coeffs[i, j, ...] x^i y^j, one polynomial per
    trailing index of ``coeffs``, on the tensor grid xs x ys: shape
    coeffs.shape[2:] + (len(xs), len(ys)).  ``polyval2d``'s operations in
    the same order, so bit-identical (zero padding too), without its
    (degree + 1) * len(xs) * len(ys) temporaries.

    The Horner steps in x give one row of y-coefficients per polynomial and
    x.  The steps in y then run on tiles of about _TILE_BUDGET values: a
    tile is consecutive rows of the output, all polynomials' rows taken as
    one sequence, and each step multiplies it by a contiguous tile of ys
    (one copy of ys per row, made once) and adds each row's coefficient.  A
    tile stays in cache through all the steps, and its product is one
    contiguous loop, not one broadcast of ys per row."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    b = coeffs[-1][..., None] + xs * 0.0
    for row in coeffs[-2::-1]:
        b = row[..., None] + b * xs
    out = np.empty(b.shape[1:] + ys.shape)
    b = b.reshape(len(b), -1)
    rows = out.reshape(b.shape[1], len(ys))
    size = max(_TILE_BUDGET // max(len(ys), 1), 1)
    y_tile = np.broadcast_to(ys, (min(size, len(rows)), len(ys))).copy()
    zero = ys * 0.0
    for lo in range(0, len(rows), size):
        tile, coeff = rows[lo:lo + size], b[:, lo:lo + size, None]
        np.add(coeff[-1], zero, out=tile)
        for bk in coeff[-2::-1]:
            tile *= y_tile[:len(tile)]
            tile += bk
    return out


def row_widths(coeffs: np.ndarray) -> list[int]:
    """The Horner row widths of a (DX, DY, ...) coefficient stack, as
    `gathered_values` carries them: row i in x carries the columns up to the
    last nonzero one of rows i and above in any polynomial of the stack, and
    at least one.  Only +0.0 counts as zero: it leaves every Horner sum's
    bits unchanged, a -0.0 coefficient can flip a zero's sign."""
    nonzero = (coeffs != 0.0) | np.signbit(coeffs)
    rows = nonzero.reshape(coeffs.shape[0], coeffs.shape[1], -1).any(axis=2)
    last = (rows * np.arange(1, rows.shape[1] + 1)).max(axis=1)  # 0 for no column
    return np.maximum(np.maximum.accumulate(last[::-1])[::-1], 1).tolist()


def gathered_values(coeffs: np.ndarray, index: np.ndarray, x, y, widths=None) -> np.ndarray:
    """Values at each point (x[k], y[k]) of its own polynomials
    coeffs[:, :, ..., index[k]], stacked as in `grid_values`: shape
    coeffs.shape[2:-1] + (len(x),), bit-identical to ``polyval2d``.

    Gathers one Horner row per step, never the whole per-point coefficient
    block, and only its leading columns, the stack's `row_widths`, so the
    zero triangle above the total degree is skipped.  A caller that
    evaluates one stack many times passes its ``widths`` once; None computes
    them.  A skipped column would stay +0.0 at a finite point; at a
    non-finite one every column is NaN, and at least one is always carried.
    A stack of one field broadcasts its rows instead of gathering them."""
    if widths is None:
        widths = row_widths(coeffs)
    field = slice(0, 1) if coeffs.shape[-1] == 1 else index
    c = np.zeros((widths[0],) + coeffs.shape[2:-1] + (len(x),))
    for row, width in zip(coeffs[::-1], widths[::-1]):
        c[:width] *= x
        c[:width] += row[:width, ..., field]
    out = np.zeros(c.shape[1:])
    for ck in c[::-1]:
        out *= y
        out += ck
    return out


def ray_coefficients(coeffs: np.ndarray, sin, cos) -> np.ndarray:
    """Each polynomial of a (DX, DY, ...) stack on the rays at (sin t, cos t),
    which broadcast against its trailing axes, as a polynomial in rho:
    a_k(t) = sum_{i+j=k} c_ij sin^i t cos^j t up to the stack's degree, summed
    onto +0.0 a row of c at a time, in order of i (a zero c_ij adds a zero and
    moves no bit), so at (0, 1) it is c[0, k] bit for bit, -0.0 read as +0.0."""
    rows, cols = np.nonzero(np.any(coeffs != 0.0, axis=tuple(range(2, coeffs.ndim))))
    deg = (rows + cols).max(initial=0)
    shape = np.shape(coeffs[0, 0] * sin * cos)
    c = coeffs.reshape(coeffs.shape[:2] + (1,) * (len(shape) + 2 - coeffs.ndim) + coeffs.shape[2:])
    cos = np.reshape(cos, (1,) * (len(shape) - np.ndim(cos)) + np.shape(cos))
    cos_pow = np.stack([cos ** j for j in range(min(coeffs.shape[1], deg + 1))])
    a = np.zeros((deg + 1,) + shape)
    for i in sorted(set(rows.tolist())):
        m = min(len(cos_pow), deg + 1 - i)
        a[i:i + m] += c[i, :m] * (sin ** i * cos_pow[:m])
    return a


@dataclass(frozen=True)
class BivariatePolynomial:
    """Dense polynomial sum_{i,j} c[i, j] x^i y^j.

    Instances are immutable; arithmetic returns new objects.  The zero
    polynomial is represented by a 1x1 zero matrix and has degree -1.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = _trim(np.atleast_2d(np.asarray(self.coeffs, dtype=float)))
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        ii, jj = np.nonzero(self.coeffs)
        if ii.size == 0:
            return -1
        return int(np.max(ii + jj))

    def __call__(self, x, y):
        """`gathered_values` at the broadcast points (x, y); numpy floats for scalars."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        values = gathered_values(self.coeffs[:, :, None], None, x.ravel(), y.ravel())
        return values.reshape(x.shape)[()]

    def grid(self, xs, ys) -> np.ndarray:
        """Values on the tensor grid xs x ys, shape (len(xs), len(ys));
        bit-identical to ``self(*np.meshgrid(xs, ys, indexing="ij"))``."""
        return grid_values(self.coeffs, xs, ys)

    def differentiate(self, axis: str) -> "BivariatePolynomial":
        """Exact partial derivative along ``axis`` ("x" or "y")."""
        if axis not in ("x", "y"):
            raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
        return BivariatePolynomial(derivative(self.coeffs, "xy".index(axis)))

    def rescale_domain(self, factor: float) -> "BivariatePolynomial":
        """Return q(x, y) = p(x / factor, y / factor); ValueError when a
        nonzero coefficient of q is not a normal float.  The powers of the
        factor are taken only at p's nonzero coefficients, so a power that
        overflows or underflows at a structural zero is never read."""
        if not (factor > 0 and math.isfinite(factor)):
            raise ValueError(f"factor must be positive and finite, got {factor}")
        i, j = np.nonzero(self.coeffs)
        c = np.array(self.coeffs)
        with np.errstate(all="ignore"):  # reported below
            c[i, j] /= factor ** (i + j)
        normal = np.finfo(float)
        scaled = np.abs(c[i, j])
        if not np.all((scaled >= normal.tiny) & (scaled <= normal.max)):
            raise ValueError(f"factor {factor} takes the coefficients out of the normal range")
        return BivariatePolynomial(c)


@dataclass(frozen=True)
class ZernikeTerm:
    """One Zernike mode: radial order n, signed azimuthal frequency m,
    coefficient in micrometres."""

    n: int
    m: int
    coeff: float

    def __post_init__(self) -> None:
        for name in ("n", "m"):
            value = getattr(self, name)
            # a float must be whole; int() of inf or nan would raise instead
            if not (value.is_integer() if isinstance(value, float) else value == int(value)):
                raise ValueError(f"{name} must be an integer, got {value}")
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "coeff", float(self.coeff))
        if not math.isfinite(self.coeff):
            raise ValueError(f"coefficient must be finite, got {self.coeff}")
        if self.n < 0:
            raise ValueError(f"radial order must be a non-negative integer, got {self.n}")
        if abs(self.m) > self.n:
            raise ValueError(f"|m| <= n required, got (n={self.n}, m={self.m})")
        if (self.n - abs(self.m)) % 2 != 0:
            raise ValueError(f"n - |m| must be even, got (n={self.n}, m={self.m})")
        if self.n > MAX_RADIAL_ORDER:
            raise CapabilityError(
                f"radial order {self.n} exceeds the supported maximum {MAX_RADIAL_ORDER}"
            )

    @property
    def normalization(self) -> float:
        return _normalization(self.n, self.m)

    def to_polynomial(self) -> BivariatePolynomial:
        """Exact Cartesian polynomial of total degree n for this term."""
        return BivariatePolynomial(wavefront_stack([(self.n, self.m)], [self.coeff]))

    def radial_polynomial(self, rho):
        """R_n^{|m|}(rho), without normalization (used by validation tests)."""
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        for power, c in _radial_coefficients(self.n, abs(self.m)).items():
            out = out + c * rho**power
        return out


def _radial_coefficients(n: int, m_abs: int) -> dict[int, int]:
    """Integer coefficients {rho-power: coeff} of the radial polynomial."""
    coeffs: dict[int, int] = {}
    for k in range((n - m_abs) // 2 + 1):
        num = math.factorial(n - k)
        den = (
            math.factorial(k)
            * math.factorial((n + m_abs) // 2 - k)
            * math.factorial((n - m_abs) // 2 - k)
        )
        coeffs[n - 2 * k] = (-1) ** k * (num // den)
    return coeffs


def _harmonic_matrix(m_abs: int, use_sin: bool) -> np.ndarray:
    # rho^m cos(m t) = Re((y + i x)^m), rho^m sin(m t) = Im((y + i x)^m)
    # under (x, y) = (rho sin t, rho cos t).
    out = np.zeros((m_abs + 1, m_abs + 1))
    for k in range(m_abs + 1):
        c = math.comb(m_abs, k)
        if use_sin:
            if k % 2 == 1:
                out[k, m_abs - k] = c if k % 4 == 1 else -c
        else:
            if k % 2 == 0:
                out[k, m_abs - k] = c if k % 4 == 0 else -c
    return out


def _disk_power_matrix(s: int) -> np.ndarray:
    # (x^2 + y^2)^s
    out = np.zeros((2 * s + 1, 2 * s + 1))
    for t in range(s + 1):
        out[2 * t, 2 * (s - t)] = math.comb(s, t)
    return out


def _normalization(n: int, m: int) -> float:
    return math.sqrt(2.0 * (n + 1) / (2.0 if m == 0 else 1.0))


@functools.cache
def _monomials(n: int, m: int) -> np.ndarray:
    """The (n + 1, n + 1) integer monomial matrix of Z_n^m without its
    normalization: each radial power rho^(|m| + 2s) as (x^2 + y^2)^s times
    the harmonic.  Read-only, shared by every caller."""
    m_abs = abs(m)
    harmonic = _harmonic_matrix(m_abs, use_sin=m < 0)
    out = np.zeros((n + 1, n + 1))
    for power, c_rad in _radial_coefficients(n, m_abs).items():
        block = product(_disk_power_matrix((power - m_abs) // 2), harmonic)
        out[: block.shape[0], : block.shape[1]] += c_rad * block
    out.flags.writeable = False
    return out


def wavefront_stack(modes, coeffs) -> np.ndarray:
    """The (DX, DY, ...) coefficient stack of W = sum_k coeffs[k] Z_n^m over
    the (n, m) pairs of ``modes``, one polynomial per trailing index of the
    coefficient arrays: each mode's `_monomials` times (coefficient *
    normalization), added onto zeros in mode order.  A coefficient that
    overflows is left non-finite, for the caller to reject."""
    coeffs = np.asarray(coeffs, dtype=float)
    size = max((n for n, _ in modes), default=0) + 1
    out = np.zeros((size, size) + coeffs.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for (n, m), c in zip(modes, coeffs):
            out[: n + 1, : n + 1] += np.multiply.outer(_monomials(n, m), c * _normalization(n, m))
    return out


@dataclass(frozen=True)
class WaveAberration:
    """Wave aberration W as a list of Zernike terms plus pupil radius [mm]."""

    terms: tuple[ZernikeTerm, ...]
    pupil_radius: float = 3.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if not (self.pupil_radius > 0 and math.isfinite(self.pupil_radius)):
            raise ValueError("pupil_radius must be positive and finite")
        seen = set()
        for t in self.terms:
            key = (t.n, t.m)
            if key in seen:
                raise ValueError(f"duplicate Zernike index (n={t.n}, m={t.m})")
            seen.add(key)

    def degree(self) -> int:
        """Maximum radial order over the terms (0 for the empty aberration)."""
        return max((t.n for t in self.terms), default=0)

    def fold_order(self) -> int:
        """The order g of W's rotation symmetry readable from its azimuthal
        frequencies, gcd |m| over the nonzero terms: W is unchanged by a
        turn of 2 pi / g.  0 when no nonzero term has m != 0 (axial W)."""
        return math.gcd(*(abs(t.m) for t in self.terms if t.coeff != 0.0))

    def to_polynomial(self) -> BivariatePolynomial:
        return BivariatePolynomial(wavefront_stack([(t.n, t.m) for t in self.terms],
                                                   [t.coeff for t in self.terms]))

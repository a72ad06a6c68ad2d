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

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npol

MAX_RADIAL_ORDER = 12


class CapabilityError(ValueError):
    """Requested operation is outside the supported parameter range."""


def _trim(c: np.ndarray) -> np.ndarray:
    """Drop all-zero trailing rows/columns, keeping at least a 1x1 array."""
    rows = np.nonzero(np.any(c != 0.0, axis=1))[0]
    cols = np.nonzero(np.any(c != 0.0, axis=0))[0]
    if rows.size == 0 or cols.size == 0:
        return np.zeros((1, 1))
    return np.array(c[: rows[-1] + 1, : cols[-1] + 1])


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

    @property
    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def __call__(self, x, y):
        return npol.polyval2d(x, y, self.coeffs)

    def grid(self, xs, ys) -> np.ndarray:
        """Values on the tensor grid xs x ys, shape (len(xs), len(ys)): the
        operations of ``self(*np.meshgrid(xs, ys, indexing="ij"))`` in the
        same order, so bit-identical, without its (degree + 1) * len(xs) *
        len(ys) temporaries."""
        ys = np.asarray(ys, dtype=float)
        b = npol.polyval(np.asarray(xs, dtype=float), self.coeffs)
        out = b[-1][:, None] + ys * 0.0
        for bk in b[-2::-1]:
            out *= ys
            out += bk[:, None]
        return out

    def differentiate(self, axis: str) -> "BivariatePolynomial":
        """Exact partial derivative along ``axis`` ("x" or "y")."""
        if axis == "x":
            ax = 0
        elif axis == "y":
            ax = 1
        else:
            raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
        if self.coeffs.shape[ax] == 1:
            return BivariatePolynomial(np.zeros((1, 1)))
        return BivariatePolynomial(npol.polyder(self.coeffs, m=1, axis=ax))

    def rescale_domain(self, factor: float) -> "BivariatePolynomial":
        """Return q(x, y) = p(x / factor, y / factor)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        i = np.arange(self.coeffs.shape[0])[:, None]
        j = np.arange(self.coeffs.shape[1])[None, :]
        return BivariatePolynomial(self.coeffs / factor ** (i + j))

    def _binary(self, other, sign: float) -> "BivariatePolynomial":
        a, b = self.coeffs, other.coeffs
        out = np.zeros((max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1])))
        out[: a.shape[0], : a.shape[1]] = a
        out[: b.shape[0], : b.shape[1]] += sign * b
        return BivariatePolynomial(out)

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return self._binary(other, 1.0)

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return self._binary(other, -1.0)

    def __neg__(self) -> "BivariatePolynomial":
        return BivariatePolynomial(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return BivariatePolynomial(self.coeffs * float(other))
        a, b = self.coeffs, other.coeffs
        out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
        for i, j in zip(*np.nonzero(a)):
            out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
        return BivariatePolynomial(out)

    __rmul__ = __mul__


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
        return math.sqrt(2.0 * (self.n + 1) / (2.0 if self.m == 0 else 1.0))

    def to_polynomial(self) -> BivariatePolynomial:
        """Exact Cartesian polynomial of total degree n for this term."""
        m_abs = abs(self.m)
        harmonic = BivariatePolynomial(_harmonic_matrix(m_abs, use_sin=self.m < 0))
        acc = np.zeros((self.n + 1, self.n + 1))
        for power, c_rad in _radial_coefficients(self.n, m_abs).items():
            s = (power - m_abs) // 2
            block = (BivariatePolynomial(_disk_power_matrix(s)) * harmonic).coeffs
            acc[: block.shape[0], : block.shape[1]] += c_rad * block
        return BivariatePolynomial(acc * (self.coeff * self.normalization))

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

    def to_polynomial(self) -> BivariatePolynomial:
        acc = BivariatePolynomial(np.zeros((1, 1)))
        for t in self.terms:
            acc = acc + t.to_polynomial()
        return acc

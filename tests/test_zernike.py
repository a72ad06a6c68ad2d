import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import polynomial as npol

from starburst import (
    BivariatePolynomial,
    CapabilityError,
    MAX_RADIAL_ORDER,
    WaveAberration,
    ZernikeTerm,
    build_field,
    three_term_stacks,
)
from starburst.hessian import _RAY_ROUNDS, _stack
from starburst.zernike import (
    _trim,
    derivative,
    gathered_values,
    grid_values,
    horner,
    product,
    ray_coefficients,
    wavefront_stack,
)


def all_valid_terms(max_order):
    for n in range(max_order + 1):
        for m in range(-n, n + 1):
            if (n - abs(m)) % 2 == 0:
                yield n, m


class TestTermValidation:
    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (1, -2), (4, 3), (5, 0)])
    def test_parity_or_range_violations_rejected(self, n, m):
        with pytest.raises(ValueError):
            ZernikeTerm(n, m, 0.1)

    def test_radial_order_cap(self):
        ZernikeTerm(MAX_RADIAL_ORDER, 0, 0.1)
        with pytest.raises(CapabilityError):
            ZernikeTerm(MAX_RADIAL_ORDER + 2, 0, 0.1)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            ZernikeTerm(-2, 0, 0.1)

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, coeff):
        with pytest.raises(ValueError, match="finite"):
            ZernikeTerm(4, 0, coeff)


class TestKnownValues:
    def test_defocus_at_center(self):
        poly = ZernikeTerm(2, 0, 1.0).to_polynomial()
        assert poly(0.0, 0.0) == pytest.approx(-math.sqrt(3.0), abs=1e-14)

    def test_defocus_zero_crossing(self):
        poly = ZernikeTerm(2, 0, 1.0).to_polynomial()
        assert poly(0.5, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_trefoil_at_origin(self):
        assert ZernikeTerm(3, 3, 1.0).to_polynomial()(0.0, 0.0) == 0.0

    def test_trefoil_on_axis(self):
        # theta = 0 lies along +y, where rho^3 cos(3 theta) peaks
        poly = ZernikeTerm(3, 3, 1.0).to_polynomial()
        assert poly(0.0, 1.0) == pytest.approx(math.sqrt(8.0), rel=1e-14)

    def test_spherical_at_rim(self):
        poly = ZernikeTerm(4, 0, 1.0).to_polynomial()
        assert poly(0.0, 1.0) == pytest.approx(math.sqrt(5.0), rel=1e-14)

    def test_zero_polynomial_evaluates_to_zero(self):
        zero = BivariatePolynomial(np.zeros((1, 1)))
        assert zero(0.3, -0.7) == 0.0
        assert zero.degree == -1


class TestPolarAgreement:
    def test_cartesian_matches_polar_form(self):
        rng = np.random.default_rng(42)
        rho = np.sqrt(rng.uniform(0.0, 1.0, 10_000))
        theta = rng.uniform(0.0, 2.0 * np.pi, 10_000)
        x, y = rho * np.sin(theta), rho * np.cos(theta)
        for n, m in all_valid_terms(8):
            term = ZernikeTerm(n, m, 1.0)
            trig = np.cos(abs(m) * theta) if m >= 0 else np.sin(abs(m) * theta)
            reference = term.normalization * term.radial_polynomial(rho) * trig
            np.testing.assert_allclose(
                term.to_polynomial()(x, y), reference, rtol=1e-12, atol=1e-12
            )

    def test_degree_is_exactly_n(self):
        for n, m in all_valid_terms(MAX_RADIAL_ORDER):
            assert ZernikeTerm(n, m, 0.7).to_polynomial().degree == n


class TestDifferentiation:
    def test_constant_derivative_is_zero(self):
        const = BivariatePolynomial(np.array([[3.5]]))
        assert not const.differentiate("x").coeffs.any()
        assert not const.differentiate("y").coeffs.any()

    def test_power_rule(self):
        # d/dx (x^2 y) = 2 x y
        poly = BivariatePolynomial(np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        dx = poly.differentiate("x")
        np.testing.assert_array_equal(dx.coeffs, np.array([[0.0, 0.0], [0.0, 2.0]]))

    def test_mixed_partials_commute(self):
        rng = np.random.default_rng(3)
        poly = BivariatePolynomial(rng.normal(size=(7, 7)))
        xy = poly.differentiate("x").differentiate("y")
        yx = poly.differentiate("y").differentiate("x")
        # coefficient maps agree to the last couple of ulps (the two orders
        # round the integer scalings differently)
        np.testing.assert_allclose(xy.coeffs, yx.coeffs, rtol=1e-14, atol=0.0)
        # and exactly for integer-coefficient polynomials
        ipoly = BivariatePolynomial(rng.integers(-9, 9, size=(6, 6)).astype(float))
        np.testing.assert_array_equal(
            ipoly.differentiate("x").differentiate("y").coeffs,
            ipoly.differentiate("y").differentiate("x").coeffs,
        )

    def test_degree_drops_by_one(self):
        poly = ZernikeTerm(6, 6, 0.19).to_polynomial()
        assert poly.differentiate("x").degree == poly.degree - 1

    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        rho = np.sqrt(rng.uniform(0.0, 1.0, 200))
        theta = rng.uniform(0.0, 2.0 * np.pi, 200)
        x, y = rho * np.sin(theta), rho * np.cos(theta)
        h = 1e-6
        for n, m in all_valid_terms(8):
            poly = ZernikeTerm(n, m, 1.0).to_polynomial()
            fd_x = (poly(x + h, y) - poly(x - h, y)) / (2.0 * h)
            fd_y = (poly(x, y + h) - poly(x, y - h)) / (2.0 * h)
            np.testing.assert_allclose(poly.differentiate("x")(x, y), fd_x, atol=1e-6)
            np.testing.assert_allclose(poly.differentiate("y")(x, y), fd_y, atol=1e-6)

    def test_invalid_axis_rejected(self):
        with pytest.raises(ValueError):
            ZernikeTerm(2, 0, 1.0).to_polynomial().differentiate("z")

    def test_same_bits_as_polyder(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            poly = BivariatePolynomial(rng.normal(size=tuple(rng.integers(1, 14, 2))))
            for ax, axis in enumerate("xy"):
                got = poly.differentiate(axis).coeffs
                if poly.coeffs.shape[ax] == 1:
                    assert got.shape == (1, 1) and not np.any(got)
                    continue
                want = BivariatePolynomial(npol.polyder(poly.coeffs, axis=ax)).coeffs
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestStackDerivative:
    """`derivative` of a stack gives every field `differentiate`'s bits,
    and the stack is trimmed to the largest of them."""

    @staticmethod
    def _check(stack):
        for ax, axis in enumerate("xy"):
            got = derivative(stack, ax)
            want = [BivariatePolynomial(stack[..., k]).differentiate(axis).coeffs
                    for k in range(stack.shape[-1])]
            assert got.shape == tuple(np.max([w.shape for w in want] + [(1, 1)], axis=0)) + (
                stack.shape[-1],)
            for k, w in enumerate(want):
                field = _trim(got[..., k])
                assert field.shape == w.shape and field.tobytes() == w.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_stacks(self, seed):
        rng = np.random.default_rng(seed)
        fields = [rng.normal(size=tuple(rng.integers(1, 12, 2)))
                  for _ in range(int(rng.integers(1, 7)))]
        stack = _stack(fields)
        # signed zeros inside and past a field's support
        stack[rng.random(stack.shape) < 0.2] = -0.0
        self._check(stack)

    def test_negative_zero_coefficients(self):
        c = np.array([[1.0, 0.0, 5.0], [-0.0, 2.0, -0.0], [3.0, -0.0, -0.0]])
        stack = _stack([c, -c, np.full((3, 3), -0.0)])
        self._check(stack)
        # the only nonzero of the last column is in row 0: gone from d/dx
        assert derivative(stack, 0).shape == (2, 2, 3)

    def test_one_by_one_stacks(self):
        for stack in (np.array([[[2.5, -1.0]]]), np.zeros((1, 1, 3))):
            self._check(stack)
            assert derivative(stack, 0).shape == (1, 1, stack.shape[-1])

    def test_zero_fields(self):
        stack = np.zeros((4, 3, 0))
        for ax in (0, 1):
            assert derivative(stack, ax).shape == (1, 1, 0)

    def test_trailing_zero_rows_and_columns(self):
        rng = np.random.default_rng(12)
        tight = _stack([rng.normal(size=(4, 2)), rng.normal(size=(2, 5)),
                              np.zeros((1, 1))])
        padded = np.zeros((9, 8, 3))
        padded[:4, :5] = tight
        self._check(padded)
        for ax in (0, 1):
            got, want = derivative(padded, ax), derivative(tight, ax)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestPolynomialAlgebra:
    def test_product_against_pointwise(self):
        rng = np.random.default_rng(11)
        a = BivariatePolynomial(rng.normal(size=(4, 3)))
        b = BivariatePolynomial(rng.normal(size=(3, 5)))
        x = rng.uniform(-1, 1, 50)
        y = rng.uniform(-1, 1, 50)
        ab = BivariatePolynomial(product(a.coeffs, b.coeffs))
        np.testing.assert_allclose(ab(x, y), a(x, y) * b(x, y), rtol=1e-12)

    def test_rescale_domain(self):
        poly = ZernikeTerm(4, 4, 0.3).to_polynomial()
        scaled = poly.rescale_domain(2.0)
        x, y = 0.37, -0.81
        assert scaled(2.0 * x, 2.0 * y) == pytest.approx(poly(x, y), rel=1e-13)

    @pytest.mark.parametrize("factor", [1e100, 1e-100])
    def test_rescale_domain_rejects_overflowing_powers(self, factor):
        # Z_4^4 is homogeneous: at its nonzero coefficients 1e100^4
        # overflows and 1e-100^4 underflows to 0
        with pytest.raises(ValueError, match="normal range"):
            ZernikeTerm(4, 4, 0.3).to_polynomial().rescale_domain(factor)

    def test_rescale_domain_keeps_coefficients_normal(self):
        # 2^-1022 is the least normal float
        poly = BivariatePolynomial(np.array([[0.0, 2.0**-1000], [2.0, 0.0]]))
        assert poly.rescale_domain(2.0**22).coeffs[0, 1] == 2.0**-1022
        with pytest.raises(ValueError, match="normal range"):
            poly.rescale_domain(2.0**23)
        with pytest.raises(ValueError, match="normal range"):
            BivariatePolynomial(np.array([[0.0, 1e300]])).rescale_domain(1e-10)

    @pytest.mark.parametrize("k", [-46, 44])
    def test_rescale_domain_skips_structural_zeros(self, k):
        # 2^(24 k) at x^12 y^12, above the total degree, underflows (0 / 0 =
        # NaN there) or overflows (rejecting the dilation); it is not taken
        poly = ZernikeTerm(12, 12, 0.02).to_polynomial()
        i, j = np.indices(poly.coeffs.shape)
        assert np.array_equal(poly.rescale_domain(2.0**k).coeffs,
                              np.ldexp(poly.coeffs, -k * (i + j)))

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.nan, math.inf])
    def test_rescale_domain_rejects_invalid_factor(self, factor):
        with pytest.raises(ValueError):
            ZernikeTerm(4, 4, 0.3).to_polynomial().rescale_domain(factor)

    def test_immutability(self):
        poly = ZernikeTerm(2, 0, 1.0).to_polynomial()
        with pytest.raises(ValueError):
            poly.coeffs[0, 0] = 99.0


def _trim_by_rows_and_columns(c):
    """The trimming rule as first written: last nonzero row and column,
    each found from its own any() reduction."""
    rows = np.nonzero(np.any(c != 0.0, axis=1))[0]
    cols = np.nonzero(np.any(c != 0.0, axis=0))[0]
    if rows.size == 0 or cols.size == 0:
        return np.zeros((1, 1))
    return np.array(c[: rows[-1] + 1, : cols[-1] + 1])


class TestTrim:
    @pytest.mark.parametrize("shape,filled", [
        ((5, 4), (3, 2)),   # trailing zero rows and columns
        ((5, 4), (5, 1)),   # trailing zero columns only
        ((2, 6), (1, 6)),   # trailing zero rows only
        ((3, 3), (0, 0)),   # all zeros
        ((1, 1), (1, 1)),
        ((1, 1), (0, 0)),
    ])
    def test_matches_row_and_column_rule(self, shape, filled):
        rng = np.random.default_rng(3)
        c = np.zeros(shape)
        c[: filled[0], : filled[1]] = rng.normal(size=filled)
        got, want = _trim(c), _trim_by_rows_and_columns(c)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, c)

    def test_interior_zeros_kept(self):
        c = np.zeros((4, 4))
        c[2, 0] = 1.0
        c[0, 3] = -0.0  # a signed zero is trimmed like any zero
        c[1, 2] = 2.0
        got = _trim(c)
        assert got.shape == (3, 3)
        assert got.tobytes() == _trim_by_rows_and_columns(c).tobytes()


def _meshgrid_values(poly, xs, ys):
    return poly(*np.meshgrid(xs, ys, indexing="ij"))


class TestTensorGrid:
    """``grid`` must reproduce evaluation on the meshgrid bit for bit."""

    XS = np.linspace(-1.0, 1.0, 97)
    YS = np.linspace(-1.0, 1.0, 97)

    def test_degree_20_hessian_determinant(self):
        w = WaveAberration(
            (ZernikeTerm(4, 0, 0.2), ZernikeTerm(12, 12, 0.02), ZernikeTerm(2, 0, 0.02))
        )
        g = build_field(w).G
        assert g.degree == 20
        out = g.grid(self.XS, self.YS)
        assert out.shape == (97, 97)
        assert np.array_equal(out, _meshgrid_values(g, self.XS, self.YS))

    def test_constant(self):
        p = BivariatePolynomial(np.array([[-2.5]]))
        assert np.array_equal(p.grid(self.XS, self.YS),
                              _meshgrid_values(p, self.XS, self.YS))

    def test_zero(self):
        p = BivariatePolynomial(np.zeros((1, 1)))
        out = p.grid(self.XS, self.YS)
        assert np.array_equal(out, _meshgrid_values(p, self.XS, self.YS))
        assert not np.any(out)

    def test_non_square_coefficients(self):
        rng = np.random.default_rng(3)
        for shape in ((2, 7), (6, 1), (1, 5)):
            p = BivariatePolynomial(rng.normal(size=shape) + 1.0)
            assert p.coeffs.shape == shape
            assert np.array_equal(p.grid(self.XS, self.YS),
                                  _meshgrid_values(p, self.XS, self.YS))

    def test_unequal_axis_lengths(self):
        rng = np.random.default_rng(4)
        p = BivariatePolynomial(rng.normal(size=(5, 4)))
        xs = np.linspace(-0.8, 1.3, 41)
        ys = np.sort(rng.uniform(-1.0, 1.0, 13))
        out = p.grid(xs, ys)
        assert out.shape == (41, 13)
        assert np.array_equal(out, _meshgrid_values(p, xs, ys))


def _random_stack(rng, fields, names):
    """Random polynomials of mixed shapes and their zero-padded stack."""
    polys = [[rng.normal(size=tuple(rng.integers(1, 10, 2))) for _ in range(fields)]
             for _ in range(names)]
    dx = max(c.shape[0] for row in polys for c in row)
    dy = max(c.shape[1] for row in polys for c in row)
    stack = np.zeros((dx, dy, names, fields))
    for m, row in enumerate(polys):
        for k, c in enumerate(row):
            stack[: c.shape[0], : c.shape[1], m, k] = c
    return polys, stack


def _product_sizes(n, alpha, beta, gamma):
    """|Wxx| |Wyy| + |Wxy|^2 of W = alpha Z_2^0 + beta Z_4^0 + gamma Z_n^n, as
    a (DX, DY, fields) stack: the sizes the rounding of G's coefficients
    scales with."""
    w = wavefront_stack(((2, 0), (4, 0), (n, n)), [alpha, beta, gamma])
    wx, wy = derivative(w, 0), derivative(w, 1)
    xx, xy, yy = (np.abs(p) for p in (derivative(wx, 0), derivative(wx, 1), derivative(wy, 1)))
    return _stack([product(xx, yy), product(xy, xy)]).sum(axis=2)


class TestRayCoefficients:
    """`zernike.ray_coefficients`, G restricted to the rays through the
    centre, the one kernel of the contour mesh and the mirror census."""

    @pytest.mark.parametrize("seed", range(4))
    def test_at_t_0_it_is_the_x0_row_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        _, stack = _random_stack(rng, 5, 3)
        stack[rng.random(stack.shape) < 0.3] = 0.0
        dy = stack.shape[1]
        for sin, cos in ((0.0, 1.0), (np.zeros((2, 1, 1)), np.ones((2, 1, 1)))):
            a = ray_coefficients(stack, sin, cos)
            assert a.shape[1:] == np.broadcast_shapes(stack.shape[2:], np.shape(sin))
            row = np.zeros((len(a),) + stack.shape[2:])  # the x^0 row, +0.0 above it
            row[:dy] = stack[0]
            want = np.broadcast_to(row[:, None] if np.ndim(sin) else row, a.shape)
            assert a.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("n", range(2, 13))
    def test_on_pi_over_n_it_is_the_turned_w(self, n):
        # on theta = pi / n, G's restriction is the x^0 row of the G of W
        # turned by pi / n (Z_n^n negated), built here as the reference:
        # within _RAY_ROUNDS (deg G + 3) unit roundoffs of the |c|
        # restriction, the kernel's bound, plus as many of each G's
        # |Wxx| |Wyy| + |Wxy|^2, for the rounding each G carries of its own
        # (at most 9 and 1.2 unit roundoffs measured)
        rng = np.random.default_rng(5)
        alpha, beta, gamma = (rng.uniform(lo, hi, 50)
                              for lo, hi in ((-0.5, 0.5), (0.05, 0.4), (-0.3, 0.3)))
        g, turned = (three_term_stacks(n, alpha, beta, c) for c in (gamma, -gamma))
        t = math.pi / n
        sin, cos = math.sin(t), math.sin(math.pi / 2.0 - t)  # as `mirror_census` takes them
        a = ray_coefficients(g, sin, cos)
        deg = len(a) - 1
        assert turned.shape[1] == deg + 1
        sizes = (ray_coefficients(np.abs(g), sin, cos)
                 + ray_coefficients(_product_sizes(n, alpha, beta, gamma), sin, cos)[:deg + 1]
                 + _product_sizes(n, alpha, beta, -gamma)[0, :deg + 1])
        u = np.finfo(float).eps / 2.0
        assert np.all(np.abs(a - turned[0]) <= _RAY_ROUNDS * (deg + 3) * u * sizes)


class TestStackedHorner:
    """The stacked kernels give ``polyval2d``'s bits for every polynomial."""

    @pytest.mark.parametrize("points", [1, 2, 7, 40, 300, 2000])
    def test_gathered_matches_polyval2d(self, points):
        rng = np.random.default_rng(points)
        fields = int(rng.integers(1, 6))
        polys, stack = _random_stack(rng, fields, 3)
        x = rng.uniform(-1.3, 1.3, points)
        y = rng.uniform(-1.3, 1.3, points)
        # zeros of both signs and negative coordinates on each axis
        x[::3] = 0.0
        y[1::4] = -0.0
        x[2::5] = -np.abs(x[2::5])
        for k in range(fields):
            out = gathered_values(stack[..., k], x, y)
            assert out.shape == (3, points)
            for m, row in enumerate(polys):
                want = npol.polyval2d(x, y, row[k])
                assert np.array_equal(out[m].view(np.int64), want.view(np.int64))

    @staticmethod
    def _assert_bits(stack, x, y):
        """gathered_values of each field of a (DX, DY, names, fields) stack
        against polyval2d of each of its polynomials as stored, padding
        included: the same bits, NaN where it is NaN."""
        for k in range(stack.shape[3]):
            with np.errstate(invalid="ignore"):  # 0 * inf at non-finite points
                out = gathered_values(stack[..., k], x, y)
                wants = [npol.polyval2d(x, y, stack[:, :, m, k]) for m in range(stack.shape[2])]
            assert out.shape == (stack.shape[2], len(x))
            for got, want in zip(out, wants):
                assert np.array_equal(np.isnan(got), np.isnan(want))
                finite = ~np.isnan(want)
                assert np.array_equal(got[finite].view(np.int64),
                                      want[finite].view(np.int64))

    @staticmethod
    def _points(rng, count):
        x = rng.uniform(-1.3, 1.3, count)
        y = rng.uniform(-1.3, 1.3, count)
        x[::3] = 0.0
        x[1::7] = -0.0
        y[1::4] = -0.0
        x[2::5] = -np.abs(x[2::5])
        return x, y

    @pytest.mark.parametrize("seed", range(4))
    def test_single_field_stack(self, seed):
        rng = np.random.default_rng(40 + seed)
        _, stack = _random_stack(rng, 1, 3)
        x, y = self._points(rng, 97)
        self._assert_bits(stack, x, y)

    @pytest.mark.parametrize("fields", [1, 3])
    def test_triangular_stack_with_zero_margins(self, fields):
        # polynomials of total degree <= 6 in an 11 x 9 stack: the triangle
        # above the degree and the trailing rows and columns are +0.0
        rng = np.random.default_rng(50 + fields)
        stack = np.zeros((11, 9, 2, fields))
        i, j = np.indices((7, 7))
        stack[:7, :7][i + j <= 6] = rng.normal(size=(28, 2, fields))
        stack[2, 3, 1, 0] = 0.0  # an interior zero stays carried
        x, y = self._points(rng, 120)
        x[5::31], y[9::29], x[13::37] = np.inf, -np.inf, np.nan
        self._assert_bits(stack, x, y)
        # all zero: +0.0 at finite points, NaN at the others
        self._assert_bits(np.zeros_like(stack), x, y)

    @pytest.mark.parametrize("fields", [1, 2])
    def test_negative_zero_above_the_degree(self, fields):
        # -0.0 can flip the sign of a zero, so it is carried even above the
        # degree.  The first polynomials are -0.0 throughout: +0.0 at every
        # point, though their first column alone is -0.0 at x, y < 0.  The
        # second are constants with -0.0 everywhere else.
        stack = np.full((5, 4, 2, fields), -0.0)
        rng = np.random.default_rng(60 + fields)
        stack[0, 0, 1] = rng.normal(size=fields)
        x, y = self._points(rng, 64)
        assert np.signbit(npol.polyval2d(x, y, stack[:, :1, 0, 0])).any()
        self._assert_bits(stack, x, y)

    def test_repeated_points(self):
        rng = np.random.default_rng(70)
        _, stack = _random_stack(rng, 3, 2)
        x, y = (np.repeat(v, 4) for v in self._points(rng, 10))
        self._assert_bits(stack, x, y)
        for k in range(3):
            out = gathered_values(stack[..., k], x, y).reshape(2, 10, 4)
            assert np.array_equal(out.view(np.int64),
                                  np.repeat(out[..., :1], 4, axis=-1).view(np.int64))

    def test_grid_values_match_polyval2d(self):
        rng = np.random.default_rng(21)
        polys, stack = _random_stack(rng, 4, 2)
        xs = np.linspace(-1.0, 1.0, 33) + 0.1
        ys = np.concatenate([[0.0, -0.0], np.linspace(-1.2, 0.9, 19)])
        out = grid_values(stack, xs, ys)
        assert out.shape == (2, 4, 33, 21)
        for m, row in enumerate(polys):
            for k, c in enumerate(row):
                want = npol.polyval2d(*np.meshgrid(xs, ys, indexing="ij"), c)
                assert np.array_equal(out[m, k].view(np.int64), want.view(np.int64))


class TestGridTiles:
    """grid_values gives ``polyval2d``'s bits on grids of any shape, with
    signed zeros and non-finite nodes, and makes no second whole grid."""

    @staticmethod
    def _assert_grid_bits(stack, xs, ys):
        out = grid_values(stack, xs, ys)
        assert out.shape == stack.shape[2:] + (len(xs), len(ys))
        mesh = np.meshgrid(xs, ys, indexing="ij")
        for k in np.ndindex(*stack.shape[2:]):
            want = npol.polyval2d(*mesh, stack[(slice(None), slice(None)) + k])
            assert np.array_equal(out[k].view(np.uint64), want.view(np.uint64))

    def test_several_tiles_with_a_ragged_last_one(self):
        # a tall 700 x 500 grid, with a zero of each sign among the ys
        rng = np.random.default_rng(31)
        _, stack = _random_stack(rng, 1, 1)
        xs = np.linspace(-1.0, 1.0, 700)
        ys = np.concatenate([[0.0, -0.0], np.linspace(-1.2, 0.9, 498)])
        self._assert_grid_bits(stack, xs, ys)

    def test_stacked_fields_span_tiles(self):
        # 2 x 3 polynomials of 90 rows each, 540 rows in all
        rng = np.random.default_rng(32)
        _, stack = _random_stack(rng, 3, 2)
        xs = np.linspace(-1.1, 1.0, 90)
        ys = np.linspace(-1.0, 1.3, 400)
        self._assert_grid_bits(stack, xs, ys)

    def test_signed_zeros_and_non_finite_nodes(self):
        # zeros of both signs and non-finite nodes on each axis
        rng = np.random.default_rng(33)
        _, stack = _random_stack(rng, 2, 3)
        stack[0, 0, 1] = -0.0
        xs = np.concatenate([[0.0, -0.0, np.inf], rng.uniform(-1.3, 1.3, 30)])
        ys = np.concatenate([[-0.0, np.nan], rng.uniform(-1.3, 1.3, 11)])
        with np.errstate(invalid="ignore"):
            out = grid_values(stack, xs, ys)
            mesh = np.meshgrid(xs, ys, indexing="ij")
            for m, k in np.ndindex(3, 2):
                want = npol.polyval2d(*mesh, stack[:, :, m, k])
                assert np.array_equal(np.isnan(out[m, k]), np.isnan(want))
                fin = ~np.isnan(want)
                assert np.array_equal(out[m, k][fin].view(np.uint64), want[fin].view(np.uint64))

    @pytest.mark.parametrize("shape", [(1, 257), (300, 1), (1, 1)])
    def test_one_row_or_column(self, shape):
        rng = np.random.default_rng(34)
        _, stack = _random_stack(rng, 2, 1)
        xs, ys = (np.linspace(-1.0, 0.8, n) for n in shape)
        self._assert_grid_bits(stack, xs, ys)

    def test_no_temporary_of_the_whole_grid(self):
        # at its peak a 2000 x 1000 grid holds the output and the x-steps'
        # rows (9 x 2000 values), and nothing near a second grid
        stack = np.random.default_rng(35).normal(size=(9, 9, 1))
        xs, ys = np.linspace(-1, 1, 2000), np.linspace(-1, 1, 1000)
        tracemalloc.start()
        try:
            out = grid_values(stack, xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 400_000


class TestHorner:
    """`zernike.horner` gives ``np.polyval``'s bits, its coefficients
    ascending, in every layout its callers use."""

    @staticmethod
    def _assert_polyval_bits(c, x):
        with np.errstate(invalid="ignore"):  # 0 * inf at non-finite x
            got, want = horner(c, x), np.polyval(c[::-1], x)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))
        return got

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_x_gives_a_numpy_scalar(self, seed):
        rng = np.random.default_rng(80 + seed)
        c = rng.normal(size=int(rng.integers(1, 12)))
        for x in (rng.uniform(-1.5, 1.5), 1.0, np.float64(0.5)):
            got = self._assert_polyval_bits(c, x)
            assert isinstance(got, np.float64)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_dimensional_x(self, seed):
        rng = np.random.default_rng(90 + seed)
        c = rng.normal(size=int(rng.integers(1, 22)))
        self._assert_polyval_bits(c, rng.uniform(-1.5, 1.5, 101))

    @pytest.mark.parametrize("seed", range(4))
    def test_a_column_of_x_per_polynomial(self, seed):
        # the mirror census's interval ends: (2, k) abscissae, polynomial
        # j at column j
        rng = np.random.default_rng(100 + seed)
        k = int(rng.integers(1, 30))
        c = rng.normal(size=(int(rng.integers(1, 22)), k))
        self._assert_polyval_bits(c, rng.uniform(0.0, 1.2, (2, k)))

    @pytest.mark.parametrize("seed", range(4))
    def test_the_contour_layout(self, seed):
        # a tile of the polar mesh: a contiguous (ni, w) copy of rho, one
        # column per ray, and the rays' (deg + 1, w) coefficients
        rng = np.random.default_rng(110 + seed)
        w = int(rng.integers(2, 60))
        c = rng.normal(size=(21, w))
        x = np.repeat(np.linspace(0.0, 1.0, 257)[:, None], w, axis=1)
        assert x.flags.c_contiguous
        self._assert_polyval_bits(c, x)

    def test_signed_zeros_and_non_finite_x(self):
        # -0.0 coefficients, top one included, at x of both zero signs and
        # non-finite: the first step's 0 x keeps polyval's signs and NaNs
        rng = np.random.default_rng(120)
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -0.5, 2.0])
        for c in (np.full((5, 3), -0.0), rng.normal(size=(5, 3))):
            c[-1, 0] = c[1, 1] = c[0, 2] = -0.0
            self._assert_polyval_bits(c[:, :, None], x)
            for xk in x:
                self._assert_polyval_bits(c, xk)

    def test_the_output_is_the_only_array_made(self):
        c = np.random.default_rng(130).normal(size=(21, 500))
        x = np.repeat(np.linspace(0.0, 1.0, 1000)[:, None], 500, axis=1)
        tracemalloc.start()
        try:
            out = horner(c, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 100_000


def _same_bits(got, want):
    """Equal shapes, NaN where the other is NaN, and equal bits elsewhere."""
    got, want = np.asarray(got), np.asarray(want)
    finite = ~np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), ~finite)
            and np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64)))


class TestCall:
    """`BivariatePolynomial.__call__` runs the census's Horner kernel and
    gives ``polyval2d``'s bits (the reference) on any broadcastable input."""

    POLY = BivariatePolynomial(np.array([[0.5, -1.25, 0.0, 2.0], [3.0, 0.0, -0.75, 0.0],
                                         [-2.5, 1.5, 0.0, 0.0], [0.25, 0.0, 0.0, 0.0]]))

    def test_python_scalars(self):
        for x, y in ((0.3, -0.7), (0, 1), (-0.0, 0.0), (1e-300, -2.0)):
            got = self.POLY(x, y)
            assert type(got) is np.float64
            assert _same_bits(got, npol.polyval2d(x, y, self.POLY.coeffs))

    def test_zero_dimensional_arrays(self):
        x, y = np.array(0.41), np.array(-0.93)
        got = self.POLY(x, y)
        assert type(got) is np.float64
        assert _same_bits(got, npol.polyval2d(x, y, self.POLY.coeffs))

    def test_lists(self):
        x, y = [0.1, -0.3, 0.0, 1.2], [0.2, 0.5, -0.0, -1.1]
        assert _same_bits(self.POLY(x, y), npol.polyval2d(x, y, self.POLY.coeffs))

    def test_broadcasting(self):
        x = np.linspace(-1.1, 1.1, 9)[:, None]
        y = np.linspace(-0.9, 1.3, 7)[None, :]
        got = self.POLY(x, y)
        assert got.shape == (9, 7)
        want = npol.polyval2d(*np.broadcast_arrays(x, y), self.POLY.coeffs)
        assert _same_bits(got, want)
        # a scalar against an array
        assert _same_bits(self.POLY(0.25, y), npol.polyval2d(
            *np.broadcast_arrays(0.25, y), self.POLY.coeffs))

    def test_non_contiguous_views(self):
        rng = np.random.default_rng(8)
        grid = rng.uniform(-1.3, 1.3, (12, 10))
        x, y = grid[::3, 1::2], grid.T[1:6, ::3].T
        assert not (x.flags.c_contiguous or y.flags.c_contiguous)
        assert _same_bits(self.POLY(x, y), npol.polyval2d(x, y, self.POLY.coeffs))

    def test_negative_zero_coefficients(self):
        c = np.full((4, 3), -0.0)
        c[3, 2], c[1, 0], c[0, 2] = 1.5, -2.0, 0.5
        poly = BivariatePolynomial(c)
        assert (np.signbit(poly.coeffs) & (poly.coeffs == 0.0)).sum() == 9
        x = np.array([0.0, -0.0, 0.0, -0.0, 0.7, -0.7, 1e-200, -1e-200])
        y = np.array([0.0, 0.0, -0.0, -0.0, -0.0, 0.0, -1e-200, 0.3])
        want = npol.polyval2d(x, y, poly.coeffs)
        assert np.signbit(want).any() and not np.signbit(want).all()
        assert _same_bits(poly(x, y), want)

    def test_non_finite_points(self):
        x = np.array([np.inf, -np.inf, np.nan, 0.5, 0.0, np.inf])
        y = np.array([0.5, 0.0, 0.3, np.inf, -np.inf, np.nan])
        with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf
            got, want = self.POLY(x, y), npol.polyval2d(x, y, self.POLY.coeffs)
        assert _same_bits(got, want)

    def test_zero_polynomial(self):
        zero = BivariatePolynomial(np.zeros((3, 4)))
        x = np.array([0.3, -0.0, -2.0, 0.0])
        y = np.array([-0.0, -0.0, 5.0, 0.0])
        assert _same_bits(zero(x, y), npol.polyval2d(x, y, zero.coeffs))
        assert type(zero(1.0, -1.0)) is np.float64


class TestOrthogonalitySmoke:
    def test_defocus_spherical_disk_integral_small(self):
        z20 = ZernikeTerm(2, 0, 1.0).to_polynomial()
        z40 = ZernikeTerm(4, 0, 1.0).to_polynomial()
        xs = np.linspace(-1.0, 1.0, 1024)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        inside = X**2 + Y**2 <= 1.0
        cell = (xs[1] - xs[0]) ** 2
        integral = np.sum(z20(X, Y)[inside] * z40(X, Y)[inside]) * cell / np.pi
        assert abs(integral) < 1e-3


class TestWaveAberration:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            WaveAberration((ZernikeTerm(2, 0, 0.1), ZernikeTerm(2, 0, 0.2)))

    def test_pupil_radius_positive(self):
        with pytest.raises(ValueError):
            WaveAberration((ZernikeTerm(2, 0, 0.1),), pupil_radius=0.0)

    def test_degree(self):
        w = WaveAberration((ZernikeTerm(4, 0, 0.2), ZernikeTerm(3, 3, 0.2)))
        assert w.degree() == 4
        assert WaveAberration(()).degree() == 0

    def test_sum_matches_terms(self):
        terms = (ZernikeTerm(2, 0, 0.1), ZernikeTerm(4, 0, 0.2), ZernikeTerm(5, 5, 0.05))
        w = WaveAberration(terms)
        total = w.to_polynomial()
        x, y = 0.21, -0.55
        expected = sum(t.to_polynomial()(x, y) for t in terms)
        assert total(x, y) == pytest.approx(expected, rel=1e-13)

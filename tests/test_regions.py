import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import bisect_root, circular_deviation, det_hess_g
from starburst import (
    ABParams,
    CapabilityError,
    EVEN_FAMILY,
    ODD_FAMILY,
    ab_functions,
    admissible_gamma_interval,
    build_field,
    find_critical_points,
    predict_saddles,
    region_diagram,
    regions,
    saddle_radii,
)
from starburst.cli import FIXTURE_SCENARIOS, _verification_samples
from starburst.hessian import census_from_stacks, three_term_stacks
from starburst.regions import (
    DEFAULT_WINDOWS,
    SUPPORTED_ORDERS,
    _ab_coefficients,
    _ab_polynomial,
    _family_rows,
    _family_rings,
    _named_bounds,
    _Row,
    _row_state,
    _saddles_exist,
    boundary_slacks,
)

SQRT2 = math.sqrt(2.0)
SQRT6 = math.sqrt(6.0)
SQRT10 = math.sqrt(10.0)
SQRT15 = math.sqrt(15.0)

# ring radii frozen from bisection on the radial factors (see TestABFunctions)
EQ3_ODD_RHO = 0.517809877811457
EQ3_EVEN_RHO = 0.675923760819876
EQ4_ODD_RHO = 0.514384633525666
EQ4_EVEN_RHO = 0.776597471962404


class TestABFunctions:
    def test_odd_root_n4_matches_bisection(self):
        p = ABParams(0.0, 0.2, 0.15, 4)
        A, B = ab_functions(p)
        root = bisect_root(lambda r: float(A(r) + B(r)), 0.05, 0.99)
        assert root == pytest.approx(EQ4_ODD_RHO, abs=1e-12)

    def test_n3_roots_match_bisection(self):
        p = ABParams(0.0, 0.2, 0.2, 3)
        A, B = ab_functions(p)
        odd = bisect_root(lambda r: float(A(r) + B(r)), 0.05, 0.99)
        even = bisect_root(lambda r: float(A(r) - B(r)), 0.05, 0.99)
        assert odd == pytest.approx(EQ3_ODD_RHO, abs=1e-12)
        assert even == pytest.approx(EQ3_EVEN_RHO, abs=1e-12)

    def test_gamma_zero_kills_angular_factor(self):
        A, B = ab_functions(ABParams(0.1, 0.2, 0.0, 5))
        rho = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(B(rho), np.zeros_like(rho))

    def test_unsupported_order(self):
        with pytest.raises(CapabilityError):
            ABParams(0.0, 0.2, 0.1, 7)

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError):
            ABParams(0.0, 0.0, 0.1, 4)


class TestSaddleRadii:
    def test_families_for_reference_cases(self):
        rr = saddle_radii(ABParams(0.0, 0.2, 0.15, 4))
        assert rr.odd[0] == pytest.approx(EQ4_ODD_RHO, abs=1e-12)
        assert rr.even[0] == pytest.approx(EQ4_EVEN_RHO, abs=1e-12)
        rr3 = saddle_radii(ABParams(0.0, 0.2, 0.2, 3))
        assert rr3.odd[0] == pytest.approx(EQ3_ODD_RHO, abs=1e-12)
        assert rr3.even[0] == pytest.approx(EQ3_EVEN_RHO, abs=1e-12)

    def test_gamma_zero_flagged_non_generic(self):
        rr = saddle_radii(ABParams(0.0, 0.2, 0.0, 4))
        assert rr.non_generic
        assert rr.even == () and rr.odd == ()
        # A = 0 leaves the rotationally symmetric circle rho = 1/sqrt(3)
        assert rr.degenerate_circle[0] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            saddle_radii(ABParams(0.0, -0.2, 0.1, 4))

    def test_root_consistency(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(3, 7))
            p = ABParams(
                float(rng.uniform(-0.5, 0.7)),
                float(rng.uniform(0.1, 0.3)),
                float(rng.uniform(0.02, 0.4)) * (1 if rng.uniform() < 0.5 else -1),
                n,
            )
            A, B = ab_functions(p)
            rr = saddle_radii(p)
            for rho in rr.even:
                assert abs(float(A(rho) - B(rho))) < 1e-10
            for rho in rr.odd:
                assert abs(float(A(rho) + B(rho))) < 1e-10

    @pytest.mark.parametrize("n", SUPPORTED_ORDERS)
    @pytest.mark.parametrize("beta,gamma", [(1e-154, 10.0), (0.2, 1e-160)])
    def test_negligible_leading_coefficient(self, n, beta, gamma):
        # a leading coefficient of A -+ B below the rounding of the others
        # (beta^2 or gamma^2) would overflow the companion matrix
        p = ABParams(0.0, beta, gamma, n)
        if gamma / beta > 1e154:  # the closed forms work on gamma / beta
            for closed_form in (saddle_radii, predict_saddles):
                with pytest.raises(ValueError, match="overflow the closed-form region bounds"):
                    closed_form(p)
        else:
            radii = saddle_radii(p)
            assert all(0.0 < r < 1.0 for r in radii.even + radii.odd)
            predict_saddles(p)

    @pytest.mark.parametrize("n", SUPPORTED_ORDERS)
    def test_overflowing_gamma_squared_coefficient_rejected(self, n):
        # A's gamma^2 coefficient overflows, alpha_1^+ does not: saddle_radii
        # returned no radii here, and predict_saddles at n = 4 a count of 4
        # with no ring
        for closed_form in (saddle_radii, predict_saddles):
            with pytest.raises(ValueError, match="overflow the closed-form region bounds"):
                closed_form(ABParams(0.0, 1.0, 2e153, n))

    @pytest.mark.parametrize("beta", [1e-200, 1e-160, 0.2, 1e150, 1e200])
    @pytest.mark.parametrize("n", SUPPORTED_ORDERS)
    def test_predicted_rings_are_radii(self, n, beta):
        # saddle_radii solves in units of beta, as predict_saddles does, so
        # every predicted ring is one of its family's radii, bit for bit
        rng = np.random.default_rng(70 + n)
        g0, g1, a0, a1 = DEFAULT_WINDOWS[n]
        draws = [ABParams(0.0, beta, beta, n)] + [
            ABParams(float(rng.uniform(a0, a1)) * beta, beta,
                     float(rng.uniform(g0, g1)) * beta, n) for _ in range(50)]
        families = set()
        for p in draws:
            radii = saddle_radii(p)
            for ring in predict_saddles(p).rings:
                assert ring.rho in radii.for_family(ring.family), (p, ring)
                families.add(ring.family)
        assert families == {EVEN_FAMILY, ODD_FAMILY}

    @pytest.mark.parametrize("n", SUPPORTED_ORDERS)
    def test_no_root_dropped(self, n):
        # as many radii as sign changes of A -+ B on a fine grid of [0, 1];
        # tangent cases, where the grid minimum of |A -+ B| is at rounding
        # level, are skipped
        rng = np.random.default_rng(60 + n)
        g0, g1, a0, a1 = DEFAULT_WINDOWS[n]
        beta = 0.2
        rho = np.linspace(0.0, 1.0, 20001)
        checked = 0
        for _ in range(400):
            p = ABParams(float(rng.uniform(a0, a1)) * beta, beta,
                         float(rng.uniform(g0, g1)) * beta, n)
            A, B = ab_functions(p)
            a, b = A(rho), B(rho)
            radii = saddle_radii(p)
            for family, f in ((EVEN_FAMILY, a - b), (ODD_FAMILY, a + b)):
                if np.min(np.abs(f)) <= 1e-9 * np.max(np.abs(a) + np.abs(b)):
                    continue
                changes = np.count_nonzero(np.signbit(f[1:]) != np.signbit(f[:-1]))
                assert len(radii.for_family(family)) == changes, (p, family)
                checked += 1
        assert checked >= 790


def pin_draw(n: int, k: int) -> ABParams:
    """The k-th draw (from 0) of a seeded run over the order-n diagram
    window, beta uniform in [0.1, 0.3)."""
    rng = np.random.default_rng(450 + n)
    g0, g1, a0, a1 = DEFAULT_WINDOWS[n]
    for _ in range(k + 1):
        beta = float(rng.uniform(0.1, 0.3))
        p = ABParams(float(rng.uniform(a0, a1)) * beta, beta,
                     float(rng.uniform(g0, g1)) * beta, n)
    return p


@functools.cache
def symbolic_g(n):
    """G = Wxx Wyy - Wxy^2 of W = a Z_2^0 + b Z_4^0 + g Z_n^n as a sympy
    expression in x, y, a, b, g, built from the Zernike definitions."""
    sp = pytest.importorskip("sympy")
    x, y, a, b, g = sp.symbols("x y a b g", real=True)
    r2 = x**2 + y**2
    w = (a * sp.sqrt(3) * (2 * r2 - 1)
         + b * sp.sqrt(5) * (6 * r2**2 - 6 * r2 + 1)
         + g * sp.sqrt(2 * (n + 1)) * sp.re(sp.expand((y + sp.I * x) ** n)))
    return sp.diff(w, x, 2) * sp.diff(w, y, 2) - sp.diff(w, x, y) ** 2


@functools.cache
def symbolic_meridians(n):
    """(G on the even meridian theta = 0, G on the odd one theta = pi/n) as
    sympy expressions in rho, a, b, g."""
    sp = pytest.importorskip("sympy")
    x, y, rho = sp.symbols("x y rho", real=True)

    def meridian(theta):  # polar convention (x, y) = (rho sin, rho cos)
        return symbolic_g(n).subs({x: rho * sp.sin(theta), y: rho * sp.cos(theta)})

    return meridian(0), meridian(sp.pi / n)


def symbolic_a_minus_b(n):
    """A - B in rho, a, b, g: dG/drho = 4 rho (A - B) on the even meridian."""
    sp = pytest.importorskip("sympy")
    rho = sp.Symbol("rho", real=True)
    return sp.expand(sp.cancel(sp.diff(symbolic_meridians(n)[0], rho) / (4 * rho)))


class TestIndependentDerivation:
    @pytest.mark.parametrize("n", SUPPORTED_ORDERS)
    def test_ab_from_hessian_determinant(self, n):
        # G = P(rho) + Q(rho) cos(n theta) with P' = 4 rho A and
        # Q' = -4 rho B, so the rho coefficients of (P' - s Q') / (4 rho)
        # are those of A + s B
        sp = pytest.importorskip("sympy")
        rho, a, b, g = sp.symbols("rho a b g", real=True)
        on_even, on_odd = symbolic_meridians(n)
        dP = sp.Poly(sp.expand(sp.diff(on_even + on_odd, rho) / 2), rho)
        dQ = sp.Poly(sp.expand(sp.diff(on_even - on_odd, rho) / 2), rho)
        rng = np.random.default_rng(80 + n)
        g0, g1, a0, a1 = DEFAULT_WINDOWS[n]
        for _ in range(3):
            beta = float(rng.uniform(0.1, 0.3))
            p = ABParams(float(rng.uniform(a0, a1)) * beta, beta,
                         float(rng.uniform(g0, g1)) * beta, n)
            at = {a: sp.Rational(p.alpha), b: sp.Rational(p.beta), g: sp.Rational(p.gamma)}

            def ascending(poly):
                coeffs = [float(sp.N(c.subs(at), 30)) for c in reversed(poly.all_coeffs())]
                return np.array(coeffs + [0.0] * (2 * n - len(coeffs)))

            p_prime, q_prime = ascending(dP), ascending(dQ)
            for s in (-1.0, 1.0):
                want = (p_prime - s * q_prime) / 4.0
                got = _ab_polynomial(n, _ab_coefficients(p), s)
                scale = np.max(np.abs(want))
                assert abs(want[0]) <= 1e-12 * scale  # divisible by rho
                np.testing.assert_allclose(want[1:len(got) + 1], got, rtol=0,
                                           atol=1e-12 * scale)
                assert np.all(np.abs(want[len(got) + 1:]) <= 1e-12 * scale)

    @pytest.mark.parametrize("n", SUPPORTED_ORDERS)
    def test_named_bounds(self, n):
        # the even family's table bounds, solved from A - B of G's even
        # meridian, where dG/drho = 4 rho (A - B); A - B is linear in alpha
        sp = pytest.importorskip("sympy")
        rho, a, b, g = sp.symbols("rho a b g", real=True)
        a_minus_b = symbolic_a_minus_b(n)

        def alpha_where(expr):  # the alpha at which expr vanishes
            (root,) = sp.solve(expr, a)
            return root

        # the ring leaves the pupil (rho = 1) or shrinks to its center
        want = {"alpha1_plus": alpha_where(a_minus_b.subs(rho, 1)),
                "alpha2" if n == 3 else "sqrt15_beta": alpha_where(a_minus_b.subs(rho, 0))}
        if n == 3:  # A - B is quadratic in rho: its two roots merge at alpha_3
            want["alpha3"] = alpha_where(sp.discriminant(a_minus_b, rho))
            gap = sp.numer(sp.together(want["alpha3"] - want["alpha1_plus"]))
            assert sp.expand(sp.discriminant(gap, g)) == 0  # touching curves
            (want["gamma_star"],) = set(sp.solve(gap, g))
        if n == 4:  # alpha_1^+ crosses sqrt(15) beta
            lo, hi = sorted(sp.solve(want["alpha1_plus"] - want["sqrt15_beta"], g),
                            key=lambda r: float(r.subs(b, 1)))
            want["3sqrt2_beta"], want["sqrt2_beta"] = -lo, hi
        rng = np.random.default_rng(90 + n)
        g0, g1 = DEFAULT_WINDOWS[n][:2]
        for _ in range(3):
            beta = float(rng.uniform(0.1, 0.3))
            gamma = float(rng.uniform(g0, g1)) * beta
            got = _named_bounds(n, gamma / beta)  # in units of beta
            at = {b: sp.Rational(beta), g: sp.Rational(gamma)}
            for name, expr in want.items():
                assert got[name] * beta == pytest.approx(float(sp.N(expr.subs(at), 30)),
                                                         rel=1e-12), name


    @pytest.mark.parametrize("n", [5, 6])
    def test_alpha2_and_gamma1(self, n):
        # at beta = 1, with alpha = sqrt(15) + u: two rings merge where the
        # discriminant of A - B in rho (in rho^2 for n = 6, where A - B is
        # even) vanishes.  Its factor quadratic in u gives the two curves
        # sqrt(15) + u(gamma), and each touches alpha_1^+ (the ring at
        # rho = 1) at one gamma, a double root of their gap.
        sp = pytest.importorskip("sympy")
        rho, a, b, g = sp.symbols("rho a b g", real=True)
        u = sp.Symbol("u", real=True)
        a_minus_b = symbolic_a_minus_b(n).subs(b, 1)
        f = sp.Poly(a_minus_b.subs(a, sp.sqrt(15) + u), rho)
        if n == 6:
            f = sp.Poly(f.as_expr().subs(rho, sp.sqrt(rho)), rho)
        (factor,) = [p for p, _ in sp.factor_list(sp.discriminant(f), u)[1]
                     if sp.degree(p, u) == 2]
        (alpha1_plus,) = sp.solve(a_minus_b.subs(rho, 1), a)
        derived = []  # (curve sqrt(15) + u, gamma where it touches alpha_1^+)
        for root in sp.solve(factor, u):
            gap = sp.Poly(sp.numer(sp.together(alpha1_plus - sp.sqrt(15) - root)), g,
                          extension=True)
            touch = sp.gcd(gap, gap.diff(g))
            assert touch.degree() == 1
            (where,) = sp.solve(touch.as_expr(), g)
            derived.append((sp.sqrt(15) + root, float(sp.N(where, 30))))
        rng = np.random.default_rng(110 + n)
        g0, g1 = DEFAULT_WINDOWS[n][:2]
        for t in rng.uniform(g0, g1, 5):
            nb = _named_bounds(n, float(t))
            s2p = 1.0 if n == 6 else -1.0  # the table's sign of alpha_2^+
            table = sorted([(SQRT15 + s2p * nb["alpha2_plus"], -nb["gamma1_plus"]),
                            (SQRT15 - nb["alpha2_minus"], nb["gamma1_minus"])])
            want = sorted((float(sp.N(curve.subs(g, sp.Rational(t)), 30)), where)
                          for curve, where in derived)
            for (got_curve, got_gamma), (curve, where) in zip(table, want, strict=True):
                assert got_curve == pytest.approx(curve, rel=1e-12)
                assert got_gamma == pytest.approx(where, rel=1e-12)

    @pytest.mark.parametrize("n", SUPPORTED_ORDERS)
    def test_ring_determinant(self, n):
        # det Hess G of the symbolic G on the even meridian (x, y) = (0, rho),
        # at the real roots in (0, 1) of A - B: no polynomial field is built.
        # Both signs of gamma: the odd family's rings are the even family's
        # at -gamma.  The fixtures of order n come first: extremum rings are
        # rare in the window for n = 3 and 4.
        sp = pytest.importorskip("sympy")
        x, y, rho, a, b, g = sp.symbols("x y rho a b g", real=True)
        G = symbolic_g(n)
        on_meridian = {x: 0, y: rho}
        det = sp.expand((sp.diff(G, x, 2) * sp.diff(G, y, 2)
                         - sp.diff(G, x, y) ** 2).subs(on_meridian))
        a_minus_b = symbolic_a_minus_b(n)
        rng = np.random.default_rng(120 + n)
        g0, g1, a0, a1 = DEFAULT_WINDOWS[n]
        signs = set()
        fixtures = [ABParams(*v[:4]) for v in FIXTURE_SCENARIOS.values() if v[3] == n]
        draws = []
        for k in range(12):
            beta = float(rng.uniform(0.1, 0.3))
            draws.append(ABParams(float(rng.uniform(a0, a1)) * beta, beta,
                                  (-1) ** k * abs(float(rng.uniform(g0, g1))) * beta, n))
        for p in fixtures + [ABParams(f.alpha, f.beta, -f.gamma, n) for f in fixtures] + draws:
            at = {a: sp.Rational(p.alpha), b: sp.Rational(p.beta), g: sp.Rational(p.gamma)}
            roots = sp.Poly(a_minus_b.subs(at), rho).nroots(n=30)
            roots = sorted(r for r in roots if r.is_real and 0 < r < 1)
            _, *rings = _family_rings(n, _ab_coefficients(p))
            for r, got_rho, got_det in zip(roots, *rings, strict=True):
                want = float(sp.N(det.subs(at).subs(rho, r), 30))
                assert got_rho == pytest.approx(float(r), abs=1e-13)
                assert got_det == pytest.approx(want, rel=1e-9)
                signs.add(want < 0.0)
        assert signs == {True, False}  # saddle and extremum rings alike


class TestPredictSaddles:
    @pytest.mark.parametrize(
        "params,count,family,rho",
        [
            (ABParams(0.0, 0.2, 0.2, 3), 3, ODD_FAMILY, EQ3_ODD_RHO),
            (ABParams(0.0, 0.2, 0.15, 4), 4, ODD_FAMILY, EQ4_ODD_RHO),
            (ABParams(0.0, 0.2, 0.09, 4), 4, ODD_FAMILY, 0.531858759547252),
            (ABParams(0.2, 0.2, 0.07, 5), 5, ODD_FAMILY, 0.463191958990290),
            (ABParams(0.0, 0.2, 0.19, 6), 6, ODD_FAMILY, 0.500180748204341),
        ],
    )
    def test_reference_wavefronts(self, params, count, family, rho):
        pred = predict_saddles(params)
        assert pred.count == count
        assert pred.families == (family,)
        assert pred.rings[0].rho == pytest.approx(rho, abs=1e-12)
        assert not pred.warnings

    def test_odd_family_angles(self):
        pred = predict_saddles(ABParams(0.0, 0.2, 0.2, 3))
        expected = (math.pi / 3.0, math.pi, 5.0 * math.pi / 3.0)
        assert circular_deviation(pred.rings[0].theta_offsets, expected) < 1e-14

    def test_two_ring_regimes(self):
        pred5 = predict_saddles(ABParams(0.15, 0.2, 0.1, 5))
        assert pred5.count == 10
        assert sorted(pred5.families) == [EVEN_FAMILY, ODD_FAMILY]
        assert len({round(r.rho, 6) for r in pred5.rings}) == 2
        pred6 = predict_saddles(ABParams(0.5, 0.2, 0.1, 6))
        assert pred6.count == 12
        assert sorted(pred6.families) == [EVEN_FAMILY, ODD_FAMILY]

    def test_gamma_zero_non_generic(self):
        pred = predict_saddles(ABParams(0.1, 0.2, 0.0, 4))
        assert pred.count == 0 and pred.non_generic
        assert pred.boundary_slack == 0.0

    def test_boundary_slack_of_3star(self):
        # at beta = 1 3star is (gamma, alpha) = (1, 0): every alpha bound
        # of either family exceeds 1 in size, so its relative slack is 1, as
        # is gamma's to 0; the nearest bound is 4 sqrt(10), the gamma
        # threshold of the even family's second and third rows
        gamma_star = 4.0 * SQRT10
        assert _named_bounds(3, 1.0)["gamma_star"] == gamma_star
        pred = predict_saddles(ABParams(0.0, 0.2, 0.2, 3))
        assert pred.boundary_slack == (gamma_star - 1.0) / gamma_star
        assert boundary_slacks(ABParams(0.0, 0.2, 0.2, 3)) == [pred.boundary_slack]

    @pytest.mark.parametrize("params", [
        ABParams(0.0, 1.0, SQRT2, 4),  # gamma = sqrt(2) beta
        ABParams(SQRT15, 1.0, 0.5, 5),  # alpha = sqrt(15) beta
        ABParams(_named_bounds(3, 0.5)["alpha1_plus"], 1.0, 0.5, 3),
        ABParams(_named_bounds(6, 0.5)["alpha1_plus"], 1.0, -0.5, 6),  # alpha1-
    ], ids=["n4-gamma", "n5-sqrt15", "n3-alpha1+", "n6-alpha1-"])
    def test_boundary_slack_zero_on_a_boundary(self, params):
        assert predict_saddles(params).boundary_slack == 0.0

    def test_alpha2_left_out_at_gamma_zero(self):
        # alpha_2 is proportional to 1/gamma^2 for n = 5 and 1/gamma for n = 6
        for n in (5, 6):
            bounds = _named_bounds(n, 0.0)
            assert "alpha1_plus" in bounds
            assert not {"alpha2_plus", "alpha2_minus"} & bounds.keys()

    def test_gamma_squared_underflow(self):
        # alpha_2 (proportional to 1/gamma^2) has no float value, but the
        # rows it bounds need |gamma| > gamma_1: as for any tiny gamma
        tiny, small = (predict_saddles(ABParams(0.0, 0.2, g, 5)) for g in (1e-170, 1e-100))
        assert (tiny.count, tiny.boundary) == (small.count, small.boundary)

    @pytest.mark.parametrize("n,beta,gamma", [
        (6, 0.2, 1e160),  # (gamma / beta)^2 overflows alpha_1^+
        (4, 1e-154, 10.0),
        (3, 1e-300, 1e10),  # gamma / beta itself overflows
    ])
    def test_overflowing_bounds_rejected(self, n, beta, gamma):
        with pytest.raises(ValueError, match="overflow the closed-form region bounds"):
            predict_saddles(ABParams(0.0, beta, gamma, n))
        with pytest.raises(ValueError, match="overflow the closed-form region bounds"):
            boundary_slacks(ABParams(0.0, beta, gamma, n))

    @pytest.mark.parametrize("n,beta", [(5, 1e160), (5, 1e110), (3, 1e160)])
    def test_huge_beta_is_scaled_prediction(self, n, beta):
        # these bounds overflowed while they were computed in micrometres
        # (beta**3, beta * beta); in units of beta they are those of beta = 1
        got = predict_saddles(ABParams(0.3 * beta, beta, 1.5 * beta, n))
        assert got == predict_saddles(ABParams(0.3, 1.0, 1.5, n))
        assert got.count > 0

    def test_outside_all_regions(self):
        # alpha far above every bound
        pred = predict_saddles(ABParams(5.0, 0.2, 0.05, 4))
        assert pred.count == 0
        assert pred.region_label == "outside all saddle regions"

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            predict_saddles(ABParams(0.0, -0.2, 0.1, 4))

    def test_sign_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(150):
            n = int(rng.integers(3, 7))
            p = ABParams(
                float(rng.uniform(-0.5, 0.8)),
                float(rng.uniform(0.1, 0.3)),
                float(rng.uniform(0.01, 0.5)),
                n,
            )
            mirrored = ABParams(p.alpha, p.beta, -p.gamma, n)
            a, b = predict_saddles(p), predict_saddles(mirrored)
            assert a.count == b.count
            swap = {EVEN_FAMILY: ODD_FAMILY, ODD_FAMILY: EVEN_FAMILY}
            assert sorted(swap[f] for f in a.families) == sorted(b.families)
            for ra, rb in zip(a.rings, sorted(b.rings, key=lambda r: r.rho)):
                assert ra.rho == pytest.approx(rb.rho, abs=1e-10)

    def test_boundary_crossing_changes_prediction(self):
        # crossing alpha = sqrt(15) beta for n=4 kills the odd family
        lo = predict_saddles(ABParams(SQRT15 * 0.2 - 1e-4, 0.2, 0.15, 4))
        hi = predict_saddles(ABParams(SQRT15 * 0.2 + 1e-4, 0.2, 0.15, 4))
        assert lo.count == 4 and hi.count == 0
        # crossing alpha_3 for n=3 (even family ceiling)
        a3 = 0.2 * _named_bounds(3, 1.0)["alpha3"]
        below = predict_saddles(ABParams(a3 - 1e-4, 0.2, 0.2, 3))
        above = predict_saddles(ABParams(a3 + 1e-4, 0.2, 0.2, 3))
        assert below.count == 3 and above.count == 0
        # crossing alpha_2 for n=3 swaps the angular family at equal count
        a2 = 0.2 * _named_bounds(3, 1.0)["alpha2"]
        under = predict_saddles(ABParams(a2 - 1e-4, 0.2, 0.2, 3))
        over = predict_saddles(ABParams(a2 + 1e-4, 0.2, 0.2, 3))
        assert under.count == over.count == 3
        assert under.families != over.families

    def test_boundary_flag(self):
        pred = predict_saddles(ABParams(SQRT15 * 0.2, 0.2, 0.15, 4))
        assert pred.boundary

    @pytest.mark.parametrize("p, pin", [
        *(pytest.param(pin_draw(n, k), tuple(pin), id=f"n{n}-draw{k}") for n, k, *pin in [
            (3, 0, 0, "outside all saddle regions",
                False, (), "0x1.b8756e53c7f09p-1",
                (),
                ((), (), ())),
            (3, 1, 3, "even: gamma<0, alpha1+<alpha<alpha2",
                False, (), "0x1.4410cf3dfa562p-3",
                (("0x1.e58d7b287da15p-1", "even"),),
                (("0x1.e58d7b287da15p-1",), (), ())),
            (3, 112, 3, "odd: gamma>0, alpha1-<alpha<alpha2",
                False, (), "0x1.4ac66beef65d9p-4",
                (("0x1.1b01c3ab2a956p-4", "odd"),),
                (("0x1.76a84bf3ff9e5p-1",), ("0x1.1b01c3ab2a956p-4",), ())),
            (4, 0, 0, "outside all saddle regions",
                False, (), "0x1.ae862a1d3b275p-2",
                (),
                ((), (), ())),
            (4, 1, 4, "even: -3*sqrt(2)*beta<gamma<0, alpha1+<alpha<sqrt(15)*beta",
                False, (), "0x1.3f76bc93e76a6p-2",
                (("0x1.75b21fcd91ce2p-2", "even"),),
                (("0x1.75b21fcd91ce2p-2",), (), ())),
            (4, 60, 4, "even: -3*sqrt(2)*beta<gamma<0, alpha1+<alpha<sqrt(15)*beta",
                False, (), "0x1.9137605bcbc80p-3",
                (("0x1.c5261a6134bdap-2", "even"),),
                (("0x1.c5261a6134bdap-2",), ("0x1.f16b99f231215p-2",), ())),
            (5, 0, 5, "odd: gamma<-gamma1-, sqrt(15)*beta-alpha2-<alpha<alpha1-",
                False, (), "0x1.3be31b99a2855p-2",
                (("0x1.1b88a1f403ba4p-1", "odd"),),
                (("0x1.e4c1358fad60ap-1",), ("0x1.1b88a1f403ba4p-1",), ())),
            (5, 3, 5, "odd: gamma>gamma1+, sqrt(15)*beta-alpha2+<alpha<sqrt(15)*beta",
                False, (), "0x1.893defc86c044p-4",
                (("0x1.3cd0866d36cb0p-1", "odd"),),
                ((), ("0x1.3cd0866d36cb0p-1",), ())),
            (5, 11, 0, "outside all saddle regions",
                False, (), "0x1.35b8f29629e5bp-1",
                (),
                ((), (), ())),
            (5, 103, 10, "even: -gamma1+<gamma<0, alpha1+<alpha<sqrt(15)*beta; "
                "odd: gamma<-gamma1-, sqrt(15)*beta-alpha2-<alpha<alpha1-",
                False, (), "0x1.815380c508454p-3",
                (("0x1.524f2455a68d5p-2", "even"), ("0x1.968db689b5432p-1", "odd")),
                (("0x1.524f2455a68d5p-2",), ("0x1.e49190378db6ap-2", "0x1.968db689b5432p-1"), ())),
            (5, 1057, 10, "even: gamma>gamma1-, sqrt(15)*beta-alpha2-<alpha<alpha1+; "
                "odd: gamma>gamma1+, sqrt(15)*beta-alpha2+<alpha<sqrt(15)*beta",
                False, (), "0x1.d7491dcac8d81p-7",
                (("0x1.b5e1ebea0a034p-4", "odd"), ("0x1.1532a21ce6618p-2", "even")),
                (("0x1.31e6a8b7b0e1ap-3", "0x1.1532a21ce6618p-2"),
                 ("0x1.b5e1ebea0a034p-4", "0x1.eeb1d1237e099p-1"), ())),
            (6, 0, 0, "outside all saddle regions",
                False, (), "0x1.dd760855bc510p-2",
                (),
                ((), (), ())),
            (6, 1, 6, "odd: gamma<-gamma1-, sqrt(15)*beta+alpha2-<alpha<alpha1-",
                False, (), "0x1.a8aab1d4f2f6bp-1",
                (("0x1.3d005224946f1p-1", "odd"),),
                (("0x1.9c3089697d9fbp-1",), ("0x1.3d005224946f1p-1",), ())),
            (6, 2, 6, "odd: gamma<-gamma1-, sqrt(15)*beta+alpha2-<alpha<alpha1-",
                False, (), "0x1.44b01166aa672p-3",
                (("0x1.e9f6b8fe3f0a9p-1", "odd"),),
                ((), ("0x1.e9f6b8fe3f0a9p-1",), ())),
            (6, 110, 12, "even: gamma>gamma1-, sqrt(15)*beta-alpha2-<alpha<alpha1+; "
                "odd: gamma>=gamma1+, sqrt(15)*beta-alpha2+<alpha<sqrt(15)*beta",
                False, (), "0x1.983525bc917dbp-4",
                (("0x1.6824deccc84aap-3", "odd"), ("0x1.f77b6f13c65ecp-2", "even")),
                (("0x1.894e42bbcc776p-3", "0x1.f77b6f13c65ecp-2"),
                 ("0x1.6824deccc84aap-3", "0x1.d95f910f94828p-1"), ())),
            (6, 129, 12, "even: -gamma1+<gamma<0, alpha1+<alpha<sqrt(15)*beta; "
                "odd: gamma<-gamma1-, sqrt(15)*beta+alpha2-<alpha<alpha1-",
                False, (), "0x1.0fac6dc7507c0p-4",
                (("0x1.4178c94bf8ddep-2", "even"), ("0x1.57b363482f71dp-1", "odd")),
                (("0x1.4178c94bf8ddep-2",), ("0x1.76c705d49f5ddp-2", "0x1.57b363482f71dp-1"), ())),
        ]),
        pytest.param(ABParams(0.1, 0.2, 0.0, 4),
                     (0, "gamma=0: axially symmetric, no isolated saddles",
                      False, (), "0x0.0p+0",
                      (),
                      ((), (), ("0x1.13dcf454d5607p-1",))), id="gamma-zero"),
        pytest.param(ABParams(SQRT15 * 0.2, 0.2, 0.15, 4),
                     (4, "odd: 0<gamma<3*sqrt(2)*beta, alpha1-<alpha<sqrt(15)*beta",
                      True, ("odd family: expected exactly one saddle ring, found 0 among radii ()",
                             "ring selection and inequality table disagree"), "0x0.0p+0",
                      (),
                      ((), (), ())), id="boundary"),
        pytest.param(ABParams(0.3e160, 1e160, 1.5e160, 5),
                     (5, "odd: gamma>gamma1+, sqrt(15)*beta-alpha2+<alpha<sqrt(15)*beta",
                      False, (), "0x1.2c385dc76e5d1p-4",
                      (("0x1.ea05b3a399113p-2", "odd"),),
                      ((), ("0x1.ea05b3a399113p-2",), ())), id="huge-beta"),
    ])
    def test_results_are_pinned(self, p, pin):
        # (count, label, boundary, warnings, slack, rings, (even, odd,
        # circle) radii) to the bit: the first seeded draw per n of each
        # kind, by saddle rings and candidate radii, then the gamma = 0, the
        # boundary and the huge-beta cases
        pred, radii = predict_saddles(p), saddle_radii(p)
        got = (pred.count, pred.region_label, pred.boundary, pred.warnings,
               pred.boundary_slack.hex(), tuple((r.rho.hex(), r.family) for r in pred.rings),
               tuple(tuple(rho.hex() for rho in rs)
                     for rs in (radii.even, radii.odd, radii.degenerate_circle)))
        assert got == pin


class TestRingDeterminant:
    @pytest.mark.parametrize("n", SUPPORTED_ORDERS)
    def test_closed_form_matches_field(self, n):
        # det(Hess G) of every candidate ring, closed form against the full
        # polynomial field evaluated on the family's first meridian
        rng = np.random.default_rng(40 + n)
        g0, g1, a0, a1 = DEFAULT_WINDOWS[n]
        beta = 0.2
        saddle_seen = set()
        for _ in range(100):
            p = ABParams(float(rng.uniform(a0, a1)) * beta, beta,
                         float(rng.uniform(g0, g1)) * beta, n)
            field = build_field(p.to_wavefront())
            radii = saddle_radii(p)
            for family, s in ((EVEN_FAMILY, 1.0), (ODD_FAMILY, -1.0)):
                theta = 0.0 if family == EVEN_FAMILY else math.pi / n
                f = ABParams(p.alpha, p.beta, s * p.gamma, n)
                _, rhos, dets = _family_rings(n, _ab_coefficients(f))
                # solved in micrometres here and in units of beta by saddle_radii
                assert rhos.tolist() == pytest.approx(radii.for_family(family), abs=1e-13)
                for rho, det in zip(rhos.tolist(), dets.tolist()):
                    want = det_hess_g(field, rho * math.sin(theta), rho * math.cos(theta))
                    assert (det < 0.0) == (want < 0.0)
                    assert det == pytest.approx(want, rel=1e-9)
                    saddle_seen.add(det < 0.0)
        assert saddle_seen == {True, False}  # saddle and extremum rings alike


def prediction_bits(pred) -> tuple:
    """Every field of a prediction, its floats as hex."""
    return (pred.count, pred.n, pred.region_label, pred.boundary, pred.non_generic,
            pred.warnings, pred.boundary_slack.hex(),
            tuple((r.rho.hex(), r.family, tuple(t.hex() for t in r.theta_offsets))
                  for r in pred.rings))


class TestRingStep:
    """`verify` solves a chunk's rings in one `_family_rings` call; the
    predictions must be those of one draw at a time, to the bit."""

    @pytest.mark.parametrize("n", SUPPORTED_ORDERS)
    def test_chunk_equals_single_draws(self, n):
        pairs = list(_verification_samples(n, 0.2, 400, 7))
        assert len(pairs) == 400
        for params, pred in pairs:
            assert prediction_bits(pred) == prediction_bits(predict_saddles(params))
        assert sum(len(pred.rings) for _, pred in pairs) > 100

    def test_one_root_solve_per_chunk(self, monkeypatch):
        # 40 samples are three chunks of at most _VERIFY_CHUNK = 16 draws
        calls = []

        def counted(coeffs):
            calls.append(np.shape(coeffs)[1])
            return real_roots(coeffs)

        real_roots = regions._real_roots
        monkeypatch.setattr(regions, "_real_roots", counted)
        assert len(list(_verification_samples(5, 0.2, 40, 1))) == 40
        assert len(calls) == 3 and sum(calls) > 20  # each call solves many families

    @pytest.mark.parametrize("n", [3, 5])
    def test_mixed_stack_equals_its_columns(self, n):
        # gamma = 0 leaves A - B with no odd power of rho, which is solved in
        # t = rho^2, with a ring for alpha < sqrt(15) beta; the other columns
        # are solved in rho, in the same call
        rng = np.random.default_rng(60 + n)
        draws = [ABParams(float(rng.uniform(-3.0, 3.8)), 1.0,
                          float(rng.uniform(-3.0, 3.0)) if k % 3 else 0.0, n)
                 for k in range(24)]
        stack = np.array([_ab_coefficients(p) for p in draws]).T
        col, rho, det = _family_rings(n, stack)
        in_t = 0
        for k, p in enumerate(draws):
            _, want_rho, want_det = _family_rings(n, _ab_coefficients(p))
            assert [v.hex() for v in rho[col == k]] == [v.hex() for v in want_rho]
            assert [v.hex() for v in det[col == k]] == [v.hex() for v in want_det]
            in_t += p.gamma == 0.0 and want_rho.size > 0
        assert in_t >= 4 and np.count_nonzero(col % 3) >= 4  # rings of both kinds


class TestCensusMirror:
    @pytest.mark.parametrize("n", SUPPORTED_ORDERS)
    def test_minus_gamma_is_rotation(self, n):
        # the symmetry the single table rests on, checked without the
        # closed forms: the census at -gamma is the census at gamma turned
        # by pi/n, (x, y) = (rho sin theta, rho cos theta) -> theta + pi/n
        samples = [p for p, _ in _verification_samples(n, 0.2, 50, seed=n)]
        coeffs = np.array([(p.alpha, p.beta, p.gamma) for p in samples]).T
        at_gamma = census_from_stacks(three_term_stacks(n, *coeffs), n)
        at_minus = census_from_stacks(three_term_stacks(n, *(coeffs * [[1], [1], [-1]])), n)
        c, s = math.cos(math.pi / n), math.sin(math.pi / n)
        # equal counts and distinct points make the nearest match one to one
        for there, here in zip(at_gamma, at_minus):
            assert (there.degenerate, len(there.points)) == (here.degenerate, len(here.points))
            xy = np.array([(q.x, q.y) for q in here.points]).reshape(-1, 2)
            for q in there.points:
                turned = (q.x * c + q.y * s, q.y * c - q.x * s)
                k = int(np.argmin(np.hypot(*(xy - turned).T)))
                assert math.dist(xy[k], turned) < 1e-9
                assert here.points[k].kind == q.kind


class TestPredictionMatchesCensus:
    def test_oracle_spot_checks(self):
        # a light version of the full verification sweep (see acceptance)
        rng = np.random.default_rng(77)
        for _ in range(25):
            n = int(rng.integers(3, 7))
            p = ABParams(
                float(rng.uniform(-0.4, 0.7)),
                0.2,
                float(rng.uniform(0.05, 0.4)) * (1 if rng.uniform() < 0.5 else -1),
                n,
            )
            pred = predict_saddles(p)
            if pred.boundary:
                continue
            census = find_critical_points(build_field(p.to_wavefront()))
            if census.degenerate:
                continue
            assert pred.count == len(census.saddles)


class TestGammaIntervals:
    @pytest.mark.parametrize(
        "n,endpoint,tol",
        [(3, 2.5, 0.05), (4, 0.76, 0.02), (5, 0.45, 0.01), (6, 0.44, 0.01)],
    )
    def test_no_defocus_endpoints(self, n, endpoint, tol):
        lo, hi = admissible_gamma_interval(n, 0.2, 0.0)
        assert hi == pytest.approx(endpoint, abs=tol)
        assert lo == pytest.approx(-endpoint, abs=tol)

    def test_no_admissible_gamma(self):
        # n = 3 with alpha above alpha_1^+ and alpha_3 at every scanned gamma
        assert admissible_gamma_interval(3, 0.2, 80.0) is None
        assert predict_saddles(ABParams(80.0, 0.2, 6.0, 3)).count == 0

    def test_closed_forms_for_endpoints(self):
        # at alpha = 0 the n=3 and n=4 endpoints have closed forms
        _, hi3 = admissible_gamma_interval(3, 0.2, 0.0)
        assert hi3 == pytest.approx(4.0 * SQRT10 * 0.2, abs=1e-9)
        _, hi4 = admissible_gamma_interval(4, 0.2, 0.0)
        assert hi4 == pytest.approx((SQRT2 + SQRT6) * 0.2, abs=1e-9)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            admissible_gamma_interval(4, -0.2, 0.0)

    # endpoints of the per-sample predict_saddles scan in micrometres,
    # before the scan ran on arrays and in units of beta; the scan in units
    # of beta reproduces them to 1e-12 relative
    PINNED_EDGES = {
        (3, 0.0): 2.5298221281369804,
        (3, 0.5): 2.685461286022015,
        (4, 0.0): 0.7727406610313601,
        (4, 0.5): 0.8228795426533908,
        (5, 0.0): 0.4530915057563004,
        (5, 0.5): 0.7609850071926909,
        (6, 0.0): 0.43966017885731823,
        (6, 0.5): 1.240216463959737,
    }

    # the same endpoints from the scan in units of beta, pinned bit for bit
    PINNED_BETA_UNIT_EDGES = {
        (3, 0.0): 2.529822128136981,
        (3, 0.5): 2.6854612860220146,
        (4, 0.0): 0.7727406610313363,
        (4, 0.5): 0.8228795426533694,
        (5, 0.0): 0.45309150575623447,
        (5, 0.5): 0.7609850071923785,
        (6, 0.0): 0.43966017885719016,
        (6, 0.5): 1.2402164639587192,
    }

    @pytest.mark.parametrize("n,alpha", sorted(PINNED_EDGES))
    def test_endpoints_bit_identical(self, n, alpha):
        edge = self.PINNED_BETA_UNIT_EDGES[n, alpha]
        assert admissible_gamma_interval(n, 0.2, alpha) == (-edge, edge)
        old = self.PINNED_EDGES[n, alpha]
        assert abs(edge - old) <= 1e-12 * max(1.0, abs(old))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_scan_predicate_is_predict_saddles(self, n):
        # grid points plus points on and within 1e-13 of the gamma
        # thresholds, where the boundary tolerance decides
        ticks = [abs(v) for v in region_diagram(n, 0.2, resolution=2).ticks.values()]
        gammas = np.concatenate([
            np.linspace(0.01, 6.0, 97),
            [t * f for t in ticks for f in (1.0, 1.0 - 1e-13, 1.0 + 1e-13)],
        ])
        for alpha in (-0.3, 0.0, 0.5, SQRT15 * 0.2):
            got = _saddles_exist(n, alpha / 0.2, gammas / 0.2)  # in units of beta
            want = [predict_saddles(ABParams(alpha, 0.2, float(g), n)).count > 0
                    for g in gammas]
            assert got.tolist() == want
            assert [_saddles_exist(n, alpha / 0.2, float(g) / 0.2) for g in gammas] == want


@st.composite
def window_samples(draw):
    """(n, gamma / beta, alpha / beta) in the order's region-diagram window."""
    n = draw(st.sampled_from(SUPPORTED_ORDERS))
    g0, g1, a0, a1 = DEFAULT_WINDOWS[n]
    return n, draw(st.floats(g0, g1)), draw(st.floats(a0, a1))


def scaled_exactly(values, k):
    """``values`` times 2^k, or None where a product is not exact."""
    out = [math.ldexp(v, k) for v in values]
    return out if all(math.ldexp(v, -k) == w for v, w in zip(out, values)) else None


class TestScaleInvariance:
    """Every table bound is beta times a function of gamma / beta, so
    scaling (alpha, beta, gamma) by a power of two scales the results
    exactly."""

    @settings(max_examples=300, deadline=None)
    @given(sample=window_samples(), k=st.integers(-1000, 1000))
    def test_predict_saddles(self, sample, k):
        n, t, a = sample
        p = ABParams(0.2 * a, 0.2, 0.2 * t, n)
        scaled = scaled_exactly((p.alpha, p.beta, p.gamma), k)
        assume(scaled is not None)
        assert predict_saddles(ABParams(*scaled, n)) == predict_saddles(p)

    @settings(max_examples=40, deadline=None)
    @given(sample=window_samples(), k=st.integers(-900, 900))  # edges stay normal
    def test_admissible_gamma_interval(self, sample, k):
        n, _, a = sample
        scaled = scaled_exactly((0.2 * a, 0.2, 6.0), k)  # 6 = 30 beta, the cap
        assume(scaled is not None)
        want = admissible_gamma_interval(n, 0.2, 0.2 * a)
        got = admissible_gamma_interval(n, scaled[1], scaled[0])
        assert got == (want and tuple(math.ldexp(e, k) for e in want))


class TestRegionDiagram:
    def test_n4_structure(self):
        d = region_diagram(4, 0.2, resolution=41)
        assert {"alpha1_plus", "alpha1_minus"} <= d.boundary_curves.keys()
        ticks = d.ticks
        assert ticks["sqrt(2)b"] == pytest.approx(SQRT2 * 0.2)
        assert ticks["3*sqrt(2)b"] == pytest.approx(3 * SQRT2 * 0.2)
        assert ticks["(sqrt(2)+sqrt(6))b"] == pytest.approx((SQRT2 + SQRT6) * 0.2)
        assert ticks["sqrt(15)b"] == pytest.approx(SQRT15 * 0.2)

    def test_n3_curves(self):
        d = region_diagram(3, 0.2, resolution=21)
        assert {"alpha1_plus", "alpha1_minus", "alpha2", "alpha3"} <= d.boundary_curves.keys()
        assert d.ticks["4*sqrt(10)b"] == pytest.approx(4 * SQRT10 * 0.2)

    def test_curves_come_from_named_bounds(self):
        d = region_diagram(4, 0.2, resolution=21)
        pts = d.boundary_curves["alpha1_plus"]
        g = float(pts[17, 0])
        if g != 0.0:
            expected = 0.2 * _named_bounds(4, g / 0.2)["alpha1_plus"]
            assert pts[17, 1] == pytest.approx(expected, rel=1e-12)

    def test_grid_agrees_with_predictor(self):
        d = region_diagram(5, 0.2, resolution=31)
        rng = np.random.default_rng(9)
        for _ in range(30):
            i = int(rng.integers(0, 31))
            j = int(rng.integers(0, 31))
            g = float(d.gamma_values[j])
            a = float(d.alpha_values[i])
            if g == 0.0:
                continue
            pred = predict_saddles(ABParams(a, 0.2, g, 5))
            if pred.boundary:
                continue
            assert d.counts[i, j] == pred.count

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_codes_match_scalar_rule(self, n):
        d = region_diagram(n, 0.2, resolution=41)
        want = np.zeros((41, 41), dtype=int)
        for j, g in enumerate(d.gamma_values.tolist()):
            if g == 0.0:
                continue
            t = g / 0.2  # the rows are in units of beta
            for bit, s in ((1, 1.0), (2, -1.0)):  # the odd family at -gamma
                rows = _family_rows(n, s * t)
                for i, a in enumerate(d.alpha_values.tolist()):
                    if any(strictly_inside(s * t, a / 0.2, row) for row in rows):
                        want[i, j] |= bit
        assert 0 < np.count_nonzero(want) < want.size
        np.testing.assert_array_equal(d.family_codes, want)
        np.testing.assert_array_equal(
            d.counts, n * np.array([[bin(c).count("1") for c in r] for r in want]))

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            region_diagram(4, 0.2, resolution=1)
        with pytest.raises(ValueError, match="at most 1001"):
            region_diagram(4, 0.2, resolution=1002)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_non_finite_beta(self, beta):
        with pytest.raises(ValueError):
            region_diagram(4, beta, resolution=5)

    @pytest.mark.parametrize("beta", [1e-320, 5e-324])
    def test_subnormal_beta_rejected(self, beta):
        # below the normal range the window in micrometres, and then
        # gamma / beta, lose bits: at 1e-320 the default diagrams drew
        # another family in 24-138 cells
        with pytest.raises(ValueError, match="beta must be finite and at least 2.22507e-308"):
            region_diagram(4, beta)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_smallest_normal_beta_is_scaled_diagram(self, n):
        want = region_diagram(n, 0.2)
        got = region_diagram(n, 2.2250738585072014e-308)
        np.testing.assert_array_equal(got.family_codes, want.family_codes)

    def test_underflowing_gamma_window_is_quiet(self):
        # (gamma / beta)^2 underflows in n = 5's alpha_2: its rows get an
        # infinite bound, with no numpy warning on the command line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = region_diagram(5, 0.2, gamma_range=(-1e-170, 1e-170),
                               alpha_range=(0.0, 1.0), resolution=5)
        assert d.counts.shape == (5, 5)

    def test_single_cell_window(self):
        d = region_diagram(4, 0.2, gamma_range=(0.1, 0.1001),
                           alpha_range=(0.0, 0.0001), resolution=2)
        assert d.counts.shape == (2, 2)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_small_beta_is_scaled_diagram(self, n):
        # every bound is beta times a function of gamma / beta, so the cells
        # are read in units of beta: an absolute tolerance floor left no
        # strictly active cell below beta ~ 1e-12, and bounds computed in
        # micrometres underflowed or overflowed at the extremes
        want = region_diagram(n, 0.2, resolution=21)
        assert np.count_nonzero(want.counts) > 0
        for beta in (1e-200, 1e-13, 1e100, 1e300):
            got = region_diagram(n, beta, resolution=21)
            np.testing.assert_array_equal(got.family_codes, want.family_codes)
            np.testing.assert_array_equal(got.counts, want.counts)


def strictly_inside(gamma: float, alpha: float, row) -> bool:
    """The strict row rule, one cell at a time: on each axis every present
    bound (None is absent) must be beaten by more than
    1e-12 * max(1, |value|, |lo|, |hi|), in units of beta."""
    for value, lo, hi in ((gamma, row.gamma_lo, row.gamma_hi),
                          (alpha, row.alpha_lo, row.alpha_hi)):
        present = [b for b in (lo, hi) if b is not None]
        tol = 1e-12 * max([1.0, abs(value)] + [abs(b) for b in present])
        if lo is not None and not value - lo > tol:
            return False
        if hi is not None and not hi - value > tol:
            return False
    return True


def row_state_reference(t, a, row):
    """The row rule as a loop over tolerances: each slack is compared with
    every product 1e-12 * x, x in (1, |value|, |lo|, |hi|) over the present
    bounds.  Strict needs it above all of them, loose above some negated
    one."""
    strict = loose = True
    for value, lo, hi in ((t, row.gamma_lo, row.gamma_hi),
                          (a, row.alpha_lo, row.alpha_hi)):
        tols = [1e-12, 1e-12 * abs(value)]
        slacks = []
        if lo is not None:
            tols.append(1e-12 * abs(lo))
            slacks.append(value - lo)
        if hi is not None:
            tols.append(1e-12 * abs(hi))
            slacks.append(hi - value)
        for slack in slacks:
            above = False
            for tol in tols:
                strict = strict & (slack > tol)
                above = above | (slack > -tol)
            loose = loose & above
    return strict, loose


def near(bound: float) -> list[float]:
    """``bound`` itself and values within 1e-13 of it, absolutely and
    relatively, on both sides."""
    return [bound, bound - 1e-13, bound + 1e-13,
            bound * (1.0 - 1e-13), bound * (1.0 + 1e-13)]


# BIG + 5000 beats BIG by 5000, which is above 1e-12 * BIG but below
# 1e-12 * (BIG + 5000): a slack that only the |value| factor decides
BIG = 4999999999999000.0
# synthetic rows: absent bounds on either side, infinite and zero bounds
SYNTHETIC_ROWS = [
    _Row(("", ""), None, 0.0, -1.0, 2.5),
    _Row(("", ""), 0.5, None, None, 3.0),
    _Row(("", ""), -2.0, 1e4, 1.0, None),
    _Row(("", ""), None, None, -math.inf, 1.0),
    _Row(("", ""), 0.0, 7.0, math.inf, 1.0),
    _Row(("", ""), -7.0, math.inf, 0.0, 1e13),
    _Row(("", ""), BIG, None, None, BIG),
]
# slacks exactly equal to tol (1e-12 from a zero bound), and decided by |value|
EXACT_TIES = [1e-12, -1e-12, BIG + 5000.0, BIG - 5000.0]


class TestRowState:
    """`_row_state` makes one comparison per slack with the largest of the
    tolerances; the booleans are the per-tolerance loop's."""

    @staticmethod
    def scalar_cases(row):
        gammas = [-3.0, 0.0, 0.25, 40.0] + EXACT_TIES
        alphas = [-5.0, 0.0, 3.87, 1e5] + EXACT_TIES
        for bound in (row.gamma_lo, row.gamma_hi):
            if bound is not None and math.isfinite(bound):
                gammas += near(bound)
        for bound in (row.alpha_lo, row.alpha_hi):
            if bound is not None and math.isfinite(bound):
                alphas += near(bound)
        return [(g, a) for g in gammas for a in alphas]

    def assert_scalar_rows_match(self, row, cases):
        for t, a in cases:
            got = _row_state(t, a, row)
            assert got == row_state_reference(t, a, row), (t, a, row)
            assert all(type(flag) is bool for flag in got)

    def test_synthetic_rows_scalars(self):
        for row in SYNTHETIC_ROWS:
            self.assert_scalar_rows_match(row, self.scalar_cases(row))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_family_rows_scalars(self, n):
        g0, g1 = DEFAULT_WINDOWS[n][:2]
        for t in [g0, -1.0, -1e-3, 1e-3, 0.7, g1] + [
                v for tick in region_diagram(n, 1.0, resolution=2).ticks.values()
                for v in near(tick)]:
            if t == 0.0:
                continue
            for row in _family_rows(n, t):
                cases = [(t, a) for _, a in self.scalar_cases(row)]
                self.assert_scalar_rows_match(row, cases)

    def test_synthetic_rows_broadcast(self):
        ts = np.array([-8.0, -2.0, -2.0 - 1e-13, 0.0, 1e-13, 0.5, 0.5 + 1e-13, 7.0,
                       7.0 * (1.0 - 1e-13), 1e4, 1e4 * (1 + 1e-13)] + EXACT_TIES)
        a = np.array([-1e13, -1.0, -1.0 + 1e-13, 0.0, 1.0, 1.0 - 1e-13, 1.0 + 1e-13,
                      2.5, 2.5 * (1.0 + 1e-13), 3.0, 1e13, 1e13 * (1.0 - 1e-13)]
                     + EXACT_TIES)
        for row in SYNTHETIC_ROWS:
            got = _row_state(ts, a[:, None], row)
            want = row_state_reference(ts, a[:, None], row)
            for g, w in zip(got, want):
                assert np.shape(g) == np.shape(w)
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("s", [1.0, -1.0])
    def test_family_rows_arrays(self, n, s):
        # a grid of alphas against the rows built on an array of gammas, and
        # alphas on and within 1e-13 of each row's own alpha bounds
        g0, g1, a0, a1 = DEFAULT_WINDOWS[n]
        t = s * np.linspace(g0, g1, 50)
        grid = np.linspace(a0, a1, 61)[:, None]
        for row in _family_rows(n, t):
            got = _row_state(t, grid, row)
            want = row_state_reference(t, grid, row)
            for g, w in zip(got, want):
                assert g.shape == (61, 50)
                np.testing.assert_array_equal(g, w)
            for bound in (row.alpha_lo, row.alpha_hi):
                on = np.stack(near(np.broadcast_to(bound, t.shape)))
                for g, w in zip(_row_state(t, on, row), row_state_reference(t, on, row)):
                    np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("n", [5, 6])
    def test_infinite_alpha2_arrays(self, n):
        # gammas so small that alpha_2 has no float value: its rows carry an
        # infinite alpha bound, and must still match the reference
        t = np.array([-1e-170, -1e-300, 1e-300, 1e-170, 5e-324, 0.3])
        a = np.array([-20.0, 0.0, SQRT15, 3.0, 20.0])[:, None]
        rows = _family_rows(n, t)
        bounds = np.concatenate([np.ravel(b) for r in rows
                                 for b in (r.alpha_lo, r.alpha_hi)])
        assert np.isinf(bounds).any()
        for row in rows:
            for g, w in zip(_row_state(t, a, row), row_state_reference(t, a, row)):
                np.testing.assert_array_equal(g, w)

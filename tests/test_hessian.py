import dataclasses
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import circular_deviation, det_hess_g
from starburst import (
    SUPPORTED_ORDERS,
    ABParams,
    CapabilityError,
    HessianField,
    PointClass,
    WaveAberration,
    ZernikeTerm,
    build_field,
    census_from_stacks,
    field_from_polynomial,
    find_critical_points,
    hessian,
    predict_saddles,
    rescale_check,
    saddle_radii,
    saddle_upper_bound,
    three_term_stacks,
)
from starburst.cli import _VERIFY_BAND, FIXTURE_SCENARIOS, _verification_samples
from starburst.hessian import (
    _DAMPING,
    _MAX_HALVINGS,
    _MAX_ITERATIONS,
    _POLISH_ITERATIONS,
    DEDUP_RADIUS,
    GRADIENT_TOL,
    _GRID_SIZE,
    _ZOOM_FACTORS,
    _collect_seeds,
    _grid_axes,
    _dedup,
    _local_min_mask,
    _newton,
    _newton_step,
    _sign_change_cells,
    _stack,
    mirror_census,
)
from starburst.regions import _ab_coefficients
from starburst.zernike import BivariatePolynomial, derivative, gathered_values, grid_values, product

EQ3 = ABParams(0.0, 0.2, 0.2, 3)
# perfbench's highorder wavefront: G has degree 20
HIGHORDER = WaveAberration((ZernikeTerm(4, 0, 0.2), ZernikeTerm(12, 12, 0.02),
                            ZernikeTerm(2, 0, 0.02)))
# 130 isolated critical points (68 saddles and 62 extrema), which
# the census flags as a non-isolated set (ROADMAP item 2)
DEGREE12 = WaveAberration((ZernikeTerm(4, 0, 0.2), ZernikeTerm(12, 6, 0.05),
                           ZernikeTerm(8, -4, 0.05), ZernikeTerm(3, 1, 0.1)))


class TestBuildField:
    def test_pure_defocus_constant_g(self):
        field = build_field(WaveAberration((ZernikeTerm(2, 0, 0.3),)))
        assert field.G.degree == 0
        assert field.G(0.1, -0.4) == pytest.approx(48.0 * 0.3**2, rel=1e-13)

    def test_empty_aberration_zero_g(self):
        field = build_field(WaveAberration(()))
        assert not field.G.coeffs.any()

    def test_degree_bound(self):
        field = build_field(EQ3.to_wavefront())
        assert field.G.degree == 4  # 2 (deg W - 2) with deg W = 4

    def test_determinant_identity_in_coefficients(self):
        w = WaveAberration(
            (ZernikeTerm(2, 0, 0.1), ZernikeTerm(4, 0, 0.2), ZernikeTerm(5, 5, 0.07))
        )
        field = build_field(w)
        wxx, wxy, wyy = (field.W.differentiate(u).differentiate(v).coeffs
                         for u, v in ("xx", "xy", "yy"))
        first, second = product(wxx, wyy), product(wxy, wxy)
        shape = np.maximum(first.shape, second.shape)
        want = _padded(first, shape) - _padded(second, shape)
        assert want.tobytes() == _padded(field.G.coeffs, shape).tobytes()

    def test_field_holds_the_four_polynomials_the_pipeline_reads(self):
        # and the G of W turned by pi / n, for a W that has the mirror census
        assert tuple(f.name for f in dataclasses.fields(HessianField)) == (
            "W", "Wx", "Wy", "G", "fold", "mirror")
        field = build_field(EQ3.to_wavefront())
        assert field.fold == 3
        assert np.array_equal(field.Wx.coeffs, field.W.differentiate("x").coeffs)
        assert np.array_equal(field.Wy.coeffs, field.W.differentiate("y").coeffs)
        turned = three_term_stacks(3, [EQ3.alpha], [EQ3.beta], [-EQ3.gamma])[..., 0]
        assert field.mirror.coeffs.tobytes() == _padded(turned, field.mirror.coeffs.shape).tobytes()

    def test_degree_above_the_supported_maximum_rejected(self):
        poly = BivariatePolynomial(np.eye(14)[::-1])  # x^13 + ... + y^13
        with pytest.raises(CapabilityError, match="degree 13 exceeds supported maximum 12"):
            field_from_polynomial(poly, 1)

    def test_gradient_and_hessian_of_g_are_consistent(self):
        field = build_field(EQ3.to_wavefront())
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.7, 0.7, 500)
        y = rng.uniform(-0.7, 0.7, 500)
        h = 1e-6
        gx = field.G.differentiate("x")
        fd_gx = (field.G(x + h, y) - field.G(x - h, y)) / (2 * h)
        fd_gxx = (gx(x + h, y) - gx(x - h, y)) / (2 * h)
        np.testing.assert_allclose(gx(x, y), fd_gx, atol=1e-5)
        np.testing.assert_allclose(gx.differentiate("x")(x, y), fd_gxx, atol=1e-5)

    def test_degree_overflow_rejected(self):
        with pytest.raises(CapabilityError):
            ZernikeTerm(14, 0, 0.1)

    @pytest.mark.parametrize(
        "terms",
        [
            (ZernikeTerm(4, 0, 0.2), ZernikeTerm(3, 3, 0.2)),
            (ZernikeTerm(2, 0, 0.1), ZernikeTerm(5, 5, 0.07)),
            (ZernikeTerm(6, -4, 0.05), ZernikeTerm(4, 2, 0.11)),
            (ZernikeTerm(8, 0, 0.02), ZernikeTerm(7, 7, 0.03)),
        ],
    )
    def test_degree_of_g_bounded(self, terms):
        w = WaveAberration(terms)
        field = build_field(w)
        assert field.G.degree <= 2 * (w.degree() - 2)


# frozen from the quadratic radial factors of the three-term family
# (roots of A +- B for alpha=0, beta=gamma=0.2, n=3), cross-checked by
# bisection in test_regions
EQ3_SADDLE_RHO = 0.517809877811457
EQ3_EXTREMUM_RHO = 0.675923760819876


# alpha 1.8e-5 above sqrt(15) beta: the closed form puts 4 saddles on
# rho = 0.00098, where det Hess G is -7.0e-7 and its rounding bound 1.5e-20
N4_CENTRAL_RING = ABParams(0.7745943305999154, 0.2, 0.02, 4)


def _det_and_rounding_bound(G, x, y):
    """det(Hess G) = a d - b^2 at (x, y) as the census computes it, from
    (a, b, d) = (Gxx, Gxy, Gyy), and the bound on its rounding error that
    decides the class: each of a, b, d is within gamma_n times its
    |coefficient| polynomial at (|x|, |y|), gamma_n = n u / (1 - n u) for
    n = 2 deg G and u = 2^-53, and its errors e reach the determinant as
    |a| e_d + |d| e_a + e_a e_d + (2 |b| + e_b) e_b, plus 4u (|a d| + b^2)
    for a d - b^2's own operations."""
    gx, gy = G.differentiate("x"), G.differentiate("y")
    polys = (gx.differentiate("x"), gx.differentiate("y"), gy.differentiate("y"))
    a, b, d = (q(x, y) for q in polys)
    u, n = 2.0**-53, 2 * G.degree
    ea, eb, ed = (n * u / (1.0 - n * u) * BivariatePolynomial(np.abs(q.coeffs))(abs(x), abs(y))
                  for q in polys)
    bound = (abs(a) * ed + abs(d) * ea + ea * ed + (2.0 * abs(b) + eb) * eb
             + 4.0 * u * (abs(a * d) + b * b))
    return float(a * d - b**2), bound


def _kind(det, bound):
    return (PointClass.SADDLE if det < -bound else
            PointClass.EXTREMUM if det > bound else PointClass.DEGENERATE)


def _ring_mirror_points(field, census):
    """For each point of the mirror census of ``field``, its ring's point
    (0, y) on the mirror theta = 0 of the field that holds it there: the
    field for the centre and the theta = 0 family, and for the theta = pi / n
    family the turned field (G and ``mirror`` swapped), whose census finds
    that family's roots on theta = 0, from the same row of coefficients."""
    n = field.fold
    turned = dataclasses.replace(field, G=field.mirror, mirror=field.G)
    axis = [[(f, q) for q in find_critical_points(f).points if q.x == 0.0 and q.y >= 0.0]
            for f in (field, turned)]
    out = []
    for p in census.points:
        family = round(p.theta * n / math.pi) % 2
        (f, q), = [(f, q) for f, q in axis[family] if abs(q.rho - p.rho) <= 1e-9]
        out.append((f, q.y))
    return out


def _exact_det_hess(G, x, y):
    """det(Hess G) at (x, y) in rational arithmetic, from G's coefficients."""
    c = {(i, j): Fraction(float(v)) for (i, j), v in np.ndenumerate(G.coeffs) if v}
    x, y = Fraction(x), Fraction(y)

    def d2(p, q):  # the value of d^2 G / (dx^p dy^q) with p + q = 2
        return sum(v * math.perm(i, p) * math.perm(j, q) * x ** (i - p) * y ** (j - q)
                   for (i, j), v in c.items() if i >= p and j >= q)

    return d2(2, 0) * d2(0, 2) - d2(1, 1) ** 2


class TestCriticalPointCensus:
    @pytest.mark.parametrize(
        "name", ["3star", "5star", "4star", "6star", "8stars"]
    )
    def test_published_counts(self, analyses, name):
        a = analyses[name]
        assert len(a.search.points) == a.expected_cusps
        assert len(a.search.saddles) == a.expected_saddles

    def test_saddle_ring_radius_and_angles(self, analyses):
        saddles = analyses["3star"].search.saddles
        for s in saddles:
            assert s.rho == pytest.approx(EQ3_SADDLE_RHO, abs=1e-10)
        angles = sorted(s.theta for s in saddles)
        expected = [math.pi / 3.0, math.pi, 5.0 * math.pi / 3.0]
        assert circular_deviation(angles, expected) < 1e-10

    def test_center_is_never_a_saddle(self, analyses):
        center = min(analyses["3star"].search.points, key=lambda p: p.rho)
        assert center.rho < 1e-10
        assert center.kind is not PointClass.SADDLE

    def test_extremum_ring_present(self, analyses):
        pts = [
            p
            for p in analyses["3star"].search.points
            if abs(p.rho - EQ3_EXTREMUM_RHO) < 1e-8
        ]
        assert len(pts) == 3
        assert all(p.kind is PointClass.EXTREMUM for p in pts)

    def test_gradient_tolerance_invariant(self, analyses):
        a = analyses["3star"]
        tol = GRADIENT_TOL * a.search.gradient_scale
        gx, gy = a.field.G.differentiate("x"), a.field.G.differentiate("y")
        for p in a.search.points:
            assert math.hypot(gx(p.x, p.y), gy(p.x, p.y)) <= tol

    def test_deduplication_distance(self, analyses):
        pts = analyses["5star"].search.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d = math.hypot(pts[i].x - pts[j].x, pts[i].y - pts[j].y)
                assert d > DEDUP_RADIUS

    def test_ordering_and_determinism(self, analyses):
        # ring by ring outward, each ring by theta: its members share rho up
        # to rounding, and rounding must not decide their order
        a = analyses["6star"]
        highorder = find_critical_points(build_field(HIGHORDER))
        for search in (a.search, highorder):
            rings = [[search.points[0]]]
            for p in search.points[1:]:
                if abs(p.rho - rings[-1][-1].rho) <= 1e-9:
                    rings[-1].append(p)
                else:
                    assert p.rho > rings[-1][-1].rho
                    rings.append([p])
            for ring in rings:
                assert [p.theta for p in ring] == sorted({p.theta for p in ring})
        outer = [p for p in highorder.points if abs(p.rho - 0.79954177574) < 1e-9]
        assert [round(math.degrees(p.theta)) for p in outer] == list(range(0, 360, 30))
        again = find_critical_points(a.field)
        assert [(p.x, p.y, p.kind) for p in again.points] == [
            (p.x, p.y, p.kind) for p in a.search.points
        ]

    def test_all_points_inside_closed_pupil(self, analyses):
        for a in analyses.values():
            for p in a.search.points:
                assert p.rho <= 1.0 + 1e-12

    def test_classify_matches_reported_kind(self, analyses):
        # a point is a saddle or an extremum by the sign of det(Hess G) when
        # |det| exceeds its rounding bound, and degenerate inside it.  The
        # mirror census values each ring at its point on its own mirror:
        # there det(Hess G) is the reported one, bit for bit; each member's
        # own lies within its bound plus the ring's, of the same class
        for a in analyses.values():
            for p, (field, y) in zip(a.search.points, _ring_mirror_points(a.field, a.search)):
                det, bound = _det_and_rounding_bound(field.G, 0.0, y)
                assert _kind(det, bound) is p.kind
                assert det == det_hess_g(field, 0.0, y) == p.hess_g_det
                assert p.g_value == field.G(0.0, y)
                own, own_bound = _det_and_rounding_bound(a.field.G, p.x, p.y)
                assert abs(own - det) <= own_bound + bound
                assert _kind(own, own_bound) is p.kind

    def test_rounding_bound_holds(self, analyses):
        # the exact det(Hess G) of the G given, in rational arithmetic at the
        # reported point, lies within the rounding bound of the computed
        # one, so a saddle's is negative and an extremum's positive; the
        # order-12 wavefront's G has degree 20
        fields = [a.field for a in analyses.values()] + [
            build_field(w) for w in (N4_CENTRAL_RING.to_wavefront(), HIGHORDER)]
        for field in fields:
            for p in find_critical_points(field).points:
                det, bound = _det_and_rounding_bound(field.G, p.x, p.y)
                exact = _exact_det_hess(field.G, p.x, p.y)
                assert abs(Fraction(det) - exact) <= bound
                if p.kind is not PointClass.DEGENERATE:
                    assert (exact < 0) == (p.kind is PointClass.SADDLE)

    def test_small_central_ring_classed(self):
        # det Hess G on the saddle ring is below 1e-12 (max |G| / R^2)^2 =
        # 2.2e-6, so no disk-wide band can class this census's points
        census = _census(N4_CENTRAL_RING)
        pred = predict_saddles(N4_CENTRAL_RING)
        assert (len(census), len(census.saddles), pred.count) == (9, 4, 4)
        assert all(p.kind is not PointClass.DEGENERATE for p in census)
        assert [abs(p.rho - pred.rings[0].rho) < 1e-6 for p in census.saddles] == [True] * 4

    def test_highorder_census(self):
        # G of degree 20: each grid node is seeded once, however many of its
        # cells change sign, and each seed counts once in the message.  The
        # 12-fold census solves one sector's seeds, which all converge.
        field = build_field(HIGHORDER)
        mirror = find_critical_points(field)
        assert (len(mirror), len(mirror.saddles), mirror.message) == (37, 24, "")
        for fold, message in ((12, ""), (1, "3 of 447 seeds did not converge")):
            (search,) = census_from_stacks(field.G.coeffs[..., None], fold)
            assert (len(search), len(search.saddles)) == (37, 24)
            assert search.message == message
            assert not search.degenerate

    def test_unconverged_seeds_counted_once(self):
        # Z_6^-2 is 2-fold: the half-plane's seeds, and the whole grid's
        field = build_field(WaveAberration((ZernikeTerm(6, -2, 0.08),)))
        for fold, message in ((2, "54 of 162 seeds did not converge"),
                              (1, "94 of 333 seeds did not converge")):
            search = find_critical_points(dataclasses.replace(field, fold=fold))
            assert (len(search), len(search.saddles)) == (21, 12)
            assert search.message == message

    @pytest.mark.parametrize("name", ["5star", "4star", "6star", "8stars"])
    def test_incomplete_orbit_reported(self, monkeypatch, name):
        # with the turned copies withheld, the sector's roots alone are not
        # whole orbits, and the census says so (3star's sector happens to
        # hold a whole orbit's worth)
        monkeypatch.setattr(hessian, "_complete_orbits", lambda newton, fidx, *_: (fidx[:0],) * 3)
        n = FIXTURE_SCENARIOS[name][3]
        field = build_field(ABParams(*FIXTURE_SCENARIOS[name][:4]).to_wavefront())
        (census,) = census_from_stacks(field.G.coeffs[..., None], n)
        off = len(census) - 1
        assert off % n and not census.degenerate
        assert census.message == (
            f"off-centre count {off} is not a multiple of the {n}-fold symmetry")

    @pytest.mark.parametrize("folds", [-1, 2.0, [3], np.array([3]), True])
    def test_folds_checked(self, folds):
        g = build_field(EQ3.to_wavefront()).G.coeffs[..., None]
        with pytest.raises(ValueError, match="fold must be a non-negative integer"):
            census_from_stacks(g, folds)

    @pytest.mark.parametrize("R", [1.0, 2.5])
    def test_locate_clamps_onto_the_rim(self, R):
        # a point that Newton left just outside the disk is put on its rim,
        # at its own angle; one just inside stays, flagged on the boundary
        x, y, rho, theta, on_boundary = hessian._locate(0.6 * R, 0.8 * R * (1 + 1e-13), R)
        assert (rho, on_boundary) == (R, True)
        assert math.hypot(x, y) == pytest.approx(R, rel=1e-15)
        assert theta == pytest.approx(math.atan2(0.6, 0.8 * (1 + 1e-13)), rel=1e-15)
        inside = (0.6 * R, 0.8 * R * (1 - 1e-13))
        assert hessian._locate(*inside, R)[:3] == (*inside, math.hypot(*inside))
        assert hessian._locate(*inside, R)[4]
        assert not hessian._locate(0.6 * R, 0.7 * R, R)[4]


class TestDegenerateFields:
    def test_pure_defocus_flagged(self):
        res = find_critical_points(build_field(WaveAberration((ZernikeTerm(2, 0, 0.3),))))
        assert res.degenerate
        assert res.points == ()

    def test_axially_symmetric_flagged(self):
        w = WaveAberration((ZernikeTerm(2, 0, 0.1), ZernikeTerm(4, 0, 0.2)))
        res = find_critical_points(build_field(w))
        assert res.degenerate
        assert "non-isolated" in res.message

    def test_zero_aberration_flagged(self):
        res = find_critical_points(build_field(WaveAberration(())))
        assert res.degenerate

    # G of alpha Z_2^0 + beta Z_4^0 is radial, with critical points at the
    # centre and on a ring at rho^2 = 1/3 - alpha / (3 sqrt(15) beta) if that
    # lies in (0, 1), that is if -2 sqrt(15) beta < alpha < sqrt(15) beta;
    # an axial W is not always a non-isolated critical set (ROADMAP item 2)
    @pytest.mark.parametrize("alpha", [0.8, 1.0])
    def test_axial_without_a_ring_is_the_centre(self, alpha):
        w = WaveAberration((ZernikeTerm(2, 0, alpha), ZernikeTerm(4, 0, 0.2)))
        res = find_critical_points(build_field(w))
        assert not res.degenerate
        assert [(p.x, p.y, p.kind) for p in res.points] == [(0.0, 0.0, PointClass.EXTREMUM)]

    @pytest.mark.xfail(strict=True, reason=(
        "at alpha = sqrt(15) beta, G = 345.6 rho^4 - 3.8e-14 rho^2 + 7.9e-31 has the "
        "centre and a ring at rho ~ 7.4e-9; the census returns 6 points at "
        "rho = 4.5-6.1e-6, all extremum, with no flag (ROADMAP items 24 and 2)"))
    def test_axial_at_the_ring_threshold(self):
        w = WaveAberration((ZernikeTerm(2, 0, 0.7745966692414834), ZernikeTerm(4, 0, 0.2)))
        census = find_critical_points(build_field(w))
        assert census.degenerate or len(census) == 1

    @pytest.mark.parametrize("n,alpha,gamma", [
        # ids alpha-n for gamma = 1e-10, alpha-n-g<gamma> for the others
        pytest.param(n, alpha, gamma, id=f"{alpha}-{n}" + ("" if gamma == 1e-10 else f"-g{gamma}"))
        for gamma in (1e-13, 1e-12, 1e-11, 1e-10) for alpha in (0.0, -0.1) for n in (3, 4, 5, 6)])
    def test_near_axial_flagged_or_complete(self, n, alpha, gamma):
        # alpha Z_2^0 + 0.2 Z_4^0 + gamma Z_n^n has 1 + 2n critical points,
        # the centre and a ring of n per family; today the point-count limit
        # flags it, and a census without that limit must still flag it or
        # find them all (ROADMAP items 2 and 13)
        (census,) = census_from_stacks(three_term_stacks(
            n, *_coefficients([ABParams(alpha, 0.2, gamma, n)])), n)
        assert census.degenerate or len(census) == 1 + 2 * n


# (n, alpha, gamma) of W = alpha Z_2^0 + 0.2 Z_4^0 + gamma Z_n^n on which the
# 2-D census returns a wrong count, with the count it returns, ...
NEAR_AXIAL_MISSES = {
    (3, 0.0, 1e-9): 14, (3, -0.1, 1e-9): 23, (4, 0.0, 1e-9): 5, (6, 0.0, 1e-9): 7,
    (3, -0.1, 1e-7): 1, (4, 0.0, 1e-7): 5, (4, -0.1, 1e-7): 5, (5, 0.0, 1e-7): 6,
    (6, 0.0, 1e-7): 7,
}
# ... and those on which it returns the right count, but a ring off by
NEAR_AXIAL_DRIFTS = {(5, 0.0, 1e-9): 1.8e-7, (5, -0.1, 1e-9): 1.1e-9, (6, -0.1, 1e-9): 1.4e-9}
# the small central rings of TestKnownCensusMisses that the 2-D census misses
# (on n5-two-rings it agrees, but reports that 1 of 41 seeds did not converge)
CENTRAL_MISSES = {
    "n5-odd-at-0.002933": "the 2-D census returns 20 points, 6 of them saddles (the closed "
                          "form's 5 and a straggler), and reports an incomplete orbit",
    "n5-two-rings": None,
    "n6-odd-at-0.009277": "the 2-D census flags the isolated set as non-isolated (81 "
                          "deduplicated points)",
}


def _near_axial_or_central(*case):
    """The params of a near-axial (n, alpha, gamma) case or of a named small
    central ring, strictly xfailed where the 2-D census misses it."""
    if len(case) == 1:
        (name,) = case
        reason = CENTRAL_MISSES[name]
        return pytest.param(TestKnownCensusMisses.SMALL_CENTRAL_RINGS[name][0], id=name,
                            marks=() if reason is None else pytest.mark.xfail(
                                strict=True, reason=f"{reason} (ROADMAP items 1, 2 and 4)"))
    n, alpha, gamma = case
    reason = (f"the 2-D census returns {NEAR_AXIAL_MISSES[case]} points, with no degenerate flag"
              if case in NEAR_AXIAL_MISSES else
              f"the 2-D census puts a ring {NEAR_AXIAL_DRIFTS[case]:.2g} from the mirror "
              "census's" if case in NEAR_AXIAL_DRIFTS else None)
    marks = () if reason is None else pytest.mark.xfail(
        strict=True, reason=f"{reason} (ROADMAP item 13)")
    return pytest.param(ABParams(alpha, 0.2, gamma, n), id=f"n{n}-a{alpha}-g{gamma}",
                        marks=marks)


class TestNearAxial:
    # ROADMAP item 13: alpha Z_2^0 + 0.2 Z_4^0 + gamma Z_n^n has 1 + 2n
    # isolated critical points, the centre and a ring of n per family.  The
    # 2-D census got 9 of these 24 cases wrong, with no flag; the mirror
    # census, which `verify` runs, gets all of them
    @pytest.mark.parametrize("n,alpha,gamma", [
        pytest.param(n, alpha, gamma, id=f"n{n}-a{alpha}-g{gamma}")
        for gamma in (1e-9, 1e-7, 1e-5) for n in SUPPORTED_ORDERS for alpha in (0.0, -0.1)])
    def test_one_plus_two_n_points(self, n, alpha, gamma):
        census = _census(ABParams(alpha, 0.2, gamma, n))
        assert not census.degenerate and census.message == ""
        assert len(census) == 1 + 2 * n


class TestSaddleBound:
    @pytest.mark.parametrize(
        "terms,expected",
        [
            ((ZernikeTerm(3, 3, 0.1),), 1),
            ((ZernikeTerm(4, 0, 0.2), ZernikeTerm(3, 3, 0.2)), 6),
            ((ZernikeTerm(6, 6, 0.19), ZernikeTerm(4, 0, 0.2)), 28),
            ((ZernikeTerm(2, 0, 0.3),), 0),
        ],
    )
    def test_formula(self, terms, expected):
        assert saddle_upper_bound(WaveAberration(terms)) == expected

    def test_bound_holds_on_random_samples(self):
        rng = np.random.default_rng(100)
        for _ in range(60):
            n = int(rng.integers(3, 7))
            p = ABParams(
                float(rng.uniform(-1.0, 1.0)),
                float(rng.uniform(0.05, 0.4)),
                float(rng.uniform(0.02, 0.5)),
                n,
            )
            w = p.to_wavefront()
            res = find_critical_points(build_field(w))
            if res.degenerate:
                continue
            assert len(res.saddles) <= saddle_upper_bound(w)


class TestRingStructure:
    def test_rings_and_rotation_invariance(self, analyses):
        for a in analyses.values():
            saddles = a.search.saddles
            rhos = np.array([s.rho for s in saddles])
            assert np.ptp(rhos) < 1e-8  # single ring for every fixture
            base = min(s.theta for s in saddles)
            lattice = [base + 2.0 * math.pi * k / a.n for k in range(a.n)]
            assert circular_deviation([s.theta for s in saddles], lattice) < 1e-8
            # the saddle set maps onto itself under a 2 pi / n rotation
            rotated = [
                ((s.theta + 2.0 * math.pi / a.n) % (2.0 * math.pi), s.rho)
                for s in saddles
            ]
            for theta_r, rho_r in rotated:
                match = min(
                    abs((s.theta - theta_r + math.pi) % (2 * math.pi) - math.pi)
                    + abs(s.rho - rho_r)
                    for s in saddles
                )
                assert match < 1e-8


def _both_censuses(monkeypatch):
    """Yield "mirror", then "2-D" while every W takes the 2-D census, as a
    W without the mirror census does (`hessian._turned` of none)."""
    yield "mirror"
    with monkeypatch.context() as patched:
        patched.setattr(hessian, "_turned", lambda w: None)
        yield "2-D"


class TestRescaleInvariance:
    @pytest.mark.parametrize("factor", [0.5, 2.0, 3.5])
    def test_fixture_rescaling(self, factor, monkeypatch):
        for census in _both_censuses(monkeypatch):
            report = rescale_check(EQ3.to_wavefront(), factor)
            assert report.passed, census
            assert report.count == 7
            assert report.max_position_error < 1e-8

    @pytest.mark.parametrize("name", [*sorted(FIXTURE_SCENARIOS), "highorder"])
    def test_power_of_two_dilation_is_exact(self, name, monkeypatch):
        # every census length is a fraction of the domain radius, so the
        # census on the disk of radius 2^k is the unit census times 2^k
        w = HIGHORDER if name == "highorder" else ABParams(
            *FIXTURE_SCENARIOS[name][:4]).to_wavefront()
        for census in _both_censuses(monkeypatch):
            base = find_critical_points(build_field(w))
            for k in (-30, -20, 12, 20, 30):
                report = rescale_check(w, math.ldexp(1.0, k))
                assert (report.passed, report.max_position_error, report.message) == (
                    True, 0.0, ""), (census, k)
                # angles, centre and rim flags too
                r = math.ldexp(1.0, k)
                turned = hessian._turned(w)
                scaled = find_critical_points(field_from_polynomial(
                    w.to_polynomial().rescale_domain(r), w.fold_order(),
                    None if turned is None else turned.rescale_domain(r)), r)
                assert [(p.x / r, p.y / r, p.rho / r, p.theta, p.kind, p.on_boundary)
                        for p in scaled] == [(p.x, p.y, p.rho, p.theta, p.kind, p.on_boundary)
                                             for p in base], (census, k)

    def test_underflowing_dilation_rejected(self):
        # on the disk of radius 2^100, G of 3star squares to a normal float
        # but Hess G, 2^200 smaller, does not
        with pytest.raises(ValueError, match="underflow the Hessian determinant"):
            rescale_check(EQ3.to_wavefront(), 2.0**100)

    @pytest.mark.parametrize("factor", [1e100, 1e-100])
    def test_out_of_range_factor_rejected(self, factor):
        # a power of the factor overflows, or a coefficient leaves the
        # normal range, before any census is run
        with pytest.raises(ValueError, match="normal range"):
            rescale_check(EQ3.to_wavefront(), factor)

    def test_overflowing_dilation_rejected(self):
        # G is finite at the unit pupil, but its values on the disk of
        # radius 0.05 cannot be squared
        with pytest.raises(ValueError, match="overflow the Hessian determinant"):
            rescale_check(ABParams(0.0, 1e74, 1e74, 3).to_wavefront(), 0.05)

    def test_highorder_dilations_near_the_limits(self, monkeypatch):
        # Wxx Wyy of highorder dilated by 2^-44 overflows: a ValueError, not
        # numpy's warning, and at 2^-46 not the degree 24 of a NaN that 0 / 0
        # put above the total degree; at 2^44 only the powers there overflow,
        # and the 11 subnormal coefficients of G still pass
        for census in _both_censuses(monkeypatch):
            for k in (-46, -44):
                with pytest.raises(ValueError, match="overflow the Hessian determinant"):
                    rescale_check(HIGHORDER, 2.0**k)
            report = rescale_check(HIGHORDER, 2.0**44)
            assert (report.passed, report.count, report.message) == (True, 37, ""), census
            # at 2^45 those 11 move the points by 1e-3, and at 2^46 they are
            # 0: G is trimmed from 21 x 21 to 13 x 13 coefficients
            for k, subnormal, lost, error in ((45, 11, 0, 9.8e-4), (46, 0, 11, 0.0216)):
                report = rescale_check(HIGHORDER, 2.0**k)
                assert (report.passed, report.count) == (False, 37), (census, k)
                assert report.max_position_error == pytest.approx(error, rel=0.01)
                assert report.message == (
                    f"position error {report.max_position_error:.3g}; underflow in the dilated "
                    f"G: {subnormal} subnormal coefficients, {lost} of the undilated G's 26 "
                    "nonzero ones lost")

    def test_pure_defocus_vacuous(self):
        report = rescale_check(WaveAberration((ZernikeTerm(2, 0, 0.3),)), 2.0)
        assert report.passed and report.degenerate

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            rescale_check(EQ3.to_wavefront(), 0.0)

    @pytest.mark.parametrize("factor", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_factor(self, factor):
        with pytest.raises(ValueError, match="factor"):
            rescale_check(EQ3.to_wavefront(), factor)

    @staticmethod
    def _check_with_scaled_census(monkeypatch, edit):
        """rescale_check of 3star at factor 2 with ``edit`` applied to the
        census of the dilated field."""
        census = hessian.find_critical_points

        def edited(field, domain_radius=1.0):
            result = census(field, domain_radius)
            return edit(result) if domain_radius != 1.0 else result

        monkeypatch.setattr(hessian, "find_critical_points", edited)
        return rescale_check(EQ3.to_wavefront(), 2.0)

    def test_degeneracy_flags_disagree(self, monkeypatch):
        report = self._check_with_scaled_census(
            monkeypatch, lambda r: dataclasses.replace(r, degenerate=True))
        assert report == hessian.RescaleReport(2.0, False, math.inf, 0, True,
                                               "degeneracy flags disagree")

    def test_count_mismatch(self, monkeypatch):
        report = self._check_with_scaled_census(
            monkeypatch, lambda r: dataclasses.replace(r, points=r.points[1:]))
        assert report == hessian.RescaleReport(2.0, False, math.inf, 7, False,
                                               "count mismatch: 7 vs 6")

    def test_class_mismatch(self, monkeypatch):
        def flip_first(r):
            first = r.points[0]
            other = (PointClass.EXTREMUM if first.kind is PointClass.SADDLE
                     else PointClass.SADDLE)
            return dataclasses.replace(
                r, points=(dataclasses.replace(first, kind=other),) + r.points[1:])

        report = self._check_with_scaled_census(monkeypatch, flip_first)
        assert report == hessian.RescaleReport(2.0, False, math.inf, 7, False,
                                               "class mismatch")


def _census_key(result):
    """A census with the values that scale with W (G, det Hess G and the
    scales) left out."""
    return (result.degenerate, result.message,
            [(p.x, p.y, p.rho, p.theta, p.kind, p.on_boundary) for p in result.points])


def _scaled_fixture(name, k):
    """The fixture's three-term parameters times 2^k, each exact."""
    alpha, beta, gamma, n = FIXTURE_SCENARIOS[name][:4]
    return ABParams(*(math.ldexp(c, k) for c in (alpha, beta, gamma)), n)


class TestCoefficientScale:
    """G is homogeneous of degree 2 in W's coefficients and every census
    tolerance is relative to G's own scale, so c W has the census of W."""

    @pytest.mark.parametrize("name", sorted(FIXTURE_SCENARIOS))
    def test_power_of_two_scaling_is_bit_identical(self, name):
        ks = (0, -200, -150, -64, -23, -1, 1, 17, 40)
        base, *scaled = _census_fields(
            [build_field(_scaled_fixture(name, k).to_wavefront()) for k in ks])
        for k, got in zip(ks[1:], scaled):
            assert _census_key(got) == _census_key(base), k
            assert [p.g_value for p in got] == [math.ldexp(p.g_value, 2 * k) for p in base]
            assert [p.hess_g_det for p in got] == [
                math.ldexp(p.hess_g_det, 4 * k) for p in base]

    def test_underflowing_scale_rejected(self):
        # the last scale whose squared Hess G stays a normal float still
        # gives the full census, mirror and 2-D alike (G itself is never
        # squared); below it the census would lose its digits
        field = build_field(_scaled_fixture("3star", -262).to_wavefront())
        for census in (find_critical_points(field), _census_fields([field])[0]):
            assert (len(census), len(census.saddles), census.message) == (7, 3, "")
        # at 2^-263 twice the square of Hess G's bound is subnormal
        with pytest.raises(ValueError, match="underflow the Hessian determinant"):
            find_critical_points(build_field(_scaled_fixture("3star", -263).to_wavefront()))
        tiny = _scaled_fixture("3star", -270)
        with pytest.raises(ValueError, match="underflow the Hessian determinant"):
            find_critical_points(build_field(tiny.to_wavefront()))
        with pytest.raises(ValueError, match="underflow the Hessian determinant"):
            census_from_stacks(three_term_stacks(3, *_coefficients([EQ3, tiny])), 3)

    def test_census_guards_hand_built_stacks(self):
        # every finite coefficient, but twice the square of the bound of
        # Hess G on the unit square overflows; a huge constant term, which
        # Hess G does not see, is no overflow, and a NaN one is
        g = np.array(three_term_stacks(3, *_coefficients([EQ3, EQ3])))
        g[2, 2, 1], x2y2 = 1e155, g[2, 2, 1]
        assert np.isfinite(g).all()
        with pytest.raises(ValueError, match="overflow the Hessian determinant"):
            census_from_stacks(g, 3)
        g[2, 2, 1], g[0, 0, 1] = x2y2, 1e155
        assert census_from_stacks(g, 3)[1].points[0].g_value == pytest.approx(1e155)
        g[0, 0, 1] = np.nan
        with pytest.raises(ValueError, match="overflow the Hessian determinant"):
            census_from_stacks(g, 3)

    def test_huge_disk_squares_only_hess_g(self):
        # on the disk of radius 2^130 twice the square of the bound of
        # 3star's G overflows (about 1e320), but that of Hess G, 2^260
        # smaller, does not: the census runs, with no floating-point warning
        field = build_field(EQ3.to_wavefront())
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            (census,) = census_from_stacks(field.G.coeffs[..., None], 3, 2.0**130)
            mirror = find_critical_points(field, 2.0**130)
        # pinned as it stands: all 7 points of 3star lie within the dedup
        # radius (1e-6 R) of the centre, and the rest are extrema of |grad G|
        # far out that the tolerance, relative to the disk's scale, accepts
        assert (len(census), census.degenerate, census.message) == (4, False, "")
        assert [p.kind for p in census] == [PointClass.EXTREMUM] * 4
        assert census.points[0].rho == 0.0
        # the mirror census of the same field resolves all 7, certified
        assert (len(mirror), len(mirror.saddles), mirror.message) == (7, 3, "")

    def test_zero_field_is_not_underflow(self):
        # G = 0 (no term, or tilt alone) is constant, not too small to square
        for w in (WaveAberration(()), WaveAberration((ZernikeTerm(1, 1, 0.3),))):
            census = find_critical_points(build_field(w))
            assert census.degenerate and census.message == "hessian determinant is constant"

    def test_small_factor_beside_a_zero_one_is_not_underflow(self):
        # W = 1e-300 x^2 has Wxx = 2e-300 but Wyy = Wxy = 0: its G is 0 in
        # exact arithmetic too, and no product of nonzero factors underflows
        coeffs = np.zeros((3, 1))
        coeffs[2, 0] = 1e-300
        census = find_critical_points(field_from_polynomial(BivariatePolynomial(coeffs), 1))
        assert census.degenerate and census.message == "hessian determinant is constant"
        # a coefficient whose square underflows leaves a normal G normal
        (census,) = census_from_stacks(three_term_stacks(3, *_coefficients(
            [ABParams(1e-300, 0.2, 0.2, 3)])), 3)
        assert (len(census), len(census.saddles)) == (7, 3)


# verify --n 4 --beta 0.2 --samples 1000 --seed 4: the closed form puts the
# even family's 4 saddles on a ring at rho = 0.987838, next to the rim
RIM_RING = ABParams(0.6240191031801114, 0.2, -0.8342619035157544, 4)


def _census(params):
    """The census of a three-term wavefront, as `verify` runs it: the mirror
    census of its G and of its G at -gamma."""
    return _mirror_censuses([params])[0]


def _mirror_censuses(params):
    """`mirror_census` of three-term wavefronts of one order, as one stack."""
    (n,) = {p.n for p in params}
    alpha, beta, gamma = _coefficients(params)
    return mirror_census(three_term_stacks(n, alpha, beta, gamma),
                         three_term_stacks(n, alpha, beta, -gamma), n)


class TestKnownCensusMisses:
    def test_rim_ring_prediction(self):
        pred = predict_saddles(RIM_RING)
        assert (pred.count, pred.families, pred.boundary) == (4, ("even",), False)
        assert pred.rings[0].rho == pytest.approx(0.987838, abs=1e-6)

    def test_rim_ring_saddles_found(self):
        # the whole grid's seeds found 2 of the 4
        (census,) = census_from_stacks(three_term_stacks(4, *_coefficients([RIM_RING])), 4)
        rho = predict_saddles(RIM_RING).rings[0].rho
        assert len([p for p in census.saddles if abs(p.rho - rho) < 1e-6]) == 4

    # perfbench `verify --seed 3505`, op 81 (`verify --n 6 --beta 0.2
    # --samples 5 --seed 2696365098`): the closed form puts the odd family's
    # 6 saddles on rho = 0.998278, next to the rim; the whole grid's seeds
    # missed the one at theta = 270 degrees
    NEAR_RIM_RING = ABParams(-0.30218954234154227, 0.2, -0.04013986277772599, 6)

    def test_near_rim_ring_prediction(self):
        pred = predict_saddles(self.NEAR_RIM_RING)
        assert (pred.count, pred.families, pred.boundary) == (12, ("even", "odd"), False)
        assert pred.rings[1].rho == pytest.approx(0.998278, abs=1e-6)

    def test_near_rim_ring_saddles_found(self):
        params = self.NEAR_RIM_RING
        census = _census(params)
        rho = predict_saddles(params).rings[1].rho
        assert census.message == ""
        assert len([p for p in census.saddles if abs(p.rho - rho) < 1e-6]) == 6

    # perfbench `verify --seed 3518`, op 93 (`verify --n 5 --beta 0.2
    # --samples 5 --seed 1989566610`): 5 even saddles on rho = 0.517370 and
    # 5 odd on rho = 0.989766, next to the rim; the whole grid's seeds
    # missed one of the odd ring
    NEAR_RIM_RING_5 = ABParams(0.021869934943762815, 0.2, -0.09274610535398642, 5)

    def test_near_rim_ring_5_prediction(self):
        pred = predict_saddles(self.NEAR_RIM_RING_5)
        assert (pred.count, pred.families, pred.boundary) == (10, ("even", "odd"), False)
        assert [r.rho for r in pred.rings] == [pytest.approx(0.517370, abs=1e-6),
                                               pytest.approx(0.989766, abs=1e-6)]

    def test_near_rim_ring_5_saddles_found(self):
        params = self.NEAR_RIM_RING_5
        census = _census(params)
        assert census.message == "" and not census.degenerate
        assert [sum(abs(p.rho - r.rho) < 1e-6 for p in census.saddles)
                for r in predict_saddles(params).rings] == [5, 5]
        assert (len(census), len(census.saddles)) == (16, 10)

    # ROADMAP item 1: an extremum ring just outside a saddle ring, past a
    # fold, loses members (the rounded draws reproduce it)
    DROPPED_EXTREMA = [
        pytest.param(ABParams(-1.00713, 0.2, -0.298659, 5), id="n5-4of5-at-0.946118"),
        pytest.param(ABParams(-0.224261, 0.2, -0.340519, 6), id="n6-4of6-at-0.626818"),
        pytest.param(ABParams(-0.009885, 0.2, -0.433061, 6), id="n6-5of6-at-0.558375"),
        pytest.param(ABParams(-0.302252, 0.2, 0.315349, 6), id="n6-odd-4of6-at-0.655229"),
    ]

    @pytest.mark.parametrize("params", DROPPED_EXTREMA)
    def test_extremum_rings_found(self, params):
        census = _census(params)
        radii = saddle_radii(params)
        radii = radii.even + radii.odd
        assert len(radii) == 2 and census.message == ""
        assert [sum(abs(p.rho - r) < 1e-6 for p in census) for r in radii] == [
            params.n] * len(radii)
        assert len(census) == 1 + params.n * len(radii)

    # perfbench `verify --seed 2916`, op 79: the closed form puts the even
    # family's 6 saddles on rho = 0.136891, beside an extremum ring at
    # rho = 0.137066; the whole grid's seeds missed the saddle at theta =
    # 180 degrees
    SMALL_RING = ABParams(0.7309953181537744, 0.2, -0.006509335436258645, 6)

    def test_small_ring_prediction(self):
        pred = predict_saddles(self.SMALL_RING)
        assert (pred.count, pred.families, pred.boundary) == (6, ("even",), False)
        assert pred.rings[0].rho == pytest.approx(0.136891, abs=1e-6)
        radii = saddle_radii(self.SMALL_RING)
        assert radii.odd == (pytest.approx(0.137066, abs=1e-6),)

    def test_small_saddle_ring_found(self):
        params = self.SMALL_RING
        census = _census(params)
        radii = saddle_radii(params)
        assert [sum(abs(p.rho - r) < 1e-6 for p in census)
                for r in radii.even + radii.odd] == [6, 6]
        assert len(census.saddles) == 6 and len(census) == 13

    # alpha just below sqrt(15) beta, where A's constant term vanishes: the
    # closed form puts a ring of saddles within rho = 0.01 of the centre.
    # The cases lie 2.6e-5, 2.6e-5 and 2.6e-4 from a boundary in units of
    # beta, inside verify's band, so verify never draws them.  The 2-D
    # census returns 20 points, 6 of them saddles, with an incomplete orbit
    # (n5-odd); the closed form's 16 points with "1 of 41 seeds did not
    # converge" (n5-two-rings); and flags the n6 set as non-isolated (81
    # points; ROADMAP items 1, 2 and 4).  The mirror census finds each
    SMALL_CENTRAL_RINGS = {
        "n5-odd-at-0.002933": (
            ABParams(0.7745766692414834, 0.2, 0.04000000000000001, 5), (("odd", 0.002933),)),
        "n5-two-rings": (
            ABParams(0.7745766692414834, 0.2, 0.2, 5), (("odd", 0.002929), ("even", 0.625974))),
        "n6-odd-at-0.009277": (
            ABParams(0.7743966692414834, 0.2, 0.04000000000000001, 6), (("odd", 0.009277),)),
    }

    @pytest.mark.parametrize("case", SMALL_CENTRAL_RINGS)
    def test_small_central_ring_prediction(self, case):
        params, rings = self.SMALL_CENTRAL_RINGS[case]
        pred = predict_saddles(params)
        assert (pred.families, pred.boundary, pred.warnings) == (
            tuple(f for f, _ in rings), False, ())
        assert [r.rho for r in pred.rings] == [pytest.approx(rho, abs=1e-6)
                                               for _, rho in rings]
        assert 0.0 < pred.boundary_slack < _VERIFY_BAND

    @pytest.mark.parametrize("case", SMALL_CENTRAL_RINGS)
    def test_small_central_ring_found(self, case):
        params = self.SMALL_CENTRAL_RINGS[case][0]
        census = _census(params)
        pred = predict_saddles(params)
        assert not census.degenerate and census.message == ""
        assert len(census.saddles) == pred.count
        for ring in pred.rings:
            assert sum(abs(p.rho - ring.rho) < 1e-6 for p in census.saddles) == params.n


def _same_census(two_d, mirror):
    """The 2-D census and the mirror census of one field agree: the same
    count and classes in ring order, unflagged, each mirror point within
    1e-9 of a 2-D one, and no message from the mirror census."""
    assert not two_d.degenerate and not mirror.degenerate and mirror.message == ""
    assert [p.kind for p in mirror] == [p.kind for p in two_d]
    xy = np.array([(p.x, p.y) for p in two_d]).reshape(-1, 2)
    assert max(np.min(np.hypot(*(xy - (p.x, p.y)).T)) for p in mirror) <= 1e-9


def _other_orders():
    """alpha Z_2^0 + beta Z_4^0 + gamma Z_n^n for n = 2 and 7..12, three
    draws each, as `build_field` builds them."""
    rng = np.random.default_rng(2046)
    return [build_field(WaveAberration((
        ZernikeTerm(4, 0, float(rng.uniform(0.05, 0.4))),
        ZernikeTerm(n, n, float(rng.uniform(-0.3, 0.3))),
        ZernikeTerm(2, 0, float(rng.uniform(-1.0, 1.0))))))
        for n in (2, 7, 8, 9, 10, 11, 12) for _ in range(3)]


class TestMirrorCensus:
    """The mirror census of W = alpha Z_2^0 + beta Z_4^0 + gamma Z_n^n
    (`mirror_census`, which `find_critical_points` and `verify` run for such
    W) against the 2-D census, which only other W reach now."""

    @pytest.mark.parametrize("name", [*sorted(FIXTURE_SCENARIOS), "highorder"])
    def test_fixtures_agree_with_the_2d_census(self, name):
        w = HIGHORDER if name == "highorder" else ABParams(
            *FIXTURE_SCENARIOS[name][:4]).to_wavefront()
        field = build_field(w)
        assert field.mirror is not None
        (two_d,) = census_from_stacks(field.G.coeffs[..., None], field.fold)
        _same_census(two_d, find_critical_points(field))

    @pytest.mark.parametrize("n", SUPPORTED_ORDERS)
    def test_verify_draws_agree_with_the_2d_census(self, n):
        # the census corpus's 100 seed-7 draws of order n, 16 per stack
        draws = [p for p, _ in _verification_samples(n, 0.2, 100, 7)]
        for start in range(0, len(draws), 16):
            chunk = draws[start:start + 16]
            two_d = census_from_stacks(three_term_stacks(n, *_coefficients(chunk)), n)
            for a, b in zip(two_d, _mirror_censuses(chunk), strict=True):
                _same_census(a, b)

    def test_other_orders_agree_with_the_2d_census(self):
        for field in _other_orders():
            (two_d,) = census_from_stacks(field.G.coeffs[..., None], field.fold)
            _same_census(two_d, find_critical_points(field))

    @pytest.mark.parametrize("params", [
        _near_axial_or_central(n, alpha, gamma)
        for gamma in (1e-9, 1e-7, 1e-5) for n in SUPPORTED_ORDERS for alpha in (0.0, -0.1)
    ] + [_near_axial_or_central(name) for name in CENTRAL_MISSES])
    def test_hard_cases_agree_with_the_2d_census(self, params):
        # TestNearAxial's cases and the small central rings, where the 2-D
        # census is known to miss; the mirror census gets each right
        (two_d,) = census_from_stacks(three_term_stacks(params.n, *_coefficients([params])),
                                      params.n)
        _same_census(two_d, _census(params))

    def test_batch_repr_equals_single(self):
        draws = [p for p, _ in _verification_samples(5, 0.2, 40, 3)]
        batched = _mirror_censuses(draws)
        assert [repr(r) for r in batched] == [repr(_census(p)) for p in draws]
        assert any(r.saddles for r in batched) and not any(r.message for r in batched)
        assert mirror_census(_stack([]), _stack([]), 5) == []
        # each field's certificate rounds at its own degree: a hand-built G
        # of degree 8 whose q = (u - 0.96) (1 - u)^5 on both mirrors changes
        # sign beyond Horner's bound for degree 8, but not for degree 20, so
        # a G of degree 20 beside it must not loosen its bound
        q = np.polynomial.polynomial.polymul([-0.96, 1.0], [1.0, -5.0, 10.0, -10.0, 5.0, -1.0])
        g = np.zeros((1, 9))
        g[0, 2:] = q / np.arange(2, 9)
        high = np.zeros((21, 21))
        high[0, 20] = high[20, 0] = 1.0
        alone = mirror_census(g[..., None], g[..., None], 3)[0]
        assert (len(alone), alone.message) == (7, "")
        assert repr(mirror_census(_stack([g, high]), _stack([g, high]), 3)[0]) == repr(alone)

    @pytest.mark.parametrize("name", [*sorted(FIXTURE_SCENARIOS), "highorder", "draws"])
    def test_each_ring_shares_its_values(self, name):
        # each orbit is valued and classed once, so every point of a ring
        # carries its G, det(Hess G) and class; on the draws, the census
        # corpus's 400 seed-7 draws, 16 per stack
        if name == "draws":
            censuses = []
            for n in SUPPORTED_ORDERS:
                draws = [p for p, _ in _verification_samples(n, 0.2, 100, 7)]
                censuses += [(c, n) for start in range(0, len(draws), 16)
                             for c in _mirror_censuses(draws[start:start + 16])]
        else:
            field = build_field(HIGHORDER if name == "highorder" else ABParams(
                *FIXTURE_SCENARIOS[name][:4]).to_wavefront())
            censuses = [(find_critical_points(field), field.fold)]
        for census, n in censuses:
            rings = [[census.points[0]]]
            for p in census.points[1:]:
                if p.rho - rings[-1][-1].rho <= 1e-9:
                    rings[-1].append(p)
                else:
                    rings.append([p])
            for ring in rings:
                assert len(ring) == (1 if ring[0].rho == 0.0 else n)
                assert len({(p.g_value, p.hess_g_det, p.kind) for p in ring}) == 1

    @pytest.mark.parametrize("name", sorted(FIXTURE_SCENARIOS))
    def test_power_of_two_scaling_is_bit_identical(self, name):
        base = find_critical_points(build_field(_scaled_fixture(name, 0).to_wavefront()))
        for k in (-200, -64, 17, 40, 240):
            got = find_critical_points(build_field(_scaled_fixture(name, k).to_wavefront()))
            assert _census_key(got) == _census_key(base), k
            assert [p.g_value for p in got] == [math.ldexp(p.g_value, 2 * k) for p in base]
            assert [p.hess_g_det for p in got] == [
                math.ldexp(p.hess_g_det, 4 * k) for p in base]

    def test_ring_merging_boundary_is_reported(self):
        # n = 3: A - B = (c_a0 - c_ahi) - c_b rho + c_a2 rho^2 has a double
        # root at rho = c_b / (2 c_a2) = 0.0791 where c_b^2 = 4 c_a2 (c_a0 -
        # c_ahi): a saddle ring and an extremum ring merge.  At that alpha,
        # and up to 1e-12 below it, where the rings are under 2e-6 apart, no
        # sign change of its own certifies a ring, and Descartes' rule cannot
        # isolate the two roots, or counts both
        _, c_a2, c_ahi, c_b = _ab_coefficients(ABParams(0.0, 0.2, 0.2, 3))
        alpha = ((c_ahi + c_b * c_b / (4.0 * c_a2)) / (192.0 * 0.2) + 3.0) / math.sqrt(15.0)
        for delta, descartes in ((0.0, "cannot isolate its roots"), (-1e-13, "counts 2"),
                                 (-1e-12, "counts 2")):
            census = _census(ABParams(alpha + delta, 0.2, 0.2, 3))
            assert not census.degenerate
            # Descartes' count is exact; which candidates the companion
            # matrix offers for a near-double root may differ with LAPACK
            assert census.message.endswith(
                f"the theta = 0 mirror has 0 certified roots inside the disk, and "
                f"Descartes' rule {descartes}")
        # rings 1.3e-6 apart are two real candidates, in intervals that meet
        assert (len(census), census.message) == (7, (
            "no sign change of their own certifies 2 root(s) on the theta = 0 mirror; "
            "the theta = 0 mirror has 0 certified roots inside the disk, and Descartes' rule "
            "counts 2"))
        # 1e-9 below it both rings, 4e-5 apart, are certified; above it the
        # roots are a complex pair, and there is no ring
        census = _census(ABParams(alpha - 1e-9, 0.2, 0.2, 3))
        assert (len(census), len(census.saddles), census.message) == (7, 3, "")
        census = _census(ABParams(alpha + 1e-12, 0.2, 0.2, 3))
        assert (len(census), census.message) == (1, "")

    def test_spurious_candidate_is_dropped(self):
        # with gamma / beta ~ 1e-11 the companion matrix offers a root at
        # rho = 9e-11 where q has none: no sign change certifies it, and
        # Descartes' rule counts no root in (0, 1), so it is dropped
        s = 6.154488086172134e-11
        w = WaveAberration((ZernikeTerm(4, 0, -0.43254174622563246 * s),
                            ZernikeTerm(5, 5, 4.78341928914242e-12 * s),
                            ZernikeTerm(2, 0, -77.5738615162341 * s)))
        field = build_field(w)
        census = find_critical_points(field)
        assert (len(census), census.message) == (1, "")
        _same_census(census_from_stacks(field.G.coeffs[..., None], 5)[0], census)

    def test_gradient_scale_bounds_dg_dy_on_the_mirrors(self):
        # sum |j c[0, j]| R^(j - 1) of G and of its turned G, the larger
        field = build_field(EQ3.to_wavefront())
        want = max(sum(abs(j * c) for j, c in enumerate(g.coeffs[0]))
                   for g in (field.G, field.mirror))
        assert find_critical_points(field).gradient_scale == pytest.approx(want, rel=1e-15)

    def test_which_w_has_the_mirror_census(self):
        def mirrored(*terms):
            return build_field(WaveAberration(tuple(ZernikeTerm(*t) for t in terms))).mirror

        for terms in (((2, 0, 0.1), (4, 0, 0.2), (5, 5, 0.07)),
                      ((0, 0, 1.0), (4, 0, 0.2), (2, 2, 0.1)),
                      ((4, 0, 0.2), (12, 12, 0.02), (2, 0, 0.0), (3, 1, 0.0))):
            assert mirrored(*terms) is not None, terms
        for terms in (((2, 0, 0.1), (5, 5, 0.07)),                # no Z_4^0
                      ((4, 0, 0.2), (2, 0, 0.1)),                 # axial
                      ((4, 0, 0.2), (5, -5, 0.07)),               # a sine term
                      ((4, 0, 0.2), (5, 5, 0.07), (3, 3, 0.1)),   # two folds
                      ((4, 0, 0.2), (7, 5, 0.07)),                # m != n
                      ((4, 0, 0.2), (1, 1, 0.07)),                # n < 2
                      ((4, 0, 0.2), (6, 0, 0.07), (3, 3, 0.1))):  # another radial term
            assert mirrored(*terms) is None, terms

    def test_turned_stack_checked(self):
        g = three_term_stacks(3, *_coefficients([EQ3, EQ3]))
        turned = np.array(g)
        turned[0, 0, 0] = np.nan
        for bad, fold in ((g[..., :1], 3), (g[..., 0], 3), (g, 1), (turned, 3)):
            with pytest.raises(ValueError, match="turned must be a finite stack of the fields"):
                mirror_census(g, bad, fold)


def _mixed_fields(seed, count):
    """Three-term fields of mixed order plus mixed-m and degenerate ones."""
    rng = np.random.default_rng(seed)
    ws = [
        WaveAberration((ZernikeTerm(4, 0, 0.2),)),
        WaveAberration((ZernikeTerm(2, 0, 0.3),)),
        WaveAberration(()),
        WaveAberration((ZernikeTerm(6, -4, 0.05), ZernikeTerm(4, 2, 0.11))),
        WaveAberration((ZernikeTerm(8, 0, 0.02), ZernikeTerm(7, 7, 0.03))),
    ]
    while len(ws) < count:
        n = int(rng.integers(3, 7))
        ws.append(ABParams(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.05, 0.4)),
                           float(rng.uniform(-0.5, 0.5)), n).to_wavefront())
    return [build_field(w) for w in ws]


def _census_fields(fields, domain_radius=1.0):
    """`census_from_stacks` of ``fields``, which share one fold, as one stack."""
    (fold,) = {f.fold for f in fields}
    return census_from_stacks(_stack([f.G.coeffs for f in fields]), fold, domain_radius)


def _fold_groups(fields):
    """``fields`` as lists of one fold each, in order of fold."""
    return [[f for f in fields if f.fold == fold] for fold in sorted({f.fold for f in fields})]


class TestBatchedCensus:
    """A batch of one fold gives each field its own census, to the last bit."""

    @pytest.mark.parametrize("batch", [2, 7, 32])
    def test_batch_repr_equals_single(self, batch):
        fields = _mixed_fields(batch, 40)
        order = np.random.default_rng(batch + 1).permutation(len(fields))
        batched, single = [], []
        for group in _fold_groups([fields[k] for k in order]):
            for start in range(0, len(group), batch):
                batched += _census_fields(group[start : start + batch])
            single += [_census_fields([f])[0] for f in group]
        assert [repr(r) for r in batched] == [repr(r) for r in single]
        assert any(r.degenerate for r in single) and any(r.saddles for r in single)

    def test_repeated_fields(self):
        # the same field twice gives the same seeds in two fields: each is
        # run, counted and deduplicated in its own field
        f, g = _mixed_fields(11, 7)[5:7]
        batched = _census_fields([f, f, g, f])
        single = [_census_fields([h])[0] for h in (f, f, g, f)]
        assert [repr(r) for r in batched] == [repr(r) for r in single]
        assert len(batched[0]) > 0

    def test_dilated_domain(self):
        for group in _fold_groups(_mixed_fields(3, 9)):
            batched = _census_fields(group, domain_radius=2.5)
            single = [_census_fields([f], domain_radius=2.5)[0] for f in group]
            assert [repr(r) for r in batched] == [repr(r) for r in single]

    def test_empty_batch(self):
        assert census_from_stacks(_stack([]), 3) == []

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_invalid_domain_radius(self, radius):
        field = build_field(EQ3.to_wavefront())
        with pytest.raises(ValueError, match="domain_radius"):
            find_critical_points(field, radius)
        with pytest.raises(ValueError, match="domain_radius"):
            _census_fields([field, field], radius)

    def test_padded_g_stack(self):
        # trailing zero rows and columns of G change no census
        for group in _fold_groups(_mixed_fields(5, 9)):
            g = _stack([f.G.coeffs for f in group])
            padded = np.zeros((g.shape[0] + 3, g.shape[1] + 2, g.shape[2]))
            padded[: g.shape[0], : g.shape[1]] = g
            assert [repr(r) for r in census_from_stacks(padded, group[0].fold)] == [
                repr(r) for r in _census_fields(group)]

    def test_det_squares_with_pow(self):
        # G = (A x^2 + 2 B xy + D y^2) / 2 has a saddle at the origin and
        # constant Hess G.  For this B, B ** 2 (pow) and B * B differ in the
        # last bit, and so do the two determinants.
        A, B, D = 1.0, -133.7960890729294, 1.0
        assert A * D - np.float64(B) ** 2 != A * D - B * B

        def poly(c):
            return BivariatePolynomial(np.array(c, dtype=float))

        # the census derives Gx = A x + B y, Gy = B x + D y and Hess G
        # from G itself
        field = dataclasses.replace(
            build_field(EQ3.to_wavefront()),
            G=poly([[0.0, 0.0, D / 2], [0.0, B, 0.0], [A / 2, 0.0, 0.0]]), fold=1, mirror=None,
        )
        (p,) = find_critical_points(field).points
        assert p.kind is PointClass.SADDLE
        assert p.hess_g_det == det_hess_g(field, p.x, p.y) == A * D - np.float64(B) ** 2


def _symmetric_wavefronts(seed, count):
    """``count`` wavefronts of fold g >= 2 drawn from ``seed``, alternately
    three-term ones of n = 3..6, and 0.2 Z_4^0 plus defocus and two or three
    cos and sin terms whose |m| are multiples of g = 2..6 (so their fold is
    g or a multiple of it)."""
    rng = np.random.default_rng(seed)
    ws = []
    while len(ws) < count:
        if len(ws) % 2:
            n = int(rng.integers(3, 7))
            ws.append(ABParams(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.05, 0.4)),
                               float(rng.uniform(-0.5, 0.5)), n).to_wavefront())
            continue
        g = int(rng.integers(2, 7))
        terms = {(4, 0): 0.2, (2, 0): float(rng.uniform(-0.3, 0.3))}
        size = len(terms) + int(rng.integers(2, 4))
        while len(terms) < size:
            m = g * int(rng.integers(1, 12 // g + 1)) * int(rng.choice([-1, 1]))
            n = abs(m) + 2 * int(rng.integers(0, (12 - abs(m)) // 2 + 1))
            terms[n, m] = float(rng.uniform(-0.1, 0.1))
        ws.append(WaveAberration(tuple(ZernikeTerm(n, m, c) for (n, m), c in terms.items())))
    return ws


class TestSectorCensus:
    """A g-fold census solves one sector's seeds and turns its roots into
    the other sectors: it finds every point the whole grid's census finds,
    and its points are whole orbits."""

    def test_sector_census_loses_no_point(self):
        groups = _fold_groups([build_field(w) for w in _symmetric_wavefronts(20261019, 60)])
        stacks = [(_stack([f.G.coeffs for f in group]), group[0].fold) for group in groups]
        folds = [fold for _, fold in stacks]
        assert min(folds) >= 2 and set(folds) >= {2, 3, 4, 5, 6}
        pairs = [(whole, sector, fold) for g, fold in stacks for whole, sector in
                 zip(census_from_stacks(g, 1), census_from_stacks(g, fold), strict=True)]
        matched = 0
        for whole, sector, fold in pairs:
            assert whole.degenerate <= sector.degenerate
            if sector.degenerate:
                continue
            xy = np.array([(p.x, p.y) for p in sector]).reshape(-1, 2)
            for p in whole:
                assert np.min(np.hypot(*(xy - (p.x, p.y)).T)) <= DEDUP_RADIUS
                matched += 1
            c, s = math.cos(2.0 * math.pi / fold), math.sin(2.0 * math.pi / fold)
            for x, y in xy:
                assert np.min(np.hypot(*(xy - (x * c + y * s, y * c - x * s)).T)) <= 1e-9
        assert matched > 500


def _coefficients(params):
    return np.array([(p.alpha, p.beta, p.gamma) for p in params]).T


def _padded(a, shape):
    out = np.zeros(shape)
    out[tuple(slice(0, k) for k in a.shape)] = a
    return out


class TestThreeTermBasis:
    """`verify` builds W = alpha Z_2^0 + beta Z_4^0 + gamma Z_n^n for a whole
    chunk of coefficients at once; `build_field` of the same W must give
    the same bits."""

    # alpha = 0 and gamma = 0 drop a term from to_wavefront; gamma < 0
    COEFFS = [(-0.3, 0.2, 0.15), (0.0, 0.2, 0.2), (0.25, 0.1, 0.0),
              (0.1, 0.3, -0.12), (0.0, 0.2, 0.0), (-1.1, 0.05, -0.4)]

    @pytest.mark.parametrize("n", SUPPORTED_ORDERS)
    def test_stacks_match_build_field(self, n):
        params = [ABParams(a, b, g, n) for a, b, g in self.COEFFS]
        params += [p for p, _ in _verification_samples(n, 0.2, 400, seed=7)]
        for start in range(0, len(params), 16):
            chunk = params[start : start + 16]
            got = three_term_stacks(n, *_coefficients(chunk))
            for k, p in enumerate(chunk):
                want = build_field(p.to_wavefront()).G.coeffs
                shape = np.maximum(got.shape[:2], want.shape)
                assert _padded(got[..., k], shape).tobytes() == _padded(want, shape).tobytes()

    def test_scalar_coefficients_are_not_a_stack(self):
        # scalars contract to one (DX, DY) polynomial, not a stack of fields
        with pytest.raises(ValueError, match="coefficient stack"):
            census_from_stacks(three_term_stacks(3, 0.0, 0.2, 0.2), 3)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            census_from_stacks(three_term_stacks(3, [0.0], [1e150], [1e150]), 3)
        with pytest.raises(ValueError, match="overflow"):
            find_critical_points(build_field(ABParams(0.0, 1e150, 1e150, 3).to_wavefront()))


def _greedy_dedup(fidx, x, y, gn):
    """Reference: the greedy pass over the points in (field, |grad G|) order."""
    kept = []
    for i in np.lexsort((gn, fidx)):
        if all(fidx[j] != fidx[i] or np.hypot(x[i] - x[j], y[i] - y[j]) > DEDUP_RADIUS
               for j in kept):
            kept.append(i)
    return kept


class TestDedup:
    @pytest.mark.parametrize(
        "distance,kept",
        [
            (DEDUP_RADIUS, 1),
            (np.nextafter(DEDUP_RADIUS, 0.0), 1),
            (np.nextafter(DEDUP_RADIUS, 1.0), 2),
        ],
    )
    def test_radius_boundary(self, distance, kept):
        x = np.array([0.0, distance])
        y = np.array([0.0, 0.0])
        out = _dedup(np.zeros(2, dtype=np.intp), x, y, np.array([2e-13, 1e-13]), DEDUP_RADIUS)
        # the better-converged point comes first and is always kept
        assert out.tolist() == [1, 0][:kept]

    def test_fields_kept_apart(self):
        x, y = np.zeros(3), np.zeros(3)
        out = _dedup(np.array([1, 0, 1]), x, y, np.array([0.0, 0.0, 0.0]), DEDUP_RADIUS)
        assert out.tolist() == [1, 0]

    def test_matches_greedy_pass(self):
        # chains of points 0.6 radius apart: the kept set depends on the
        # greedy order, not only on which pairs are close
        rng = np.random.default_rng(12)
        n = 400
        fidx = rng.integers(0, 3, n)
        base = rng.uniform(-1.0, 1.0, (n // 8, 2))
        pick = rng.integers(0, len(base), n)
        steps = rng.integers(-3, 4, n) * 0.6 * DEDUP_RADIUS
        x = base[pick, 0] + steps
        y = base[pick, 1] + rng.normal(scale=0.05 * DEDUP_RADIUS, size=n)
        gn = rng.choice([1e-13, 2e-13, 3e-13], n)
        out = _dedup(fidx, x, y, gn, DEDUP_RADIUS)
        want = _greedy_dedup(fidx, x, y, gn)
        assert out.tolist() == want
        assert len(want) < n

    def test_matches_greedy_pass_on_clusters(self):
        # tight clusters repeated in every field, points sharing an x, and
        # neighbours within 2 radii in x but not in the plane
        rng = np.random.default_rng(5)
        centers = rng.uniform(-1.0, 1.0, (12, 2))
        centers[:4, 0] = centers[0, 0]
        pick = rng.integers(0, len(centers), 600)
        offsets = rng.uniform(-1.5, 1.5, (600, 2)) * DEDUP_RADIUS
        offsets[::5, 0] = 0.0
        x, y = (centers[pick] + offsets).T
        fidx = rng.integers(0, 5, 600)
        gn = rng.integers(1, 4, 600) * 1e-13
        out = _dedup(fidx, x, y, gn, DEDUP_RADIUS)
        assert out.tolist() == _greedy_dedup(fidx, x, y, gn)
        assert 5 * len(centers) <= len(out) < 300


def _eight_neighbour_min_mask(v):
    """Reference: v <= the least of its 8 neighbours, inf off the edges."""
    p = np.pad(v, [(0, 0)] * (v.ndim - 2) + [(1, 1), (1, 1)], constant_values=np.inf)
    rows, cols = v.shape[-2:]
    least = np.full(v.shape, np.inf)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                least = np.minimum(least, p[..., 1 + di : 1 + di + rows, 1 + dj : 1 + dj + cols])
    return v <= least


class TestSeeding:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 1), (2, 2), (3, 7, 9), (2, 33, 33)])
    def test_local_min_mask_is_eight_neighbour_minimum(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        # few distinct values, so ties are common, and +-inf and NaN,
        # on edge cells too
        v = rng.integers(0, 4, shape).astype(float)
        flat = v.reshape(-1)
        for value, step in ((np.inf, 7), (-np.inf, 11), (np.nan, 13)):
            flat[rng.integers(0, flat.size, 1 + flat.size // step)] = value
        got = _local_min_mask(v)
        assert got.dtype == bool and got.shape == v.shape
        assert np.array_equal(got, _eight_neighbour_min_mask(v))

    def test_local_min_mask_edges_and_nan(self):
        v = np.array([[1.0, 2.0, 1.0], [3.0, np.nan, 3.0], [0.0, 5.0, np.inf]])
        assert _local_min_mask(v).tolist() == [[False] * 3] * 3
        v[1, 1] = 4.0
        assert _local_min_mask(v).tolist() == [[True, False, True], [False, False, False],
                                               [True, False, False]]
        assert _local_min_mask(np.full((1, 2, 2), np.inf)).all()

    @pytest.mark.parametrize("g,folds", [
        (build_field(EQ3.to_wavefront()).G.coeffs[..., None], [3]),
        (build_field(HIGHORDER).G.coeffs[..., None], [12]),
        (three_term_stacks(5, *_coefficients([ABParams(0.2, 0.2, 0.07, 5),
                                              ABParams(-0.1, 0.2, 0.05, 5),
                                              ABParams(0.05, 0.2, -0.3, 5)])), [5]),
        # a 6-fold field is 2- and 3-fold too, and is seeded on each of
        # those folds' crops
        (three_term_stacks(6, *_coefficients([ABParams(0.0, 0.2, 0.19, 6),
                                              ABParams(-0.1, 0.2, 0.05, 6),
                                              ABParams(0.3, 0.2, -0.2, 6)])), [6, 3, 2]),
    ], ids=["3star", "highorder", "three-term batch", "mixed folds"])
    def test_collect_seeds_each_once(self, g, folds):
        # the stack at each of its folds, then with no fold
        grad = _stack([derivative(g, 0), derivative(g, 1)])
        for fold in folds + [1]:
            _check_seeds(grad, 1.0, fold, _collect_seeds(grad, 1.0, fold))

    def test_collect_seeds_on_corpus_and_scalings(self, monkeypatch):
        # every seed grid of the pinned corpus, and the fixtures at the
        # coefficient scales of TestCoefficientScale, with each field's own
        # fold and with none
        checked = []

        def spy(grad, radius, fold):
            got = _collect_seeds(grad, radius, fold)
            _check_seeds(grad, radius, fold, got)
            checked.append(grad.shape[-1])
            return got

        monkeypatch.setattr(hessian, "_collect_seeds", spy)
        stacks = corpus_stacks() + scaled_stacks()
        for _, g, fold in stacks:
            census_from_stacks(g, fold)
            census_from_stacks(g, 1)
        assert sum(checked) == 2 * sum(len(names) for names, _, _ in stacks)

    def test_scales_read_on_each_fields_own_crop(self):
        # fields of folds 6, 3, 2 and 1 read their |grad G| scales on their
        # own fold's crop
        ws = [ABParams(0.0, 0.2, 0.19, 6).to_wavefront(),
              WaveAberration((ZernikeTerm(4, 0, 0.2), ZernikeTerm(3, -3, 0.1))),
              WaveAberration((ZernikeTerm(4, 0, 0.2), ZernikeTerm(2, 2, 0.1),
                              ZernikeTerm(6, -2, 0.05))),
              DEGREE12]
        fields = [build_field(w) for w in ws]
        assert [f.fold for f in fields] == [6, 3, 2, 1]
        g = _stack([f.G.coeffs for f in fields])
        xs, ys = _grid_axes(1.0)
        gx, gy = grid_values(_stack([derivative(g, 0), derivative(g, 1)]), xs, ys)
        crops = [_own_crop_reference(xs, ys, f.fold, 1.0) for f in fields]
        censuses = [census_from_stacks(f.G.coeffs[..., None], f.fold)[0] for f in fields]
        assert [c.gradient_scale for c in censuses] == [
            np.hypot(a, b)[c].max() for a, b, c in zip(gx, gy, crops)]
        # the 3-fold field's crop misses the whole square's largest |grad G|
        assert censuses[1].gradient_scale < np.hypot(gx[1], gy[1]).max()

    def test_sign_change_cells_match_two_passes(self):
        # few distinct values, so that cells with zeros, -0.0, NaN and +-inf
        # corners are common
        rng = np.random.default_rng(29)
        values = np.array([-np.inf, -2.0, -0.0, 0.0, 1.0, np.inf, np.nan])
        for shape in ((1, 2, 2), (3, 9, 7), (2, 65, 65)):
            gx, gy = values[rng.integers(0, len(values), (2,) + shape)]
            got = _sign_change_cells(gx, gy)
            assert got.shape == (shape[0], shape[1] - 1, shape[2] - 1)
            assert np.array_equal(got, _two_pass_sign_change_cells(gx, gy))
        assert got.any() and not got.all()
        z = np.array([[[1.0, -0.0], [0.0, 2.0]]])  # -0.0 is not negative
        assert not _sign_change_cells(z, -z)[0, 0, 0]
        assert _sign_change_cells(z - 1.5, 1.5 - z)[0, 0, 0]

    def test_newton_matches_reference(self, monkeypatch):
        # the compacted loop gives every seed's best iterate and |grad G|
        # bit for bit as the loop that gathers through the running indices,
        # on the seeds and on the turned copies of the orbit completion
        checked = []

        def spy(newton, fidx, x, y, radius, accept_tol, floor_tol):
            got = _newton(newton, fidx, x, y, radius, accept_tol, floor_tol)
            want = newton_reference(newton, fidx, x, y, radius, accept_tol, floor_tol)
            for a, b in zip(got, want):
                assert np.array_equal(a.view(np.int64), b.view(np.int64))
            checked.append(len(x))
            return got

        monkeypatch.setattr(hessian, "_newton", spy)
        stacks = corpus_stacks() + scaled_stacks()
        tally = {"whole": [], "sector": []}
        for _, g, sector_fold in stacks:
            for name, fold in (("whole", 1), ("sector", sector_fold)):
                checked.clear()
                census_from_stacks(g, fold)
                # one seed call and one copy call per census
                assert len(checked) == 2
                tally[name] += checked
        seeds, no_copies, sector, copies = (tally[name][k::2] for name in tally for k in (0, 1))
        assert not any(no_copies)
        assert sum(seeds) > 20_000 and sum(sector) > 5_000 and sum(copies) > 1_000


def _two_pass_sign_change_cells(gx, gy):
    """Reference: cells with a positive and a negative corner, in gx and in
    gy, each sign tested on its own pass."""
    def changes(v):
        pos, neg = ((s[..., :-1, :-1] | s[..., 1:, :-1] | s[..., :-1, 1:] | s[..., 1:, 1:])
                    for s in (v > 0, v < 0))
        return pos & neg
    return changes(gx) & changes(gy)


def _check_seeds(grad, radius, fold, got):
    """``got``, the seeds and gradient scales of `_collect_seeds` for the
    (DX, DY, 2, fields) stack ``grad`` whose fields share the fold
    ``fold``, against a reference that takes its minima on np.hypot(gx, gy)
    over each pass's whole grid: every pass seeds the centre of each cell
    where Gx and Gy both change sign, each corner node of those cells and
    each local minimum of |grad G|, and nothing twice; a field of fold
    g >= 2 keeps the seeds with 0 <= atan2(x, y) < 2 pi / g and one at the
    centre; the scale is the largest hypot on the field's own crop of the
    zoom-1 grid (`_own_crop_reference`).  The kernel takes its minima on
    gx^2 + gy^2, so its mask could differ from this one where two
    neighbouring nodes' |grad G| agree to a few ulps (or both lie below
    2^-511 of the largest); no grid checked here holds such a pair."""
    def key(f, x, y):
        return int(f), x.view(np.int64).item(), y.view(np.int64).item()

    def in_sector(x, y):
        return fold <= 1 or math.atan2(x, y) % (2.0 * math.pi) < 2.0 * math.pi / fold

    *seeds, gscale = got
    seeds = list(map(key, *seeds))
    assert len(set(seeds)) == len(seeds)
    want = {key(f, np.float64(0.0), np.float64(0.0))
            for f in range(grad.shape[-1] if fold >= 2 else 0)}
    n_cells = 0
    for zoom in _ZOOM_FACTORS:
        xs, ys = _grid_axes(radius * zoom)
        gx, gy = grid_values(grad, xs, ys)
        h = 2.0 * radius * zoom / _GRID_SIZE
        cells = np.ones((grad.shape[-1], _GRID_SIZE, _GRID_SIZE), dtype=bool)
        for v in (gx, gy):
            corners = np.array([v[:, i:i + _GRID_SIZE, j:j + _GRID_SIZE]
                                for i in (0, 1) for j in (0, 1)])
            cells &= (corners.min(axis=0) < 0) & (corners.max(axis=0) > 0)
        norm = np.hypot(gx, gy)
        if zoom == 1.0:
            crop = _own_crop_reference(xs, ys, fold, radius)
            assert np.array_equal(gscale, [v[crop].max() for v in norm])
        nodes = _eight_neighbour_min_mask(norm)
        for f, i, j in zip(*np.nonzero(cells)):
            if in_sector(xs[i] + 0.5 * h, ys[j] + 0.5 * h):
                want.add(key(f, xs[i] + 0.5 * h, ys[j] + 0.5 * h))
            nodes[f, i:i + 2, j:j + 2] = True
        want.update(key(f, xs[i], ys[j]) for f, i, j in zip(*np.nonzero(nodes))
                    if in_sector(xs[i], ys[j]))
        n_cells += np.count_nonzero(cells)
    assert n_cells and set(seeds) == want


def _own_crop_reference(xs, ys, fold, radius):
    """The mask of the nodes of the whole corner grid (xs, ys) on the square
    of half-side ``radius`` where a field of fold g = ``fold`` reads its
    scales: the nodes from -2h on (h the cell size) in x for g >= 2, and in
    y too for g >= 4, which hold the sector 0 <= atan2(x, y) < 2 pi / g;
    every node for g <= 1."""
    h = 2.0 * radius / _GRID_SIZE
    return np.outer(xs >= -2.0 * h if fold >= 2 else np.ones(xs.size, dtype=bool),
                    ys >= -2.0 * h if fold >= 4 else np.ones(ys.size, dtype=bool))


def newton_reference(newton, fidx, x, y, domain_radius, accept_tol, floor_tol):
    """The census's Newton loop as it was before its state was compacted:
    every iteration gathers the running points' state through their
    indices and scatters it back.  `_newton` must match it bit for bit."""
    x, y = x.copy(), y.copy()
    v = gathered_values(newton, fidx, x, y)
    gn = np.hypot(v[0], v[1])
    best_x, best_y, best_gn = x.copy(), y.copy(), gn.copy()
    full = np.full(len(x), -1)
    active = np.isfinite(gn) & (gn > floor_tol)
    for _ in range(_MAX_ITERATIONS):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        fi, xi, yi, polish = fidx[idx], x[idx], y[idx], full[idx] >= 0
        dx, dy = _newton_step(*v[:, idx])
        step = np.hypot(dx, dy)
        ok = np.isfinite(step) & ~(polish & (step > 0.05 * domain_radius))
        dx[~ok] = dy[~ok] = 0.0
        nx, ny = xi + dx, yi + dy
        nv = gathered_values(newton, fi, nx, ny)
        ngn = np.hypot(nv[0], nv[1])
        worse = np.flatnonzero(~polish & ~(ngn <= gn[idx]))
        if worse.size:
            scale = np.cumprod(np.full((_MAX_HALVINGS, 1), _DAMPING), axis=0)
            hx = xi[worse] + scale * dx[worse]
            hy = yi[worse] + scale * dy[worse]
            hv = gathered_values(newton, np.tile(fi[worse], _MAX_HALVINGS),
                                 hx.ravel(), hy.ravel()).reshape(len(nv), _MAX_HALVINGS, -1)
            hgn = np.hypot(hv[0], hv[1])
            better = hgn <= gn[idx[worse]]
            better[-1] = True
            pick = better.argmax(axis=0)
            col = np.arange(worse.size)
            nx[worse], ny[worse] = hx[pick, col], hy[pick, col]
            nv[:, worse], ngn[worse] = hv[:, pick, col], hgn[pick, col]
        improved = ngn < best_gn[idx]
        b = idx[improved]
        best_x[b], best_y[b], best_gn[b] = nx[improved], ny[improved], ngn[improved]
        move = improved | polish
        m = idx[move]
        x[m], y[m], gn[m], v[:, m] = nx[move], ny[move], ngn[move], nv[:, move]
        stalled = ~polish & ~improved
        full[idx[polish]] += 1
        full[idx[stalled & (best_gn[idx] <= accept_tol[idx])]] = 0
        stop = ((stalled & (full[idx] < 0)) | (full[idx] >= _POLISH_ITERATIONS)
                | (polish & (~ok | (step <= 1e-16 * domain_radius)))
                | ~(gn[idx] > floor_tol[idx])
                | (np.hypot(x[idx], y[idx]) > 4.0 * domain_radius))
        active[idx[stop]] = False
    return best_x, best_y, best_gn


# one line per census: name, points, saddles, degenerate flag (0 or 1) and
# each point's class in ring order (s saddle, e extremum, d degenerate; "-"
# for none).  A change that means to mend a census miss regenerates it with
# `PYTHONPATH=src python tests/test_hessian.py` and names the lines that moved.
CENSUS_CORPUS = Path(__file__).parent / "golden" / "census_corpus.txt"


def _field_stack(names, ws):
    """(names, G stack, fold) of `build_field` of wavefronts of one fold."""
    fields = [build_field(w) for w in ws]
    (fold,) = {f.fold for f in fields}
    return names, _stack([f.G.coeffs for f in fields]), fold


def corpus_stacks() -> list[tuple[list[str], np.ndarray, int]]:
    """The pinned corpus as (names, G stack, fold) per census call: the
    five fixtures, highorder, the degree-12 wavefront, the wavefronts of
    TestKnownCensusMisses (as `verify` builds them) and the first 100 `verify`
    draws per n = 3..6 at seed 7, censused 16 at a time as `verify` does."""
    stacks = [_field_stack([name], [ABParams(*row[:4]).to_wavefront()])
              for name, row in FIXTURE_SCENARIOS.items()]
    stacks += [_field_stack([name], [w])
               for name, w in (("highorder", HIGHORDER), ("degree12", DEGREE12))]
    misses = [("rim-ring", RIM_RING)] + [(p.id, *p.values)
                                         for p in TestKnownCensusMisses.DROPPED_EXTREMA]
    stacks += [([name], three_term_stacks(p.n, *_coefficients([p])), p.n)
               for name, p in misses]
    for n in (3, 4, 5, 6):
        draws = [p for p, _ in _verification_samples(n, 0.2, 100, 7)]
        for start in range(0, len(draws), 16):
            chunk = draws[start:start + 16]
            stacks.append(([f"verify-n{n}-{k}" for k in range(start, start + len(chunk))],
                           three_term_stacks(n, *_coefficients(chunk)), n))
    return stacks


# the scalings 2^k of TestCoefficientScale, from the last at which G can be
# squared, and 2^246 near the top of that range.  Unscaled, |grad G|^2 would
# be subnormal on every node of the zoomed grids at 2^-260 and reach 3e305
# at 2^246.
SCALINGS = (-260, -200, -150, -64, -23, -1, 1, 17, 40, 246)


def scaled_stacks() -> list[tuple[list[str], np.ndarray, int]]:
    """Each fixture at every scaling of SCALINGS, one batch per fixture."""
    return [_field_stack([f"{name}*2^{k}" for k in SCALINGS],
                         [_scaled_fixture(name, k).to_wavefront() for k in SCALINGS])
            for name in FIXTURE_SCENARIOS]


def census_corpus_lines() -> list[str]:
    """One line per census of `corpus_stacks`."""
    return [f"{name} {len(c)} {len(c.saddles)} {int(c.degenerate)} "
            f"{''.join(p.kind.value[0] for p in c) or '-'}"
            for names, g, fold in corpus_stacks()
            for name, c in zip(names, census_from_stacks(g, fold))]


class TestCensusCorpus:
    def test_counts_classes_and_flags_are_pinned(self):
        want = CENSUS_CORPUS.read_text(encoding="utf-8").splitlines()
        assert census_corpus_lines() == want


if __name__ == "__main__":
    CENSUS_CORPUS.write_text("\n".join(census_corpus_lines()) + "\n", encoding="utf-8")

import dataclasses
import math
import tracemalloc
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
    find_critical_points_batch,
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
    _PAIRS,
    _POLISH_ITERATIONS,
    DEDUP_RADIUS,
    DEGENERACY_REL_THRESHOLD,
    GRADIENT_TOL,
    _GRID_SIZE,
    _ZOOM_FACTORS,
    _collect_seeds,
    _grid_axes,
    _dedup,
    _local_min_mask,
    _newton,
    _newton_step,
    _pair_basis,
    _sign_change_cells,
    _stack,
)
from starburst.zernike import BivariatePolynomial, derivative, gathered_values, grid_values

EQ3 = ABParams(0.0, 0.2, 0.2, 3)
# perfbench's highorder wavefront: G has degree 20
HIGHORDER = WaveAberration((ZernikeTerm(4, 0, 0.2), ZernikeTerm(12, 12, 0.02),
                            ZernikeTerm(2, 0, 0.02)))
# 130 isolated critical points (68 saddles, 61 extrema, 1 degenerate), which
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
        assert field.G.is_zero

    def test_degree_bound(self):
        field = build_field(EQ3.to_wavefront())
        assert field.G.degree == 4  # 2 (deg W - 2) with deg W = 4

    def test_determinant_identity_in_coefficients(self):
        w = WaveAberration(
            (ZernikeTerm(2, 0, 0.1), ZernikeTerm(4, 0, 0.2), ZernikeTerm(5, 5, 0.07))
        )
        field = build_field(w)
        wxx, wxy, wyy = (field.W.differentiate(u).differentiate(v) for u, v in ("xx", "xy", "yy"))
        product = wxx * wyy - wxy * wxy
        diff = field.G - product
        assert diff.is_zero

    def test_field_holds_the_four_polynomials_the_pipeline_reads(self):
        assert tuple(f.name for f in dataclasses.fields(HessianField)) == (
            "W", "Wx", "Wy", "G", "fold")
        field = build_field(EQ3.to_wavefront())
        assert field.fold == 3
        assert np.array_equal(field.Wx.coeffs, field.W.differentiate("x").coeffs)
        assert np.array_equal(field.Wy.coeffs, field.W.differentiate("y").coeffs)

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
        a = analyses["4star"]
        threshold = DEGENERACY_REL_THRESHOLD * a.search.g_scale**2
        for p in a.search.points:
            det = det_hess_g(a.field, p.x, p.y)
            kind = (PointClass.SADDLE if det < -threshold else
                    PointClass.EXTREMUM if det > threshold else PointClass.DEGENERATE)
            assert kind is p.kind
            assert det == pytest.approx(p.hess_g_det, rel=1e-12)

    def test_highorder_census(self):
        # G of degree 20: each grid node is seeded once, however many of its
        # cells change sign, and each seed counts once in the message.  The
        # 12-fold census solves one sector's seeds, which all converge.
        field = build_field(HIGHORDER)
        for fold, message in ((12, ""), (1, "3 of 447 seeds did not converge")):
            search = find_critical_points(dataclasses.replace(field, fold=fold))
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
        census = find_critical_points(build_field(ABParams(*FIXTURE_SCENARIOS[name][:4])
                                                  .to_wavefront()))
        off = len(census) - 1
        assert off % n and not census.degenerate
        assert census.message == (
            f"off-centre count {off} is not a multiple of the {n}-fold symmetry")

    @pytest.mark.parametrize("folds", [-1, 2.0, [3, 3], [[3]], True])
    def test_folds_checked(self, folds):
        g = build_field(EQ3.to_wavefront()).G.coeffs[..., None]
        with pytest.raises(ValueError, match="folds must be one non-negative integer per field"):
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

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("alpha", [0.0, -0.1])
    def test_near_axial_flagged_or_complete(self, alpha, n):
        # alpha Z_2^0 + 0.2 Z_4^0 + 1e-10 Z_n^n has 1 + 2n critical points,
        # the centre and a ring of n per family; today the point-count limit
        # flags it, and a census without that limit must still flag it or
        # find them all (ROADMAP items 2 and 13)
        (census,) = census_from_stacks(three_term_stacks(
            n, *_coefficients([ABParams(alpha, 0.2, 1e-10, n)])), n)
        assert census.degenerate or len(census) == 1 + 2 * n


# (n, alpha, gamma) of W = alpha Z_2^0 + 0.2 Z_4^0 + gamma Z_n^n on which the
# census returns a wrong count today, with the count it returns
NEAR_AXIAL_MISSES = {
    (3, 0.0, 1e-9): 14, (3, -0.1, 1e-9): 23, (4, 0.0, 1e-9): 5, (6, 0.0, 1e-9): 7,
    (3, -0.1, 1e-7): 1, (4, 0.0, 1e-7): 5, (4, -0.1, 1e-7): 5, (5, 0.0, 1e-7): 6,
    (6, 0.0, 1e-7): 7,
}


def _near_axial_case(n, alpha, gamma):
    got = NEAR_AXIAL_MISSES.get((n, alpha, gamma))
    marks = () if got is None else pytest.mark.xfail(
        strict=True, reason=f"the census returns {got} points, with no degenerate flag "
        "(ROADMAP item 13)")
    return pytest.param(n, alpha, gamma, id=f"n{n}-a{alpha}-g{gamma}", marks=marks)


class TestNearAxial:
    # ROADMAP item 13: alpha Z_2^0 + 0.2 Z_4^0 + gamma Z_n^n has 1 + 2n
    # isolated critical points, the centre and a ring of n per family
    @pytest.mark.parametrize("n,alpha,gamma", [
        _near_axial_case(n, alpha, gamma)
        for gamma in (1e-9, 1e-7, 1e-5) for n in SUPPORTED_ORDERS for alpha in (0.0, -0.1)])
    def test_one_plus_two_n_points(self, n, alpha, gamma):
        census = _census(ABParams(alpha, 0.2, gamma, n), "pair_basis")
        assert not census.degenerate
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


class TestRescaleInvariance:
    @pytest.mark.parametrize("factor", [0.5, 2.0, 3.5])
    def test_fixture_rescaling(self, factor):
        report = rescale_check(EQ3.to_wavefront(), factor)
        assert report.passed
        assert report.count == 7
        assert report.max_position_error < 1e-8

    @pytest.mark.parametrize("name", [*sorted(FIXTURE_SCENARIOS), "highorder"])
    def test_power_of_two_dilation_is_exact(self, name):
        # every census length is a fraction of the domain radius, so the
        # census on the disk of radius 2^k is the unit census times 2^k
        w = HIGHORDER if name == "highorder" else ABParams(
            *FIXTURE_SCENARIOS[name][:4]).to_wavefront()
        base = find_critical_points(build_field(w))
        for k in (-30, -20, 12, 20, 30):
            report = rescale_check(w, math.ldexp(1.0, k))
            assert (report.passed, report.max_position_error, report.message) == (
                True, 0.0, ""), k
            # angles, centre and rim flags too
            r = math.ldexp(1.0, k)
            scaled = find_critical_points(
                field_from_polynomial(w.to_polynomial().rescale_domain(r), w.fold_order()), r)
            assert [(p.x / r, p.y / r, p.rho / r, p.theta, p.kind, p.on_boundary)
                    for p in scaled] == [(p.x, p.y, p.rho, p.theta, p.kind, p.on_boundary)
                                         for p in base], k

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
        base, *scaled = find_critical_points_batch(
            [build_field(_scaled_fixture(name, k).to_wavefront()) for k in ks])
        for k, got in zip(ks[1:], scaled):
            assert _census_key(got) == _census_key(base), k
            assert [p.g_value for p in got] == [math.ldexp(p.g_value, 2 * k) for p in base]
            assert [p.hess_g_det for p in got] == [
                math.ldexp(p.hess_g_det, 4 * k) for p in base]

    def test_underflowing_scale_rejected(self):
        # the last scale whose squared G stays a normal float still gives
        # the full census; below it the census would lose its digits
        census = find_critical_points(build_field(_scaled_fixture("3star", -260).to_wavefront()))
        assert (len(census), len(census.saddles), census.message) == (7, 3, "")
        # at 2^-262 twice the square of G's bound is subnormal, although
        # Hess G's larger one is not
        with pytest.raises(ValueError, match="underflow the Hessian determinant"):
            find_critical_points(build_field(_scaled_fixture("3star", -262).to_wavefront()))
        tiny = _scaled_fixture("3star", -270)
        with pytest.raises(ValueError, match="underflow the Hessian determinant"):
            find_critical_points(build_field(tiny.to_wavefront()))
        with pytest.raises(ValueError, match="underflow the Hessian determinant"):
            census_from_stacks(three_term_stacks(3, *_coefficients([EQ3, tiny])), 3)

    def test_census_guards_hand_built_stacks(self):
        # every finite coefficient, but twice the square of the bound of G
        # on the unit square overflows
        g = np.array(three_term_stacks(3, *_coefficients([EQ3, EQ3])))
        g[0, 0, 1] = 1e155
        assert np.isfinite(g).all()
        with pytest.raises(ValueError, match="overflow the Hessian determinant"):
            census_from_stacks(g, 3)
        g[0, 0, 1] = np.nan
        with pytest.raises(ValueError, match="overflow the Hessian determinant"):
            census_from_stacks(g, 3)

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
        # a pair weight that underflows beside normal ones leaves G normal
        (census,) = census_from_stacks(three_term_stacks(3, *_coefficients(
            [ABParams(1e-300, 0.2, 0.2, 3)])), 3)
        assert (len(census), len(census.saddles)) == (7, 3)


# verify --n 4 --beta 0.2 --samples 1000 --seed 4: the closed form puts the
# even family's 4 saddles on a ring at rho = 0.987838, next to the rim
RIM_RING = ABParams(0.6240191031801114, 0.2, -0.8342619035157544, 4)


def _census(params, path):
    """The census of a three-term wavefront through `build_field` or the
    pair basis."""
    if path == "build_field":
        return find_critical_points(build_field(params.to_wavefront()))
    (census,) = census_from_stacks(three_term_stacks(params.n, *_coefficients([params])),
                                   params.n)
    return census


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

    @pytest.mark.parametrize("path", ["build_field", "pair_basis"])
    def test_near_rim_ring_saddles_found(self, path):
        params = self.NEAR_RIM_RING
        census = _census(params, path)
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

    @pytest.mark.parametrize("path", ["build_field", "pair_basis"])
    def test_near_rim_ring_5_saddles_found(self, path):
        params = self.NEAR_RIM_RING_5
        census = _census(params, path)
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

    @pytest.mark.parametrize("path", ["build_field", "pair_basis"])
    @pytest.mark.parametrize("params", DROPPED_EXTREMA)
    def test_extremum_rings_found(self, params, path):
        census = _census(params, path)
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

    @pytest.mark.parametrize("path", ["build_field", "pair_basis"])
    def test_small_saddle_ring_found(self, path):
        params = self.SMALL_RING
        census = _census(params, path)
        radii = saddle_radii(params)
        assert [sum(abs(p.rho - r) < 1e-6 for p in census)
                for r in radii.even + radii.odd] == [6, 6]
        assert len(census.saddles) == 6 and len(census) == 13

    # alpha just below sqrt(15) beta, where A's constant term vanishes: the
    # closed form puts a ring of saddles within rho = 0.01 of the centre.
    # The cases lie 2.6e-5, 2.6e-5 and 2.6e-4 from a boundary in units of
    # beta, inside verify's band, so verify never draws them
    SMALL_CENTRAL_RINGS = {
        "n5-odd-at-0.002933": (
            ABParams(0.7745766692414834, 0.2, 0.04000000000000001, 5), (("odd", 0.002933),),
            "the census returns 20 points, none a saddle, and reports an incomplete "
            "orbit (ROADMAP items 1, 2 and 4)"),
        "n5-two-rings": (
            ABParams(0.7745766692414834, 0.2, 0.2, 5), (("odd", 0.002929), ("even", 0.625974)),
            "the census returns the 10 saddles but 17 points, and reports an "
            "incomplete orbit (ROADMAP items 1, 2 and 4)"),
        "n6-odd-at-0.009277": (
            ABParams(0.7743966692414834, 0.2, 0.04000000000000001, 6), (("odd", 0.009277),),
            "the census flags the isolated set as non-isolated (81 deduplicated "
            "points; ROADMAP item 2)"),
    }

    @pytest.mark.parametrize("case", SMALL_CENTRAL_RINGS)
    def test_small_central_ring_prediction(self, case):
        params, rings, _ = self.SMALL_CENTRAL_RINGS[case]
        pred = predict_saddles(params)
        assert (pred.families, pred.boundary, pred.warnings) == (
            tuple(f for f, _ in rings), False, ())
        assert [r.rho for r in pred.rings] == [pytest.approx(rho, abs=1e-6)
                                               for _, rho in rings]
        assert 0.0 < pred.boundary_slack < _VERIFY_BAND

    @pytest.mark.parametrize("path", ["build_field", "pair_basis"])
    @pytest.mark.parametrize("case", [
        pytest.param(case, marks=pytest.mark.xfail(strict=True, reason=reason))
        for case, (_, _, reason) in SMALL_CENTRAL_RINGS.items()])
    def test_small_central_ring_found(self, case, path):
        params = self.SMALL_CENTRAL_RINGS[case][0]
        census = _census(params, path)
        pred = predict_saddles(params)
        assert not census.degenerate and census.message == ""
        assert len(census.saddles) == pred.count
        for ring in pred.rings:
            assert sum(abs(p.rho - ring.rho) < 1e-6 for p in census.saddles) == params.n


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


class TestBatchedCensus:
    """A batch gives each field its own census, to the last bit."""

    @pytest.mark.parametrize("batch", [2, 7, 32])
    def test_batch_repr_equals_single(self, batch):
        fields = _mixed_fields(batch, 40)
        order = np.random.default_rng(batch + 1).permutation(len(fields))
        shuffled = [fields[k] for k in order]
        batched = []
        for start in range(0, len(shuffled), batch):
            batched += find_critical_points_batch(shuffled[start : start + batch])
        single = [find_critical_points(f) for f in shuffled]
        assert [repr(r) for r in batched] == [repr(r) for r in single]
        assert any(r.degenerate for r in single) and any(r.saddles for r in single)

    def test_repeated_fields(self):
        # the same field twice gives the same seeds in two fields: each is
        # run, counted and deduplicated in its own field
        f, g = _mixed_fields(11, 7)[5:7]
        batched = find_critical_points_batch([f, f, g, f])
        single = [find_critical_points(h) for h in (f, f, g, f)]
        assert [repr(r) for r in batched] == [repr(r) for r in single]
        assert len(batched[0]) > 0

    def test_dilated_domain(self):
        fields = _mixed_fields(3, 9)
        batched = find_critical_points_batch(fields, domain_radius=2.5)
        single = [find_critical_points(f, domain_radius=2.5) for f in fields]
        assert [repr(r) for r in batched] == [repr(r) for r in single]

    def test_empty_batch(self):
        assert find_critical_points_batch([]) == []

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_invalid_domain_radius(self, radius):
        field = build_field(EQ3.to_wavefront())
        with pytest.raises(ValueError, match="domain_radius"):
            find_critical_points(field, radius)
        with pytest.raises(ValueError, match="domain_radius"):
            find_critical_points_batch([field, field], radius)

    def test_padded_g_stack(self):
        # trailing zero rows and columns of G change no census
        fields = _mixed_fields(5, 9)
        g = _stack([f.G.coeffs for f in fields])
        folds = [f.fold for f in fields]
        padded = np.zeros((g.shape[0] + 3, g.shape[1] + 2, g.shape[2]))
        padded[: g.shape[0], : g.shape[1]] = g
        assert [repr(r) for r in census_from_stacks(padded, folds)] == [
            repr(r) for r in census_from_stacks(g, folds)]

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
            G=poly([[0.0, 0.0, D / 2], [0.0, B, 0.0], [A / 2, 0.0, 0.0]]), fold=1,
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
        fields = [build_field(w) for w in _symmetric_wavefronts(20261019, 60)]
        folds = [f.fold for f in fields]
        assert min(folds) >= 2 and set(folds) >= {2, 3, 4, 5, 6}
        g = _stack([f.G.coeffs for f in fields])
        matched = 0
        for whole, sector, fold in zip(census_from_stacks(g, 1), census_from_stacks(g, folds),
                                       folds, strict=True):
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
    """`verify` builds W = alpha Z_2^0 + beta Z_4^0 + gamma Z_n^n from a
    cached pair basis; `build_field` of the same W is the reference."""

    # alpha = 0 and gamma = 0 drop a term from to_wavefront; gamma < 0
    COEFFS = [(-0.3, 0.2, 0.15), (0.0, 0.2, 0.2), (0.25, 0.1, 0.0),
              (0.1, 0.3, -0.12), (0.0, 0.2, 0.0), (-1.1, 0.05, -0.4)]

    @pytest.mark.parametrize("n", SUPPORTED_ORDERS)
    def test_stacks_match_build_field(self, n):
        params = [ABParams(a, b, g, n) for a, b, g in self.COEFFS]
        got = three_term_stacks(n, *_coefficients(params))
        want = _stack([build_field(p.to_wavefront()).G.coeffs for p in params])
        shape = np.maximum(got.shape, want.shape)
        got, want = _padded(got, shape), _padded(want, shape)
        scale = np.max(np.abs(want), axis=(0, 1))
        assert np.all(scale > 0)
        assert np.all(np.max(np.abs(got - want), axis=(0, 1)) <= 1e-13 * scale)

    @pytest.mark.parametrize("n", SUPPORTED_ORDERS)
    def test_defocus_and_harmonic_pair_vanishes(self, n):
        # Hess Z_2^0 is a constant multiple of the identity and Z_n^n is
        # harmonic, so the alpha * gamma pair, a multiple of the Laplacian
        # of Z_n^n, is zero
        basis = _pair_basis(n)
        pair = basis[..., _PAIRS.index((0, 2))]
        assert np.max(np.abs(pair)) <= 1e-13 * np.max(np.abs(basis))

    @pytest.mark.parametrize("n", SUPPORTED_ORDERS)
    def test_census_matches_build_field(self, n):
        params = [p for p, _ in _verification_samples(n, 0.2, 200, seed=70 + n)]
        for start in range(0, len(params), 50):
            chunk = params[start : start + 50]
            basis = census_from_stacks(three_term_stacks(n, *_coefficients(chunk)), n)
            fields = find_critical_points_batch([build_field(p.to_wavefront()) for p in chunk])
            for got, want in zip(basis, fields, strict=True):
                assert got.degenerate == want.degenerate
                assert len(got) == len(want)
                # ring members share rho, so their order is rounding: match
                # each point to the nearest of the reference
                a = np.array([(p.x, p.y) for p in got]).reshape(-1, 2)
                b = np.array([(p.x, p.y) for p in want]).reshape(-1, 2)
                dist = np.hypot(*(a[:, None, :] - b[None, :, :]).transpose(2, 0, 1))
                match = np.argmin(dist, axis=1) if len(b) else np.array([], dtype=int)
                assert sorted(match.tolist()) == list(range(len(b)))
                assert np.all(dist[np.arange(len(a)), match] <= 1e-10)
                assert [p.kind for p in got] == [want.points[j].kind for j in match]

    def test_scalar_coefficients_are_not_a_stack(self):
        # scalars contract to one (DX, DY) polynomial, not a stack of fields
        with pytest.raises(ValueError, match="coefficient stack"):
            census_from_stacks(three_term_stacks(3, 0.0, 0.2, 0.2), 3)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            census_from_stacks(three_term_stacks(3, [0.0], [1e150], [1e150]), 3)
        with pytest.raises(ValueError, match="overflow"):
            find_critical_points(build_field(ABParams(0.0, 1e150, 1e150, 3).to_wavefront()))

    def test_cached_bases_stay_small(self):
        # a cache of per-pair seed grids would hold megabytes
        _pair_basis.cache_clear()
        tracemalloc.start()
        try:
            for n in SUPPORTED_ORDERS:
                _pair_basis(n)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 256 * 1024


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
                                              ABParams(0.05, 0.2, -0.3, 5)])), [5, 5, 5]),
        # a 6-fold field is 2- and 3-fold too: the grids hold the half-plane
        # of the smallest fold, each field keeps its own sector
        (three_term_stacks(6, *_coefficients([ABParams(0.0, 0.2, 0.19, 6),
                                              ABParams(-0.1, 0.2, 0.05, 6),
                                              ABParams(0.3, 0.2, -0.2, 6)])), [6, 3, 2]),
    ], ids=["3star", "highorder", "three-term batch", "mixed folds"])
    def test_collect_seeds_each_once(self, g, folds):
        grad = _stack([derivative(g, 0), derivative(g, 1)])
        for fold in (np.array(folds), np.ones(len(folds), dtype=int)):
            grid = grid_values(grad, *_grid_axes(1.0))
            _check_seeds(grad, 1.0, fold, _collect_seeds(grad, 1.0, grid, fold))

    def test_collect_seeds_on_corpus_and_scalings(self, monkeypatch):
        # every seed grid of the pinned corpus, and the fixtures at the
        # coefficient scales of TestCoefficientScale, with each field's own
        # fold and with none
        checked = []

        def spy(grad, radius, base, fold):
            got = _collect_seeds(grad, radius, base, fold)
            _check_seeds(grad, radius, fold, got)
            checked.append(grad.shape[-1])
            return got

        monkeypatch.setattr(hessian, "_collect_seeds", spy)
        stacks = corpus_stacks() + scaled_stacks()
        for _, g, folds in stacks:
            census_from_stacks(g, folds)
            census_from_stacks(g, 1)
        assert sum(checked) == 2 * sum(len(names) for names, _, _ in stacks)

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
        for _, g, folds in stacks:
            census_from_stacks(g, 1)
            census_from_stacks(g, folds)
        # per stack: the whole grid's seeds, its (no) copies, the sector's
        # seeds and its copies
        seeds, _, sector, copies = (checked[k::4] for k in range(4))
        assert len(checked) == 4 * len(stacks)
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
    (DX, DY, 2, fields) stack ``grad`` and the fields' folds, against a
    reference that takes its minima on np.hypot(gx, gy) over each pass's
    whole grid: every pass seeds the centre of each cell where Gx and Gy
    both change sign, each corner node of those cells and each local
    minimum of |grad G|, and nothing twice; a field of fold g >= 2 keeps
    the seeds with 0 <= atan2(x, y) < 2 pi / g and one at the centre; the
    scale is the largest hypot on the zoom-1 grid.  The kernel takes its
    minima on gx^2 + gy^2, so its mask could differ from this one where two
    neighbouring nodes' |grad G| agree to a few ulps (or both lie below
    2^-511 of the largest); no grid checked here holds such a pair."""
    def key(f, x, y):
        return int(f), x.view(np.int64).item(), y.view(np.int64).item()

    def in_sector(f, x, y):
        g = int(fold[f])
        return g <= 1 or math.atan2(x, y) % (2.0 * math.pi) < 2.0 * math.pi / g

    *seeds, gscale = got
    seeds = list(map(key, *seeds))
    assert len(set(seeds)) == len(seeds)
    want = {key(f, np.float64(0.0), np.float64(0.0)) for f in np.flatnonzero(fold >= 2)}
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
            assert np.array_equal(gscale, norm.max(axis=(1, 2)))
        nodes = _eight_neighbour_min_mask(norm)
        for f, i, j in zip(*np.nonzero(cells)):
            if in_sector(f, xs[i] + 0.5 * h, ys[j] + 0.5 * h):
                want.add(key(f, xs[i] + 0.5 * h, ys[j] + 0.5 * h))
            nodes[f, i:i + 2, j:j + 2] = True
        want.update(key(f, xs[i], ys[j]) for f, i, j in zip(*np.nonzero(nodes))
                    if in_sector(f, xs[i], ys[j]))
        n_cells += np.count_nonzero(cells)
    assert n_cells and set(seeds) == want


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
    """(names, G stack, folds) of `build_field` of each wavefront."""
    fields = [build_field(w) for w in ws]
    return names, _stack([f.G.coeffs for f in fields]), [f.fold for f in fields]


def corpus_stacks() -> list[tuple[list[str], np.ndarray, list[int]]]:
    """The pinned corpus as (names, G stack, folds) per census call: the
    five fixtures, highorder, the degree-12 wavefront, the wavefronts of
    TestKnownCensusMisses (from the pair basis) and the first 100 `verify`
    draws per n = 3..6 at seed 7, censused 16 at a time as `verify` does."""
    stacks = [_field_stack([name], [ABParams(*row[:4]).to_wavefront()])
              for name, row in FIXTURE_SCENARIOS.items()]
    stacks += [_field_stack([name], [w])
               for name, w in (("highorder", HIGHORDER), ("degree12", DEGREE12))]
    misses = [("rim-ring", RIM_RING)] + [(p.id, *p.values)
                                         for p in TestKnownCensusMisses.DROPPED_EXTREMA]
    stacks += [([name], three_term_stacks(p.n, *_coefficients([p])), [p.n])
               for name, p in misses]
    for n in (3, 4, 5, 6):
        draws = [p for p, _ in _verification_samples(n, 0.2, 100, 7)]
        for start in range(0, len(draws), 16):
            chunk = draws[start:start + 16]
            stacks.append(([f"verify-n{n}-{k}" for k in range(start, start + len(chunk))],
                           three_term_stacks(n, *_coefficients(chunk)), [n] * len(chunk)))
    return stacks


# the scalings 2^k of TestCoefficientScale, from the last at which G can be
# squared, and 2^246 near the top of that range.  Unscaled, |grad G|^2 would
# be subnormal on every node of the zoomed grids at 2^-260 and reach 3e305
# at 2^246.
SCALINGS = (-260, -200, -150, -64, -23, -1, 1, 17, 40, 246)


def scaled_stacks() -> list[tuple[list[str], np.ndarray, list[int]]]:
    """Each fixture at every scaling of SCALINGS, one batch per fixture."""
    return [_field_stack([f"{name}*2^{k}" for k in SCALINGS],
                         [_scaled_fixture(name, k).to_wavefront() for k in SCALINGS])
            for name in FIXTURE_SCENARIOS]


def census_corpus_lines() -> list[str]:
    """One line per census of `corpus_stacks`."""
    return [f"{name} {len(c)} {len(c.saddles)} {int(c.degenerate)} "
            f"{''.join(p.kind.value[0] for p in c) or '-'}"
            for names, g, folds in corpus_stacks()
            for name, c in zip(names, census_from_stacks(g, folds))]


class TestCensusCorpus:
    def test_counts_classes_and_flags_are_pinned(self):
        want = CENSUS_CORPUS.read_text(encoding="utf-8").splitlines()
        assert census_corpus_lines() == want


if __name__ == "__main__":
    CENSUS_CORPUS.write_text("\n".join(census_corpus_lines()) + "\n", encoding="utf-8")

import math

import numpy as np
import pytest

from conftest import circular_deviation
from starburst import (
    ABParams,
    CapabilityError,
    PointClass,
    WaveAberration,
    ZernikeTerm,
    build_field,
    classify_point,
    find_critical_points,
    rescale_check,
    saddle_upper_bound,
)
from starburst.hessian import DEDUP_RADIUS, DEGENERACY_REL_THRESHOLD, GRADIENT_TOL

EQ3 = ABParams(0.0, 0.2, 0.2, 3)


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
        product = field.Wxx * field.Wyy - field.Wxy * field.Wxy
        diff = field.G - product
        assert diff.is_zero

    def test_gradient_and_hessian_of_g_are_consistent(self):
        field = build_field(EQ3.to_wavefront())
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.7, 0.7, 500)
        y = rng.uniform(-0.7, 0.7, 500)
        h = 1e-6
        fd_gx = (field.G(x + h, y) - field.G(x - h, y)) / (2 * h)
        fd_gxx = (field.Gx(x + h, y) - field.Gx(x - h, y)) / (2 * h)
        np.testing.assert_allclose(field.Gx(x, y), fd_gx, atol=1e-5)
        np.testing.assert_allclose(field.Gxx(x, y), fd_gxx, atol=1e-5)

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
        tol = GRADIENT_TOL * max(1.0, a.search.gradient_scale)
        for p in a.search.points:
            gx, gy = a.field.grad_g(p.x, p.y)
            assert math.hypot(gx, gy) <= tol

    def test_deduplication_distance(self, analyses):
        pts = analyses["5star"].search.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d = math.hypot(pts[i].x - pts[j].x, pts[i].y - pts[j].y)
                assert d > DEDUP_RADIUS

    def test_ordering_and_determinism(self, analyses):
        a = analyses["6star"]
        keys = [(p.rho, p.theta) for p in a.search.points]
        assert keys == sorted(keys)
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
            kind, det = classify_point(a.field, p.x, p.y, threshold)
            assert kind is p.kind
            assert det == pytest.approx(p.hess_g_det, rel=1e-12)


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

    def test_pure_defocus_vacuous(self):
        report = rescale_check(WaveAberration((ZernikeTerm(2, 0, 0.3),)), 2.0)
        assert report.passed and report.degenerate

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            rescale_check(EQ3.to_wavefront(), 0.0)

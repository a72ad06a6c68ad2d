import math
from types import SimpleNamespace

import numpy as np
import pytest

from starburst import (
    ARCMIN_PER_MRAD,
    BivariatePolynomial,
    EQUALLY_DISTANCED,
    NO_STARBURST,
    NON_EQUALLY_DISTANCED,
    WaveAberration,
    ZernikeTerm,
    build_field,
    extract_contours,
    fertility_report,
    map_caustics,
    map_to_retina,
    starburst_verdict,
    symmetry_order,
)
from starburst.caustics import (
    SymmetryResult,
    _PolylineDistance,
    _rotate,
)


class TestContourExtraction:
    def test_constant_positive_g_yields_empty_set(self):
        field = build_field(WaveAberration((ZernikeTerm(2, 0, 0.3),)))
        contours = extract_contours(field, 128)
        assert len(contours) == 0
        assert not contours.degenerate

    def test_zero_g_flagged_degenerate(self):
        contours = extract_contours(build_field(WaveAberration(())), 128)
        assert contours.degenerate

    def test_resolution_validation(self):
        field = build_field(WaveAberration((ZernikeTerm(2, 0, 0.3),)))
        with pytest.raises(ValueError):
            extract_contours(field, 32)

    def test_vertices_lie_on_zero_level(self, analyses):
        a = analyses["3star"]
        xs = np.linspace(-1, 1, 512)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        lipschitz = float(np.max(np.hypot(a.field.Gx(X, Y), a.field.Gy(X, Y))))
        cell_diag = math.sqrt(2.0) * (xs[1] - xs[0])
        bound = 10.0 * lipschitz * cell_diag
        for poly in a.contours.polylines:
            assert np.max(np.abs(a.field.G(poly[:, 0], poly[:, 1]))) < bound

    def test_vertices_inside_closed_disk(self, analyses):
        for a in analyses.values():
            for poly in a.contours.polylines:
                assert np.max(np.hypot(poly[:, 0], poly[:, 1])) <= 1.0 + 1e-9

    def test_refinement_convergence(self, analyses):
        a = analyses["5star"]
        coarse = extract_contours(a.field, 256)
        fine = a.contours  # 512
        fine_cell_diag = math.sqrt(2.0) * 2.0 / 511
        geom = _PolylineDistance(list(fine.polylines))
        for poly in coarse.polylines:
            d = geom.distances(poly)
            assert np.max(d) < fine_cell_diag

    @pytest.mark.parametrize("eps", [1e-6, -1e-6])
    def test_saddle_cell_follows_center_sign(self, eps):
        # G = xy + eps: at even resolution the origin is a cell center, the
        # corners of that cell alternate in sign, and the center sample must
        # keep each hyperbola branch inside its own pair of quadrants
        G = BivariatePolynomial(np.array([[eps, 0.0], [0.0, 1.0]]))
        contours = extract_contours(SimpleNamespace(G=G), 64)
        assert len(contours) == 2
        for poly in contours.polylines:
            assert np.all(np.sign(poly[:, 0] * poly[:, 1]) == -np.sign(eps))
            assert len(set(np.sign(poly[:, 0]))) == 1

    def test_threefold_symmetric_contours(self, analyses):
        a = analyses["3star"]
        assert len(a.contours) > 0
        cloud = np.concatenate(a.contours.polylines)
        c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
        rotated = np.column_stack(
            [c * cloud[:, 0] - s * cloud[:, 1], s * cloud[:, 0] + c * cloud[:, 1]]
        )
        geom = _PolylineDistance(list(a.contours.polylines))
        assert np.max(geom.distances(rotated)) < 5e-3


class TestRetinaMapping:
    def test_zero_aberration_maps_to_origin(self):
        w = WaveAberration((), pupil_radius=3.5)
        img = map_to_retina([(0.3, -0.4), (0.0, 0.9)], w)
        np.testing.assert_array_equal(img, np.zeros((2, 2)))

    def test_pure_defocus_formula(self):
        alpha, rp = 0.3, 3.5
        w = WaveAberration((ZernikeTerm(2, 0, alpha),), pupil_radius=rp)
        x = 0.41
        img = map_to_retina([(x, 0.0)], w)
        expected_xi = -4.0 * math.sqrt(3.0) * alpha * x / rp * ARCMIN_PER_MRAD
        assert img[0, 0] == pytest.approx(expected_xi, rel=1e-12)
        assert img[0, 1] == 0.0

    def test_mapping_is_definitional(self, analyses):
        # the mapped vertices equal the evaluated exact gradient polynomials
        a = analyses["4star"]
        poly = a.aberration.to_polynomial()
        wx, wy = poly.differentiate("x"), poly.differentiate("y")
        scale = ARCMIN_PER_MRAD / a.aberration.pupil_radius
        for pupil, retina in zip(a.contours.polylines, a.caustics.retina_curves):
            np.testing.assert_allclose(
                retina[:, 0], -wx(pupil[:, 0], pupil[:, 1]) * scale, atol=1e-12
            )
            np.testing.assert_allclose(
                retina[:, 1], -wy(pupil[:, 0], pupil[:, 1]) * scale, atol=1e-12
            )

    def test_field_derivatives_give_the_same_bits(self, analyses):
        # one evaluation of the built field's Wx, Wy equals map_to_retina,
        # which differentiates W itself, point set by point set
        a = analyses["8stars"]
        caustics = a.caustics
        assert len(caustics.retina_curves) == len(a.contours.polylines)
        for pupil, retina in zip(a.contours.polylines, caustics.retina_curves):
            np.testing.assert_array_equal(retina, map_to_retina(pupil, a.aberration))
        cusps = map_to_retina([(p.x, p.y) for p in a.search.points], a.aberration)
        assert len(caustics.projected_cusps) == len(a.search.points) > 0
        for cusp, (xi, eta) in zip(caustics.projected_cusps, cusps):
            assert (cusp.xi, cusp.eta) == (xi, eta)
        np.testing.assert_array_equal(
            caustics.center, map_to_retina([(0.0, 0.0)], a.aberration)[0])

    def test_vertex_counts_preserved(self, analyses):
        a = analyses["6star"]
        assert len(a.caustics.retina_curves) == len(a.contours.polylines)
        for pupil, retina in zip(a.contours.polylines, a.caustics.retina_curves):
            assert len(pupil) == len(retina)

    def test_projected_cusps_threefold_symmetric(self, analyses):
        a = analyses["3star"]
        saddle_imgs = [
            (c.xi, c.eta)
            for c in a.caustics.projected_cusps
            if c.point.kind.value == "saddle"
        ]
        assert len(saddle_imgs) == 3
        radii = [math.hypot(*p) for p in saddle_imgs]
        assert np.ptp(radii) < 1e-9
        angles = sorted(math.atan2(p[0], p[1]) % (2 * math.pi) for p in saddle_imgs)
        gaps = np.diff(angles + [angles[0] + 2 * math.pi])
        np.testing.assert_allclose(gaps, 2 * math.pi / 3, atol=1e-9)


class TestSymmetryOrder:
    @pytest.mark.parametrize(
        "name,p", [("3star", 3), ("4star", 4), ("5star", 5), ("6star", 6), ("8stars", 4)]
    )
    def test_fixture_orders(self, analyses, name, p):
        result = symmetry_order(analyses[name].caustics)
        assert result.p == p
        assert result.residual < result.tolerance

    def test_empty_caustics_rejected(self):
        w = WaveAberration((ZernikeTerm(2, 0, 0.3),))
        field = build_field(w)
        ca = map_caustics(w, extract_contours(field, 128), (), field)
        with pytest.raises(ValueError):
            symmetry_order(ca)

    @pytest.mark.parametrize("name", ["3star", "4star", "5star", "6star", "8stars"])
    def test_screen_matches_full_scan_on_fixtures(self, analyses, name):
        caustics = analyses[name].caustics
        assert symmetry_order(caustics) == full_scan_symmetry_order(caustics)

    @pytest.mark.parametrize("terms,p", [
        (((4, 0, 0.2), (3, 1, 0.1)), 1),
        (((4, 0, 0.2), (4, 2, 0.03), (6, 6, 0.055)), 2),
        (((4, 0, 0.2), (8, 8, 0.02), (2, 0, 0.02)), 8),
    ])
    def test_screen_matches_full_scan(self, terms, p):
        w = WaveAberration(tuple(ZernikeTerm(*t) for t in terms))
        field = build_field(w)
        caustics = map_caustics(w, extract_contours(field, 256), (), field)
        result = symmetry_order(caustics)
        assert result == full_scan_symmetry_order(caustics)
        assert result.p == p

    def test_verdict_carries_symmetry(self, analyses):
        caustics = analyses["5star"].caustics
        assert starburst_verdict(caustics).symmetry == symmetry_order(caustics)


def full_scan_symmetry_order(caustics, tol_rel=1e-3, p_max=12):
    """Every p from p_max down on the whole vertex cloud, no screening."""
    curves = [c for c in caustics.retina_curves if len(c) >= 2]
    cloud = np.concatenate(curves)
    center = caustics.center
    tol = tol_rel * 2.0 * float(np.max(np.linalg.norm(cloud - center, axis=1)))
    geom = _PolylineDistance(curves)
    best = math.inf
    for p in range(p_max, 1, -1):
        angle = 2.0 * math.pi / p
        residual = max(
            float(geom.distances(_rotate(cloud, angle, center)).max()),
            float(geom.distances(_rotate(cloud, -angle, center)).max()),
        )
        if residual < tol:
            return SymmetryResult(p, residual, tol)
        best = min(best, residual)
    return SymmetryResult(1, best, tol)


def test_polyline_distance_tables():
    # segment ids run on across polylines; each vertex lists its previous
    # segment, then its next one, -1 padded
    polylines = [np.array([[0.0, 0.0], [1.0, 0.0]]),
                 np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0]]),
                 np.array([[5.0, 5.0], [6.0, 5.0], [6.0, 6.0]])]
    geom = _PolylineDistance(polylines)
    np.testing.assert_array_equal(geom.vert_segments, [
        [0, -1], [0, -1],
        [1, -1], [1, 2], [2, 3], [3, -1],
        [4, -1], [4, 5], [5, -1],
    ])
    np.testing.assert_array_equal(geom.starts, np.concatenate([p[:-1] for p in polylines]))
    np.testing.assert_array_equal(geom.ends, np.concatenate([p[1:] for p in polylines]))
    assert geom.distances(np.array([[2.5, 1.5]]))[0] == pytest.approx(0.5)
    two_point = _PolylineDistance(polylines[:1])
    np.testing.assert_array_equal(two_point.vert_segments, [[0], [0]])


class TestVerdicts:
    @pytest.mark.parametrize("name", ["3star", "5star", "4star", "6star", "8stars"])
    def test_fixture_verdicts(self, analyses, name):
        a = analyses[name]
        verdict = starburst_verdict(a.caustics)
        assert verdict.point_count == a.expected_points
        assert verdict.kind == a.expected_kind
        assert verdict.p_fold == a.n

    def test_empty_caustics_verdict(self):
        w = WaveAberration((ZernikeTerm(2, 0, 0.3),))
        field = build_field(w)
        ca = map_caustics(w, extract_contours(field, 128), (), field)
        verdict = starburst_verdict(ca)
        assert verdict.kind == NO_STARBURST
        assert verdict.point_count == 0
        assert verdict.p_fold == 0  # axially symmetric wavefront

    def test_fold_signature_fallback(self):
        w = WaveAberration((ZernikeTerm(4, 4, 0.0001), ZernikeTerm(2, 0, 0.3)))
        field = build_field(w)
        ca = map_caustics(w, extract_contours(field, 128), (), field)
        verdict = starburst_verdict(ca)
        if not ca.retina_curves:
            assert verdict.p_fold == 4

    def test_threshold_validation(self, analyses):
        a = analyses["3star"]
        with pytest.raises(ValueError):
            starburst_verdict(a.caustics, threshold_arcmin=0.0)

    def test_tips_exceed_visibility_threshold(self, analyses):
        for a in analyses.values():
            verdict = starburst_verdict(a.caustics)
            for tip in verdict.spike_tips:
                assert tip.radius_arcmin >= verdict.visibility_threshold

    def test_long_short_alternation(self, analyses):
        a = analyses["8stars"]
        verdict = starburst_verdict(a.caustics)
        assert verdict.kind == NON_EQUALLY_DISTANCED
        tips = sorted(verdict.spike_tips, key=lambda t: t.angle)
        radii = np.array([t.radius_arcmin for t in tips])
        split = 0.5 * (radii.max() + radii.min())
        is_long = radii >= split
        assert all(is_long[i] != is_long[(i + 1) % len(tips)] for i in range(len(tips)))
        angles = [t.angle for t in tips]
        gaps = np.diff(angles + [angles[0] + 2 * math.pi])
        np.testing.assert_allclose(gaps, math.pi / 4, atol=1e-2)
        # every long tip shares its meridian with a short partner at pi/4
        for i in range(len(tips)):
            assert is_long[i] != is_long[(i + 1) % len(tips)]

    def test_equal_tips_single_radius(self, analyses):
        a = analyses["6star"]
        verdict = starburst_verdict(a.caustics)
        assert verdict.kind == EQUALLY_DISTANCED
        radii = [t.radius_arcmin for t in verdict.spike_tips]
        assert (max(radii) - min(radii)) / max(radii) < 0.01


class TestFertility:
    @pytest.mark.parametrize("name", ["3star", "5star", "4star", "6star", "8stars"])
    def test_all_fixture_saddles_fertile(self, analyses, name):
        a = analyses[name]
        flags = fertility_report(a.search.saddles, a.contours)
        assert len(flags) == a.expected_saddles
        assert all(f.fertile for f in flags)
        assert all(f.branch_count >= 2 for f in flags)

    def test_no_saddles_vacuous(self):
        field = build_field(WaveAberration((ZernikeTerm(2, 0, 0.3),)))
        contours = extract_contours(field, 128)
        assert fertility_report((), contours) == ()

    def test_distance_knob(self, analyses):
        a = analyses["3star"]
        strict = fertility_report(a.search.saddles, a.contours, distance=0.01)
        assert not any(f.fertile for f in strict)

    def test_projected_saddles_near_mapped_caustic(self, analyses):
        # the saddle image must fall within the mapped image of its
        # fertility neighborhood (pupil gap times the local stretch)
        for a in analyses.values():
            geom = _PolylineDistance(list(a.caustics.retina_curves))
            flags = fertility_report(a.search.saddles, a.contours)
            h = 2.0 / (a.contours.grid_resolution - 1)
            for flag, proj in zip(
                flags,
                [c for c in a.caustics.projected_cusps if c.point.kind.value == "saddle"],
            ):
                p0 = np.array([proj.point.x, proj.point.y])
                img = map_to_retina([p0, p0 + [h, 0.0], p0 + [0.0, h]], a.aberration)
                stretch = max(
                    float(np.hypot(*(img[1] - img[0]))),
                    float(np.hypot(*(img[2] - img[0]))),
                ) / h
                allowed = max(flag.min_distance, 2.0 * h) * stretch * 2.0
                d = float(geom.distances(np.array([[proj.xi, proj.eta]]))[0])
                assert d <= allowed

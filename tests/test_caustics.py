import hashlib
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from starburst import (
    ABParams,
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
    SpikeTip,
    SymmetryResult,
    _EXACT_REACH,
    _PAIR_BUDGET,
    _find_peaks,
    _mesh,
    _meridian_aligned,
    _PolylineDistance,
    _radial_profile,
    _ray_values,
    _rotate,
    _tip_pattern,
)
from starburst.cli import FIXTURE_SCENARIOS, Scenario, run_analysis
from starburst.zernike import ray_coefficients


HIGHORDER_TERMS = ((4, 0, 0.2), (12, 12, 0.02), (2, 0, 0.02))
# wavefronts without a mirror symmetry whose contours leave the pupil
ASYMMETRIC_TERMS = {
    "a": ((5, 5, 0.176), (4, 2, -0.05), (4, -4, 0.083), (6, 2, -0.063), (4, -2, 0.13)),
    "b": ((6, -2, 0.184), (4, 0, 0.17), (5, 1, 0.077), (4, 4, -0.151), (3, -1, 0.053)),
    "c": ((4, 2, -0.015), (4, -4, 0.037), (6, 2, 0.107)),
    "d": ((5, -1, 0.099), (6, 2, 0.05), (5, -5, 0.103), (2, 0, -0.09)),
}
# wavefronts whose symmetry tolerance at grid 512 is wider than the median
# retina segment, so the tolerance sets the distance grid's cell side
WIDE_TOL = {name: WaveAberration(tuple(ZernikeTerm(*t) for t in terms)) for name, terms in {
    "Z4^2": ((4, 0, 0.2), (4, 2, -0.0132)),
    "Z7^1": ((4, 0, 0.2), (7, 1, -0.0212)),
    "Z6^-2": ((4, 0, 0.2), (6, -2, 0.11)),
    "Z10^-6": ((4, 0, 0.2), (10, -6, 0.017)),
}.items()}


def caustic_at(w, grid):
    """The retina caustic of the wavefront ``w`` at contour grid ``grid``."""
    field = build_field(w)
    return map_caustics(w, extract_contours(field, grid), (), field)


def fixture_plus(name, extra):
    """The fixture ``name``'s wavefront with the terms ``extra`` added."""
    base = ABParams(*FIXTURE_SCENARIOS[name][:4]).to_wavefront()
    return WaveAberration(base.terms + tuple(ZernikeTerm(*t) for t in extra),
                          pupil_radius=base.pupil_radius)


class TestContourExtraction:
    def test_constant_positive_g_yields_empty_set(self):
        field = build_field(WaveAberration((ZernikeTerm(2, 0, 0.3),)))
        contours = extract_contours(field, 128)
        assert len(contours) == 0

    def test_zero_g_yields_empty_set(self):
        contours = extract_contours(build_field(WaveAberration(())), 128)
        assert len(contours) == 0

    def test_resolution_validation(self):
        field = build_field(WaveAberration((ZernikeTerm(2, 0, 0.3),)))
        with pytest.raises(ValueError):
            extract_contours(field, 32)
        with pytest.raises(ValueError, match="at most 4096"):
            extract_contours(field, 4097)

    def test_vertices_lie_on_zero_level(self, analyses):
        a = analyses["3star"]
        xs = np.linspace(-1, 1, 512)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        gx, gy = a.field.G.differentiate("x"), a.field.G.differentiate("y")
        lipschitz = float(np.max(np.hypot(gx(X, Y), gy(X, Y))))
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
        geom = _PolylineDistance(list(fine.polylines), fine_cell_diag)
        for poly in coarse.polylines:
            d = geom.distances(poly)
            assert np.max(d) < fine_cell_diag

    @pytest.mark.parametrize("eps", [1e-6, -1e-6])
    def test_saddle_cell_follows_center_sign(self, eps):
        # G = (x - x0)(y - y0) + eps has its saddle at the centre of the
        # polar cell (i, j), off the origin; near t = pi / 2 the cell's
        # corners lie in alternating quadrants about the saddle, so the cell
        # is a checkerboard (code 5 or 10) and only the sign of G at its
        # centre tells which corners the two branches join.  W = G has an
        # odd power of x, so G is marched on the periodic mesh
        probe = BivariatePolynomial(np.array([[0.0, 0.0], [0.0, 1.0]]))
        rho, t, sin, cos, _, mirror = _mesh(SimpleNamespace(W=probe, fold=1), 64)
        assert not mirror
        i, j = len(rho) // 2, int(np.searchsorted(t, 0.5 * math.pi))
        rc, tc = 0.5 * (rho[i] + rho[i + 1]), 0.5 * (t[j] + t[j + 1])
        x0, y0 = rc * np.sin(tc), rc * np.cos(tc)
        G = BivariatePolynomial(np.array([[x0 * y0 + eps, -x0], [-y0, 1.0]]))
        a = ray_coefficients(G.coeffs, sin[j:j + 2], cos[j:j + 2])
        corners = _ray_values(a, rho[i:i + 2]) > 0
        code = corners[0, 0] | corners[1, 0] << 1 | corners[1, 1] << 2 | corners[0, 1] << 3
        assert code in (5, 10)

        contours = extract_contours(SimpleNamespace(G=G, W=G, fold=1), 64)
        # each hyperbola branch lies in one quadrant about the saddle, the
        # two in opposite quadrants: dx - sign(eps) dy keeps one sign along a
        # branch and has the other on its partner.  A branch hugs its
        # asymptotes, where interpolation on a curved cell may put dx or dy a
        # little across zero, so the sum is read, and only two cells or more
        # from the saddle
        assert len(contours) == 2
        sides = []
        for poly in contours.polylines:
            dx, dy = poly[:, 0] - x0, poly[:, 1] - y0
            far = np.hypot(dx, dy) > 4.0 / 63
            side = set(np.sign(dx - np.sign(eps) * dy)[far])
            assert len(side) == 1
            sides += side
        assert sorted(sides) == [-1.0, 1.0]

    @pytest.mark.parametrize("name, grid, digest", [
        ("a", 64, "c1b973ec776b827ab8bfa7be8ad64c35c5880249b96005dbcf77c99667d42f82"),
        ("a", 257, "ac94f3b00a96fd50fa4014551916247f1447fe26400efa73e7816ed4bf2dc0eb"),
        ("a", 1025, "acaf7ef5540a666a481266f3cc5d01ef94d4b5c719c7ab8ab75980939b6e139f"),
        ("b", 64, "490311f89204e1b63178bc9b54ff9b7278aea59e790f38056b51d7288839ea4a"),
        ("b", 257, "125d4a65c7b15cd0bb2a871fa9acbec8a763e0fca1f553e0200b7ef485158d51"),
        ("b", 1025, "39e23b0abe91580a91ca3e721759dc6c65f66e338fea3b26f5d86c542d13b413"),
        ("c", 64, "9734383576579be93d68ee97564a3f6044fe584b8faf7f58871e70e7cfa8eed1"),
        ("c", 257, "00a1527d01f704ae8cc54b9c8751a0e1b85dab343e8bac0e8ca74101d0031f4b"),
        ("c", 1025, "2ef83d48c8efae3c7a011db28b48304dc4f967144634b0421504b2ff3f795cdd"),
        ("d", 64, "ca5d8388886f844262d8ab33ad7f471b5d953af9a2d78664b65c10b342af4e3f"),
        ("d", 257, "b5c256d3eeea05925fb0b286ff0db2a93311ab6c13502fe74c71bc793a7e14a5"),
        ("d", 1025, "92f141a435b5dd82c2b85cf310b1131e9ce10e1004fce255316cc2f1305c67d3"),
    ])
    def test_asymmetric_contour_bytes_are_pinned(self, name, grid, digest):
        # sha256 of the polyline lengths (int64) and then every vertex's bytes,
        # on the periodic polar mesh: none of these wavefronts has a mirror at
        # t = 0.  a has saddle cells (codes 5 and 10) at grids 64 and 257.
        # Pinned when the polar mesh replaced the Cartesian grid and its clip
        # to the disk
        field = build_field(WaveAberration(
            tuple(ZernikeTerm(*t) for t in ASYMMETRIC_TERMS[name])))
        contours = extract_contours(field, grid)
        h = hashlib.sha256(np.array([len(p) for p in contours], dtype=np.int64).tobytes())
        for poly in contours:
            h.update(poly.tobytes())
        assert h.hexdigest() == digest

    def test_threefold_symmetric_contours(self, analyses):
        a = analyses["3star"]
        assert len(a.contours) > 0
        cloud = np.concatenate(a.contours.polylines)
        c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
        rotated = np.column_stack(
            [c * cloud[:, 0] - s * cloud[:, 1], s * cloud[:, 0] + c * cloud[:, 1]]
        )
        geom = _PolylineDistance(list(a.contours.polylines), 5e-3)
        assert np.max(geom.distances(rotated)) < 5e-3


def vertex_set(curves):
    return {tuple(v) for c in curves for v in c.tolist()}


def largest_gap(points, onto, chunk=256):
    """The largest distance from a point of ``points`` to its nearest point
    of ``onto``."""
    return max(float(np.hypot(*(part[:, None, :] - onto[None]).transpose(2, 0, 1)).min(axis=1).max())
               for part in np.array_split(points, max(1, len(points) // chunk)))


def turn(points, angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.column_stack([c * points[:, 0] - s * points[:, 1], s * points[:, 0] + c * points[:, 1]])


class TestCompletion:
    """The polar mesh meshes one wedge of a mirror W and completes it by the
    exact reflection x -> -x and g turns; other W take the periodic mesh."""

    @pytest.mark.parametrize("name", ["3star", "4star", "5star", "6star", "8stars", "highorder"])
    def test_completed_vertex_sets_are_symmetric(self, analyses, highorder_caustics, name):
        # pupil and retina vertex sets map onto themselves under the mirror
        # exactly, and under a turn by 2 pi / g up to rounding
        if name == "highorder":
            caustics, g = highorder_caustics, 12
            w = caustics.aberration
            contours = extract_contours(build_field(w), 512)
        else:
            a = analyses[name]
            contours, caustics, g = a.contours, a.caustics, a.n
        assert contours.completion.mirror and contours.completion.turns == g
        for curves in (contours.polylines, caustics.retina_curves):
            vertices = vertex_set(curves)
            assert vertices == {(-x, y) for x, y in vertices}
            cloud = np.array(sorted(vertices))
            scale = float(np.abs(cloud).max())
            assert largest_gap(turn(cloud, 2.0 * math.pi / g), cloud) < 1e-14 * scale

    @pytest.mark.parametrize("name", ["3star", "4star", "5star", "6star", "8stars"])
    def test_vertices_on_mirror_lines_are_their_own_images(self, analyses, name):
        # a chain that ends on a mirror line continues in the copy across
        # it, so no completed curve ends off the rim
        for poly in analyses[name].contours.polylines:
            if not np.array_equal(poly[0], poly[-1]):
                assert abs(np.hypot(*poly[[0, -1]].T) - 1.0).max() < 1e-15

    @pytest.mark.parametrize("terms", [
        # degree12.json of the CI: Z_8^-4 is a sine term
        ((4, 0, 0.2), (12, 6, 0.05), (8, -4, 0.05), (3, 1, 0.1)),
        # 3star with 1e-4 um of Z_3^-1
        ((2, 0, 0.0), (4, 0, 0.2), (3, 3, 0.2), (3, -1, 1e-4)),
    ])
    def test_periodic_mesh_joins_its_seam(self, terms):
        # curves cross t = 0 (the +y axis) with no duplicated seam vertex:
        # no segment has zero length, no open curve ends off the rim, and a
        # closed curve repeats only its first vertex
        contours = extract_contours(build_field(WaveAberration(
            tuple(ZernikeTerm(*t) for t in terms))), 512)
        assert not contours.completion.mirror
        crossing = 0
        for poly in contours.polylines:
            assert np.all(np.hypot(*np.diff(poly, axis=0).T) > 0.0)
            body = poly[:-1] if np.array_equal(poly[0], poly[-1]) else poly
            assert len(vertex_set([body])) == len(body)
            if body is poly:
                assert abs(np.hypot(*poly[[0, -1]].T) - 1.0).max() < 1e-15
            crossing += int(np.sum((np.sign(poly[:-1, 0]) != np.sign(poly[1:, 0]))
                                   & (poly[:-1, 1] > 0.0) & (poly[1:, 1] > 0.0)))
        assert crossing > 0


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
        # which differentiates W itself, point set by point set: at the
        # wedge's vertices, which are the curves' copy 0, and where the
        # curves are that copy, at the cusps and at the centre
        a = analyses["8stars"]
        caustics, done = a.caustics, a.contours.completion
        assert len(caustics.retina_curves) == len(a.contours.polylines)
        image = map_to_retina(a.contours.wedge, a.aberration)
        for got, want in zip(done.curves(done.copies(image)), caustics.retina_curves):
            np.testing.assert_array_equal(got, want)
        plain = np.ones(len(done.copy), dtype=bool)
        plain[done.joins] = False
        plain &= done.copy == 0
        pupil, retina = (np.concatenate(c)[plain] for c in (a.contours.polylines, caustics.retina_curves))
        assert plain.any()
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
        assert_matches_full_scan(analyses[name].caustics)

    @pytest.mark.parametrize("terms,p", [
        (((4, 0, 0.2), (3, 1, 0.1)), 1),
        (((4, 0, 0.2), (4, 2, 0.03), (6, 6, 0.055)), 2),
        (((4, 0, 0.2), (8, 8, 0.02), (2, 0, 0.02)), 8),
    ])
    def test_screen_matches_full_scan(self, terms, p):
        assert screened_order_matching_full_scan(terms, 256) == p

    def test_screen_matches_full_scan_on_highorder(self, highorder_caustics):
        assert assert_matches_full_scan(highorder_caustics).p == 12

    @pytest.mark.parametrize("name,extra,p", [("3star", (), 3), ("6star", ((3, 1, 0.02),), 1)])
    def test_every_distance_is_capped_at_the_tolerance(self, name, extra, p, monkeypatch):
        # the full checks ask one structure for distances up to the
        # tolerance only; when no p holds, no residual is searched for.
        # 3star's caustic is completed from its wedge, is 3-fold by
        # construction and has no other candidate, so it asks for none
        caps = []
        init = _PolylineDistance.__init__
        monkeypatch.setattr(_PolylineDistance, "__init__",
                            lambda self, polylines, cap: caps.append(cap)
                            or init(self, polylines, cap))
        caustics = caustic_at(fixture_plus(name, extra), 512)
        result = symmetry_order(caustics)
        assert caps == ([] if caustics.sectors is not None else [result.tolerance])
        assert result.p == p
        if p == 1:
            assert result == SymmetryResult(1, None, result.tolerance)

    @pytest.mark.parametrize("w, grid, p, residual, tol", [
        *(pytest.param(WIDE_TOL[name], 512, *pin, id=name) for name, pin in [
            ("Z4^2", (2, "0x1.6a09e667f3bcdp-52", "0x1.86bbd2adbb7e6p-9")),
            ("Z7^1", (1, None, "0x1.b1b030d5f7482p-8")),
            ("Z6^-2", (2, "0x1.2a699762fdf82p-46", "0x1.c4e6f678ea833p-7")),
            ("Z10^-6", (6, "0x1.6486d51627fe7p-14", "0x1.b712d9e4ea706p-7"))]),
        pytest.param(fixture_plus("6star", ((3, 1, 0.02),)), 512, 1, None,
                     "0x1.261e3224d18acp-7", id="6star+Z3^1"),
        *(pytest.param(ABParams(alpha, 0.2, gamma, n).to_wavefront(), grid, *pin,
                       id=f"n{n}-{alpha}-{gamma}-grid{grid}") for n, alpha, gamma, grid, pin in [
            (5, 0.0, 1e-12, 256, (5, "0x1.07e0f66afed07p-51", "0x1.7813585f6b746p-9")),
            (5, 0.1, 1e-7, 256, (5, "0x1.1f1de01e15d81p-52", "0x1.31a70bae454fdp-9")),
            (5, 0.0, 1e-12, 512, (5, "0x1.07e0f66afed07p-51", "0x1.7813586a3ba77p-9")),
            (6, 0.1, 1e-310, 64, (6, "0x1.07e0f66afed07p-52", "0x1.31a700953a386p-9"))]),
    ])
    def test_results_are_pinned(self, w, grid, p, residual, tol):
        # (p, residual, tolerance) to the bit: the tolerance-wide caustics, a
        # p = 1 caustic and the near-axial ones of
        # test_p_is_a_multiple_of_the_fold.  Pinned again when the polar mesh
        # and its completion replaced the Cartesian grid, and the search took
        # only the p that divide an |m| of W: the near-axial caustics, which
        # had passed p = 12 or 9 as near rings, are now 5- and 6-fold by
        # construction
        result = symmetry_order(caustic_at(w, grid))
        assert (result.p, result.residual and result.residual.hex(), result.tolerance.hex()) \
            == (p, residual, tol)

    def test_verdict_carries_symmetry(self, analyses):
        caustics = analyses["5star"].caustics
        assert starburst_verdict(caustics).symmetry == symmetry_order(caustics)


def screened_order_matching_full_scan(terms, grid):
    """symmetry_order's p for the wavefront ``terms``, after checking its
    whole result against the full scan."""
    w = WaveAberration(tuple(ZernikeTerm(*t) for t in terms))
    field = build_field(w)
    return assert_matches_full_scan(map_caustics(w, extract_contours(field, grid), (), field)).p


def full_scan_symmetry_order(caustics, tol_rel=1e-3, p_max=12):
    """Every p from p_max down that divides the |m| of a nonzero term with
    m != 0, each on the whole vertex cloud: the first p under the
    tolerance, else p = 1 with no residual; a residual is only needed up to
    the tolerance."""
    curves = [c for c in caustics.retina_curves if len(c) >= 2]
    cloud = np.concatenate(curves)
    center = caustics.center
    tol = tol_rel * 2.0 * float(np.max(np.linalg.norm(cloud - center, axis=1)))
    geom = _PolylineDistance(curves, tol)

    def residual(p):
        angle = 2.0 * math.pi / p
        both = np.concatenate([_rotate(cloud, s * angle, center) for s in (1.0, -1.0)])
        return float(brute_distances(curves, both).max())

    ms = [abs(t.m) for t in caustics.aberration.terms if t.coeff != 0.0 and t.m != 0]
    for p in range(p_max, 1, -1):
        if any(m % p == 0 for m in ms) and (full := residual(p)) < tol:
            return SymmetryResult(p, full, tol)
    return SymmetryResult(1, None, tol)


def assert_matches_full_scan(caustics):
    """symmetry_order's result, after checking it against the full scan: the
    same p and tolerance, and the same residual unless the caustic was
    completed by turns, whose residual is their rounding, as is the full
    scan's."""
    result, want = symmetry_order(caustics), full_scan_symmetry_order(caustics)
    assert (result.p, result.tolerance) == (want.p, want.tolerance)
    if caustics.sectors is None:
        assert result == want
    else:
        assert max(result.residual, want.residual) < 1e-12 * result.tolerance
    return result


def test_polyline_distance_tables():
    # the segment tables run on across polylines; a cell lists every segment
    # whose bounding box touches it or one of its neighbours
    polylines = [np.array([[0.0, 0.0], [1.0, 0.0]]),
                 np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0]]),
                 np.array([[5.0, 5.0], [6.0, 5.0], [6.0, 6.0]])]
    geom = _PolylineDistance(polylines, 0.75)
    starts = np.concatenate([p[:-1] for p in polylines])
    ends = np.concatenate([p[1:] for p in polylines])
    np.testing.assert_array_equal(np.column_stack([geom.ax, geom.ay]), starts)
    np.testing.assert_array_equal(np.column_stack([geom.dx, geom.dy]), ends - starts)
    assert geom.side == 1.0  # the median segment length, above the cap

    def listed(i, j):
        pos = np.searchsorted(geom.ids, (i + 1) * (geom.last[1] + 2) + j + 1)
        return sorted(geom.segs[geom.first[pos] : geom.first[pos] + geom.count[pos]].tolist())

    assert listed(2, 1) == [0, 1, 2, 3]
    assert listed(4, 4) == [4]
    assert listed(-1, -1) == [0]
    assert geom.distances(np.array([[2.5, 1.5]]))[0] == pytest.approx(0.5)
    assert _PolylineDistance(polylines, 0.25).distances(np.array([[2.5, 1.5]]))[0] == 0.25
    # no candidate: the point is at least the cap from every segment
    assert geom.distances(np.array([[20.0, 0.0]]))[0] == 0.75


def brute_distances(polylines, pts):
    """Reference: the distance from every point to every segment, in the
    arithmetic _PolylineDistance uses, minimised."""
    a = np.concatenate([p[:-1] for p in polylines])
    ax, ay = a.T.copy()
    dx, dy = (np.concatenate([p[1:] for p in polylines]) - a).T.copy()
    den = dx * dx + dy * dy
    den = np.where(den > 0, den, 1.0)
    out = []
    for chunk in np.array_split(pts, max(1, len(pts) // 8)):  # a few cache-sized rows
        px, py = chunk[:, :1], chunk[:, 1:]
        t = np.clip(((px - ax) * dx + (py - ay) * dy) / den, 0.0, 1.0)
        ex, ey = px - (ax + t * dx), py - (ay + t * dy)
        out.append(np.sqrt((ex * ex + ey * ey).min(axis=1)))  # sqrt is monotone
    return np.concatenate(out)


@pytest.fixture(scope="module")
def highorder_caustics():
    # the radial-order-12 golden scenario, at its grid
    w = WaveAberration(tuple(ZernikeTerm(*t) for t in HIGHORDER_TERMS))
    field = build_field(w)
    return map_caustics(w, extract_contours(field, 512), (), field)


class TestExactDistances:
    """_PolylineDistance against every-segment brute force, to the bit."""

    @pytest.mark.parametrize("name", ["3star", "4star", "5star", "6star", "8stars"])
    def test_rotated_clouds(self, analyses, name):
        caustics = analyses[name].caustics
        curves = list(caustics.retina_curves)
        cloud = np.concatenate(curves)
        n = analyses[name].n
        # the symmetry rotation keeps every point close; a 2 pi / 5 turn of
        # an n != 5 cloud sends many far; every 4th point keeps this quick
        for angle in (2.0 * math.pi / n, -2.0 * math.pi / 5):
            pts = _rotate(cloud, angle, caustics.center)[::4]
            want = brute_distances(curves, pts)
            # the last cap is beyond every point: no distance is capped
            for cap in (1e-3, 0.1, 1.0, 2.0 * float(want.max())):
                geom = _PolylineDistance(curves, cap)
                np.testing.assert_array_equal(geom.distances(pts), np.minimum(want, cap))

    def test_random_polylines_with_long_segments(self):
        # the nearest segment's endpoints can both be far from a point near
        # its middle; the last two caps are beyond every point
        rng = np.random.default_rng(7)
        for _ in range(40):
            polylines = [np.cumsum(rng.normal(size=(int(rng.integers(2, 25)), 2))
                                   * rng.choice([0.01, 1.0, 10.0]), axis=0)
                         for _ in range(int(rng.integers(1, 5)))]
            starts = np.concatenate([p[:-1] for p in polylines])
            ends = np.concatenate([p[1:] for p in polylines])
            pts = np.concatenate([0.5 * (starts + ends) + rng.normal(scale=0.01, size=starts.shape),
                                  rng.uniform(-30.0, 30.0, (40, 2))])
            want = brute_distances(polylines, pts)
            for cap in (0.01, 1.0, 10.0, 1e3, 1e6):
                geom = _PolylineDistance(polylines, cap)
                np.testing.assert_array_equal(geom.distances(pts), np.minimum(want, cap))

    def test_farthest_is_the_capped_largest_distance(self, analyses):
        # per run of points, the largest of the per-point distances, capped,
        # to the bit
        caustics = analyses["3star"].caustics
        curves = list(caustics.retina_curves)
        cloud = np.concatenate(curves)
        for cap in (1e-4, 0.05, 1.0):
            geom = _PolylineDistance(curves, cap)
            for p in (3, 5, 12):
                runs = [_rotate(cloud, s * 2.0 * math.pi / p, caustics.center)
                        for s in (1.0, -1.0)]
                points = np.concatenate(runs)
                want = [geom.distances(r).max() for r in runs]
                assert [geom.farthest(r) for r in runs] == want
                assert geom.farthest(points) == max(want)

    def test_farthest_stops_at_the_cap_in_any_run(self, analyses):
        # a point past the cap that still has candidate segments ends the
        # search in its run, first or last of many; the cloud alone is
        # searched to its end
        caustics = analyses["3star"].caustics
        curves = list(caustics.retina_curves)
        cloud = np.concatenate(curves)
        cap = 0.05
        geom = _PolylineDistance(curves, cap)
        r = np.hypot(*(cloud - caustics.center).T)
        k = int(np.argmax(r))
        far = cloud[k] + 1.3 * cap * (cloud[k] - caustics.center) / r[k]
        for points in (np.vstack([far, cloud]), np.vstack([cloud, far])):
            n, _ = geom._cells(points)
            assert n.all() and n.sum() > 4 * _PAIR_BUDGET
            assert geom.farthest(points) == geom.distances(points).max() == cap
        assert geom.farthest(cloud) == geom.distances(cloud).max() < cap

    @pytest.mark.parametrize("name", list(WIDE_TOL))
    def test_tolerance_wide_cells(self, name):
        # at the tolerance: every 16th vertex, rotated one way for each p,
        # and the whole cloud, rotated both ways by the p found (2 if none)
        caustics = caustic_at(WIDE_TOL[name], 512)
        result = symmetry_order(caustics)
        curves = list(caustics.retina_curves)
        cloud = np.concatenate(curves)
        geom = _PolylineDistance(curves, result.tolerance)
        lengths = np.hypot(*np.concatenate([np.diff(c, axis=0) for c in curves]).T)
        assert geom.side > np.median(lengths)
        assert geom.side * _EXACT_REACH >= result.tolerance
        angle = 2.0 * math.pi / max(result.p, 2)
        for pts in (np.concatenate([_rotate(cloud[::16], 2.0 * math.pi / p, caustics.center)
                                    for p in range(12, 1, -1)]),
                    np.concatenate([_rotate(cloud, s * angle, caustics.center)
                                    for s in (1.0, -1.0)])):
            np.testing.assert_array_equal(
                geom.distances(pts), np.minimum(brute_distances(curves, pts), result.tolerance))

    def test_highorder_residual_is_exact(self, highorder_caustics):
        # the caustic is completed from one wedge by 12 turns: the residual
        # is exactly the largest distance between a neighbouring sector's
        # vertex turned back and the first sector's, and the whole cloud,
        # turned both ways, lies within rounding of the curves
        sectors = highorder_caustics.sectors
        result = symmetry_order(highorder_caustics)
        want = 0.0
        for k in (1, -1):
            c, s = math.cos(k * 2.0 * math.pi / 12), math.sin(k * 2.0 * math.pi / 12)
            x, y = sectors[k].T
            want = max(want, float(np.hypot(c * x - s * y - sectors[0][:, 0],
                                            s * x + c * y - sectors[0][:, 1]).max()))
        assert (result.p, result.residual) == (12, want)
        curves = list(highorder_caustics.retina_curves)
        cloud = np.concatenate(curves)
        geom = _PolylineDistance(curves, result.tolerance)
        for s in (1.0, -1.0):
            pts = _rotate(cloud, s * 2.0 * math.pi / 12, highorder_caustics.center)
            exact = brute_distances(curves, pts)
            np.testing.assert_array_equal(geom.distances(pts), exact)
            assert exact.max() < 1e-12 * result.tolerance
        assert 0.0 < result.residual < 1e-12 * result.tolerance


def scipy_peaks(x):
    find_peaks = pytest.importorskip("scipy.signal").find_peaks
    idx, props = find_peaks(x, prominence=1e-12)
    return idx, props["prominences"]


def assert_peaks_match_scipy(x):
    idx, prominences = _find_peaks(x)
    want_idx, want_prominences = scipy_peaks(x)
    np.testing.assert_array_equal(idx, want_idx)
    assert prominences.tobytes() == want_prominences.tobytes()


class TestFindPeaks:
    """_find_peaks against scipy.signal.find_peaks(x, prominence=1e-12),
    indices equal and prominences bit for bit."""

    def test_random_arrays(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            assert_peaks_match_scipy(rng.normal(size=int(rng.integers(0, 80))))

    def test_integer_arrays_with_plateaus(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            n = int(rng.integers(0, 40))
            runs = rng.integers(1, 5, size=n)
            assert_peaks_match_scipy(np.repeat(rng.integers(-3, 4, size=n), runs).astype(float))

    def test_zero_runs(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(0, 60))
            assert_peaks_match_scipy(np.where(rng.random(n) < 0.6, 0.0, rng.random(n)))

    @pytest.mark.parametrize("x", [
        [2.0, 2.0, 1.0, 3.0, 1.0, 2.0, 2.0],     # plateaus at both ends
        [3.0, 1.0, 2.0, 2.0, 2.0, 2.0, 1.0, 3.0],  # flat top: one peak, at its middle
        [1.0, 2.0, 2.0, 2.0],                     # flat top touching the end
        [0.0, 0.0, 0.0],
        [1.0, 2.0],
        [],
    ])
    def test_plateaus_and_edges(self, x):
        assert_peaks_match_scipy(np.array(x))

    def test_flat_top_index(self):
        idx, prominences = _find_peaks(np.array([0.0, 1.0, 1.0, 1.0, 1.0, 0.5]))
        np.testing.assert_array_equal(idx, [2])  # (1 + 4) // 2
        np.testing.assert_array_equal(prominences, [0.5])

    @pytest.mark.parametrize("name", ["3star", "4star", "5star", "6star", "8stars"])
    def test_fixture_profiles(self, analyses, name):
        caustics = analyses[name].caustics
        cloud = np.concatenate([c for c in caustics.retina_curves if len(c) >= 2])
        profile = _radial_profile(cloud, caustics.center)[0]
        assert_peaks_match_scipy(np.tile(profile, 3))


class TestVerdicts:
    @pytest.mark.parametrize("name", ["3star", "5star", "4star", "6star", "8stars"])
    def test_fixture_verdicts(self, analyses, name):
        a = analyses[name]
        verdict = starburst_verdict(a.caustics)
        assert verdict.point_count == a.expected_points
        assert verdict.kind == a.expected_kind
        assert verdict.p_fold == a.n

    @pytest.mark.parametrize("name", ["3star", "5star", "4star", "6star", "8stars"])
    def test_tiny_coma_keeps_the_fixture_verdict(self, name):
        # 1e-5 um of Z_3^1 leaves W's rotation group trivial (gcd |m| = 1)
        # but changes no visible feature: the verdict keeps the star's own p
        # and point count.  Reading p off the wavefront's exact symmetry
        # would report 1 here.  The verdict reads only the contours, so no
        # census is run.
        alpha, beta, gamma, n, _, _, points, kind = FIXTURE_SCENARIOS[name]
        base = ABParams(alpha, beta, gamma, n).to_wavefront()
        w = WaveAberration(base.terms + (ZernikeTerm(3, 1, 1e-5),),
                           pupil_radius=base.pupil_radius)
        field = build_field(w)
        verdict = starburst_verdict(
            map_caustics(w, extract_contours(field, 256), (), field))
        assert w.fold_order() == 1
        assert (verdict.p_fold, verdict.point_count, verdict.kind) == (n, points, kind)

    @pytest.mark.parametrize("name", ["3star", "5star", "4star", "6star", "8stars"])
    def test_tiny_sine_coma_keeps_the_fixture_verdict(self, name):
        # as above with Z_3^-1, whose sine leaves W no mirror at t = 0, so
        # the contours come from the periodic mesh instead of the half disk
        alpha, beta, gamma, n, _, _, points, kind = FIXTURE_SCENARIOS[name]
        w = fixture_plus(name, ((3, -1, 1e-5),))
        field = build_field(w)
        contours = extract_contours(field, 256)
        verdict = starburst_verdict(map_caustics(w, contours, (), field))
        assert not contours.completion.mirror
        assert (verdict.p_fold, verdict.point_count, verdict.kind) == (n, points, kind)

    def test_empty_caustics_verdict(self):
        w = WaveAberration((ZernikeTerm(2, 0, 0.3),))
        field = build_field(w)
        ca = map_caustics(w, extract_contours(field, 128), (), field)
        verdict = starburst_verdict(ca)
        assert verdict.kind == NO_STARBURST
        assert verdict.point_count == 0
        assert verdict.p_fold == 0  # axially symmetric wavefront

    @pytest.mark.parametrize("terms", [((4, 0, 0.2),), ((6, 0, 0.05), (4, 0, 0.2))])
    def test_axially_symmetric_verdict(self, terms, monkeypatch):
        # a ring caustic passes every p: read W's symmetry, search no p
        w = WaveAberration(tuple(ZernikeTerm(*t) for t in terms))
        field = build_field(w)
        ca = map_caustics(w, extract_contours(field, 128), (), field)
        assert ca.retina_curves
        monkeypatch.setattr("starburst.caustics.symmetry_order", None)
        verdict = starburst_verdict(ca)
        assert (verdict.p_fold, verdict.point_count, verdict.kind) == (0, 0, NO_STARBURST)
        assert verdict.detail == "axially symmetric wavefront"
        assert verdict.spike_tips == () and verdict.symmetry is None

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
                assert tip.radius_arcmin >= 1.0  # the default threshold

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


class TestTipPattern:
    # every (kind, detail) the tip-pattern rule returns, from tip radii
    # listed by angle and the symmetry order p; radii 10 and 9 are exactly
    # _RADIUS_SPLIT apart, which is still one radius
    @pytest.mark.parametrize("radii,p,kind,detail", [
        ([], 3, NO_STARBURST, "no resolvable meridian-aligned tips above the threshold"),
        ([5.0, 5.2, 5.1], 3, EQUALLY_DISTANCED, "3 tips at a single radius"),
        ([10.0, 9.0, 10.0], 3, EQUALLY_DISTANCED, "3 tips at a single radius"),
        ([5.0, 3.0] * 4, 4, NON_EQUALLY_DISTANCED, "8 tips alternating between two radii"),
        ([3.0, 5.0], 1, NON_EQUALLY_DISTANCED, "2 tips alternating between two radii"),
        ([5.0, 5.0, 3.0, 3.0] * 2, 4, NO_STARBURST,
         "tip radii do not alternate with the symmetry"),
        ([5.0, 4.8] * 4, 4, NON_EQUALLY_DISTANCED, "8 tips, marginal radius split"),
        ([10.0, 9.0] * 3, 3, NON_EQUALLY_DISTANCED, "6 tips, marginal radius split"),
        ([5.0, 3.0, 5.0], 3, NO_STARBURST, "3 tips inconsistent with 3-fold symmetry"),
        ([5.0] * 5, 4, NO_STARBURST, "5 tips inconsistent with 4-fold symmetry"),
    ])
    def test_outcomes(self, radii, p, kind, detail):
        assert _tip_pattern(radii, p) == (kind, detail)

    def test_verdict_keeps_tips_that_do_not_alternate(self, analyses, monkeypatch):
        # a pattern the rule rejects keeps its tips but counts no points
        monkeypatch.setattr("starburst.caustics._tip_pattern", lambda radii, p: (
            NO_STARBURST, "tip radii do not alternate with the symmetry"))
        verdict = starburst_verdict(analyses["8stars"].caustics)
        assert (verdict.p_fold, verdict.point_count, verdict.kind) == (4, 0, NO_STARBURST)
        assert verdict.detail == "tip radii do not alternate with the symmetry"
        assert len(verdict.spike_tips) == 8 and verdict.symmetry.p == 4


@pytest.mark.xfail(strict=True, reason=(
    "the meridian fan is anchored at the largest tip, so an ulp between a "
    "mirror pair of tips decides which tips are kept (ROADMAP item 22)"))
def test_meridian_fan_ignores_an_ulp_tie():
    # four of the profile tips of (n, alpha, gamma) = (3, 0.04630650269771952,
    # -0.05023761420452022) at grid 256, a case of
    # test_tip_sets_map_onto_themselves; the mirror pair at 120.4364 and
    # 239.5636 degrees ties to an ulp.  Today the larger radius at 120.4364
    # keeps 3 tips, at 239.5636 4
    large = 1.3757425904509704
    small = float(np.nextafter(large, 0.0))

    def kept(r120, r240):
        tips = [SpikeTip(r, math.radians(deg)) for deg, r in (
            (120.4364, r120), (177.9791, 1.2447198300752276),
            (239.5636, r240), (359.535, 1.3757393081505354))]
        return [t.angle for t in _meridian_aligned(tips, 3)]

    assert kept(large, small) == kept(small, large)


# ROADMAP item 19: alpha Z_2^0 + 0.2 Z_4^0 + gamma Z_n^n is exactly n-fold,
# so the verdict's tips must map onto themselves under a 2 pi / n rotation
# about the caustic's centre.  A turned tip matches a tip within the longest
# segment of the mapped caustic, the grid's quantisation on the retina.  The
# wavefronts that break this are pinned; the list shrinks when the verdict
# mends them (item 10), never by loosening the match.  A change that means
# to move it regenerates it with `PYTHONPATH=src python tests/test_caustics.py`.
TIP_ORBIT_FAILURES = Path(__file__).parent / "golden" / "tip_orbit_failures.txt"


def tip_orbit_sweep(count=20, seed=2026):
    """Three-term wavefronts, n = 3..6, with alpha and gamma uniform in
    +-0.3, |gamma| >= 0.02 and beta = 0.2."""
    rng = np.random.default_rng(seed)
    sweep = []
    while len(sweep) < count:
        n = int(rng.integers(3, 7))
        alpha, gamma = rng.uniform(-0.3, 0.3, 2)
        if abs(gamma) >= 0.02:
            sweep.append(ABParams(float(alpha), 0.2, float(gamma), n))
    return sweep


def tip_orbit_failure_lines(grid):
    """"grid n alpha gamma" for each wavefront of the sweep whose tips the
    n-fold rotation does not map onto themselves."""
    lines = []
    for params in tip_orbit_sweep():
        w = params.to_wavefront()
        field = build_field(w)
        caustics = map_caustics(w, extract_contours(field, grid), (), field)
        tips = starburst_verdict(caustics).spike_tips
        z = np.array([t.radius_arcmin * np.exp(1j * t.angle) for t in tips])
        turned = z * np.exp(2j * math.pi / params.n)
        quantum = max(float(np.abs(np.diff(c[:, 0] + 1j * c[:, 1])).max())
                      for c in caustics.retina_curves if len(c) >= 2)
        if (np.abs(turned[:, None] - z).min(axis=1, initial=np.inf) > quantum).any():
            lines.append(f"{grid} {params.n} {params.alpha!r} {params.gamma!r}")
    return lines


@pytest.mark.parametrize("grid", [256, 512])
def test_tip_sets_map_onto_themselves(grid):
    pinned = TIP_ORBIT_FAILURES.read_text(encoding="utf-8").splitlines()
    assert tip_orbit_failure_lines(grid) == [line for line in pinned
                                             if line.startswith(f"{grid} ")]


# An exactly g-fold W has a g-fold caustic, so the verdict's p must be a
# multiple of g.  On near-axial alpha Z_2^0 + 0.2 Z_4^0 + gamma Z_n^n the
# caustic is nearly a ring; the symmetry search once kept an order the ring
# passed (p = 12 or 9, ROADMAP items 3 and 14).  It now tries only the p
# that divide an |m| of W, and the caustic is completed from its wedge.
@pytest.mark.parametrize("raw", [
    *(pytest.param(dict(zip(("alpha", "beta", "gamma", "n"), row[:4])), id=name)
      for name, row in FIXTURE_SCENARIOS.items()),
    pytest.param({"wavefront": [{"n": n, "m": m, "coeff_um": c} for n, m, c in HIGHORDER_TERMS]},
                 id="highorder"),
    *(pytest.param({"alpha": alpha, "beta": 0.2, "gamma": gamma, "n": n, "grid_resolution": grid},
                   id=f"n{n}-{alpha}-{gamma}-grid{grid}")
      for n, alpha, gamma, grid in [(5, 0.0, 1e-12, 256), (5, 0.1, 1e-7, 256),
                                    (5, 0.0, 1e-12, 512), (6, 0.1, 1e-310, 64)]),
])
def test_p_is_a_multiple_of_the_fold(raw):
    scenario = Scenario.from_dict(raw)
    _, (_, _, _, verdict) = run_analysis(scenario)
    assert verdict.p_fold % scenario.wavefront.fold_order() == 0


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
            curves = list(a.caustics.retina_curves)
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
                d = float(brute_distances(curves, np.array([[proj.xi, proj.eta]]))[0])
                assert d <= allowed


if __name__ == "__main__":
    TIP_ORBIT_FAILURES.write_text("".join(f"{line}\n" for grid in (256, 512)
                                          for line in tip_orbit_failure_lines(grid)),
                                  encoding="utf-8")

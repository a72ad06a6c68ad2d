import math

import numpy as np
import pytest

from conftest import bisect_root, circular_deviation
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
    saddle_radii,
    spherical_equivalent,
)
from starburst.regions import (
    DEFAULT_WINDOWS,
    SUPPORTED_ORDERS,
    _family_rows,
    _named_bounds,
    _ring_det_hess_g,
    _saddles_exist,
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

    def test_gamma_squared_underflow(self):
        # alpha_2 (proportional to 1/gamma^2) has no float value, but the
        # rows it bounds need |gamma| > gamma_1: as for any tiny gamma
        tiny, small = (predict_saddles(ABParams(0.0, 0.2, g, 5)) for g in (1e-170, 1e-100))
        assert (tiny.count, tiny.boundary) == (small.count, small.boundary)

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
        a3 = _named_bounds(3, 0.2, 0.2)["alpha3"]
        below = predict_saddles(ABParams(a3 - 1e-4, 0.2, 0.2, 3))
        above = predict_saddles(ABParams(a3 + 1e-4, 0.2, 0.2, 3))
        assert below.count == 3 and above.count == 0
        # crossing alpha_2 for n=3 swaps the angular family at equal count
        a2 = _named_bounds(3, 0.2, 0.2)["alpha2"]
        under = predict_saddles(ABParams(a2 - 1e-4, 0.2, 0.2, 3))
        over = predict_saddles(ABParams(a2 + 1e-4, 0.2, 0.2, 3))
        assert under.count == over.count == 3
        assert under.families != over.families

    def test_boundary_flag(self):
        pred = predict_saddles(ABParams(SQRT15 * 0.2, 0.2, 0.15, 4))
        assert pred.boundary


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
            for family, sign in ((EVEN_FAMILY, -1.0), (ODD_FAMILY, 1.0)):
                theta = 0.0 if family == EVEN_FAMILY else math.pi / n
                for rho in radii.for_family(family):
                    det = _ring_det_hess_g(p, rho, sign)
                    want = float(field.det_hess_g(rho * math.sin(theta),
                                                  rho * math.cos(theta)))
                    assert (det < 0.0) == (want < 0.0)
                    assert det == pytest.approx(want, rel=1e-9)
                    saddle_seen.add(det < 0.0)
        assert saddle_seen == {True, False}  # saddle and extremum rings alike


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

    def test_closed_forms_for_endpoints(self):
        # at alpha = 0 the n=3 and n=4 endpoints have closed forms
        _, hi3 = admissible_gamma_interval(3, 0.2, 0.0)
        assert hi3 == pytest.approx(4.0 * SQRT10 * 0.2, abs=1e-9)
        _, hi4 = admissible_gamma_interval(4, 0.2, 0.0)
        assert hi4 == pytest.approx((SQRT2 + SQRT6) * 0.2, abs=1e-9)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            admissible_gamma_interval(4, -0.2, 0.0)

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.nan])
    def test_invalid_cap(self, factor):
        with pytest.raises(ValueError):
            admissible_gamma_interval(5, 0.2, 0.0, factor)

    # endpoints of the per-sample predict_saddles scan, before the scan ran
    # on arrays; the array scan must reproduce them bit for bit
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

    @pytest.mark.parametrize("n,alpha", sorted(PINNED_EDGES))
    def test_endpoints_bit_identical(self, n, alpha):
        edge = self.PINNED_EDGES[n, alpha]
        assert admissible_gamma_interval(n, 0.2, alpha) == (-edge, edge)

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
            got = _saddles_exist(n, 0.2, alpha, gammas)
            want = [predict_saddles(ABParams(alpha, 0.2, float(g), n)).count > 0
                    for g in gammas]
            assert got.tolist() == want
            assert [_saddles_exist(n, 0.2, alpha, float(g)) for g in gammas] == want


class TestSphericalEquivalent:
    def test_values(self):
        assert spherical_equivalent(0.0, 3.5) == 0.0
        assert spherical_equivalent(0.2, 3.5) == pytest.approx(0.11311352212694709, rel=1e-12)
        assert spherical_equivalent(1.0, 3.0) == pytest.approx(0.7698003589195009, rel=1e-12)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            spherical_equivalent(0.2, 0.0)


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
            expected = _named_bounds(4, 0.2, g)["alpha1_plus"]
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
            rows = _family_rows(n, 0.2, g)
            for i, a in enumerate(d.alpha_values.tolist()):
                for bit, family in ((1, EVEN_FAMILY), (2, ODD_FAMILY)):
                    if any(strictly_inside(g, a, row) for row in rows[family]):
                        want[i, j] |= bit
        assert 0 < np.count_nonzero(want) < want.size
        np.testing.assert_array_equal(d.family_codes, want)
        np.testing.assert_array_equal(
            d.counts, n * np.array([[bin(c).count("1") for c in r] for r in want]))

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            region_diagram(4, 0.2, resolution=1)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_non_finite_beta(self, beta):
        with pytest.raises(ValueError):
            region_diagram(4, beta, resolution=5)

    def test_single_cell_window(self):
        d = region_diagram(4, 0.2, gamma_range=(0.1, 0.1001),
                           alpha_range=(0.0, 0.0001), resolution=2)
        assert d.counts.shape == (2, 2)


def strictly_inside(gamma: float, alpha: float, row) -> bool:
    """The strict row rule, one cell at a time: on each axis every present
    bound (None is absent) must be beaten by more than
    1e-12 * max(1, |value|, |lo|, |hi|)."""
    for value, lo, hi in ((gamma, row.gamma_lo, row.gamma_hi),
                          (alpha, row.alpha_lo, row.alpha_hi)):
        present = [b for b in (lo, hi) if b is not None]
        tol = 1e-12 * max([1.0, abs(value)] + [abs(b) for b in present])
        if lo is not None and not value - lo > tol:
            return False
        if hi is not None and not hi - value > tol:
            return False
    return True

"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all
even on success).  The reference wavefronts and their published counts
and verdicts live in conftest.FIXTURE_PARAMS.
"""

import math
import time

import numpy as np

from conftest import FIXTURE_PARAMS, circular_deviation
from starburst import (
    ABParams,
    admissible_gamma_interval,
    build_field,
    find_critical_points,
    rescale_check,
    saddle_upper_bound,
    starburst_verdict,
)
from starburst.caustics import _PolylineDistance, _rotate
from starburst.cli import run_verification

FIXTURE_ORDER = ["3star", "5star", "4star", "6star", "8stars"]


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_fixture_reproduction(analyses):
    """Published cusp/saddle counts and verdicts, under 30 s at grid 512."""
    t0 = time.perf_counter()
    results = []
    ok = True
    for name in FIXTURE_ORDER:
        a = analyses[name]
        verdict = starburst_verdict(a.caustics)
        got = (
            len(a.search.points),
            len(a.search.saddles),
            verdict.point_count,
            verdict.kind,
        )
        want = (a.expected_cusps, a.expected_saddles, a.expected_points, a.expected_kind)
        ok &= got == want
        results.append(f"{name} {got}")
    # rebuild one fixture end to end to time the full pipeline honestly
    from conftest import FixtureAnalysis

    t_build = time.perf_counter()
    for name in FIXTURE_ORDER:
        FixtureAnalysis(name, grid=512)
    elapsed = time.perf_counter() - t_build
    ok &= elapsed < 30.0
    _report(
        "criterion 1 (fixture reproduction)",
        ok,
        f"{'; '.join(results)}; rebuild time {elapsed:.1f}s < 30s",
    )


def test_criterion_2_closed_form_oracle():
    """500 samples per order: 100% count/family agreement, radii to 1e-8."""
    t0 = time.perf_counter()
    all_ok = True
    details = []
    for n in (3, 4, 5, 6):
        result = run_verification(n, 0.2, samples=500, seed=20_000 + n)
        all_ok &= result["failed"] == 0 and result["max_deviation"] < 1e-8
        details.append(
            f"n={n}: {result['passed']}/500, dev {result['max_deviation']:.1e}"
        )
    elapsed = time.perf_counter() - t0
    all_ok &= elapsed < 300.0
    _report(
        "criterion 2 (closed form vs numerical oracle)",
        all_ok,
        f"{'; '.join(details)}; {elapsed:.0f}s < 300s",
    )


def test_criterion_3_gamma_interval_endpoints():
    """Admissible gamma endpoints at beta=0.2, alpha=0."""
    cases = [(3, 2.5, 0.05), (4, 0.76, 0.02), (5, 0.45, 0.01), (6, 0.44, 0.01)]
    ok = True
    details = []
    for n, endpoint, tol in cases:
        lo, hi = admissible_gamma_interval(n, 0.2, 0.0)
        good = abs(hi - endpoint) <= tol and abs(lo + endpoint) <= tol
        ok &= good
        details.append(f"n={n}: {hi:.4f} vs {endpoint}+-{tol}")
    _report("criterion 3 (gamma interval endpoints)", ok, "; ".join(details))


def test_criterion_4_saddle_count_bound():
    """1000 random non-degenerate samples never exceed (n-2)(2n-5)."""
    rng = np.random.default_rng(404)
    checked = 0
    worst = 0.0
    ok = True
    while checked < 1000:
        n = int(rng.integers(3, 7))
        gamma = float(rng.uniform(0.01, 0.5)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        p = ABParams(
            float(rng.uniform(-1.5, 1.5)),
            float(rng.uniform(0.05, 0.4)),
            gamma,
            n,
        )
        w = p.to_wavefront()
        res = find_critical_points(build_field(w))
        if res.degenerate:
            continue
        checked += 1
        bound = saddle_upper_bound(w)
        worst = max(worst, len(res.saddles) / bound)
        ok &= len(res.saddles) <= bound
    _report(
        "criterion 4 (saddle count bound)",
        ok,
        f"1000 samples, max saddles/bound ratio {worst:.2f}",
    )


def test_criterion_5_scale_invariance(analyses):
    """rescale_check passes for every fixture and r in {0.5, 2, 3.5}."""
    ok = True
    worst = 0.0
    for name in FIXTURE_ORDER:
        for factor in (0.5, 2.0, 3.5):
            report = rescale_check(analyses[name].aberration, factor)
            ok &= report.passed and report.max_position_error < 1e-8
            worst = max(worst, report.max_position_error)
    _report(
        "criterion 5 (pupil scale invariance)",
        ok,
        f"15 checks, max normalized position error {worst:.2e} < 1e-8",
    )


def test_criterion_6_ring_structure():
    """Saddle radii agree to 1e-8 within rings; angles form an n-fold lattice."""
    rng = np.random.default_rng(606)
    checked = 0
    worst_rho = 0.0
    worst_angle = 0.0
    ok = True
    while checked < 200:
        n = int(rng.integers(3, 7))
        p = ABParams(
            float(rng.uniform(-0.5, 0.7)),
            float(rng.uniform(0.1, 0.3)),
            float(rng.uniform(0.02, 0.45)) * (1.0 if rng.uniform() < 0.5 else -1.0),
            n,
        )
        res = find_critical_points(build_field(p.to_wavefront()))
        saddles = res.saddles
        if res.degenerate or not saddles:
            continue
        checked += 1
        rings = []
        for s in sorted(saddles, key=lambda q: q.rho):
            if rings and abs(s.rho - rings[-1][0].rho) < 1e-6:
                rings[-1].append(s)
            else:
                rings.append([s])
        for ring in rings:
            if len(ring) != n:
                ok = False
                continue
            spread = max(s.rho for s in ring) - min(s.rho for s in ring)
            worst_rho = max(worst_rho, spread)
            base = min(s.theta for s in ring)
            lattice = [base + 2 * math.pi * k / n for k in range(n)]
            dev = circular_deviation([s.theta for s in ring], lattice)
            worst_angle = max(worst_angle, dev)
            ok &= spread < 1e-8 and dev < 1e-8
    _report(
        "criterion 6 (uniform ring structure)",
        ok,
        f"200 saddle-bearing samples, max radius spread {worst_rho:.1e}, "
        f"max lattice deviation {worst_angle:.1e} rad",
    )


def test_criterion_7_retina_symmetry(analyses):
    """Retina vertex clouds invariant under 2 pi / n rotation (1e-3 x diameter)."""
    ok = True
    details = []
    for name in FIXTURE_ORDER:
        a = analyses[name]
        curves = list(a.caustics.retina_curves)
        cloud = np.concatenate(curves)
        center = a.caustics.center
        diameter = 2.0 * float(np.max(np.linalg.norm(cloud - center, axis=1)))
        geom = _PolylineDistance(curves)
        angle = 2.0 * math.pi / a.n
        residual = max(
            float(geom.distances(_rotate(cloud, angle, center)).max()),
            float(geom.distances(_rotate(cloud, -angle, center)).max()),
        )
        good = residual < 1e-3 * diameter
        ok &= good
        details.append(f"{name}: {residual:.1e} < {1e-3 * diameter:.1e}")
    _report("criterion 7 (symmetry preservation)", ok, "; ".join(details))


def test_criterion_8_two_ring_regimes():
    """Two-ring samples: n=5 gives 10 saddles in two rings of 5; n=6 gives 12."""
    ok = True
    details = []
    for p, n_expected in ((ABParams(0.15, 0.2, 0.1, 5), 5), (ABParams(0.5, 0.2, 0.1, 6), 6)):
        res = find_critical_points(build_field(p.to_wavefront()))
        saddles = res.saddles
        rhos = sorted({round(s.rho, 6) for s in saddles})
        ring_sizes = [
            sum(1 for s in saddles if abs(s.rho - r) < 1e-6) for r in rhos
        ]
        good = (
            len(saddles) == 2 * n_expected
            and len(rhos) == 2
            and ring_sizes == [n_expected, n_expected]
        )
        ok &= good
        details.append(
            f"n={p.n}: {len(saddles)} saddles in rings {ring_sizes} at {rhos}"
        )
    _report("criterion 8 (two-ring regimes)", ok, "; ".join(details))


def test_criterion_9_derivative_correctness(analyses):
    """Analytic grad G / Hess G match finite differences to 1e-5."""
    rng = np.random.default_rng(909)
    h = 1e-6
    worst = 0.0
    ok = True
    for name in FIXTURE_ORDER:
        field = analyses[name].field
        rho = np.sqrt(rng.uniform(0.0, 1.0, 1000))
        theta = rng.uniform(0.0, 2.0 * np.pi, 1000)
        x, y = rho * np.sin(theta), rho * np.cos(theta)
        pairs = [
            (field.Gx, lambda u, v: (field.G(u + h, v) - field.G(u - h, v)) / (2 * h)),
            (field.Gy, lambda u, v: (field.G(u, v + h) - field.G(u, v - h)) / (2 * h)),
            (field.Gxx, lambda u, v: (field.Gx(u + h, v) - field.Gx(u - h, v)) / (2 * h)),
            (field.Gxy, lambda u, v: (field.Gx(u, v + h) - field.Gx(u, v - h)) / (2 * h)),
            (field.Gyy, lambda u, v: (field.Gy(u, v + h) - field.Gy(u, v - h)) / (2 * h)),
        ]
        for exact, approx in pairs:
            err = float(np.max(np.abs(exact(x, y) - approx(x, y))))
            worst = max(worst, err)
            ok &= err < 1e-5
    _report(
        "criterion 9 (derivative correctness)",
        ok,
        f"5 fixtures x 1000 points x 5 derivatives, max error {worst:.1e} < 1e-5",
    )

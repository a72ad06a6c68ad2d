"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all
even on success).  The reference wavefronts and their published counts
and verdicts live in starburst.cli.FIXTURE_SCENARIOS.
"""

import math
import time

import numpy as np
import pytest

from conftest import circular_deviation
from starburst import (
    ABParams,
    admissible_gamma_interval,
    build_field,
    census_from_stacks,
    find_critical_points,
    rescale_check,
    saddle_upper_bound,
    starburst_verdict,
    three_term_stacks,
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


@pytest.fixture(scope="module")
def criterion_2_runs():
    """Criterion 2's four `run_verification` runs, run once, and their wall
    time."""
    t0 = time.perf_counter()
    runs = [run_verification(n, 0.2, samples=500, seed=20_000 + n) for n in (3, 4, 5, 6)]
    return runs, time.perf_counter() - t0


def test_criterion_2_closed_form_oracle(criterion_2_runs):
    """500 samples per order: 100% count/family agreement, radii to 1e-8."""
    runs, elapsed = criterion_2_runs
    all_ok = elapsed < 300.0
    details = []
    for result in runs:
        all_ok &= result["failed"] == 0 and result["max_deviation"] < 1e-8
        details.append(
            f"n={result['n']}: {result['passed']}/500, dev {result['max_deviation']:.1e}"
        )
    _report(
        "criterion 2 (closed form vs numerical oracle)",
        all_ok,
        f"{'; '.join(details)}; {elapsed:.0f}s < 300s",
    )


def test_criterion_2_rings_located_to_rounding(criterion_2_runs):
    """Criterion 2's largest ring deviation is at most 1e-12 for every order.
    Its own 1e-8 also passes a search that stops at 1e-12 of the grid's
    largest |grad G| (7.7e-10 at n = 6); this bound does not."""
    deviations = [r["max_deviation"] for r in criterion_2_runs[0]]
    assert max(deviations) <= 1e-12, deviations


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
    """1000 random non-degenerate samples never exceed (n-2)(2n-5).

    The samples are drawn in one stream, 32 at a time, and each batch is
    censused one stack per n, as `verify` does; draws after the 1000th
    non-degenerate sample are left unchecked."""
    rng = np.random.default_rng(404)
    checked = 0
    worst = 0.0
    ok = True
    while checked < 1000:
        batch = []
        for _ in range(32):
            n = int(rng.integers(3, 7))
            gamma = float(rng.uniform(0.01, 0.5)) * (1.0 if rng.uniform() < 0.5 else -1.0)
            p = ABParams(
                float(rng.uniform(-1.5, 1.5)),
                float(rng.uniform(0.05, 0.4)),
                gamma,
                n,
            )
            batch.append(p)
        censuses = {}
        for n in {p.n for p in batch}:
            at = [k for k, p in enumerate(batch) if p.n == n]
            coeffs = np.array([(batch[k].alpha, batch[k].beta, batch[k].gamma) for k in at]).T
            censuses.update(zip(at, census_from_stacks(three_term_stacks(n, *coeffs), n)))
        for k, res in sorted(censuses.items()):
            if res.degenerate or checked == 1000:
                continue
            checked += 1
            bound = saddle_upper_bound(batch[k].to_wavefront())
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
        geom = _PolylineDistance(curves, 1e-3 * diameter)  # exact below the bound
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
        G = field.G
        Gx, Gy = G.differentiate("x"), G.differentiate("y")
        pairs = [
            (Gx, lambda u, v: (G(u + h, v) - G(u - h, v)) / (2 * h)),
            (Gy, lambda u, v: (G(u, v + h) - G(u, v - h)) / (2 * h)),
            (Gx.differentiate("x"), lambda u, v: (Gx(u + h, v) - Gx(u - h, v)) / (2 * h)),
            (Gx.differentiate("y"), lambda u, v: (Gx(u, v + h) - Gx(u, v - h)) / (2 * h)),
            (Gy.differentiate("y"), lambda u, v: (Gy(u, v + h) - Gy(u, v - h)) / (2 * h)),
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

"""Golden-output regression: `run_analysis` against committed report.json files.

Each file in tests/golden/polar/ is a report.json written by `analyze` for
one scenario (the five reference starbursts and a radial-order-12
wavefront, all at grid 512) on the polar contour mesh.  The scenario is
rebuilt from the file's own echo, the analysis is rerun, and the fresh
report is compared with the golden one: counts, classes, flags and verdicts
exactly, floats to 1e-9 relative (with a 1e-12 absolute floor for values
that are zero up to rounding).

The files in tests/golden/ itself were written on the Cartesian grid that
the polar mesh replaced.  They stay as a cross-mesh check: every value
agrees as above except the spike tips, whose count must agree and whose
radii, in order, must lie within 1e-3 arcmin (a tip may move to its mirror
partner, so its angle is not compared), and the rotation residual, which
must be at rounding level where the Cartesian grid had left up to 3.0e-4.
"""

import json
import math
from pathlib import Path

import pytest

from starburst.cli import Scenario, run_analysis, write_report_json

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*.json"))
POLAR_FILES = sorted((GOLDEN_DIR / "polar").glob("*.json"))
REL_TOL = 1e-9
ABS_TOL = 1e-12
TIP_RADIUS_TOL = 1e-3  # arcmin, between the Cartesian and the polar mesh


def scenario_from_echo(echo: dict) -> Scenario:
    raw = {
        key: echo[key]
        for key in ("pupil_radius_mm", "grid_resolution",
                    "visibility_threshold_arcmin", "fertility_distance")
    }
    if "shorthand" in echo:
        raw.update(echo["shorthand"])
    else:
        raw["wavefront"] = echo["wavefront"]
    return Scenario.from_dict(raw)


def differences(got, want, path="report"):
    """Paths at which `got` and `want` disagree beyond the tolerances."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in sorted(want) for d in differences(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, f"{path}[{i}]")]
    same = type(got) is type(want) and (
        math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        if isinstance(want, float) else got == want
    )
    return [] if same else [f"{path}: {got!r} != {want!r}"]


def test_golden_set_is_complete():
    names = {"3star", "4star", "5star", "6star", "8stars", "highorder"}
    assert {p.stem for p in GOLDEN_FILES} == {p.stem for p in POLAR_FILES} == names


def fresh_report(golden: Path, tmp_path: Path) -> tuple[dict, dict]:
    """(fresh report, golden report) for the golden file's scenario, the
    fresh one serialized as `analyze` writes it."""
    want = json.loads(golden.read_text(encoding="utf-8"))
    report, _ = run_analysis(scenario_from_echo(want["scenario"]))
    write_report_json(tmp_path / "report.json", report)
    return json.loads((tmp_path / "report.json").read_text(encoding="utf-8")), want


@pytest.mark.parametrize("golden", POLAR_FILES, ids=lambda p: p.stem)
def test_report_matches_golden(golden, tmp_path):
    got, want = fresh_report(golden, tmp_path)
    assert differences(got, want) == []


@pytest.mark.parametrize("golden", GOLDEN_FILES, ids=lambda p: p.stem)
def test_report_is_near_the_cartesian_golden(golden, tmp_path):
    got, want = fresh_report(golden, tmp_path)
    tips, old_tips = (r["starburst"].pop("spike_tips") for r in (got, want))
    residual, old_residual = (r["starburst"].pop("rotation_residual") for r in (got, want))
    assert differences(got, want) == []
    assert len(tips) == len(old_tips)
    for tip, old in zip(tips, old_tips):
        assert abs(tip["radius_arcmin"] - old["radius_arcmin"]) < TIP_RADIUS_TOL
    assert old_residual is not None
    assert residual < 1e-12 * max(t["radius_arcmin"] for t in tips)


def test_comparator_flags_changes():
    want = {"counts": {"saddles": 3}, "x": 1.0, "kind": "saddle", "tips": [0.5]}
    assert differences(want, want) == []
    assert differences({**want, "x": 1.0 + 1e-12}, want) == []
    assert differences({**want, "x": 1.0 + 1e-6}, want) == ["report.x: 1.000001 != 1.0"]
    assert differences({**want, "counts": {"saddles": 4}}, want)
    assert differences({**want, "kind": "extremum"}, want)
    assert differences({**want, "tips": [0.5, 0.6]}, want)
    assert differences({**want, "counts": {"saddles": 3.0}}, want)

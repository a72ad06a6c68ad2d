import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import starburst
from starburst import (
    ABParams,
    CapabilityError,
    CriticalPoint,
    CriticalPointSearch,
    PointClass,
    cli,
    predict_saddles,
    region_diagram,
)
from starburst.cli import (
    ANALYZE_FILES,
    Scenario,
    _output_dir,
    _verification_samples,
    _verify_sample,
    build_parser,
    main,
    run_analysis,
    run_verification,
    write_report_json,
)
from starburst.regions import DEFAULT_WINDOWS


# a valid 3star shorthand scenario, left open for more keys
SHORTHAND_3 = '{"alpha": 0, "beta": 0.2, "gamma": 0.2, "n": 3'


def make_scenario_file(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestScenarioParsing:
    def test_shorthand_expansion(self):
        s = Scenario.from_dict({"alpha": 0.0, "beta": 0.2, "gamma": 0.2, "n": 3})
        assert {(t.n, t.m) for t in s.wavefront.terms} == {(4, 0), (3, 3)}
        assert s.wavefront.pupil_radius == 3.5

    def test_explicit_terms(self):
        s = Scenario.from_dict(
            {"wavefront": [{"n": 4, "m": 0, "coeff_um": 0.2},
                           {"n": 3, "m": 3, "coeff_um": 0.2}],
             "pupil_radius_mm": 3.0}
        )
        assert s.wavefront.pupil_radius == 3.0
        assert s.shorthand is None

    def test_mutual_exclusion(self):
        with pytest.raises(ValueError):
            Scenario.from_dict(
                {"alpha": 0.0, "beta": 0.2, "gamma": 0.2, "n": 3,
                 "wavefront": [{"n": 4, "m": 0, "coeff_um": 0.2}]}
            )

    def test_missing_wavefront(self):
        with pytest.raises(ValueError):
            Scenario.from_dict({"pupil_radius_mm": 3.5})

    def test_scenario_is_frozen_without_defaults(self):
        s = Scenario.from_dict({"alpha": 0.0, "beta": 0.2, "gamma": 0.2, "n": 3})
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.output_dir = "elsewhere"
        assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(Scenario))

    def test_pupil_radius_is_the_wavefronts(self):
        # the echo and the retina map read the one pupil radius; retina
        # angles scale as 1 / pupil radius
        reports = {}
        for pupil in (3.0, 3.5):
            scenario = Scenario.from_dict({"alpha": 0.0, "beta": 0.2, "gamma": 0.2, "n": 3,
                                           "grid_resolution": 64, "pupil_radius_mm": pupil})
            report, (_, _, caustics, _) = run_analysis(scenario)
            assert caustics.aberration.pupil_radius == pupil
            reports[pupil] = report
        assert reports[3.0]["scenario"]["pupil_radius_mm"] == 3.0
        for at_3, at_35 in zip(reports[3.0]["critical_points"], reports[3.5]["critical_points"]):
            for key in ("xi_arcmin", "eta_arcmin"):
                assert at_3[key] == pytest.approx(at_35[key] * 3.5 / 3.0, rel=1e-12, abs=1e-12)

    def test_incomplete_shorthand(self):
        with pytest.raises(ValueError):
            Scenario.from_dict({"alpha": 0.0, "beta": 0.2})


class TestAnalyzeCommand:
    def test_fixture_scenario_file(self, tmp_path):
        scen = make_scenario_file(
            tmp_path,
            {"alpha": 0.0, "beta": 0.2, "gamma": 0.2, "n": 3,
             "grid_resolution": 256, "output_dir": str(tmp_path / "out")},
        )
        assert main(["analyze", "--scenario", scen]) == 0
        outdir = tmp_path / "out"
        for fname in (
            "report.json",
            "contours_pupil.csv",
            "contours_retina.csv",
            "critical_points.csv",
            "wavefront.svg",
            "hessian_full.svg",
            "hessian_clipped.svg",
            "retina.svg",
        ):
            assert (outdir / fname).exists(), fname
        report = json.loads((outdir / "report.json").read_text())
        assert report["counts"]["critical_points"] == 7
        assert report["counts"]["saddles"] == 3
        assert report["starburst"]["point_count"] == 3
        assert report["saddle_prediction"]["count"] == 3

    @pytest.mark.parametrize("axial", ["gamma", "scenario"])
    def test_axially_symmetric_wavefront(self, tmp_path, capsys, axial):
        # gamma = 0, or only m = 0 terms: the ring caustic gets no p-fold verdict
        out = str(tmp_path / "out")
        if axial == "gamma":
            argv = ["--alpha", "0", "--beta", "0.2", "--gamma", "0", "--n", "3", "--grid", "128"]
        else:
            argv = ["--scenario", make_scenario_file(tmp_path, {
                "grid_resolution": 128,
                "wavefront": [{"n": 6, "m": 0, "coeff_um": 0.05}, {"n": 4, "m": 0, "coeff_um": 0.2}]})]
        assert main(["analyze", *argv, "--out", out]) == 0
        assert "verdict: 0 points (none), p=0\n" in capsys.readouterr().out
        star = json.loads((tmp_path / "out" / "report.json").read_text())["starburst"]
        assert (star["p_fold"], star["kind"], star["detail"], star["rotation_residual"]) == (
            0, "none", "axially symmetric wavefront", None)

    def test_invalid_scenario_exit_code(self, tmp_path):
        scen = make_scenario_file(tmp_path, {"alpha": 0.1})
        assert main(["analyze", "--scenario", scen]) == 2

    def test_small_grid_in_scenario_file_exit_code(self, tmp_path, capsys):
        scen = make_scenario_file(
            tmp_path,
            {"alpha": 0.0, "beta": 0.2, "gamma": 0.2, "n": 3, "grid_resolution": 10,
             "output_dir": str(tmp_path / "out")},
        )
        assert main(["analyze", "--scenario", scen]) == 2
        assert "error: grid_resolution must be at least 64" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_small_grid_flag_exit_code(self, tmp_path, capsys):
        assert main(["analyze", "--alpha", "0", "--beta", "0.2", "--gamma", "0.2",
                     "--n", "3", "--grid", "10", "--out", str(tmp_path / "out")]) == 2
        assert "error: grid_resolution must be at least 64" in capsys.readouterr().err

    def test_grid_cap(self, tmp_path, capsys):
        # one past the cap, in the file and as the flag: rejected before any
        # grid is built, so no MemoryError
        want = "error: grid_resolution must be at least 64 and at most 4096"
        scen = make_scenario_file(
            tmp_path,
            {"alpha": 0.0, "beta": 0.2, "gamma": 0.2, "n": 3, "grid_resolution": 4097,
             "output_dir": str(tmp_path / "out")},
        )
        assert main(["analyze", "--scenario", scen]) == 2
        assert want in capsys.readouterr().err
        assert main(["analyze", "--alpha", "0", "--beta", "0.2", "--gamma", "0.2",
                     "--n", "3", "--grid", "4097", "--out", str(tmp_path / "out")]) == 2
        assert want in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_term_coefficient_in_scenario_file_exit_code(self, tmp_path, capsys):
        for value in ("NaN", "Infinity"):
            path = tmp_path / "scenario.json"
            path.write_text(
                '{"wavefront": [{"n": 4, "m": 0, "coeff_um": 0.2}, '
                f'{{"n": 3, "m": 3, "coeff_um": {value}}}]}}'
            )
            assert main(["analyze", "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == 2
            assert "error: coefficient must be finite" in capsys.readouterr().err

    def test_overflowing_coefficients_in_scenario_file_exit_code(self, tmp_path, capsys):
        # finite coefficients whose Hessian determinant overflows
        scen = make_scenario_file(tmp_path, {"wavefront": [
            {"n": 4, "m": 0, "coeff_um": 1e305}, {"n": 3, "m": 3, "coeff_um": 1e300}]})
        assert main(["analyze", "--scenario", scen, "--out", str(tmp_path / "out")]) == 2
        assert "error: wavefront coefficients overflow" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_coefficient_flags_exit_code(self, tmp_path, capsys):
        assert main(["analyze", "--alpha", "0", "--beta", "1e305", "--gamma", "1e300",
                     "--n", "3", "--out", str(tmp_path / "out")]) == 2
        assert "error: wavefront coefficients overflow" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_huge_finite_coefficient_flags_exit_code(self, tmp_path, capsys):
        # G's coefficients (about 1e300) are finite; det(Hess G) is not
        assert main(["analyze", "--alpha", "0", "--beta", "1e150", "--gamma", "1e150",
                     "--n", "3", "--grid", "64", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: wavefront coefficients overflow")
        assert not (tmp_path / "out").exists()

    def test_huge_finite_coefficients_in_scenario_file_exit_code(self, tmp_path, capsys):
        scen = make_scenario_file(tmp_path, {"alpha": 0, "beta": 1e150, "gamma": 1e150,
                                             "n": 3, "grid_resolution": 64})
        assert main(["analyze", "--scenario", scen, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: wavefront coefficients overflow")
        assert not (tmp_path / "out").exists()

    def test_underflowing_coefficient_flags_exit_code(self, tmp_path, capsys):
        # G (about 1e-180) is too small to square: the census would lose its
        # digits, not report a short or empty one; below about 1e-162 the
        # products of G round to 0, which is no constant G either
        for coeff in ("1e-90", "1e-170", "1e-300"):
            out = tmp_path / coeff
            assert main(["analyze", "--alpha", "0", "--beta", coeff, "--gamma", coeff,
                         "--n", "3", "--grid", "64", "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "error: wavefront coefficients underflow the Hessian determinant\n")
            assert not out.exists()

    def test_small_coefficient_flags_full_census(self, tmp_path, capsys):
        assert main(["analyze", "--alpha", "0", "--beta", "1e-20", "--gamma", "1e-20",
                     "--n", "3", "--grid", "64", "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.startswith("analyzed: 7 cusps of Gauss, 3 saddles")

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        assert main(["analyze", "--alpha", "0", "--beta", "0.2", "--gamma", "0.2", "--n", "3",
                     "--grid", "64", "--out", str(tmp_path / "afile" / "sub")]) == 2
        assert "error: " in capsys.readouterr().err

    def test_unusable_out_fails_before_the_analysis(self, tmp_path, capsys, monkeypatch):
        # the directory is made first, so an --out under a regular file
        # fails at once, not after the whole computation
        calls = []
        monkeypatch.setattr(cli, "run_analysis", lambda *a: calls.append(a))
        (tmp_path / "afile").write_text("")
        assert main(["analyze", "--alpha", "0", "--beta", "0.2", "--gamma", "0.2", "--n", "3",
                     "--grid", "4096", "--out", str(tmp_path / "afile" / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ") and calls == []

    def test_failed_analysis_removes_only_the_directories_it_made(self, tmp_path):
        argv = ["analyze", "--alpha", "0", "--beta", "1e305", "--gamma", "1e300", "--n", "3"]
        assert main(argv + ["--out", str(tmp_path / "new" / "deeper")]) == 2
        assert list(tmp_path.iterdir()) == []
        (tmp_path / "old").mkdir()
        assert main(argv + ["--out", str(tmp_path / "old" / "new")]) == 2
        assert [p.name for p in tmp_path.rglob("*")] == ["old"]

    def test_failed_analysis_keeps_a_directory_another_writer_filled(self, tmp_path):
        out = tmp_path / "new" / "out"
        with pytest.raises(RuntimeError):
            with _output_dir(out, ANALYZE_FILES):
                (out / "other.txt").write_text("kept")
                raise RuntimeError
        assert (out / "other.txt").read_text() == "kept"

    def test_output_file_collision_exit_code(self, tmp_path, capsys):
        # a directory where report.json goes: the write fails after the analysis
        (tmp_path / "out" / "report.json").mkdir(parents=True)
        assert main(["analyze", "--alpha", "0", "--beta", "0.2", "--gamma", "0.2", "--n", "3",
                     "--grid", "64", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_finite_shorthand_in_scenario_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text('{"alpha": NaN, "beta": 0.2, "gamma": 0.2, "n": 3}')
        assert main(["analyze", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "error: alpha must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--alpha", "--beta", "--gamma", "--pupil-radius", "--threshold"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_flag_exit_code(self, tmp_path, capsys, flag, value):
        args = {"--alpha": "0", "--beta": "0.2", "--gamma": "0.2"}
        args[flag] = value
        argv = ["analyze", "--n", "3", "--out", str(tmp_path / "out")]
        assert main(argv + [f"{name}={v}" for name, v in args.items()]) == 2
        assert f"error: argument {flag}: {value} is not a finite number" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_non_finite_pupil_radius_in_scenario_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text('{"alpha": 0.0, "beta": 0.2, "gamma": 0.2, "n": 3, '
                        '"pupil_radius_mm": NaN}')
        assert main(["analyze", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "error: pupil_radius must be positive and finite" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "0", "-1"])
    def test_bad_threshold_in_scenario_file_exit_code(self, tmp_path, capsys, value):
        path = tmp_path / "scenario.json"
        path.write_text('{"alpha": 0.0, "beta": 0.2, "gamma": 0.2, "n": 3, '
                        f'"visibility_threshold_arcmin": {value}}}')
        assert main(["analyze", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "error: visibility_threshold_arcmin must be positive and finite" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-1", "-1e-9"])
    def test_bad_fertility_distance_in_scenario_file_exit_code(
            self, tmp_path, capsys, value):
        path = tmp_path / "scenario.json"
        path.write_text('{"alpha": 0.0, "beta": 0.2, "gamma": 0.2, "n": 3, '
                        f'"fertility_distance": {value}}}')
        assert main(["analyze", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "error: fertility_distance must be non-negative and finite" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "body,message",
        [
            pytest.param("[1]", "scenario must be a JSON object", id="top-level-list"),
            pytest.param('{"wavefront": 5}', "wavefront must be a list of {n, m, coeff_um} "
                         "objects", id="wavefront-int"),
            pytest.param('{"wavefront": [1]}', "wavefront must be a list of {n, m, coeff_um} "
                         "objects", id="wavefront-item-int"),
            pytest.param('{"alpha": null, "beta": 0.2, "gamma": 0.2, "n": 3}',
                         "alpha must be a number, got null", id="alpha-null"),
            pytest.param(SHORTHAND_3 + ', "grid_resolution": null}',
                         "grid_resolution must be a number, got null", id="grid-null"),
            pytest.param('{"alpha": 0, "beta": 0.2, "gamma": 0.2, "n": 3.7}',
                         "supported orders are (3, 4, 5, 6), got n=3.7", id="n-fraction"),
            pytest.param('{"wavefront": [{"m": 0, "coeff_um": 0.2}]}',
                         "n is missing", id="term-n-missing"),
            pytest.param('{"wavefront": [{"n": 4.5, "m": 0, "coeff_um": 0.2}]}',
                         "n must be an integer, got 4.5", id="term-n-fraction"),
            pytest.param('{"wavefront": [{"n": Infinity, "m": 0, "coeff_um": 0.2}]}',
                         "n must be an integer, got inf", id="term-n-inf"),
            pytest.param(SHORTHAND_3 + ', "grid_resolution": 64.9}',
                         "grid_resolution must be an integer, got 64.9", id="grid-fraction"),
            pytest.param(SHORTHAND_3 + ', "grid_resolution": Infinity}',
                         "grid_resolution must be an integer, got inf", id="grid-inf"),
            pytest.param(SHORTHAND_3 + ', "output_dir": null}',
                         "output_dir must be a string", id="output-dir-null"),
        ],
    )
    def test_malformed_scenario_file_exit_code(self, tmp_path, capsys, body, message):
        path = tmp_path / "scenario.json"
        path.write_text(body)
        assert main(["analyze", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--alpha", "0.1"], ["--n", "4"], ["--pupil-radius", "3"], ["--grid", "64"],
         ["--threshold", "50"], ["--grid", "64", "--threshold", "50", "--gamma", "0.5"]],
    )
    def test_flags_with_scenario_file_exit_code(self, tmp_path, capsys, flags):
        scen = make_scenario_file(
            tmp_path, {"alpha": 0.0, "beta": 0.2, "gamma": 0.2, "n": 3})
        assert main(["analyze", "--scenario", scen,
                     "--out", str(tmp_path / "out")] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cannot be combined with --scenario" in err
        assert all(f in err for f in flags if f.startswith("--"))
        assert not (tmp_path / "out").exists()

    def test_zero_fertility_distance_accepted(self):
        s = Scenario.from_dict({"alpha": 0.0, "beta": 0.2, "gamma": 0.2, "n": 3,
                                "fertility_distance": 0})
        assert s.fertility_distance == 0.0

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_threshold_flag_exit_code(self, tmp_path, capsys, value):
        assert main(["analyze", "--alpha", "0", "--beta", "0.2", "--gamma", "0.2",
                     "--n", "3", f"--threshold={value}",
                     "--out", str(tmp_path / "out")]) == 2
        assert "error: visibility_threshold_arcmin must be positive and finite" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("radius,message", [
        ("1e-300", ("error: retina caustic overflows the distance arithmetic at pupil radius "
                    "1e-300 mm")),
        ("1e-310", "error: retina map is not finite at pupil radius 1e-310 mm"),
    ])
    def test_tiny_pupil_radius_exit_code(self, tmp_path, capsys, radius, message):
        assert main(["analyze", "--alpha", "0", "--beta", "0.2", "--gamma", "0.2",
                     "--n", "3", "--grid", "64", f"--pupil-radius={radius}",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "out").exists()

    def test_small_pupil_radius_still_analyzed(self, tmp_path):
        assert main(["analyze", "--alpha", "0", "--beta", "0.2", "--gamma", "0.2",
                     "--n", "3", "--grid", "64", "--pupil-radius=1e-100",
                     "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("radius", ["1e158", "1e170"])
    def test_huge_pupil_radius_exit_code(self, tmp_path, capsys, radius):
        # the retina caustic shrinks as 1 / radius: squared at its tolerance,
        # its distances would be subnormal, and the rotation residual noise
        # (at 1e170 the caustic cloud's norms underflow to 0)
        assert main(["analyze", "--alpha", "0", "--beta", "0.2", "--gamma", "0.2",
                     "--n", "3", "--grid", "64", f"--pupil-radius={radius}",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: retina caustic underflows the distance arithmetic at pupil radius "
            f"{float(radius):g} mm\n")
        assert not (tmp_path / "out").exists()

    def test_large_pupil_radius_scales_the_residual(self, tmp_path):
        # the retina caustic at radius P is the unit pupil's scaled by 1 / P;
        # residual * P drifts with the residual's conditioning (1.8e-11 at
        # P = 1e150 for 3star at grid 512), not from a subnormal distance
        residuals = {}
        for radius in (1.0, 1e100, 1e140, 1e150):
            out = tmp_path / f"out{radius:g}"
            assert main(["analyze", "--alpha", "0", "--beta", "0.2", "--gamma", "0.2",
                         "--n", "3", "--grid", "64", f"--pupil-radius={radius:g}",
                         "--out", str(out)]) == 0
            star = json.loads((out / "report.json").read_text())["starburst"]
            assert star["p_fold"] == 3
            residuals[radius] = star["rotation_residual"]
        for radius in (1e100, 1e140, 1e150):
            assert residuals[radius] * radius == pytest.approx(residuals[1.0], rel=1e-9)

    def test_missing_flags_exit_code(self):
        assert main(["analyze", "--alpha", "0.1"]) == 2

    def test_zero_wavefront_degenerate(self, tmp_path):
        scen = make_scenario_file(
            tmp_path,
            {"wavefront": [], "grid_resolution": 128,
             "output_dir": str(tmp_path / "zero")},
        )
        assert main(["analyze", "--scenario", scen]) == 0
        report = json.loads((tmp_path / "zero" / "report.json").read_text())
        assert report["degenerate"]
        assert report["starburst"]["kind"] == "none"
        assert report["counts"]["contour_polylines"] == 0

    def test_determinism_and_round_trip(self, tmp_path):
        args = {"alpha": 0.0, "beta": 0.2, "gamma": 0.15, "n": 4,
                "grid_resolution": 128}
        s1 = make_scenario_file(
            tmp_path, {**args, "output_dir": str(tmp_path / "a")}, "s1.json")
        s2 = make_scenario_file(
            tmp_path, {**args, "output_dir": str(tmp_path / "b")}, "s2.json")
        assert main(["analyze", "--scenario", s1]) == 0
        assert main(["analyze", "--scenario", s2]) == 0
        ra = (tmp_path / "a" / "report.json").read_bytes()
        rb = (tmp_path / "b" / "report.json").read_bytes()
        assert ra == rb
        for fname in ("contours_pupil.csv", "retina.svg"):
            assert (tmp_path / "a" / fname).read_bytes() == (
                tmp_path / "b" / fname
            ).read_bytes()
        # JSON round trip is byte-stable
        payload = json.loads(ra)
        write_report_json(tmp_path / "rt.json", payload)
        assert (tmp_path / "rt.json").read_bytes() == ra

    def test_flag_invocation(self, tmp_path):
        out = str(tmp_path / "flags")
        assert main(["analyze", "--alpha", "0", "--beta", "0.2", "--gamma", "0.09",
                     "--n", "4", "--grid", "128", "--out", out]) == 0
        report = json.loads((tmp_path / "flags" / "report.json").read_text())
        assert report["starburst"]["point_count"] == 8
        assert report["starburst"]["kind"] == "non_equally_distanced"

    def test_adjacent_peaks_give_one_tip(self, tmp_path):
        # 6star with a little coma: two adjacent profile peaks share the
        # vertex (4.05925', 151.5453 deg), which is one tip, listed once
        out = tmp_path / "coma"
        scen = make_scenario_file(tmp_path, {
            "wavefront": [{"n": 4, "m": 0, "coeff_um": 0.2},
                          {"n": 6, "m": 6, "coeff_um": 0.19},
                          {"n": 3, "m": 1, "coeff_um": 0.005}],
            "grid_resolution": 256, "output_dir": str(out)})
        assert main(["analyze", "--scenario", scen]) == 0
        starburst = json.loads((out / "report.json").read_text())["starburst"]
        tips = [(t["radius_arcmin"], t["angle_deg"]) for t in starburst["spike_tips"]]
        assert len(tips) == len(set(tips)) == 2
        assert (4.05924967626, 151.545345127) in tips
        assert not starburst["detail"].startswith("3 tips")

    def test_no_fold_writes_no_residual(self, tmp_path):
        # 6star with 0.02 um of coma: no p in 2..12 holds, and the residual
        # field, which is the reported p's, stays null
        out = tmp_path / "coma"
        scen = make_scenario_file(tmp_path, {
            "wavefront": [{"n": 4, "m": 0, "coeff_um": 0.2},
                          {"n": 6, "m": 6, "coeff_um": 0.19},
                          {"n": 3, "m": 1, "coeff_um": 0.02}],
            "output_dir": str(out)})
        assert main(["analyze", "--scenario", scen]) == 0
        starburst = json.loads((out / "report.json").read_text())["starburst"]
        assert (starburst["p_fold"], starburst["rotation_residual"]) == (1, None)

    def test_flag_invocation_without_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", "--alpha", "0", "--beta", "0.2", "--gamma", "0.2",
                     "--n", "3", "--grid", "64"]) == 0
        assert (tmp_path / "starburst_out" / "report.json").exists()
        assert [p.name for p in tmp_path.iterdir()] == ["starburst_out"]
        assert "outputs in starburst_out (" in capsys.readouterr().out


@st.composite
def regions_cases(draw):
    """(n, res, window) of a `regions --beta 0.2` run: window is None for
    the default one, else a random part of it in micrometres, starting at
    gamma = 0 for one draw in three."""
    n = draw(st.sampled_from(sorted(DEFAULT_WINDOWS)))
    res = draw(st.integers(2, 41))
    kind = draw(st.sampled_from(["default", "part", "gamma0"]))
    if kind == "default":
        return n, res, None
    g0, g1, a0, a1 = (0.2 * v for v in DEFAULT_WINDOWS[n])
    window = []
    for lo, hi in ((g0, g1), (a0, a1)):
        f0, f1 = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2,
                                      unique=True)))
        window += [lo + (hi - lo) * f0, lo + (hi - lo) * f1]
    if kind == "gamma0":
        window[0] = 0.0
    if not (window[0] < window[1] and window[2] < window[3]):  # closed by rounding
        window = [0.0, 0.1, 0.0, 0.1]
    return n, res, tuple(window)


def per_cell_grid(d) -> bytes:
    """regions_grid.csv of diagram ``d`` as csv.writer writes it, one row
    per cell, alpha outer and gamma inner, axes at 12 significant digits."""
    out = io.StringIO()
    writer = csv.writer(out)  # the excel dialect: "\r\n" line ends
    writer.writerow(["gamma", "alpha", "count", "family"])
    names = ("none", "even", "odd", "both")
    for i, alpha in enumerate(d.alpha_values):
        for j, gamma in enumerate(d.gamma_values):
            writer.writerow(["%.12g" % gamma, "%.12g" % alpha, d.counts[i, j],
                             names[d.family_codes[i, j]]])
    return out.getvalue().encode()


def case_diagram(n, res, window):
    """The region diagram of a (n, res, window) case at beta = 0.2."""
    ranges = () if window is None else (window[:2], window[2:])
    return region_diagram(n, 0.2, *ranges, resolution=res)


# (n, res, window) cases run by every test_grid_matches_per_cell_writer,
# each checked for what it stands for in test_run_walk_cases_cover_their_edges
GAMMA0_CASE = (3, 41, (0.0, 4.0, -3.0, 24.0))  # gamma = 0 is the first sample
ONE_REGION_CASE = (4, 17, (-0.38, -0.27, -2.16, -1.1))  # every cell "even"
BOTH_CASES = ((5, 41, None), (6, 41, None))  # "both" family cells among others


class TestRegionsCommand:
    def test_outputs(self, tmp_path):
        out = str(tmp_path / "regions")
        assert main(["regions", "--n", "4", "--beta", "0.2", "--res", "31",
                     "--out", out]) == 0
        grid = (tmp_path / "regions" / "regions_grid.csv").read_text().splitlines()
        assert grid[0] == "gamma,alpha,count,family"
        assert len(grid) == 1 + 31 * 31
        svg = (tmp_path / "regions" / "regions.svg").read_text()
        assert "sqrt(2)b" in svg and "sqrt(15)b" in svg
        assert "alpha" in svg

    def test_unsupported_order(self, tmp_path):
        assert main(["regions", "--n", "7", "--beta", "0.2",
                     "--out", str(tmp_path)]) == 2

    def test_non_finite_beta(self, tmp_path, capsys):
        assert main(["regions", "--n", "4", "--beta", "nan",
                     "--out", str(tmp_path / "regions")]) == 2
        assert "error: argument --beta: nan is not a finite number" in (
            capsys.readouterr().err)
        assert not (tmp_path / "regions").exists()

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        assert main(["regions", "--n", "3", "--beta", "0.2", "--res", "11",
                     "--out", str(tmp_path / "afile" / "sub")]) == 2
        assert "error: " in capsys.readouterr().err

    def test_unusable_out_fails_before_the_diagram(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "region_diagram", lambda *a, **k: calls.append(a))
        (tmp_path / "afile").write_text("")
        assert main(["regions", "--n", "5", "--beta", "0.2", "--res", "1001",
                     "--out", str(tmp_path / "afile" / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ") and calls == []

    @pytest.mark.parametrize("name", ["regions.svg", "regions_grid.csv"])
    def test_output_file_collision_exit_code(self, name, tmp_path, capsys):
        (tmp_path / "out" / name).mkdir(parents=True)
        assert main(["regions", "--n", "3", "--beta", "0.2", "--res", "11",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_window(self, tmp_path):
        assert main(["regions", "--n", "4", "--beta", "0.2", "--window", "1,2",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--res", "1"],
            ["--res", "0"],
            ["--res", "1002"],  # one past the cap; runs before any grid is built
            ["--beta", "0"],
            ["--beta", "-0.2"],
            ["--window=nan,1,0,1"],
            ["--window=-inf,1,0,1"],
            ["--window=0.1,0.1,0,1"],
            ["--window=0,1,2,2"],
            ["--window=1,0,0,1"],
        ],
    )
    def test_invalid_input_usage_error(self, flags, tmp_path, capsys):
        out = tmp_path / "regions"
        argv = ["regions", "--n", "4", "--beta", "0.2", "--out", str(out)]
        assert main(argv + flags) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--n", "4", "--beta", "1e-320"],  # subnormal: gamma / beta loses bits
        # a span, then an end in units of beta, that overflows on either axis
        ["--n", "3", "--beta", "0.2", "--window=-1.7e308,1.7e308,0,1"],
        ["--n", "3", "--beta", "0.2", "--window=1e308,1.7e308,0,1"],
        ["--n", "3", "--beta", "0.2", "--window=0,1,-1.7e308,1.7e308"],
        ["--n", "3", "--beta", "0.2", "--window=0,1,1e308,1.7e308"],
        # a finite window whose (gamma / beta)^2 overflows the boundary curves
        ["--n", "3", "--beta", "0.2", "--window=1e200,2e200,0,1"],
    ])
    def test_beta_or_window_out_of_range(self, flags, tmp_path, capsys):
        # one error line and no numpy warning, which would raise here
        out = tmp_path / "regions"
        assert main(["regions", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("window", ["1e307,1.6e307,0,1", "-1e307,1e307,-1e307,1e307"])
    def test_window_whose_curves_overflow(self, window, tmp_path, capsys):
        # the window passes the checks, but the boundary curves' alpha
        # overflows in micrometres at this beta: a numpy warning would raise
        out = tmp_path / "regions"
        assert main(["regions", "--n", "5", "--beta", "1e300", f"--window={window}",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len((out / "regions_grid.csv").read_text().splitlines()) == 121 * 121 + 1

    @pytest.mark.parametrize("n,beta", [("5", "1e110"), ("3", "1e160"), ("4", "1e-200")])
    def test_extreme_beta_is_scaled_diagram(self, n, beta, tmp_path):
        # the cells are read in units of beta: bounds computed in
        # micrometres overflowed (beta**3 for n = 5, beta * beta in alpha_1^+)
        # or underflowed, and lost the diagram
        def cells(beta):
            out = tmp_path / beta
            assert main(["regions", "--n", n, "--beta", beta, "--res", "21",
                         "--out", str(out)]) == 0
            rows = (out / "regions_grid.csv").read_text().splitlines()[1:]
            return [row.split(",")[2:] for row in rows]

        assert cells(beta) == cells("0.2")

    def test_negative_window_start(self, tmp_path):
        out = tmp_path / "regions"
        assert main(["regions", "--n", "5", "--beta", "0.2", "--res", "31",
                     "--window=-0.3,0.3,-1,2", "--out", str(out)]) == 0
        grid = (out / "regions_grid.csv").read_text().splitlines()
        assert grid[1].startswith("-0.3,-1,")
        # every row against the diagram: alpha outer, gamma inner
        d = region_diagram(5, 0.2, (-0.3, 0.3), (-1.0, 2.0), resolution=31)
        with open(out / "regions_grid.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["gamma", "alpha", "count", "family"]
        gamma, alpha, count, family = zip(*rows[1:])
        shape = d.counts.shape
        assert len(rows) == 1 + 31 * 31 and shape == (31, 31)
        np.testing.assert_allclose(np.array(gamma, float).reshape(shape),
                                   np.broadcast_to(d.gamma_values, shape), rtol=5e-12)
        np.testing.assert_allclose(np.array(alpha, float).reshape(shape),
                                   np.broadcast_to(d.alpha_values[:, None], shape),
                                   rtol=5e-12)
        assert np.array_equal(np.array(count, int).reshape(shape), d.counts)
        names = np.array(["none", "even", "odd", "both"])
        assert np.array_equal(np.array(family).reshape(shape), names[d.family_codes])
        assert set(family) == {"none", "even", "odd", "both"}

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(regions_cases())
    @example(GAMMA0_CASE)
    @example(ONE_REGION_CASE)
    @example(BOTH_CASES[0])
    @example(BOTH_CASES[1])
    def test_grid_matches_per_cell_writer(self, case):
        # the grid is written as runs of one family code per alpha row
        n, res, window = case
        flags = [] if window is None else ["--window=" + ",".join(map(repr, window))]
        with tempfile.TemporaryDirectory() as out:
            assert main(["regions", "--n", str(n), "--beta", "0.2", "--res", str(res),
                         *flags, "--out", out]) == 0
            got = (Path(out) / "regions_grid.csv").read_bytes()
        assert got == per_cell_grid(case_diagram(*case))

    def test_run_walk_cases_cover_their_edges(self):
        assert case_diagram(*GAMMA0_CASE).gamma_values[0] == 0.0
        assert np.unique(case_diagram(*ONE_REGION_CASE).family_codes).tolist() == [1]
        for case in BOTH_CASES:
            assert np.unique(case_diagram(*case).family_codes).tolist() == [0, 1, 2, 3]


class TestVerifyCommand:
    def test_small_run_agrees(self):
        result = run_verification(4, 0.2, samples=20, seed=11)
        assert result["failed"] == 0
        assert result["max_deviation"] < 1e-8

    def test_deterministic_under_seed(self):
        a = run_verification(3, 0.2, samples=10, seed=5)
        b = run_verification(3, 0.2, samples=10, seed=5)
        assert a == b

    def test_zero_samples_usage_error(self):
        assert main(["verify", "--n", "4", "--beta", "0.2", "--samples", "0"]) == 2

    def test_memory_bounded_in_samples(self):
        def peak(samples):
            tracemalloc.start()
            try:
                result = run_verification(3, 0.2, samples=samples, seed=9)
                return tracemalloc.get_traced_memory()[1], result
            finally:
                tracemalloc.stop()

        small, _ = peak(32)
        large, result = peak(256)
        assert result["failed"] == 0
        assert large <= 1.5 * small

    def test_overflowing_beta_usage_error(self, capsys):
        assert main(["verify", "--n", "3", "--beta", "1e200", "--samples", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: wavefront coefficients overflow")

    def test_overflowing_bounds_usage_error(self, capsys):
        # the closed forms run in units of beta and no longer overflow at
        # beta = 1e110; G, of order beta^2, still cannot be squared
        assert main(["verify", "--n", "5", "--beta", "1e110", "--samples", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: wavefront coefficients overflow the Hessian determinant\n")

    def test_underflowing_beta_usage_error(self, capsys):
        # below beta ~ 1e-162 the products Wxx Wyy and Wxy^2 round to 0: no
        # census may read that as a constant G
        for beta in ("1e-90", "1e-170", "1e-300"):
            assert main(["verify", "--n", "5", "--beta", beta, "--samples", "20"]) == 2
            assert capsys.readouterr().err == (
                "error: wavefront coefficients underflow the Hessian determinant\n")

    @pytest.mark.parametrize("beta", ["1e-5", "1e-4", "1e-20"])
    def test_tiny_beta_agrees(self, beta, capsys):
        # the boundary band is in units of beta, so it no longer covers the
        # whole window below beta ~ 1e-3
        assert main(["verify", "--n", "3", "--beta", beta, "--samples", "100"]) == 0
        assert "100/100 agree" in capsys.readouterr().out

    def test_fail_lines_keep_small_values(self, monkeypatch, capsys):
        # a FAIL line prints gamma and alpha to 6 significant digits, which
        # fixed-point formatting rounded to 0 for a small beta
        def fail_all(params, census):
            return 0.0, "count: predicted 3, census 1"

        monkeypatch.setattr("starburst.cli._verify_sample", fail_all)
        assert main(["verify", "--n", "3", "--beta", "1e-8", "--samples", "1",
                     "--seed", "2"]) == 1
        (line,) = [s for s in capsys.readouterr().out.splitlines() if "FAIL" in s]
        (((want, _),),) = _verification_samples(3, 1e-8, 1, 2)
        assert line == (f"  FAIL gamma={want.gamma:.6g} alpha={want.alpha:.6g}: "
                        "count: predicted 3, census 1")
        gamma, alpha = (float(w.split("=")[1].rstrip(":")) for w in line.split()[1:3])
        assert gamma == pytest.approx(want.gamma, rel=1e-5)
        assert alpha == pytest.approx(want.alpha, rel=1e-5)

    def test_non_finite_beta_usage_error(self):
        assert main(["verify", "--n", "4", "--beta", "inf", "--samples", "2"]) == 2

    @pytest.mark.parametrize("beta", ["--beta=0", "--beta=-0.2"])
    def test_non_positive_beta_usage_error(self, beta, capsys):
        assert main(["verify", "--n", "3", beta, "--samples", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_seed_usage_error(self, capsys):
        assert main(["verify", "--n", "3", "--beta", "0.2", "--samples", "2",
                     "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative\n"

    def test_cli_exit_zero(self):
        assert main(["verify", "--n", "5", "--beta", "0.2", "--samples", "5",
                     "--seed", "3"]) == 0

    def test_unsupported_order_raises_capability_error(self):
        with pytest.raises(CapabilityError, match=r"got n=7"):
            run_verification(7, 0.2, 1, 0)

    def test_negative_beta_rejected_before_any_census(self, monkeypatch):
        def no_census(*args, **kwargs):
            raise AssertionError("census ran")

        monkeypatch.setattr(cli, "mirror_census", no_census)
        with pytest.raises(ValueError, match="beta must be positive"):
            run_verification(3, -0.2, 1, 0)


class TestVerifySample:
    # hand-made censuses around the one predicted ring of 3star's
    # parameters: three odd-family saddles at rho = 0.517810
    PRED = predict_saddles(ABParams(0.0, 0.2, 0.2, 3))

    def census(self, moves=(), extra=(), degenerate=False):
        """The predicted ring's saddles, the k-th moved by moves[k] = (drho,
        dtheta), with ``extra`` (rho, theta) saddles appended."""
        (ring,) = self.PRED.rings
        spots = [(ring.rho + dr, t + dt) for (t, (dr, dt))
                 in zip(ring.theta_offsets, list(moves) + [(0.0, 0.0)] * 3)]
        points = tuple(CriticalPoint(rho * math.sin(t), rho * math.cos(t), rho, t,
                                     PointClass.SADDLE, 0.0, -1.0)
                       for rho, t in spots + list(extra))
        return CriticalPointSearch(points, degenerate=degenerate)

    def test_exact_ring_agrees(self):
        assert _verify_sample(self.PRED, self.census()) == (0.0, "")

    def test_count(self):
        assert _verify_sample(self.PRED, self.census(extra=[(0.2, 0.0)])) == (
            0.0, "count: predicted 3, census 4")
        assert _verify_sample(self.PRED, self.census(degenerate=True)) == (
            0.0, "count: predicted 3, census degenerate")

    def test_ring_members(self):
        # a saddle 1e-5 off the ring is no member; the count still matches
        assert _verify_sample(self.PRED, self.census(moves=[(1e-5, 0.0)])) == (
            0.0, "ring at rho=0.517810: 2 members")

    @pytest.mark.parametrize("move,reason", [
        ((1e-7, 0.0), "deviation rho=1.00e-07 angle=0.00e+00"),
        ((0.0, -2e-8), "deviation rho=0.00e+00 angle=2.00e-08"),
    ])
    def test_deviation(self, move, reason):
        dev, got = _verify_sample(self.PRED, self.census(moves=[move]))
        assert got == reason and dev == pytest.approx(max(map(abs, move)), rel=1e-6)


class TestFixturesCommand:
    def test_all_pass(self):
        assert main(["fixtures", "--grid", "512"]) == 0

    @pytest.mark.parametrize("grid", [
        pytest.param(64, marks=pytest.mark.xfail(strict=True, reason=(
            "6star (7, 6, 0, none) and 8stars (9, 4, 0, none): the verdict loses every "
            "tip on the coarsest mesh (ROADMAP items 33 and 22)"))),
        pytest.param(96, marks=pytest.mark.xfail(strict=True, reason=(
            "6star (7, 6, 0, none) (ROADMAP items 33 and 22)"))),
        128,
    ])
    def test_the_fixtures_reproduce_from_grid_128(self, grid, capsys):
        # 64 is the smallest grid accepted, but not enough for the verdict
        assert main(["fixtures", "--grid", str(grid)]) == 0, capsys.readouterr().out

    def test_small_grid_usage_error(self, capsys):
        assert main(["fixtures", "--grid", "10"]) == 2
        assert "error: grid_resolution must be at least 64" in capsys.readouterr().err

    def test_grid_cap_usage_error(self, capsys):
        assert main(["fixtures", "--grid", "4097"]) == 2
        want = "error: grid_resolution must be at least 64 and at most 4096"
        assert want in capsys.readouterr().err


def test_cli_import_leaves_scipy_signal_out(tmp_path):
    # numpy is the only runtime dependency: no scipy or sympy module (test
    # extras) is loaded by the import, nor lazily by running each command
    env = dict(os.environ, PYTHONPATH=str(Path(starburst.__file__).parents[1]))
    loaded = ("print(sorted(m for m in sys.modules "
              "if m.split('.')[0] in ('scipy', 'sympy')))")
    code = f"import sys, starburst.cli; {loaded}"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
    runs = [["analyze", "--alpha", "0", "--beta", "0.2", "--gamma", "0.2", "--n", "3",
             "--grid", "64", "--out", str(tmp_path / "a")],
            ["regions", "--n", "3", "--beta", "0.2", "--res", "11", "--out", str(tmp_path / "r")],
            ["verify", "--n", "3", "--beta", "0.2", "--samples", "2"]]
    code = (f"import sys; from starburst.cli import main; "
            f"codes = [main(argv) for argv in {runs!r}]; print(codes, file=sys.stderr); {loaded}")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stderr == "[0, 0, 0]\n"
    assert done.stdout.splitlines()[-1] == "[]"


def test_cli_import_builds_no_monomial_matrix():
    # the Zernike modes' monomial matrices are built on first use, so the
    # import stays as cheap
    env = dict(os.environ, PYTHONPATH=str(Path(starburst.__file__).parents[1]))
    code = ("import starburst.cli; from starburst.zernike import _monomials; "
            "print(_monomials.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "0\n"


class TestParser:
    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_help_available(self):
        parser = build_parser()
        assert parser.format_help()

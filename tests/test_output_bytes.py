"""Byte-level regression: every file `analyze` and `regions` write, against
pinned hashes.

tests/golden/analyze_outputs.sha256 (sha256sum format) holds the hash of
each file `analyze` wrote for the 3star fixture and the radial-order-12
scenario at grid 512, before the heatmap, marching-squares and symmetry
code ran on whole arrays; highorder/report.json was pinned again when its
rotation_residual became the exact Hausdorff residual, and once more when
the census seeded each grid node once instead of once per sign-change cell
around it (its solver_note went from "3 of 627" to "3 of 447 seeds did not
converge", with every other byte unchanged), and once more, with its
critical_points.csv and retina.svg, when the census listed each ring by
theta instead of by (rho, theta), which had ordered the twelve members of
its outer saddle ring by the rounding of their rho (the same rows and
markers, reordered).  The other four
fixtures' files were pinned at grid 512 before the figures and contour
tables were formatted from whole arrays.  The three heat maps of all six
cases (wavefront.svg, hessian_full.svg, hessian_clipped.svg) were pinned
again when their cells became one embedded PNG instead of one <rect>
each, with every pixel's color equal to its old cell's, and once more
when their color range came from the cells inside the pupil instead of the
whole square (and the clipped map's from 2% of that range instead of a
separate 65 x 65 grid of the square).  4star/report.json and
4star/retina.svg were pinned again when the rim intersection of a
clipped contour took plain products instead of a BLAS dot: its spike tips
then come from the other member of each mirror pair of rim ends (angles
0.2035, 90.2035, 179.7965 and 269.7965 degrees instead of 90.2035,
180.2035, 269.7965 and 359.7965), with the same count, radius and kind.
The critical_points.csv and report.json of 3star, 4star, 5star, 8stars
and highorder were pinned again when one Newton loop replaced the damped
search and its separate polish: coordinates that are zero up to rounding
(below 3e-20) took other rounding digits, and every other byte stayed.
The critical_points.csv and report.json of all six cases were pinned again
when the census of a g-fold wavefront solved one 2 pi / g sector's seeds
and turned its roots into the other sectors: coordinates that are zero up
to rounding (1e-31 to 1e-20) became 0 or up to about 4e-16, and
highorder's solver_note went from "3 of 447 seeds did not converge" to "".
The critical_points.csv and report.json of all six cases were pinned
again when the mirror census took over W = alpha Z_2^0 + beta Z_4^0 +
gamma Z_n^n: values that are zero up to rounding (x, y, theta_deg,
xi_arcmin and eta_arcmin, all below 4e-16) took other rounding digits or
became exactly 0, as the x of a point on the +y axis, and every other byte
stayed.
tests/golden/analyze_outputs_polar.sha256 holds the same six cases' files
from when the polar contour mesh and its completion by reflection and turns
replaced the Cartesian grid: contours_pupil.csv, contours_retina.csv,
report.json (spike tips and rotation residual) and retina.svg moved, and
the other four files of every case keep their analyze_outputs.sha256 pins.
tests/golden/regions_outputs.sha256 holds the hashes of
`regions --n n --beta 0.2` (n = 3..6, default resolution) from before the
region predicates ran on arrays.  The four regions.svg were pinned again
when their shaded cells became one embedded PNG, a pixel per sample,
instead of one <rect> per shaded cell; the regions_grid.csv hashes did not
change.  tests/golden/regions_nondefault_outputs.sha256 holds the hashes
of four non-default `regions` runs (another resolution, a window, another
beta, and both), pinned before the row predicate compared each slack once
and the grid CSV became one joined list.  Rerunning the commands must
reproduce every byte, into a fresh directory or over the files of an
earlier run.
"""

import hashlib
import json
from collections import defaultdict
from pathlib import Path

import pytest

from starburst.cli import ANALYZE_FILES, FIXTURE_SCENARIOS, REGIONS_FILES, main

GOLDEN = Path(__file__).parent / "golden"

HIGHORDER = {
    "wavefront": [
        {"n": 4, "m": 0, "coeff_um": 0.2},
        {"n": 12, "m": 12, "coeff_um": 0.02},
        {"n": 2, "m": 0, "coeff_um": 0.02},
    ],
    "grid_resolution": 512,
}


def pinned_hashes(listing: str) -> dict[str, dict[str, str]]:
    """{case: {file name: sha256}} from a sha256sum listing in tests/golden."""
    out: dict[str, dict[str, str]] = defaultdict(dict)
    for line in (GOLDEN / listing).read_text(encoding="utf-8").splitlines():
        digest, path = line.split(maxsplit=1)
        case, name = path.split("/")
        out[case][name] = digest
    return out


def analyze_argv(case: str, tmp_path: Path) -> list[str]:
    if case in FIXTURE_SCENARIOS:
        alpha, beta, gamma, n = FIXTURE_SCENARIOS[case][:4]
        return ["analyze", "--alpha", repr(alpha), "--beta", repr(beta),
                "--gamma", repr(gamma), "--n", str(n), "--grid", "512"]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(HIGHORDER), encoding="utf-8")
    return ["analyze", "--scenario", str(scenario)]


@pytest.mark.parametrize("case", ["3star", "4star", "5star", "6star", "8stars",
                                  "highorder"])
def test_analyze_outputs_match_pinned_hashes(case, tmp_path):
    want = pinned_hashes("analyze_outputs_polar.sha256")[case]
    out = tmp_path / "out"
    assert main(analyze_argv(case, tmp_path) + ["--out", str(out)]) == 0
    assert file_hashes(out) == want


# the files whose bytes do not depend on the contour mesh
MESH_FREE = ("critical_points.csv", "hessian_clipped.svg", "hessian_full.svg", "wavefront.svg")


def test_the_contour_mesh_moves_only_its_own_files():
    old, new = (pinned_hashes(name) for name in ("analyze_outputs.sha256",
                                                 "analyze_outputs_polar.sha256"))
    assert old.keys() == new.keys()
    for case in old:
        assert old[case].keys() == new[case].keys() == set(ANALYZE_FILES)
        assert {k for k in old[case] if old[case][k] == new[case][k]} == set(MESH_FREE)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_regions_outputs_match_pinned_hashes(n, tmp_path):
    want = pinned_hashes("regions_outputs.sha256")[f"n{n}"]
    out = tmp_path / "out"
    assert main(["regions", "--n", str(n), "--beta", "0.2", "--out", str(out)]) == 0
    assert file_hashes(out) == want


# case in regions_nondefault_outputs.sha256 -> its `regions` flags
REGIONS_NONDEFAULT = {
    "n4_res41": ["--n", "4", "--beta", "0.2", "--res", "41"],
    "n5_window": ["--n", "5", "--beta", "0.2", "--window=-0.3,0.3,-1,2", "--res", "57"],
    "n3_beta0.35": ["--n", "3", "--beta", "0.35"],
    "n6_beta0.1_res200": ["--n", "6", "--beta", "0.1", "--res", "200"],
}


@pytest.mark.parametrize("case", sorted(REGIONS_NONDEFAULT))
def test_nondefault_regions_outputs_match_pinned_hashes(case, tmp_path):
    """regions_nondefault_outputs.sha256 was written by the code from before
    the one-comparison row predicate and the joined grid CSV."""
    want = pinned_hashes("regions_nondefault_outputs.sha256")[case]
    out = tmp_path / "out"
    assert main(["regions", *REGIONS_NONDEFAULT[case], "--out", str(out)]) == 0
    assert file_hashes(out) == want


def file_hashes(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in directory.iterdir()}


def test_analyze_over_larger_outputs_matches_pinned_hashes(tmp_path):
    """3star over the order-12 scenario's files at grid 256, whose report.json,
    critical_points.csv and retina.svg are longer than 3star's."""
    out = tmp_path / "out"
    scenario = tmp_path / "order12.json"
    scenario.write_text(json.dumps({**HIGHORDER, "grid_resolution": 256}), encoding="utf-8")
    assert main(["analyze", "--scenario", str(scenario), "--out", str(out)]) == 0
    want = pinned_hashes("analyze_outputs_polar.sha256")["3star"]
    assert file_hashes(out) != want
    assert main(analyze_argv("3star", tmp_path) + ["--out", str(out)]) == 0
    assert file_hashes(out) == want


def test_regions_over_larger_outputs_matches_pinned_hashes(tmp_path):
    out = tmp_path / "out"
    argv = ["regions", "--n", "5", "--beta", "0.2", "--out", str(out)]
    assert main(argv + ["--res", "301"]) == 0
    assert main(argv) == 0
    assert file_hashes(out) == pinned_hashes("regions_outputs.sha256")["n5"]


@pytest.mark.parametrize("command, name", [("analyze", "report.json"),
                                           ("analyze", "hessian_full.svg"),
                                           ("regions", "regions.svg")])
def test_directory_at_an_output_path_is_one_error_line(command, name, tmp_path, capsys):
    """Every output path is checked before the first file is written, so a
    directory at any of them, the first or a later one, leaves nothing
    else in --out."""
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    argv = (analyze_argv("3star", tmp_path) if command == "analyze"
            else ["regions", "--n", "3", "--beta", "0.2"])
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and name in err
    assert [p.name for p in out.iterdir()] == [name]
    assert not any((out / name).iterdir())


@pytest.mark.parametrize("command, names", [("analyze", ANALYZE_FILES),
                                            ("regions", REGIONS_FILES)])
def test_each_command_writes_the_files_it_checks(command, names, tmp_path):
    out = tmp_path / "out"
    argv = (analyze_argv("3star", tmp_path) if command == "analyze"
            else ["regions", "--n", "3", "--beta", "0.2"])
    assert main(argv + ["--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(names)


def test_symlink_to_a_directory_at_an_output_path_is_replaced(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    target = tmp_path / "target"
    target.mkdir()
    (out / "regions.svg").symlink_to(target, target_is_directory=True)
    assert main(["regions", "--n", "3", "--beta", "0.2", "--out", str(out)]) == 0
    assert file_hashes(out) == pinned_hashes("regions_outputs.sha256")["n3"]
    assert target.is_dir() and not any(target.iterdir())


def test_links_at_output_paths_are_replaced_not_written_through(tmp_path):
    """A symlink at regions.svg and a hard link at regions_grid.csv each
    become a regular file with the pinned bytes; the symlink's target and
    the hard link's other name keep their contents."""
    out = tmp_path / "out"
    out.mkdir()
    target, other = tmp_path / "target.svg", tmp_path / "other.csv"
    target.write_text("target\n", encoding="utf-8")
    other.write_text("other\n", encoding="utf-8")
    (out / "regions.svg").symlink_to(target)
    (out / "regions_grid.csv").hardlink_to(other)
    assert main(["regions", "--n", "3", "--beta", "0.2", "--out", str(out)]) == 0
    assert not (out / "regions.svg").is_symlink()
    assert (out / "regions_grid.csv").stat().st_nlink == 1
    assert file_hashes(out) == pinned_hashes("regions_outputs.sha256")["n3"]
    assert target.read_text(encoding="utf-8") == "target\n"
    assert other.read_text(encoding="utf-8") == "other\n"

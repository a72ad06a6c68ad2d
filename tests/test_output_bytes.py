"""Byte-level regression: every file `analyze` writes, against pinned hashes.

tests/golden/analyze_outputs.sha256 (sha256sum format) holds the hash of
each file `analyze` wrote for the 3star fixture and the radial-order-12
scenario at grid 512, before the heatmap, marching-squares and symmetry
code ran on whole arrays.  Rerunning `analyze` must reproduce every byte.
"""

import hashlib
import json
from collections import defaultdict
from pathlib import Path

import pytest

from starburst.cli import main

HASH_FILE = Path(__file__).parent / "golden" / "analyze_outputs.sha256"

HIGHORDER = {
    "wavefront": [
        {"n": 4, "m": 0, "coeff_um": 0.2},
        {"n": 12, "m": 12, "coeff_um": 0.02},
        {"n": 2, "m": 0, "coeff_um": 0.02},
    ],
    "grid_resolution": 512,
}


def pinned_hashes() -> dict[str, dict[str, str]]:
    """{case: {file name: sha256}} from the sha256sum listing."""
    out: dict[str, dict[str, str]] = defaultdict(dict)
    for line in HASH_FILE.read_text(encoding="utf-8").splitlines():
        digest, path = line.split(maxsplit=1)
        case, name = path.split("/")
        out[case][name] = digest
    return out


def analyze_argv(case: str, tmp_path: Path) -> list[str]:
    if case == "3star":
        return ["analyze", "--alpha", "0", "--beta", "0.2", "--gamma", "0.2",
                "--n", "3", "--grid", "512"]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(HIGHORDER), encoding="utf-8")
    return ["analyze", "--scenario", str(scenario)]


@pytest.mark.parametrize("case", ["3star", "highorder"])
def test_analyze_outputs_match_pinned_hashes(case, tmp_path):
    want = pinned_hashes()[case]
    out = tmp_path / "out"
    assert main(analyze_argv(case, tmp_path) + ["--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == want

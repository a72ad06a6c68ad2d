"""Pins of `verify`, the closed forms against the mirror census.

verify_results.txt holds `run_verification` for n = 3..6, seeds 1 and 2,
40 samples each: one line per run with its passed and failed counts and
``max_deviation.hex()``, then one line per failure with gamma and alpha
in hex and the reason.  verify_cli.txt holds the output of
`starburst verify --n n --beta 0.2 --samples 200 --seed 1` for n = 3..6
with the elapsed time stripped; CI diffs the installed entry point's
output against it.  A change that means to move a verdict or a deviation
regenerates both with `PYTHONPATH=src python tests/test_verify_golden.py`
and names the lines that moved.  The rings on theta = pi / n come from G's
restriction to that ray at rounded sin and cos (`hessian.mirror_census`),
so their radii, and a deviation set by one of them, can move in the last
bits when that arithmetic changes; the counts may not.
"""

import contextlib
import io
import re
from pathlib import Path

from starburst.cli import main, run_verification

RESULTS = Path(__file__).parent / "golden" / "verify_results.txt"
CLI_OUTPUT = Path(__file__).parent / "golden" / "verify_cli.txt"
ORDERS = (3, 4, 5, 6)


def result_lines() -> list[str]:
    lines = []
    for n in ORDERS:
        for seed in (1, 2):
            res = run_verification(n, 0.2, 40, seed)
            lines.append(f"n={n} seed={seed} passed={res['passed']} failed={res['failed']} "
                         f"max_deviation={res['max_deviation'].hex()}")
            lines += [f"  gamma={f['gamma'].hex()} alpha={f['alpha'].hex()}: {f['reason']}"
                      for f in res["failures"]]
    return lines


def cli_lines() -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for n in ORDERS:
            main(["verify", "--n", str(n), "--beta", "0.2", "--samples", "200", "--seed", "1"])
    return [re.sub(r" \([0-9.]+s\)$", "", line) for line in out.getvalue().splitlines()]


def test_verification_results_are_pinned():
    assert result_lines() == RESULTS.read_text(encoding="utf-8").splitlines()


def test_verify_output_is_pinned():
    assert cli_lines() == CLI_OUTPUT.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    for path, lines in ((RESULTS, result_lines()), (CLI_OUTPUT, cli_lines())):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

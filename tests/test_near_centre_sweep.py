"""The near-centre sweep: three-term wavefronts whose closed form puts a
saddle ring within rho = 0.03 of the pupil centre, where the census is
known to miscount (README "Known census failures"; ROADMAP items 1, 2 and
4).  alpha runs to either side of ALPHA0, 2e-5 below sqrt(15) beta, the
alpha of `TestKnownCensusMisses`' small central rings, for beta = 0.2 and
a few gammas; each n is passed to each census as one stack.

One line of the golden per case: n, alpha, gamma, the smallest
closed-form saddle ring's rho, the closed-form saddle count, then the
census's points, saddles and degenerate flag (0 or 1).
near_centre_sweep.txt pins the 2-D census (`census_from_stacks`), and
near_centre_sweep_mirror.txt the mirror census that `verify` runs, which
gets every case right with an empty message.  A change that means to
move a census regenerates both with
`PYTHONPATH=src python tests/test_near_centre_sweep.py` and names the
lines that moved.
"""

from collections import Counter
from pathlib import Path

import numpy as np

from starburst import ABParams, census_from_stacks, predict_saddles, three_term_stacks
from starburst.hessian import mirror_census

SWEEP = Path(__file__).parent / "golden" / "near_centre_sweep.txt"
MIRROR_SWEEP = Path(__file__).parent / "golden" / "near_centre_sweep_mirror.txt"
ALPHA0 = 0.7745766692414834
BETA = 0.2
GAMMAS = (0.02, 0.05, 0.1, 0.2, -0.1)
RING_RHO = 0.03  # the cases kept: the smallest saddle ring lies inside this
SMALL_RHO = 0.004  # the band split of the wrong counts


def sweep_cases(n: int) -> list:
    """(params, prediction) of every case of order n, alpha below ALPHA0
    first, each alpha's gammas in GAMMAS order."""
    deltas = np.geomspace(1e-7, 3e-2, 40)
    cases = []
    for alpha in np.concatenate([ALPHA0 - deltas, ALPHA0 + deltas]).tolist():
        for gamma in GAMMAS:
            params = ABParams(alpha, BETA, gamma, n)
            pred = predict_saddles(params)
            if pred.rings and min(r.rho for r in pred.rings) < RING_RHO:
                cases.append((params, pred))
    return cases


def sweep_censuses(mirror: bool, turned: bool = False) -> list:
    """(params, prediction, census) of every case of `sweep_cases` for
    n = 3..6, each n censused as one stack by the 2-D census or, with
    ``mirror``, by the mirror census; with ``turned``, the census of each W
    turned by pi / n (Z_n^n negated)."""
    out = []
    for n in (3, 4, 5, 6):
        cases = sweep_cases(n)
        alpha, beta, gamma = np.array([(p.alpha, p.beta, p.gamma) for p, _ in cases]).T
        g = three_term_stacks(n, alpha, beta, -gamma if turned else gamma)
        censuses = mirror_census(g, n) if mirror else census_from_stacks(g, n)
        out += [(p, pred, c) for (p, pred), c in zip(cases, censuses)]
    return out


def sweep_lines(censuses) -> list[str]:
    """One line per case of `sweep_censuses`."""
    lines = []
    for p, pred, c in censuses:
        rho = min(r.rho for r in pred.rings)
        lines.append(f"{p.n} {p.alpha!r} {p.gamma!r} {rho:.6e} {pred.count} "
                     f"{len(c)} {len(c.saddles)} {int(c.degenerate)}")
    return lines


def test_sweep_is_pinned():
    want = SWEEP.read_text(encoding="utf-8").splitlines()
    assert sweep_lines(sweep_censuses(mirror=False)) == want


def test_wrong_saddle_counts_per_band():
    # (n, rho < SMALL_RHO): [wrong, cases], a wrong case having a census
    # flagged degenerate or with another saddle count than the closed form
    tally = Counter()
    for line in SWEEP.read_text(encoding="utf-8").splitlines():
        n, _, _, rho, count, _, saddles, degenerate = line.split()
        key = (int(n), float(rho) < SMALL_RHO)
        tally[key + ("cases",)] += 1
        tally[key + ("wrong",)] += degenerate == "1" or saddles != count
    got = {(n, small): [tally[n, small, "wrong"], tally[n, small, "cases"]]
           for n in (3, 4, 5, 6) for small in (True, False)}
    assert got == {
        (3, True): [0, 4], (3, False): [0, 133],
        (4, True): [0, 171], (4, False): [0, 73],
        (5, True): [100, 165], (5, False): [7, 75],
        (6, True): [163, 165], (6, False): [53, 75],
    }


def test_mirror_sweep_is_pinned_and_right():
    # every case gets the closed form's saddle count, unflagged, and every
    # mirror root is certified and complete (an empty message)
    censuses = sweep_censuses(mirror=True)
    assert [c.message for _, _, c in censuses] == [""] * 861
    lines = MIRROR_SWEEP.read_text(encoding="utf-8").splitlines()
    assert sweep_lines(censuses) == lines
    assert all(line.split()[4] == line.split()[6] and line.endswith(" 0") for line in lines)
    # the census of each W turned by pi / n, built here as the reference,
    # reads each family on the other mirror, and counts the same
    turned = sweep_censuses(mirror=True, turned=True)
    assert sweep_lines(turned) == lines
    assert [c.message for _, _, c in turned] == [""] * 861


if __name__ == "__main__":
    for path, mirror in ((SWEEP, False), (MIRROR_SWEEP, True)):
        path.write_text("\n".join(sweep_lines(sweep_censuses(mirror))) + "\n", encoding="utf-8")

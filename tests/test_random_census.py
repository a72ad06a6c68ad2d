"""The 2-D census (`census_from_stacks`) pinned on two seeded random sets of
W outside the three-term family (ROADMAP items 27 and 28):

- mirror: 600 W = 0.2 Z_4^0 + a Z_2^0 + 1-3 cosine terms of orders <= 8
  whose m share a fold g in 1..4, from default_rng(2026);
- no-mirror: 333 W = 0.2 Z_4^0 + a Z_2^0 + 2-4 terms of orders <= 8, sine
  terms included, from default_rng(7).

Each set is censused one stack per fold, in order of fold.  One line of
the golden per W: set and index, fold, points, saddles, degenerate flag
(0 or 1), the classes in ring order (s saddle, e extremum, d degenerate;
"-" for none), the message as a JSON string, then each point's rho and
theta to 1e-9.  A change that means to move a census regenerates it with
`PYTHONPATH=src python tests/test_random_census.py` and names the lines
that moved.
"""

import json
from pathlib import Path

import numpy as np

from starburst import WaveAberration, ZernikeTerm, build_field, census_from_stacks
from starburst.hessian import _stack

RANDOM_CENSUS = Path(__file__).parent / "golden" / "random_census.txt"


def _wavefront(terms: dict) -> WaveAberration:
    return WaveAberration(tuple(ZernikeTerm(n, m, c) for (n, m), c in terms.items()))


def mirror_set() -> list[WaveAberration]:
    """The 600 W of cosine terms sharing a fold, which are even in x."""
    rng = np.random.default_rng(2026)
    ws = []
    for _ in range(600):
        g = int(rng.integers(1, 5))
        terms = {(4, 0): 0.2, (2, 0): float(rng.uniform(-0.3, 0.3))}
        size = len(terms) + int(rng.integers(1, 4))
        while len(terms) < size:
            m = g * int(rng.integers(1, 8 // g + 1))
            n = m + 2 * int(rng.integers(0, (8 - m) // 2 + 1))
            terms[n, m] = float(rng.uniform(-0.1, 0.1))
        ws.append(_wavefront(terms))
    return ws


def no_mirror_set() -> list[WaveAberration]:
    """The 333 W whose terms may be sines, of any fold."""
    rng = np.random.default_rng(7)
    ws = []
    for _ in range(333):
        terms = {(4, 0): 0.2, (2, 0): float(rng.uniform(-0.3, 0.3))}
        size = len(terms) + int(rng.integers(2, 5))
        while len(terms) < size:
            m = int(rng.choice([-1, 1])) * int(rng.integers(1, 9))
            n = abs(m) + 2 * int(rng.integers(0, (8 - abs(m)) // 2 + 1))
            terms[n, m] = float(rng.uniform(-0.1, 0.1))
        ws.append(_wavefront(terms))
    return ws


def random_censuses() -> list[tuple[str, int, object]]:
    """(name, fold, census) of every W of both sets, each set censused one
    stack per fold."""
    out = []
    for name, ws in (("mirror", mirror_set()), ("no-mirror", no_mirror_set())):
        fields = [build_field(w) for w in ws]
        censuses = [None] * len(fields)
        for fold in sorted({f.fold for f in fields}):
            group = [k for k, f in enumerate(fields) if f.fold == fold]
            for k, c in zip(group, census_from_stacks(
                    _stack([fields[k].G.coeffs for k in group]), fold), strict=True):
                censuses[k] = c
        out += [(f"{name}-{k}", f.fold, c) for k, (f, c) in enumerate(zip(fields, censuses))]
    return out


def random_census_lines() -> list[str]:
    """One line per W of `random_censuses`."""
    return [f"{name} {fold} {len(c)} {len(c.saddles)} {int(c.degenerate)} "
            f"{''.join(p.kind.value[0] for p in c) or '-'} {json.dumps(c.message)}"
            + "".join(f" {p.rho:.9f},{p.theta:.9f}" for p in c)
            for name, fold, c in random_censuses()]


def test_random_sets_are_pinned():
    want = RANDOM_CENSUS.read_text(encoding="utf-8").splitlines()
    assert random_census_lines() == want


if __name__ == "__main__":
    RANDOM_CENSUS.write_text("\n".join(random_census_lines()) + "\n", encoding="utf-8")

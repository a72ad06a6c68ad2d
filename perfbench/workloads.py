"""Benchmark workloads: seed-determined op lists, op runners and output gates.

An op is the same bundle of work every time it runs.  A workload builds its
inputs from the seed (the constructor), splits op k into steps (`steps`,
zero-argument callables that the runner times one by one), counts the work
units an op completes (`units`) and checks the step results against
expectations pinned here (`check`, which returns a list of problems).
Expectations are passed in explicitly so the self-check can hand a gate a
wrong one and see it trip.  `nominal_op_s` is an op's time on a 2-CPU x86
sandbox; run.py fixes the op count from it and --seconds, never from a
clock, so every run of a seed runs the same ops.

`starburst` must be importable before this module is imported; run.py puts
the checkout's `src` directory on the path.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import functools
import json
import os
import random
from collections import Counter
from pathlib import Path

import numpy as np

from starburst import cli

BETA = 0.2
ORDERS = (3, 4, 5, 6)

# The five reference starbursts, pinned here so that the gate does not follow
# a change to the program's own table:
# name: (alpha, beta, gamma, n, cusps, saddles, point_count, kind)
FIXTURES = {
    "3star": (0.0, 0.2, 0.2, 3, 7, 3, 3, "equally_distanced"),
    "5star": (0.2, 0.2, 0.07, 5, 11, 5, 5, "equally_distanced"),
    "4star": (0.0, 0.2, 0.15, 4, 9, 4, 4, "equally_distanced"),
    "6star": (0.0, 0.2, 0.19, 6, 7, 6, 6, "equally_distanced"),
    "8stars": (0.0, 0.2, 0.09, 4, 9, 4, 8, "non_equally_distanced"),
}

# W = 0.2 Z_4^0 + 0.02 Z_12^12 + 0.02 Z_2^0: maximum radial order, so the
# Hessian determinant G has degree 20.
HIGHORDER_TERMS = [
    {"n": 4, "m": 0, "coeff_um": 0.2},
    {"n": 12, "m": 12, "coeff_um": 0.02},
    {"n": 2, "m": 0, "coeff_um": 0.02},
]
HIGHORDER_EXPECT = {
    "critical_points": 37,
    "saddles": 24,
    "p_fold": 12,
    "point_count": 12,
    "kind": "equally_distanced",
}

VERIFY_SAMPLES = 5
VERIFY_EXPECT = {"failed": 0, "samples": VERIFY_SAMPLES}

REGIONS_RES = 121
# (count, family) -> number of cells in regions_grid.csv for
# `regions --n n --beta 0.2` at the default resolution, pinned from the
# closed-form diagram as first benchmarked.
REGIONS_HISTOGRAM = {
    3: {"0/none": 10407, "3/even": 2117, "3/odd": 2117},
    4: {"0/none": 9585, "4/even": 2528, "4/odd": 2528},
    5: {"0/none": 5021, "10/both": 290, "5/even": 4665, "5/odd": 4665},
    6: {"0/none": 6033, "12/both": 500, "6/even": 4054, "6/odd": 4054},
}


def _main(argv: list[str]) -> int:
    """`cli.main(argv)` with console output discarded.  The name is looked up
    at call time, so a traced op calls the tracer's wrapper."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return cli.main(argv)


def _report(path: Path) -> dict:
    return json.loads((path / "report.json").read_text(encoding="utf-8"))


def _analysis_problems(name: str, report: dict, want: dict) -> list[str]:
    got = {
        "critical_points": report["counts"]["critical_points"],
        "saddles": report["counts"]["saddles"],
        "p_fold": report["starburst"]["p_fold"],
        "point_count": report["starburst"]["point_count"],
        "kind": report["starburst"]["kind"],
    }
    return [
        f"{name}: {key} is {got[key]!r}, expected {value!r}"
        for key, value in want.items()
        if got[key] != value
    ]


class Fixtures:
    """`analyze` on each of the five reference wavefronts, files written."""

    name = "fixtures"
    unit = "analyses"
    nominal_op_s = 3.6

    def __init__(self, seed: int, workdir: Path):
        order = sorted(FIXTURES)
        random.Random(seed).shuffle(order)
        self.out = workdir / "out"
        self.argvs = []
        for name in order:
            alpha, beta, gamma, n = FIXTURES[name][:4]
            self.argvs.append((name, [
                "analyze", "--alpha", repr(alpha), "--beta", repr(beta),
                "--gamma", repr(gamma), "--n", str(n),
                "--out", str(self.out / name),
            ]))

    def expectations(self) -> dict:
        return {
            name: dict(zip(("critical_points", "saddles", "point_count", "kind"),
                           row[4:]))
            for name, row in FIXTURES.items()
        }

    def steps(self, k: int):
        return [functools.partial(_main, argv) for _, argv in self.argvs]

    def units(self, k: int) -> int:
        return len(self.argvs)

    def outputs(self) -> list[Path]:
        return [self.out]

    def check(self, k: int, result, expect: dict) -> list[str]:
        problems = []
        for (name, _), rc in zip(self.argvs, result):
            if rc != 0:
                problems.append(f"{name}: analyze exited {rc}")
                continue
            problems += _analysis_problems(name, _report(self.out / name),
                                           expect[name])
        return problems


class HighOrder:
    """`analyze --scenario` on a radial-order-12 wavefront, files written."""

    name = "highorder"
    unit = "analyses"
    nominal_op_s = 1.4

    def __init__(self, seed: int, workdir: Path):
        # The wavefront is fixed; the seed has nothing to vary here.
        self.out = workdir / "out"
        self.scenario = workdir / "scenario.json"
        workdir.mkdir(parents=True, exist_ok=True)
        self.scenario.write_text(json.dumps({
            "wavefront": HIGHORDER_TERMS,
            "grid_resolution": 512,
            "output_dir": str(self.out),
        }), encoding="utf-8")
        self.argv = ["analyze", "--scenario", str(self.scenario),
                     "--out", str(self.out)]

    def expectations(self) -> dict:
        return dict(HIGHORDER_EXPECT)

    def steps(self, k: int):
        return [functools.partial(_main, self.argv)]

    def units(self, k: int) -> int:
        return 1

    def outputs(self) -> list[Path]:
        return [self.out]

    def check(self, k: int, result, expect: dict) -> list[str]:
        (rc,) = result
        if rc != 0:
            return [f"analyze exited {rc}"]
        return _analysis_problems("highorder", _report(self.out), expect)


class Verify:
    """`run_verification` for n = 3..6, five samples each, seeds per op."""

    name = "verify"
    unit = "samples"
    nominal_op_s = 0.15

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def seeds(self, k: int) -> list[int]:
        state = np.random.SeedSequence([self.seed, k]).generate_state(len(ORDERS))
        return [int(s) for s in state]

    def expectations(self) -> dict:
        return dict(VERIFY_EXPECT)

    def steps(self, k: int):
        # One step: the op is far shorter than the host's speed phases.
        return [lambda: [cli.run_verification(n, BETA, VERIFY_SAMPLES, s)
                         for n, s in zip(ORDERS, self.seeds(k))]]

    def units(self, k: int) -> int:
        return VERIFY_SAMPLES * len(ORDERS)

    def outputs(self) -> list[Path]:
        return []

    def check(self, k: int, result, expect: dict) -> list[str]:
        problems = []
        for res in result[0]:
            for key, value in expect.items():
                if res[key] != value:
                    problems.append(f"n={res['n']} seed={res['seed']}: {key} is "
                                    f"{res[key]!r}, expected {value!r}")
        return problems


def regions_histogram(path: Path) -> dict[str, int]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return dict(sorted(Counter(f"{r['count']}/{r['family']}" for r in rows).items()))


class Regions:
    """`regions --n n --beta 0.2` for n = 3..6 at the default resolution."""

    name = "regions"
    unit = "cells"
    nominal_op_s = 2.6

    def __init__(self, seed: int, workdir: Path):
        order = list(ORDERS)
        random.Random(seed).shuffle(order)
        self.out = workdir / "out"
        self.argvs = [
            (n, ["regions", "--n", str(n), "--beta", repr(BETA),
                 "--out", str(self.out / f"n{n}")])
            for n in order
        ]

    def expectations(self) -> dict:
        return copy.deepcopy(REGIONS_HISTOGRAM)

    def steps(self, k: int):
        return [functools.partial(_main, argv) for _, argv in self.argvs]

    def units(self, k: int) -> int:
        return len(self.argvs) * REGIONS_RES * REGIONS_RES

    def outputs(self) -> list[Path]:
        return [self.out]

    def check(self, k: int, result, expect: dict) -> list[str]:
        problems = []
        for (n, _), rc in zip(self.argvs, result):
            if rc != 0:
                problems.append(f"n={n}: regions exited {rc}")
                continue
            got = regions_histogram(self.out / f"n{n}" / "regions_grid.csv")
            if got != expect[n]:
                problems.append(f"n={n}: histogram {got}, expected {expect[n]}")
        return problems


WORKLOADS = {w.name: w for w in (Fixtures, HighOrder, Verify, Regions)}

"""Command-line front end: analyze, regions, verify, fixtures.

`analyze` runs the full pipeline for one scenario and writes report.json,
CSV tables, and SVG figures; `regions` emits a saddle-region diagram;
`verify` cross-checks the closed-form predictions against the numerical
census on random samples; `fixtures` reproduces the five reference
wavefronts and asserts their published cusp/saddle counts and verdicts.

Exit codes: 0 success, 1 verification/fixture failure, 2 usage,
validation or output-write error: `main` prints one `error:` line for any
ValueError or OSError that a command raises.
All file outputs are deterministic: sorted JSON keys, floats at 12
significant digits, no timestamps (timing goes to stdout only).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import inspect
import itertools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .caustics import (
    MAX_GRID_RESOLUTION,
    MIN_GRID_RESOLUTION,
    VERDICT_NOTE,
    extract_contours,
    fertility_report,
    map_caustics,
    starburst_verdict,
)
from .hessian import build_field, find_critical_points, mirror_census, three_term_stacks
# boundary_slacks is unused here, but perfbench traces it under this name (ROADMAP item 8)
from .regions import (DEFAULT_WINDOWS, ABParams, _table_walk, _with_rings, boundary_slacks,
                      predict_saddles, region_diagram)
from .svgfig import heatmap_figure, heatmap_values, regions_figure, retina_figure, write_new_file
from .zernike import WaveAberration, ZernikeTerm

FIXTURE_SCENARIOS = {
    # name: (alpha, beta, gamma, n, expected cusps, saddles, points, kind)
    "3star": (0.0, 0.2, 0.2, 3, 7, 3, 3, "equally_distanced"),
    "5star": (0.2, 0.2, 0.07, 5, 11, 5, 5, "equally_distanced"),
    "4star": (0.0, 0.2, 0.15, 4, 9, 4, 4, "equally_distanced"),
    "6star": (0.0, 0.2, 0.19, 6, 7, 6, 6, "equally_distanced"),
    "8stars": (0.0, 0.2, 0.09, 4, 9, 4, 8, "non_equally_distanced"),
}


def _default(func, name: str):
    """``func``'s default for ``name``, read through functools.wraps wrappers."""
    return inspect.signature(func).parameters[name].default


def _number(raw: dict, key: str, default=None):
    """raw[key] (or a given default for an absent key), if a JSON number."""
    if key not in raw and default is None:
        raise ValueError(f"{key} is missing")
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {json.dumps(value)}")
    return value


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One analysis's inputs; `from_dict` fills in its callees' defaults."""

    wavefront: WaveAberration
    shorthand: ABParams | None
    grid_resolution: int
    visibility_threshold_arcmin: float
    fertility_distance: float
    output_dir: str

    @staticmethod
    def from_file(path: str) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return Scenario.from_dict(raw)

    @staticmethod
    def from_dict(raw: dict) -> "Scenario":
        if not isinstance(raw, dict):
            raise ValueError("scenario must be a JSON object")
        shorthand_keys = {"alpha", "beta", "gamma", "n"}
        has_short = shorthand_keys & raw.keys()
        has_terms = "wavefront" in raw
        if has_short and has_terms:
            raise ValueError(
                "scenario must give either the {alpha, beta, gamma, n} shorthand "
                "or an explicit wavefront term list, not both"
            )
        if not has_short and not has_terms:
            raise ValueError("scenario lacks a wavefront definition")
        pupil = float(_number(raw, "pupil_radius_mm", WaveAberration.pupil_radius))
        shorthand = None
        if has_short:
            missing = shorthand_keys - raw.keys()
            if missing:
                raise ValueError(f"shorthand scenario missing keys: {sorted(missing)}")
            # ABParams rejects an n outside its supported orders, 3.7 included
            shorthand = ABParams(*(_number(raw, k) for k in ("alpha", "beta", "gamma", "n")))
            wavefront = shorthand.to_wavefront(pupil_radius=pupil)
        else:
            terms = raw["wavefront"]
            if not (isinstance(terms, list) and all(isinstance(t, dict) for t in terms)):
                raise ValueError("wavefront must be a list of {n, m, coeff_um} objects")
            wavefront = WaveAberration(
                tuple(ZernikeTerm(_number(t, "n"), _number(t, "m"), _number(t, "coeff_um"))
                      for t in terms),
                pupil_radius=pupil,
            )
        grid = _number(raw, "grid_resolution", _default(extract_contours, "resolution"))
        if isinstance(grid, float) and not grid.is_integer():
            raise ValueError(f"grid_resolution must be an integer, got {grid}")
        if not MIN_GRID_RESOLUTION <= grid <= MAX_GRID_RESOLUTION:
            raise ValueError(f"grid_resolution must be at least {MIN_GRID_RESOLUTION} "
                             f"and at most {MAX_GRID_RESOLUTION}")
        threshold = float(_number(raw, "visibility_threshold_arcmin",
                                  _default(starburst_verdict, "threshold_arcmin")))
        if not 0.0 < threshold < math.inf:
            raise ValueError("visibility_threshold_arcmin must be positive and finite")
        fertility = float(_number(raw, "fertility_distance",
                                  _default(fertility_report, "distance")))
        if not 0.0 <= fertility < math.inf:
            raise ValueError("fertility_distance must be non-negative and finite")
        output_dir = raw.get("output_dir", "starburst_out")
        if not isinstance(output_dir, str):
            raise ValueError("output_dir must be a string")
        return Scenario(wavefront=wavefront, shorthand=shorthand, grid_resolution=int(grid),
                        visibility_threshold_arcmin=threshold, fertility_distance=fertility,
                        output_dir=output_dir)

    def echo(self) -> dict:
        out = {
            "pupil_radius_mm": self.wavefront.pupil_radius,
            "grid_resolution": self.grid_resolution,
            "visibility_threshold_arcmin": self.visibility_threshold_arcmin,
            "fertility_distance": self.fertility_distance,
            "wavefront": [
                {"n": t.n, "m": t.m, "coeff_um": t.coeff} for t in self.wavefront.terms
            ],
        }
        if self.shorthand is not None:
            out["shorthand"] = dataclasses.asdict(self.shorthand)
        return out


def _round_floats(obj):
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(f"{obj:.12g}") + 0.0  # normalizes -0.0
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def write_report_json(path: Path, payload: dict) -> None:
    body = json.dumps(_round_floats(payload), sort_keys=True, indent=2)
    write_new_file(path, body + "\n")


def _write_csv(path: Path, header: str, parts) -> None:
    """Write preformatted parts, each one or more whole lines ending in
    \\r\\n, under a header, as one joined string in one write: what
    csv.writer's excel dialect writes for fields that need no quoting."""
    write_new_file(path, "".join(itertools.chain([header + "\r\n"], parts)))


# the files each command writes into its output directory, in the order it writes them
ANALYZE_FILES = ("report.json", "contours_pupil.csv", "contours_retina.csv",
                 "critical_points.csv", "wavefront.svg", "hessian_full.svg",
                 "hessian_clipped.svg", "retina.svg")
REGIONS_FILES = ("regions_grid.csv", "regions.svg")


@contextlib.contextmanager
def _output_dir(path, names):
    """Make the directory ``path`` and its missing parents before the
    computation that fills it, and check that no output file ``names`` in it
    is a directory, so that an --out that cannot be made or written fails
    first, with nothing written.  If the computation raises, the
    directories made here are removed again, from the deepest up, while
    they are empty."""
    path = Path(path)
    made = [p for p in (path, *path.parents) if not p.exists()]
    path.mkdir(parents=True, exist_ok=True)
    for name in names:  # a symlink to a directory is replaced like any link
        if (path / name).is_dir() and not (path / name).is_symlink():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path / name))
    try:
        yield path
    except BaseException:
        for p in made:
            try:
                p.rmdir()
            except OSError:
                break
        raise


def _contour_rows(curves) -> str:
    """The curve,vertex,a,b rows of every vertex of ``curves``, formatted
    in one call from four typed columns interleaved by extended slices:
    Python ints for the two indices, Python floats for the coordinates."""
    if not curves:
        return ""
    lengths = [len(poly) for poly in curves]
    points = np.concatenate(curves)
    flat = [0] * (4 * len(points))
    flat[0::4] = itertools.chain.from_iterable(
        map(itertools.repeat, range(len(curves)), lengths))
    flat[1::4] = itertools.chain.from_iterable(map(range, lengths))
    flat[2::4] = points[:, 0].tolist()
    flat[3::4] = points[:, 1].tolist()
    return ("%d,%d,%.12g,%.12g\r\n" * len(points)) % tuple(flat)


def run_analysis(scenario: Scenario):
    """Full pipeline for one scenario; returns the report dict and the
    (field, contours, caustics, verdict) that `_emit_analysis_files` draws."""
    w = scenario.wavefront
    field = build_field(w)
    search = find_critical_points(field)
    contours = extract_contours(field, scenario.grid_resolution)
    caustics = map_caustics(w, contours, search.points, field)
    prediction = None
    if scenario.shorthand is not None and scenario.shorthand.beta > 0:
        prediction = predict_saddles(scenario.shorthand)
    fert = fertility_report(search.saddles, contours, scenario.fertility_distance)
    fertile = {f.point for f in fert if f.fertile}
    verdict = starburst_verdict(
        caustics, threshold_arcmin=scenario.visibility_threshold_arcmin
    )

    cusp_rows = []
    for proj in caustics.projected_cusps:
        pt = proj.point
        cusp_rows.append(
            {
                "x": pt.x,
                "y": pt.y,
                "rho": pt.rho,
                "theta_deg": math.degrees(pt.theta),
                "class": pt.kind.value,
                "g_value": pt.g_value,
                "hess_g_det": pt.hess_g_det,
                "on_boundary": pt.on_boundary,
                "fertile": pt in fertile,
                "xi_arcmin": proj.xi,
                "eta_arcmin": proj.eta,
            }
        )
    report = {
        "scenario": scenario.echo(),
        "degenerate": search.degenerate,
        "degenerate_reason": search.message if search.degenerate else "",
        "solver_note": "" if search.degenerate else search.message,
        "counts": {
            "critical_points": len(search.points),
            "saddles": len(search.saddles),
            "fertile": len(fertile),
            "contour_polylines": len(contours.polylines),
        },
        "critical_points": cusp_rows,
        "saddle_prediction": None,
        "starburst": {
            "p_fold": verdict.p_fold,
            "point_count": verdict.point_count,
            "kind": verdict.kind,
            "visibility_threshold_arcmin": scenario.visibility_threshold_arcmin,
            "spike_tips": [
                {"radius_arcmin": t.radius_arcmin, "angle_deg": math.degrees(t.angle)}
                for t in verdict.spike_tips
            ],
            "note": VERDICT_NOTE,
            "detail": verdict.detail,
            "rotation_residual": (
                verdict.symmetry.residual if verdict.symmetry else None
            ),
        },
        "versions": {"starburst": __version__, "report_format": 1},
    }
    if prediction is not None:
        report["saddle_prediction"] = {
            "count": prediction.count,
            "region_label": prediction.region_label,
            "boundary": prediction.boundary,
            "non_generic": prediction.non_generic,
            "rings": [
                {
                    "rho": r.rho,
                    "family": r.family,
                    "theta_offsets_deg": [math.degrees(t) for t in r.theta_offsets],
                }
                for r in prediction.rings
            ],
        }
    return report, (field, contours, caustics, verdict)


# critical_points.csv's columns after the index, each a key of a report row
_POINT_COLUMNS = ("x", "y", "rho", "theta_deg", "class", "on_boundary", "fertile",
                  "g_value", "hess_g_det", "xi_arcmin", "eta_arcmin")


def _point_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _emit_analysis_files(outdir: Path, report, field, contours, caustics, verdict) -> None:
    (report_json, pupil_csv, retina_csv, points_csv,
     wavefront_svg, full_svg, clipped_svg, retina_svg) = (outdir / name for name in ANALYZE_FILES)
    write_report_json(report_json, report)

    for path, curves, axes in ((pupil_csv, contours.polylines, "x,y"),
                               (retina_csv, caustics.retina_curves, "xi_arcmin,eta_arcmin")):
        _write_csv(path, f"curve,vertex,{axes}", [_contour_rows(curves)])

    _write_csv(
        points_csv, ",".join(("index",) + _POINT_COLUMNS),
        (",".join([str(i)] + [_point_cell(c[key]) for key in _POINT_COLUMNS]) + "\r\n"
         for i, c in enumerate(report["critical_points"])),
    )

    heatmap_figure(heatmap_values(field.W), "wave aberration W (um)", wavefront_svg)
    g_values = heatmap_values(field.G)
    heatmap_figure(g_values, "hessian determinant G", full_svg)
    heatmap_figure(g_values, "hessian determinant G (clipped colorbar)", clipped_svg, clip=0.02)
    retina_figure(caustics, verdict.spike_tips, retina_svg)


# analyze's scenario flags: argparse dest -> the scenario key it sets
_SCENARIO_FLAGS = {"alpha": "alpha", "beta": "beta", "gamma": "gamma", "n": "n",
                   "pupil_radius": "pupil_radius_mm", "grid": "grid_resolution",
                   "threshold": "visibility_threshold_arcmin"}


def cmd_analyze(args) -> int:
    given = {dest: getattr(args, dest) for dest in _SCENARIO_FLAGS
             if getattr(args, dest) is not None}
    if args.scenario:
        if given:
            flags = " ".join("--" + dest.replace("_", "-") for dest in given)
            raise ValueError(f"{flags} cannot be combined with --scenario; set them in the file")
        scenario = Scenario.from_file(args.scenario)
    else:
        if not {"alpha", "beta", "gamma", "n"} <= given.keys():
            raise ValueError(
                "either --scenario FILE or all of --alpha --beta --gamma --n required")
        scenario = Scenario.from_dict(
            {_SCENARIO_FLAGS[dest]: value for dest, value in given.items()})
    out = args.out or scenario.output_dir
    t0 = time.perf_counter()
    with _output_dir(out, ANALYZE_FILES) as outdir:
        report, artifacts = run_analysis(scenario)
    _emit_analysis_files(outdir, report, *artifacts)
    elapsed = time.perf_counter() - t0
    counts = report["counts"]
    star = report["starburst"]
    print(
        f"analyzed: {counts['critical_points']} cusps of Gauss, "
        f"{counts['saddles']} saddles, {counts['fertile']} fertile; "
        f"verdict: {star['point_count']} points ({star['kind']}), "
        f"p={star['p_fold']}"
    )
    if report["degenerate"]:
        print(f"degenerate field: {report['degenerate_reason']}")
    print(f"outputs in {out} ({elapsed:.2f}s)")
    return 0


def cmd_regions(args) -> int:
    gamma_range = alpha_range = None
    if args.window:
        try:
            g0, g1, a0, a1 = (float(v) for v in args.window.split(","))
        except ValueError:
            raise ValueError("--window expects G0,G1,A0,A1") from None
        gamma_range, alpha_range = (g0, g1), (a0, a1)
    with _output_dir(args.out, REGIONS_FILES) as outdir:
        diagram = region_diagram(args.n, args.beta, gamma_range, alpha_range,
                                 resolution=args.res)
    # Each gamma, each alpha and each "count,family" tail is formatted once; a
    # cell's count follows from its family code.  A run of one code within
    # one alpha row (a row changes code a few times at most) shares the tail
    # "alpha,count,family\r\n", so each run is one join of its "gamma,"
    # strings, and the file is one join of the runs.
    codes = diagram.family_codes
    count_of = np.zeros(4, int)
    count_of[codes] = diagram.counts
    tails = [f"{c},{name}\r\n" for c, name in
             zip(count_of.tolist(), ("none", "even", "odd", "both"))]
    gammas = [f"{v:.12g}," for v in diagram.gamma_values.tolist()]
    alphas = [f"{v:.12g}," for v in diagram.alpha_values.tolist()]
    first = np.flatnonzero(np.diff(codes, prepend=-1))  # each row start and code change
    row, j0 = np.divmod(first, codes.shape[1])
    run_tails = [alphas[i] + tails[c] for i, c in zip(row.tolist(), codes.flat[first].tolist())]
    # a generator: the runs are freed once joined, before the file is encoded
    runs = (t.join(gammas[j:j + k]) + t for t, j, k in
            zip(run_tails, j0.tolist(), np.diff(first, append=codes.size).tolist()))
    grid_csv, figure_svg = (outdir / name for name in REGIONS_FILES)
    _write_csv(grid_csv, "gamma,alpha,count,family", runs)
    regions_figure(diagram, figure_svg)
    print(f"region diagram for n={args.n}, beta={args.beta} written to {outdir}")
    return 0


_VERIFY_BAND = 5e-3  # smallest boundary slack of a verification sample, in beta units
# samples drawn and censused as one batch: bounds memory for any --samples
_VERIFY_CHUNK = 16


def _verify_sample(pred, census) -> tuple[float, str]:
    """(largest ring deviation checked, failure reason or "") of a census
    against its prediction."""
    saddles = census.saddles
    if census.degenerate or pred.count != len(saddles):
        return 0.0, (f"count: predicted {pred.count}, census "
                     f"{'degenerate' if census.degenerate else len(saddles)}")
    max_dev = 0.0
    for ring in pred.rings:
        members = [s for s in saddles if abs(s.rho - ring.rho) < 1e-6]
        if len(members) != pred.n:
            return max_dev, f"ring at rho={ring.rho:.6f}: {len(members)} members"
        rdev = max(abs(s.rho - ring.rho) for s in members)
        adev = max(min(abs((s.theta - t + math.pi) % (2 * math.pi) - math.pi)
                       for t in ring.theta_offsets) for s in members)
        max_dev = max(max_dev, rdev, adev)
        if rdev > 1e-8 or adev > 1e-8:
            return max_dev, f"deviation rho={rdev:.2e} angle={adev:.2e}"
    return max_dev, ""


def _verification_samples(n: int, beta: float, samples: int, seed: int):
    """Yield ``samples`` (ABParams, prediction) pairs drawn in the
    region-diagram window, outside a band of width _VERIFY_BAND around every
    boundary curve, as lists of up to _VERIFY_CHUNK pairs, each list's rings
    solved at once.  The band is in units of beta (the ``boundary_slack`` of
    each draw's table walk), so it covers the same share of the window at
    every beta.
    """
    rng = np.random.default_rng(seed)
    g0, g1, a0, a1 = DEFAULT_WINDOWS[n]
    for done in range(0, samples, _VERIFY_CHUNK):
        draws = []
        while len(draws) < min(_VERIFY_CHUNK, samples - done):
            gamma = float(rng.uniform(g0, g1)) * beta  # gamma is drawn first
            params = ABParams(float(rng.uniform(a0, a1)) * beta, beta, gamma, n)
            if (walk := _table_walk(params))[0]["boundary_slack"] >= _VERIFY_BAND:
                draws.append((params, walk))
        yield list(zip([p for p, _ in draws], _with_rings([w for _, w in draws])))


def run_verification(n: int, beta: float, samples: int, seed: int):
    """Random closed-form vs numerical-census comparison.

    Draws (gamma, alpha) uniformly in the region-diagram window, skipping a
    band of width _VERIFY_BAND (in units of beta) around every boundary curve,
    censuses the samples _VERIFY_CHUNK at a time, and checks saddle count,
    angular family, and ring radii (to 1e-8).  Returns a result dict.  Any
    beta > 0 runs whose G can be squared (`three_term_stacks`).  Every
    argument is checked before the first draw.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    ABParams(0.0, beta, 0.0, n)  # rejects an unsupported order and an infinite beta
    failures = []
    max_dev = 0.0
    for chunk in _verification_samples(n, beta, samples, seed):
        coeffs = np.array([(p.alpha, p.beta, p.gamma) for p, _ in chunk]).T
        # every draw has the mirror census (beta > 0, and the band about the
        # gamma = 0 boundary keeps gamma != 0)
        censuses = mirror_census(three_term_stacks(n, *coeffs), n)
        for (params, pred), census in zip(chunk, censuses):
            dev, reason = _verify_sample(pred, census)
            max_dev = max(max_dev, dev)
            if reason:
                failures.append(
                    {"gamma": params.gamma, "alpha": params.alpha, "reason": reason})
    return {
        "n": n,
        "beta": beta,
        "samples": samples,
        "seed": seed,
        "passed": samples - len(failures),
        "failed": len(failures),
        "max_deviation": max_dev,
        "failures": failures,
    }


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    result = run_verification(args.n, args.beta, args.samples, args.seed)
    elapsed = time.perf_counter() - t0
    print(
        f"verify n={args.n} beta={args.beta}: {result['passed']}/{args.samples} agree, "
        f"max radius/angle deviation {result['max_deviation']:.3e} ({elapsed:.1f}s)"
    )
    for f in result["failures"]:
        print(
            f"  FAIL gamma={f['gamma']:.6g} alpha={f['alpha']:.6g}: {f['reason']}"
        )
    return 0 if not result["failures"] else 1


def cmd_fixtures(args) -> int:
    all_ok = True
    t0 = time.perf_counter()
    for name, (alpha, beta, gamma, n, cusps, saddles, points, kind) in FIXTURE_SCENARIOS.items():
        scenario = Scenario.from_dict(
            {"alpha": alpha, "beta": beta, "gamma": gamma, "n": n,
             "grid_resolution": args.grid}
        )
        report, _ = run_analysis(scenario)
        got = (
            report["counts"]["critical_points"],
            report["counts"]["saddles"],
            report["starburst"]["point_count"],
            report["starburst"]["kind"],
        )
        want = (cusps, saddles, points, kind)
        ok = got == want
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: cusps/saddles/points/kind {got}"
              + ("" if ok else f" expected {want}"))
    print(f"fixtures {'passed' if all_ok else 'FAILED'} "
          f"({time.perf_counter() - t0:.1f}s at grid {args.grid})")
    return 0 if all_ok else 1


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text} is not a finite number")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starburst",
        description="Saddle cusps of Gauss, caustics, and starburst verdicts "
        "for Zernike wave aberrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the full pipeline for one wavefront")
    pa.add_argument("--scenario", help="scenario JSON file")
    pa.add_argument("--alpha", type=_finite, help="defocus coefficient (um)")
    pa.add_argument("--beta", type=_finite, help="spherical coefficient (um)")
    pa.add_argument("--gamma", type=_finite, help="Z_n^n coefficient (um)")
    pa.add_argument("--n", type=int, help="azimuthal order of the Z_n^n term")
    # unset flags stay None, so Scenario.from_dict's defaults apply and
    # cmd_analyze can tell a given flag from an absent one
    pa.add_argument("--pupil-radius", type=_finite, help="pupil radius (mm)")
    pa.add_argument("--grid", type=int, help="contour grid resolution")
    pa.add_argument("--threshold", type=_finite, help="visibility threshold (arcmin)")
    pa.add_argument("--out", help="output directory (default: the scenario's "
                    "output_dir, else starburst_out)")
    pa.set_defaults(func=cmd_analyze)

    pr = sub.add_parser("regions", help="emit a saddle-region diagram")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--beta", type=_finite, required=True)
    pr.add_argument("--window", default="",
                    help="G0,G1,A0,A1 (um), finite with G0<G1 and A0<A1; write "
                    "--window=G0,G1,A0,A1 when G0 is negative")
    pr.add_argument("--res", type=int, default=_default(region_diagram, "resolution"),
                    help="samples per axis")
    pr.add_argument("--out", default="starburst_regions")
    pr.set_defaults(func=cmd_regions)

    pv = sub.add_parser("verify", help="closed-form vs numerical agreement check")
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--beta", type=_finite, required=True)
    pv.add_argument("--samples", type=int, required=True)
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=cmd_verify)

    pf = sub.add_parser("fixtures", help="reproduce the five reference starbursts")
    pf.add_argument("--grid", type=int, default=_default(extract_contours, "resolution"))
    pf.set_defaults(func=cmd_fixtures)
    return parser


# Built once at import and reused by every main() call: parse_args leaves it
# unchanged, and building it takes 0.6-1 ms, about a tenth of a default
# `regions` call.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # CapabilityError, json.JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

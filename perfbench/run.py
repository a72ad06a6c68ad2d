"""Benchmark for the starburst package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-check

Each run builds one workload's inputs from the seed, times `setup_s` as the
median over fresh interpreters that import `starburst.cli` and build those
inputs, runs one untimed warm-up op and then a fixed, seed-determined list
of ops (its length is set by --seconds and the workload's nominal op time,
never by a clock), and checks every op's outputs.  BLAS and OpenMP are
pinned to one thread.

Op times are host-adjusted: a fixed probe (`host_probe`: a pure-Python loop
plus a numpy polynomial evaluation, no starburst code) runs between the
steps of every op, and each step's time is scaled by REF_PROBE_S over the
mean of the two probes around it (see OpTimer), and so is each set-up
interpreter's wall time.  The raw times are printed in the summary lines.

With --trace 0 the ops run untraced and the end-to-end metrics are printed.
With --trace 1 the ops alternate untraced and traced; the traced ones give
the per-layer metrics (see tracing.py) and `trace.overhead`, and their spans
are written under .bench_build/perfbench/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it are a
readable summary that also gives fail_ratio, and op_s.p90 where a run has
at least 100 ops.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from numpy.polynomial.polynomial import polyval2d  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_RUNS = 3
MIN_OPS = 5
P90_MIN_OPS = 100
REF_PROBE_S = 0.020
PROBE_COEFFS = np.arange(81, dtype=float).reshape(9, 9) / 81.0

SETUP_SNIPPET = (
    "import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; "
    "import workloads; workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), "
    "Path(sys.argv[5]))"
)


def import_program():
    """Import starburst from this checkout's src directory, nowhere else."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import starburst

    where = Path(starburst.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"starburst imported from {where}, not from {SRC}")
    import workloads

    return workloads


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop plus a fixed numpy polynomial
    evaluation, with no starburst code.

    On a shared host the speed of both interpreted and numpy code drifts in
    phases of a few seconds; the two halves together track that drift for
    Python-bound and numpy-bound workloads alike.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(120_000):
        acc += i * i % 7
    axis = np.linspace(-1.0, 1.0, 160)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    polyval2d(x, y, PROBE_COEFFS)
    return time.perf_counter() - t0


def measure_setup(name: str, seed: int, workdir: Path, runs: int, timer):
    """Median raw and host-adjusted wall times of fresh interpreters that
    import starburst.cli and build the workload's inputs."""
    argv = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(HERE), name,
            str(seed), str(workdir)]
    child = functools.partial(subprocess.run, argv, check=True,
                              stdout=subprocess.DEVNULL)
    times = [timer.run([child])[1:] for _ in range(runs)]
    return tuple(statistics.median(t[i] for t in times) for i in (0, 1))


def output_bytes(paths) -> int:
    return sum(f.stat().st_size for p in paths if p.exists()
               for f in p.rglob("*") if f.is_file())


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


class OpTimer:
    """Times ops step by step, running the host probe between steps.

    The probes are not timed.  They sample the host's speed just before and
    just after each step, so a step's seconds scaled by REF_PROBE_S over the
    mean of those two probes estimate its time on a host whose probe reads
    REF_PROBE_S.  On a shared host whose speed drifts from second to second
    this host-adjusted time spreads far less between runs than the raw time.
    """

    def __init__(self):
        self.probes = [host_probe()]

    def run(self, steps):
        """(step results, raw seconds, host-adjusted seconds) of one op."""
        results, raw, adjusted = [], 0.0, 0.0
        for step in steps:
            t0 = time.perf_counter()
            results.append(step())
            elapsed = time.perf_counter() - t0
            self.probes.append(host_probe())
            raw += elapsed
            adjusted += elapsed * REF_PROBE_S / statistics.fmean(self.probes[-2:])
        return results, raw, adjusted


def run_workload(wl_cls, seed: int, n_ops: int, trace: bool, workdir: Path,
                 setup_runs: int = SETUP_RUNS, warmup: bool = True):
    """Run one workload; returns (result JSON object, summary lines,
    (workload, expectations, step results by op))."""
    import tracing

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    timer = OpTimer()
    if not trace:
        setup_raw, setup_s = measure_setup(wl_cls.name, seed, workdir / "setup",
                                           setup_runs, timer)
    wl = wl_cls(seed, workdir / "run")
    expect = wl.expectations()
    tracer = tracing.Tracer() if trace else None

    ops = list(range(0 if warmup else 1, n_ops + 1))  # op 0 is the warm-up
    plain, traced, raw, units, problems, results = [], [], [], 0, {}, {}
    for k in ops:
        is_traced = trace and k > 0 and k % 2 == 0
        gc.collect()
        try:
            if is_traced:
                with tracer.active(k):
                    result, raw_s, seconds = timer.run(wl.steps(k))
            else:
                result, raw_s, seconds = timer.run(wl.steps(k))
        except Exception as exc:  # an op that raises is a failed op
            problems[k] = [f"op raised {exc!r}"]
            continue
        results[k] = result
        try:
            problems[k] = wl.check(k, result, expect)
        except (OSError, KeyError, ValueError) as exc:
            problems[k] = [f"output check raised {exc!r}"]
        if is_traced:
            tracer.add_count(k, tracing.OUTPUT_BYTES, "bytes",
                             output_bytes(wl.outputs()))
        if k > 0:
            (traced if is_traced else plain).append(seconds)
            if not is_traced:
                raw.append(raw_s)
                units += wl.units(k)

    failed = sum(1 for p in problems.values() if p)
    probes = timer.probes
    summary = [
        f"workload {wl.name}: seed {seed}, {n_ops} timed ops"
        f"{' after 1 warm-up op' if warmup else ''}, trace {int(trace)}",
        f"  fail_ratio     {failed / len(ops):.4g}  ({failed} of {len(ops)} ops failed)",
        f"  host.probe_s   median {statistics.median(probes):.4f} s of "
        f"{len(probes)}, first {probes[0]:.4f} s, last {probes[-1]:.4f} s",
    ]
    for k, msgs in problems.items():
        for msg in msgs:
            print(f"op {k}: {msg}", file=sys.stderr)

    metrics = {}
    if plain and not trace:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s.p50": {"value": statistics.median(plain), "unit": "s"},
            "work_per_s": {"value": units / sum(plain), "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        tail = (f"{p90(plain):.4f} s  (raw {p90(raw):.4f} s)"
                if len(plain) >= P90_MIN_OPS else f"n/a (needs {P90_MIN_OPS} ops)")
        summary += [
            f"  setup_s        {setup_s:.4f} s  (raw {setup_raw:.4f} s, median of "
            f"{setup_runs} fresh interpreters)",
            f"  op_s.p50       {metrics['op_s.p50']['value']:.4f} s  "
            f"(raw {statistics.median(raw):.4f} s, {len(plain)} ops)",
            f"  op_s.p90       {tail}",
            f"  work_per_s     {metrics['work_per_s']['value']:.6g} {wl.unit}/s  "
            f"(raw {units / sum(raw):.6g})",
            f"  peak_rss_mb    {metrics['peak_rss_mb']['value']:.1f} MB",
        ]
    elif traced and plain:
        metrics = tracer.layer_metrics()
        metrics["host.probe_s"] = {"value": statistics.median(probes), "unit": "s"}
        metrics["trace.overhead"] = {
            "value": statistics.median(traced) / statistics.median(plain),
            "unit": "ratio",
        }
        tracer.write(workdir / "spans.csv")
        summary.append(f"  trace.overhead {metrics['trace.overhead']['value']:.4f}"
                       f"  (traced p50 over untraced p50, {len(traced)} and "
                       f"{len(plain)} ops)")
        summary += [f"  {name:<36} {m['value']!r} {m['unit']}"
                    for name, m in metrics.items()
                    if name not in ("host.probe_s", "trace.overhead")]
        if tracer.missing:
            summary.append("  missing names: " + ", ".join(tracer.missing))
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    return result, summary, (wl, expect, results)


def n_ops_for(wl_cls, seconds: int) -> int:
    return max(MIN_OPS, round(seconds / wl_cls.nominal_op_s))


# A wrong expectation per workload, each of which its gate must reject.
def _wrong_fixtures(e):
    e["3star"]["critical_points"] += 1


def _wrong_highorder(e):
    e["critical_points"] += 1


def _wrong_verify(e):
    e["failed"] = 1


def _wrong_regions(e):
    e[3]["0/none"] += 1


WRONG = {"fixtures": _wrong_fixtures, "highorder": _wrong_highorder,
         "verify": _wrong_verify, "regions": _wrong_regions}

# Metrics the summary lines must name, including those BENCHMARK.json does not
# list because they do not exist on every workload or are 0 when all is well.
SUMMARY_METRICS = ("setup_s", "op_s.p50", "op_s.p90", "work_per_s",
                   "peak_rss_mb", "fail_ratio", "host.probe_s")


def _check_tracer_tolerates_missing_names() -> None:
    import tracing

    renamed = tuple(
        (mod, path + "_renamed" if span == "zernike.eval" else path, span, count)
        for mod, path, span, count in tracing.TARGETS)
    tracer = tracing.Tracer(renamed)
    with tracer.active(1):
        pass
    metrics = tracer.layer_metrics()
    if metrics["zernike.eval.calls"]["value"] is not None:
        raise AssertionError("a metric fed by a missing name is not reported missing")
    if metrics["hessian.build_field.calls"]["value"] != 0:
        raise AssertionError("a metric fed by a present name is reported missing")


def self_check(workloads) -> int:
    """Short mode: every metric is printed with its unit, counts repeat
    exactly, a missing traced name is reported, and every gate trips."""
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from workloads.py")
    for name, _, _, _, _, moves in tracing.LAYER_METRICS:
        if not moves.startswith("none") and not any(
                w in moves for w in workloads.WORKLOADS):
            raise AssertionError(f"{name}: 'moves' names no workload")
    _check_tracer_tolerates_missing_names()
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for name, wl_cls in workloads.WORKLOADS.items():
        seen = []
        for trace in (0, 1, 1):
            result, summary, (wl, expect, results) = run_workload(
                wl_cls, 0, 2, bool(trace), WORK / "self-check" / name,
                setup_runs=1, warmup=False)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want[trace]:
                raise AssertionError(f"{name} trace {trace}: metrics {got}, "
                                     f"expected {want[trace]}")
            if not result["correct"]:
                raise AssertionError(f"{name} trace {trace}: gate failed")
            missing = [k for k, m in result["metrics"].items() if m["value"] is None]
            if missing:
                raise AssertionError(f"{name} trace {trace}: missing {missing}")
            absent = [m for m in SUMMARY_METRICS if f"  {m} " not in "\n".join(summary)]
            if trace == 0 and absent:
                raise AssertionError(f"{name}: summary lacks {absent}")
            if trace:
                seen.append({c: result["metrics"][c]["value"] for c in counts})
        if seen[0] != seen[1]:
            raise AssertionError(f"{name}: counts differ between runs: {seen}")
        k, result = max(results.items())
        if wl.check(k, result, expect):
            raise AssertionError(f"{name}: gate rejects the right expectation")
        WRONG[name](expect)
        if not wl.check(k, result, expect):
            raise AssertionError(f"{name}: gate accepts a wrong expectation")
        print(f"self-check {name}: metrics and units match, counts repeat, "
              "gate trips")
    print("self-check passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check metric names, units and output gates, then exit")
    args = parser.parse_args(argv)
    try:
        workloads = import_program()
    except ImportError as exc:
        print(f"error: cannot import starburst from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(workloads)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    wl_cls = workloads.WORKLOADS[args.workload]
    result, summary, _ = run_workload(
        wl_cls, args.seed, n_ops_for(wl_cls, args.seconds), bool(args.trace),
        WORK / args.workload)
    print("\n".join(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing around the program's layer boundaries, from outside the program.

A `Tracer` replaces module-level names that the layers call through with
wrappers that record a span (name, start, end, parent, op id) and, for some
layers, counts taken from the arguments or the result.  The wrappers are
installed only while a traced op runs and the originals are put back after
it, so untraced ops run the program exactly as shipped.  A name that no
longer exists is skipped; the metrics fed only by it are reported as
missing (value null).

Layers are the package's modules: zernike, hessian, caustics, regions,
svgfig and cli.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict

import numpy as np


def _count_eval(args, result):
    poly, x, y = args[:3]
    points = max(np.size(x), np.size(y))
    return {"points": points, "terms": points * int(np.count_nonzero(poly.coeffs))}


def _count_census(args, result):
    return {"points": len(result.points), "saddles": len(result.saddles)}


def _count_contours(args, result):
    return {"vertices": result.vertex_count, "polylines": len(result.polylines)}


def _count_diagram(args, result):
    return {"cells": int(result.counts.size)}


# (module, attribute path, span name, counter).  `starburst.cli` imports the
# layer functions by name, so wrapping its names catches every call that the
# commands make; the names inside `caustics` and `regions` catch the calls
# those modules make internally.
TARGETS = (
    ("starburst.cli", "main", "cli.main", None),
    ("starburst.cli", "run_analysis", "cli.run_analysis", None),
    ("starburst.cli", "build_field", "hessian.build_field", None),
    ("starburst.cli", "find_critical_points", "hessian.find_critical_points",
     _count_census),
    ("starburst.cli", "extract_contours", "caustics.extract_contours",
     _count_contours),
    ("starburst.cli", "map_caustics", "caustics.map_caustics", None),
    ("starburst.cli", "fertility_report", "caustics.fertility_report", None),
    ("starburst.cli", "starburst_verdict", "caustics.starburst_verdict", None),
    ("starburst.cli", "symmetry_order", "caustics.symmetry_order", None),
    ("starburst.caustics", "symmetry_order", "caustics.symmetry_order", None),
    ("starburst.caustics", "map_to_retina", "caustics.map_to_retina", None),
    ("starburst.cli", "predict_saddles", "regions.predict_saddles", None),
    ("starburst.regions", "predict_saddles", "regions.predict_saddles", None),
    ("starburst.cli", "boundary_slacks", "regions.boundary_slacks", None),
    ("starburst.cli", "region_diagram", "regions.region_diagram", _count_diagram),
    ("starburst.cli", "heatmap_figure", "svgfig.heatmap_figure", None),
    ("starburst.zernike", "BivariatePolynomial.__call__", "zernike.eval",
     _count_eval),
)

OUTPUT_BYTES = "cli.output_bytes"

# Per-layer metrics, per op: (name, unit, better, span, statistic, moves).
# `statistic` is "self_s", "calls" or a count key of the span's counter.
# `moves` names the end-to-end metrics and workloads the layer metric should
# move, written down before any optimisation is measured against it.
LAYER_METRICS = (
    ("zernike.eval.calls", "count", "lower", "zernike.eval", "calls",
     "op_s.p50 and peak_rss_mb on highorder; op_s.p50 on verify (partly)"),
    ("zernike.eval.points", "count", "lower", "zernike.eval", "points",
     "op_s.p50 and peak_rss_mb on highorder; op_s.p50 on verify (partly)"),
    ("zernike.eval.terms", "count", "lower", "zernike.eval", "terms",
     "op_s.p50 and peak_rss_mb on highorder; op_s.p50 on verify (partly)"),
    ("zernike.eval.self_s", "s", "lower", "zernike.eval", "self_s",
     "op_s.p50 and peak_rss_mb on highorder; op_s.p50 on verify (partly)"),
    ("hessian.build_field.self_s", "s", "lower", "hessian.build_field", "self_s",
     "op_s.p50 and work_per_s on verify; not fixtures"),
    ("hessian.build_field.calls", "count", "lower", "hessian.build_field", "calls",
     "op_s.p50 and work_per_s on verify; not fixtures"),
    ("hessian.find_critical_points.self_s", "s", "lower",
     "hessian.find_critical_points", "self_s",
     "op_s.p50 and work_per_s on verify; not fixtures"),
    ("hessian.find_critical_points.calls", "count", "lower",
     "hessian.find_critical_points", "calls",
     "op_s.p50 and work_per_s on verify; not fixtures"),
    ("hessian.points", "count", "higher", "hessian.find_critical_points", "points",
     "none: must not change under any optimisation"),
    ("hessian.saddles", "count", "higher", "hessian.find_critical_points", "saddles",
     "none: must not change under any optimisation"),
    ("caustics.extract_contours.self_s", "s", "lower", "caustics.extract_contours",
     "self_s", "op_s.p50 on highorder, then fixtures"),
    ("caustics.contour_vertices", "count", "lower", "caustics.extract_contours",
     "vertices", "op_s.p50 on highorder, then fixtures"),
    ("caustics.polylines", "count", "lower", "caustics.extract_contours",
     "polylines", "op_s.p50 on highorder, then fixtures"),
    ("caustics.symmetry_order.self_s", "s", "lower", "caustics.symmetry_order",
     "self_s", "op_s.p50 on fixtures; barely highorder; not verify"),
    ("caustics.symmetry_order.calls", "count", "lower", "caustics.symmetry_order",
     "calls", "op_s.p50 on fixtures; barely highorder; not verify"),
    ("caustics.starburst_verdict.self_s", "s", "lower",
     "caustics.starburst_verdict", "self_s", "op_s.p50 on fixtures"),
    ("caustics.map_caustics.self_s", "s", "lower", "caustics.map_caustics",
     "self_s", "op_s.p50 on fixtures"),
    ("caustics.map_to_retina.calls", "count", "lower", "caustics.map_to_retina",
     "calls", "op_s.p50 on fixtures"),
    ("caustics.fertility_report.self_s", "s", "lower", "caustics.fertility_report",
     "self_s", "op_s.p50 on fixtures"),
    ("regions.region_diagram.self_s", "s", "lower", "regions.region_diagram",
     "self_s", "op_s.p50 and work_per_s on regions"),
    ("regions.cells", "count", "higher", "regions.region_diagram", "cells",
     "op_s.p50 and work_per_s on regions"),
    ("regions.predict_saddles.self_s", "s", "lower", "regions.predict_saddles",
     "self_s", "op_s.p50 on verify, a little"),
    ("regions.predict_saddles.calls", "count", "lower", "regions.predict_saddles",
     "calls", "op_s.p50 on verify, a little"),
    ("regions.boundary_slacks.self_s", "s", "lower", "regions.boundary_slacks",
     "self_s", "op_s.p50 on verify, a little"),
    ("svgfig.heatmap_figure.self_s", "s", "lower", "svgfig.heatmap_figure",
     "self_s", "op_s.p50 on fixtures and highorder"),
    ("svgfig.heatmap_figure.calls", "count", "lower", "svgfig.heatmap_figure",
     "calls", "op_s.p50 on fixtures and highorder"),
    ("cli.run_analysis.self_s", "s", "lower", "cli.run_analysis", "self_s",
     "op_s.p50 on fixtures and regions"),
    ("cli.emit.self_s", "s", "lower", "cli.main", "self_s",
     "op_s.p50 on fixtures and regions"),
    ("cli.output_bytes", "count", "lower", OUTPUT_BYTES, "bytes",
     "op_s.p50 on fixtures and regions"),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a dotted name, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Spans and counts of traced ops, kept in memory until the run ends."""

    def __init__(self, targets=TARGETS):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.ops: list[int] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches = []
        installed = set()
        for module_name, path, span, counter in targets:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner, attr, original = found
            self._patches.append(
                (owner, attr, original, self._wrap(span, original, counter)))
            installed.add(span)
        installed.add(OUTPUT_BYTES)
        self.available = installed

    def _wrap(self, span, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [span, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                tally = counts[self._op]
                for key, value in counter(args, result).items():
                    tally[(span, key)] += value
            return result

        return wrapper

    @contextlib.contextmanager
    def active(self, op: int):
        """Trace one op: install the wrappers, record a root span, restore."""
        self.ops.append(op)
        self._op = op
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        root = ["op", 0.0, 0.0, -1, op]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        root[1] = time.perf_counter()
        try:
            yield
        finally:
            root[2] = time.perf_counter()
            self._stack.pop()
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self._op = -1

    def add_count(self, op: int, span: str, key: str, value: int) -> None:
        self.counts[op][(span, key)] += value

    def per_op(self) -> dict[int, Counter]:
        """Per op: self seconds and call count per span name, plus counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {op: Counter(self.counts.get(op, ())) for op in self.ops}
        for (name, start, end, parent, op), inner in zip(self.spans, child_time):
            totals[op][(name, "self_s")] += end - start - inner
            totals[op][(name, "calls")] += 1
        return totals

    def layer_metrics(self) -> dict[str, dict]:
        """Median over the traced ops of each per-layer metric."""
        totals = self.per_op()
        out = {}
        for name, unit, _, span, stat, _ in LAYER_METRICS:
            if span in self.available and totals:
                value = statistics.median(t[(span, stat)] for t in totals.values())
            else:
                value = None
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """Write the spans as CSV, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{op}\n")

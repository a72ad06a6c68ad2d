"""analyze's two heaviest writers against the code they replaced.

The references below are the earlier contour-table formatter, which held
the curve and vertex indices as floats in one column stack with the
coordinates, and the earlier heatmap, which gathered the cells inside the
pupil with a boolean mask, colored them with a broadcast (N, 3) color map,
scattered them back and transposed the grid into image order.  The new
writers must give the same strings and the same file bytes, and a grid that
is non-finite only outside the pupil must give no warning.
"""

import re
import warnings

import numpy as np
import pytest

from starburst import cli, svgfig
from starburst.cli import _contour_rows
from starburst.svgfig import (
    _HEATMAP_CELLS,
    _HEATMAP_INSIDE,
    _HEATMAP_LEFT,
    _HEATMAP_SIZE,
    _HEATMAP_TOP,
    SvgCanvas,
    _png_rgba,
    heatmap_figure,
)

HEATMAPS = ("wavefront.svg", "hessian_full.svg", "hessian_clipped.svg")


def reference_contour_rows(curves) -> str:
    if not curves:
        return ""
    lengths = [len(poly) for poly in curves]
    points = np.concatenate(curves)
    curve = np.repeat(np.arange(len(curves)), lengths)
    vertex = np.arange(len(points)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    flat = np.column_stack((curve, vertex, points)).ravel().tolist()
    return ("%d,%d,%.12g,%.12g\r\n" * len(points)) % tuple(flat)


def reference_rgb(t) -> np.ndarray:
    t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)[..., None]
    neg = t < 0
    u = np.where(neg, 1.0 + t, 1.0 - t)
    end = np.where(neg, [43.0, 131.0, 186.0], [215.0, 25.0, 28.0])
    return np.rint(end + u * (255.0 - end)).astype(np.uint8)


def reference_colorbar() -> list[str]:
    canvas = SvgCanvas(0, 0)
    start = len(canvas.parts)
    bar_x = _HEATMAP_LEFT + _HEATMAP_SIZE + 20
    nbar = 64
    t = np.ravel(1.0 - 2.0 * np.arange(nbar) / (nbar - 1))
    bar = [f"rgb({r},{g},{b})" for r, g, b in reference_rgb(t).tolist()]
    for k, color in enumerate(bar):
        canvas.rect(bar_x, _HEATMAP_TOP + k * _HEATMAP_SIZE / nbar, 18,
                    _HEATMAP_SIZE / nbar + 0.5, color)
    return canvas.parts[start:]


def reference_heatmap(values, title, path, clip=None) -> np.ndarray:
    """Writes the earlier heatmap to ``path`` and returns its RGBA pixels."""
    size = _HEATMAP_SIZE
    canvas = SvgCanvas(size + 110, size + 70, title)
    inside = values[_HEATMAP_INSIDE]
    vmax = float(np.max(np.abs(inside)))
    crange = (clip * vmax if clip else vmax) or 1.0
    rgba = np.zeros(values.shape + (4,), np.uint8)
    rgba[_HEATMAP_INSIDE] = 255
    rgba[_HEATMAP_INSIDE, :3] = reference_rgb(inside / crange)
    pixels = rgba.transpose(1, 0, 2)[::-1]
    canvas.image(_HEATMAP_LEFT, _HEATMAP_TOP, size, size, _png_rgba(pixels))
    canvas.circle(_HEATMAP_LEFT + size / 2, _HEATMAP_TOP + size / 2, size / 2,
                  stroke="black")
    canvas.parts += reference_colorbar()
    bar_x = _HEATMAP_LEFT + size + 20
    for frac, val in ((0.0, crange), (0.5, 0.0), (1.0, -crange)):
        canvas.text(bar_x + 24, _HEATMAP_TOP + 4 + frac * size, f"{val:.3g}", size=9)
    if clip and vmax:
        canvas.text(bar_x, _HEATMAP_TOP + size + 24, f"clipped to +-{crange:.3g}", size=8)
    canvas.save(path)
    return pixels


def random_curves(rng, count, longest):
    scale = 10.0 ** rng.integers(-8, 9, size=count)
    return [rng.normal(size=(int(m), 2)) * s
            for m, s in zip(rng.integers(0, longest + 1, size=count), scale)]


class TestContourRows:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_curve_sets(self, seed):
        rng = np.random.default_rng(seed)
        curves = random_curves(rng, int(rng.integers(1, 300)), 60)
        assert _contour_rows(curves) == reference_contour_rows(curves)
        assert _contour_rows(tuple(curves)) == reference_contour_rows(curves)

    def test_one_long_curve(self):
        curves = [np.random.default_rng(1).uniform(-1.0, 1.0, size=(100_000, 2))]
        rows = _contour_rows(curves)
        assert rows == reference_contour_rows(curves)
        assert rows.count("\r\n") == 100_000
        assert rows.split("\r\n")[-2].startswith("0,99999,")

    def test_extreme_coordinates(self):
        special = [-0.0, 0.0, 1e-300, -1e300, 5e-324, -5e-324, 1.7976931348623157e308,
                   np.inf, -np.inf, np.nan]
        pts = np.array([(a, b) for a in special for b in special])
        curves = [pts[:40], pts[40:41], pts[41:]]
        rows = _contour_rows(curves)
        assert rows == reference_contour_rows(curves)
        assert rows.startswith("0,0,-0,-0\r\n")
        assert "2,58,nan,nan\r\n" in rows

    def test_no_curves(self):
        assert _contour_rows(()) == reference_contour_rows(()) == ""
        assert _contour_rows([]) == ""


def rendered(monkeypatch, values, path, clip):
    """``heatmap_figure``'s file bytes and the pixels it handed to the PNG
    encoder, with every warning raised as an error."""
    seen = []

    def recording(rgba):
        seen.append(rgba.copy())
        return _png_rgba(rgba)

    monkeypatch.setattr(svgfig, "_png_rgba", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        heatmap_figure(values, "G", path, clip)
    (pixels,) = seen
    return path.read_bytes(), pixels


class TestHeatmapRaster:
    @pytest.mark.parametrize("clip", [None, 0.02, 0.5])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_grids(self, monkeypatch, tmp_path, seed, clip):
        rng = np.random.default_rng(seed)
        shape = (_HEATMAP_CELLS, _HEATMAP_CELLS)
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7)
        if seed % 4 == 1:  # exact zeros and halves of the range: ties in rint
            values = np.round(values / np.max(np.abs(values)) * 8) / 8
        want = reference_heatmap(values, "G", tmp_path / "want.svg", clip)
        got, pixels = rendered(monkeypatch, values, tmp_path / "got.svg", clip)
        assert np.array_equal(pixels, want)
        assert got == (tmp_path / "want.svg").read_bytes()

    @pytest.mark.parametrize("clip", [None, 0.02])
    def test_constant_grids(self, monkeypatch, tmp_path, clip):
        for value in (0.0, -0.0, 3.0, -5e-324):
            values = np.full((_HEATMAP_CELLS, _HEATMAP_CELLS), value)
            want = reference_heatmap(values, "G", tmp_path / "want.svg", clip)
            got, pixels = rendered(monkeypatch, values, tmp_path / "got.svg", clip)
            assert np.array_equal(pixels, want)
            assert got == (tmp_path / "want.svg").read_bytes()

    @pytest.mark.parametrize("clip", [None, 0.02])
    @pytest.mark.parametrize("outside", [np.inf, -np.inf, np.nan, 1e308])
    def test_non_finite_outside_the_pupil(self, monkeypatch, tmp_path, clip, outside):
        # the cells outside the disk are never read: huge or non-finite there,
        # tiny inside, gives the same bytes and no overflow or invalid warning
        values = np.random.default_rng(3).normal(size=(_HEATMAP_CELLS,) * 2) * 1e-3
        values[~_HEATMAP_INSIDE] = outside
        want = reference_heatmap(values, "G", tmp_path / "want.svg", clip)
        got, pixels = rendered(monkeypatch, values, tmp_path / "got.svg", clip)
        assert np.array_equal(pixels, want)
        assert not pixels[..., 3][~_HEATMAP_INSIDE.T[::-1]].any()
        assert got == (tmp_path / "want.svg").read_bytes()

    def test_colorbar_in_each_analyze_heatmap(self, tmp_path):
        assert cli.main(["analyze", "--alpha", "0", "--beta", "0.2", "--gamma", "0.2",
                         "--n", "3", "--grid", "64", "--out", str(tmp_path)]) == 0
        want = reference_colorbar()
        assert len(want) == 64
        for name in HEATMAPS:
            lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
            bar = [line for line in lines if re.match(r'<rect x="580\.000" ', line)]
            assert bar == want, name

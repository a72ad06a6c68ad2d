"""The array paths of svgfig against the per-value formulas they replace,
and the embedded PNGs of the heatmaps and region diagrams against the cell
colors they encode."""

import base64
import csv
import json
import struct
import xml.etree.ElementTree as ET
import zlib

import numpy as np
import pytest

from starburst import cli
from starburst.svgfig import (
    Frame,
    SvgCanvas,
    diverging_colors,
    heatmap_figure,
    heatmap_values,
)
from starburst.zernike import ZernikeTerm


def channels(t: float) -> list[float]:
    """The unrounded RGB channels of one value of the blue-white-red map,
    in scalar Python."""
    t = min(max(t, -1.0), 1.0)
    end, u = ((43.0, 131.0, 186.0), 1.0 + t) if t < 0 else ((215.0, 25.0, 28.0), 1.0 - t)
    return [e + u * (255.0 - e) for e in end]


def reference_color(t: float) -> str:
    """``round`` rounds half to even, as ``np.rint`` does."""
    r, g, b = (round(c) for c in channels(t))
    return f"rgb({r},{g},{b})"


class TestDivergingColors:
    def test_matches_per_value_formula(self):
        rng = np.random.default_rng(20240615)
        # dyadic t in [-1, 1]: many of them put a channel exactly on .5
        dyadic = np.arange(-128, 129) / 128.0
        t = np.concatenate([rng.uniform(-1.5, 1.5, 5000), [-1.0, 0.0, 1.0], dyadic])
        assert sum(c % 1.0 == 0.5 for v in dyadic.tolist() for c in channels(v)) >= 20
        assert diverging_colors(t) == [reference_color(v) for v in t.tolist()]

    def test_takes_any_shape(self):
        t = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        assert diverging_colors(t) == [reference_color(v) for v in t.ravel().tolist()]
        assert diverging_colors(np.zeros(0)) == []


def reference_points(fr: Frame, xy) -> str:
    """Frame.polyline's points attribute, one point at a time."""
    return " ".join(f"{fr.px(x):.3f},{fr.py(y):.3f}" for x, y in xy.tolist())


class RecordingCanvas(SvgCanvas):
    """An SvgCanvas that also keeps the pixel points of each polyline."""

    def __init__(self, *args):
        super().__init__(*args)
        self.points = []

    def polyline(self, points, **kw):
        self.points.append(np.array(points))
        super().polyline(points, **kw)


class TestFramePolyline:
    @pytest.mark.parametrize("n", [1, 2, 17, 600])
    def test_matches_per_point_mapping(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            x0, y0 = rng.uniform(-50.0, 50.0, 2)
            x1, y1 = x0 + rng.uniform(1e-3, 100.0), y0 + rng.uniform(1e-3, 100.0)
            fr = Frame(RecordingCanvas(620, 560), x0, x1, y0, y1)
            # points inside and outside the frame, some of them on its edges
            xy = rng.uniform(-80.0, 80.0, (n, 2))
            xy[::5] = [x0, y1]
            fr.polyline(xy, stroke="red")
            # every pixel coordinate to the bit, and the markup
            want = [[fr.px(x), fr.py(y)] for x, y in xy.tolist()]
            assert fr.c.points[-1].tolist() == want
            want = f'<polyline points="{reference_points(fr, xy)}" fill="none"'
            assert fr.c.parts[-1].startswith(want + ' stroke="red"')

    def test_accepts_point_lists(self):
        fr = Frame(SvgCanvas(620, 620), -1.5, 1.5, -1.5, 1.5)
        pts = [(0.25, -1.0), (1.0, 0.5)]
        fr.polyline(pts)
        assert f'points="{reference_points(fr, np.array(pts))}"' in fr.c.parts[-1]


SVG = "{http://www.w3.org/2000/svg}"
XLINK_HREF = "{http://www.w3.org/1999/xlink}href"
HEATMAPS = ("wavefront.svg", "hessian_full.svg", "hessian_clipped.svg")
HIGHORDER = [{"n": 4, "m": 0, "coeff_um": 0.2}, {"n": 12, "m": 12, "coeff_um": 0.02},
             {"n": 2, "m": 0, "coeff_um": 0.02}]


def png_pixels(png: bytes) -> np.ndarray:
    """The (h, w, 4) pixels of an 8-bit RGBA PNG whose rows all use filter 0,
    after checking its signature and every chunk's CRC."""
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, k = [], 8
    while k < len(png):
        (length,) = struct.unpack(">I", png[k:k + 4])
        kind, data = png[k + 4:k + 8], png[k + 8:k + 8 + length]
        (crc,) = struct.unpack(">I", png[k + 8 + length:k + 12 + length])
        assert crc == zlib.crc32(kind + data), kind
        chunks.append((kind, data))
        k += 12 + length
    assert k == len(png)
    assert [chunks[0][0], chunks[-1][0]] == [b"IHDR", b"IEND"]
    w, h, depth, color, compression, filtering, interlace = struct.unpack(
        ">IIBBBBB", chunks[0][1])
    assert (depth, color, compression, filtering, interlace) == (8, 6, 0, 0, 0)
    raw = zlib.decompress(b"".join(data for kind, data in chunks if kind == b"IDAT"))
    rows = np.frombuffer(raw, np.uint8).reshape(h, 1 + 4 * w)
    assert not rows[:, 0].any()  # filter 0 (none) on every row
    return rows[:, 1:].reshape(h, w, 4)


def image_pixels(image: ET.Element) -> np.ndarray:
    """The pixels of an ``<image>`` element's PNG data URI."""
    prefix = "data:image/png;base64,"
    uri = image.get(XLINK_HREF)
    assert uri.startswith(prefix)
    assert image.get("image-rendering") == "pixelated"
    return png_pixels(base64.b64decode(uri[len(prefix):], validate=True))


def heatmap_pixels(path) -> np.ndarray:
    """The pixels of the one image a heatmap SVG holds, checked to cover
    the cell grid's 520 x 520 pixels at (40, 30)."""
    (image,) = ET.parse(path).getroot().iter(SVG + "image")
    assert [image.get(k) for k in ("x", "y", "width", "height")] == [
        "40.000", "30.000", "520.000", "520.000"]
    return image_pixels(image)


def rgb(fill: str) -> tuple[int, ...]:
    """(r, g, b) of an ``rgb(r,g,b)`` color string."""
    assert fill.startswith("rgb(") and fill.endswith(")")
    return tuple(map(int, fill[4:-1].split(",")))


def cell_pixels(values: np.ndarray, clip) -> np.ndarray:
    """The pixels of ``heatmap_figure(values, ..., clip=clip)``, cell by cell:
    cell (i, j) at x = centers[i], y = centers[j] is pixel (95 - j, i), its
    ``diverging_colors`` color and opaque inside the unit disk, and fully
    transparent outside it.  The color range is the largest |value| of a
    cell inside the disk, times ``clip`` when one is given."""
    edges = np.linspace(-1.0, 1.0, 97)
    centers = (0.5 * (edges[:-1] + edges[1:])).tolist()
    inside = [(i, j) for i, j in np.ndindex(96, 96)
              if centers[i] ** 2 + centers[j] ** 2 <= 1.0]
    vmax = max(abs(float(values[i, j])) for i, j in inside)
    crange = (clip * vmax if clip else vmax) or 1.0
    want = np.zeros((96, 96, 4), np.uint8)
    for i, j in inside:
        (color,) = diverging_colors(values[i, j] / crange)
        want[95 - j, i] = [*rgb(color), 255]
    return want


@pytest.fixture(scope="module")
def analyze_runs(tmp_path_factory):
    """{case: (output directory, {file name: (values, clip)})} for `analyze`
    on 3star and the radial-order-12 wavefront, with the arguments of each
    heatmap_figure call."""
    root = tmp_path_factory.mktemp("analyze")
    scenario = root / "highorder.json"
    scenario.write_text(json.dumps({"wavefront": HIGHORDER, "grid_resolution": 128}))
    argv = {"3star": ["--alpha", "0", "--beta", "0.2", "--gamma", "0.2", "--n", "3",
                      "--grid", "128"],
            "highorder": ["--scenario", str(scenario)]}
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        for case, flags in argv.items():
            calls = {}

            def recording(values, title, path, clip=None, calls=calls):
                calls[path.name] = (values, clip)
                heatmap_figure(values, title, path, clip)

            mp.setattr(cli, "heatmap_figure", recording)
            out = root / case
            assert cli.main(["analyze", *flags, "--out", str(out)]) == 0
            runs[case] = (out, calls)
    return runs


class TestHeatmapRaster:
    @pytest.mark.parametrize("case", ["3star", "highorder"])
    def test_pixels_are_the_cell_colors(self, analyze_runs, case):
        out, calls = analyze_runs[case]
        assert sorted(calls) == sorted(HEATMAPS)
        assert calls["hessian_clipped.svg"][1] is not None
        for name, (values, clip) in calls.items():
            assert (out / name).stat().st_size < 100_000
            assert np.array_equal(heatmap_pixels(out / name), cell_pixels(values, clip))

    @pytest.mark.parametrize("case", ["3star", "highorder"])
    def test_an_end_color_lies_in_the_pupil(self, analyze_runs, case):
        # the color range is taken inside the pupil, so the largest |value|
        # there (or, clipped, many cells) gets a colorbar end color
        out, _ = analyze_runs[case]
        for name in HEATMAPS:
            root = ET.parse(out / name).getroot()
            bar = [r.get("fill") for r in root.iter(SVG + "rect")
                   if r.get("width") == "18.000"]
            assert len(bar) == 64
            ends = {rgb(bar[0]), rgb(bar[-1])}
            pixels = heatmap_pixels(out / name)
            drawn = pixels[pixels[:, :, 3] == 255, :3]
            assert any(tuple(p) in ends for p in drawn.tolist()), (case, name)

    @pytest.mark.parametrize("m, negative_half", [(-1, np.s_[:, :48]), (1, np.s_[48:, :])])
    def test_orientation(self, tmp_path, m, negative_half):
        # theta = 0 points along +y, so Z_1^-1 = 2x is blue on the left and
        # red on the right, and Z_1^1 = 2y blue at the bottom and red on top
        values = heatmap_values(ZernikeTerm(1, m, 1.0).to_polynomial())
        heatmap_figure(values, "tilt", tmp_path / "tilt.svg")
        pixels = heatmap_pixels(tmp_path / "tilt.svg").astype(int)
        red, blue, opaque = pixels[:, :, 0], pixels[:, :, 2], pixels[:, :, 3] == 255
        negative = np.zeros((96, 96), bool)
        negative[negative_half] = True
        assert (opaque & negative).sum() == (opaque & ~negative).sum() > 3000
        assert np.all((blue > red)[opaque & negative])
        assert np.all((red > blue)[opaque & ~negative])

    def test_every_svg_is_well_formed(self, analyze_runs, tmp_path):
        regions = tmp_path / "regions"
        assert cli.main(["regions", "--n", "4", "--beta", "0.2", "--res", "31",
                         "--out", str(regions)]) == 0
        paths = [p for out, _ in analyze_runs.values() for p in out.glob("*.svg")]
        paths += regions.glob("*.svg")
        assert len(paths) >= 9
        for path in paths:
            assert ET.parse(path).getroot().tag == SVG + "svg", path


@pytest.fixture(scope="module")
def regions_n4(tmp_path_factory):
    """The output directory of `regions --n 4 --beta 0.2 --res 31`."""
    out = tmp_path_factory.mktemp("regions")
    assert cli.main(["regions", "--n", "4", "--beta", "0.2", "--res", "31",
                     "--out", str(out)]) == 0
    return out


class TestRegionsRaster:
    def test_pixels_are_the_cell_families(self, regions_n4):
        root = ET.parse(regions_n4 / "regions.svg").getroot()
        # the legend: each 12 x 12 swatch is followed by its label
        parts = list(root)
        legend = {parts[k + 1].text: rgb(r.get("fill")) for k, r in enumerate(parts)
                  if r.tag == SVG + "rect" and r.get("width") == "12.000"}
        assert list(legend) == ["even family", "odd family", "both (2n)"]
        colors = {"none": (0, 0, 0, 0)}
        colors.update((f, (*c, 255)) for f, c in zip(("even", "odd", "both"),
                                                      legend.values()))
        with open(regions_n4 / "regions_grid.csv", newline="", encoding="utf-8") as fh:
            families = [row["family"] for row in csv.DictReader(fh)]
        assert {"none", "even", "odd"} <= set(families)
        # CSV rows run from the first alpha up, image rows from the last down;
        # both run from the first gamma
        want = np.array([colors[f] for f in families], np.uint8).reshape(31, 31, 4)[::-1]
        # a flipped image would not pass
        assert not np.array_equal(want, want[::-1])
        assert not np.array_equal(want, want[:, ::-1])
        (image,) = root.iter(SVG + "image")
        assert np.array_equal(image_pixels(image), want)

    def test_pixel_centres_on_the_samples(self, regions_n4):
        root = ET.parse(regions_n4 / "regions.svg").getroot()
        (image,) = root.iter(SVG + "image")
        x, y, w, h = (float(image.get(k)) for k in ("x", "y", "width", "height"))
        # the frame spans the window: sample k of 31 sits at k / 30 of it
        (frame,) = (r for r in root.iter(SVG + "rect") if r.get("fill") == "none")
        fx, fy, fw, fh = (float(frame.get(k)) for k in ("x", "y", "width", "height"))
        k = np.arange(31)
        np.testing.assert_allclose(x + (k + 0.5) * w / 31, fx + k * fw / 30, atol=2e-3)
        np.testing.assert_allclose(y + (k + 0.5) * h / 31, fy + k * fh / 30, atol=2e-3)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_default_resolution_size(self, n, tmp_path):
        assert cli.main(["regions", "--n", str(n), "--beta", "0.2",
                         "--out", str(tmp_path)]) == 0
        assert (tmp_path / "regions.svg").stat().st_size < 150_000

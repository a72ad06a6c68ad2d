"""The array paths of svgfig against the per-value formulas they replace."""

import numpy as np
import pytest

from starburst.svgfig import Frame, SvgCanvas, diverging_colors


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

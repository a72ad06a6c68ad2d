"""Minimal deterministic SVG 1.1 emitter for the package's figures.

No raster or plotting dependencies: figures are built from rects,
polylines, circles, and text.  All coordinates are formatted with a fixed
precision so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np


def _f(v: float) -> str:
    return f"{v:.3f}"


class SvgCanvas:
    def __init__(self, width: int, height: int, title: str = ""):
        self.width = width
        self.height = height
        self.parts: list[str] = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        ]
        if title:
            self.text(width / 2, 16, title, size=13, anchor="middle")

    def rect(self, x, y, w, h, fill, stroke="none"):
        self.parts.append(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
            f'fill="{fill}" stroke="{stroke}"/>'
        )

    def line(self, x1, y1, x2, y2, stroke="black", width=1.0, dash=""):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"{d}/>'
        )

    def polyline(self, points, stroke="black", width=1.0):
        pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>'
        )

    def circle(self, cx, cy, r, fill="none", stroke="black", width=1.0):
        self.parts.append(
            f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r)}" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="{width}"/>'
        )

    def marker_star(self, cx, cy, r, color):
        for k in range(5):
            a = 2 * math.pi * k / 5 - math.pi / 2
            self.line(cx, cy, cx + r * math.cos(a), cy + r * math.sin(a),
                      stroke=color, width=1.2)

    def text(self, x, y, s, size=10, anchor="start", color="black"):
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-size="{size}" '
            f'font-family="Helvetica,Arial,sans-serif" text-anchor="{anchor}" '
            f'fill="{color}">{_escape(s)}</text>'
        )

    def to_string(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_string())


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def diverging_colors(t) -> list[str]:
    """Blue-white-red map for t in [-1, 1], elementwise over an array.

    ``np.rint`` rounds half to even, as ``round`` does."""
    t = np.clip(np.asarray(t, dtype=float).ravel(), -1.0, 1.0)
    neg = (t < 0)[:, None]
    u = np.where(neg, 1.0 + t[:, None], 1.0 - t[:, None])
    end = np.where(neg, [43.0, 131.0, 186.0], [215.0, 25.0, 28.0])
    rgb = np.rint(end + u * (255.0 - end)).astype(int).tolist()
    return [f"rgb({r},{g},{b})" for r, g, b in rgb]


class Frame:
    """Maps data coordinates to canvas pixels (y axis flipped), inside a
    60-pixel margin."""

    def __init__(self, canvas, x0, x1, y0, y1):
        self.c = canvas
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.m = 60
        self.w = canvas.width - 2 * self.m
        self.h = canvas.height - 2 * self.m

    def px(self, x):
        return self.m + (x - self.x0) / (self.x1 - self.x0) * self.w

    def py(self, y):
        return self.c.height - self.m - (y - self.y0) / (self.y1 - self.y0) * self.h

    def polyline(self, xy, **kw):
        pts = [(self.px(x), self.py(y)) for x, y in xy]
        self.c.polyline(pts, **kw)

    def frame_box(self, xlabel="", ylabel=""):
        self.c.parts.append(
            f'<rect x="{_f(self.m)}" y="{_f(self.c.height - self.m - self.h)}" '
            f'width="{_f(self.w)}" height="{_f(self.h)}" fill="none" stroke="black"/>'
        )
        if xlabel:
            self.c.text(self.m + self.w / 2, self.c.height - 10, xlabel, anchor="middle")
        if ylabel:
            self.c.text(12, self.c.height - self.m - self.h / 2, ylabel, anchor="middle")

    def ticks(self, xticks=(), yticks=(), fmt="{:.3g}"):
        for t in xticks:
            x = self.px(t)
            y = self.py(self.y0)
            self.c.line(x, y, x, y + 4)
            self.c.text(x, y + 15, fmt.format(t), size=8, anchor="middle")
        for t in yticks:
            x = self.px(self.x0)
            y = self.py(t)
            self.c.line(x - 4, y, x, y)
            self.c.text(x - 6, y + 3, fmt.format(t), size=8, anchor="end")


_HEATMAP_CELLS = 96  # cells per axis over [-1, 1]
_HEATMAP_SIZE = 520  # pixels per axis of the cell grid


def heatmap_figure(poly, title: str, path, clip: float | None = None) -> None:
    """Render the polynomial ``poly`` over the unit disk as a colored cell
    grid with a vertical colorbar; ``clip`` limits the color range to +-clip."""
    cells, size = _HEATMAP_CELLS, _HEATMAP_SIZE
    canvas = SvgCanvas(size + 110, size + 70, title)
    xs = np.linspace(-1.0, 1.0, cells + 1)
    centers = 0.5 * (xs[:-1] + xs[1:])
    V = poly.grid(centers, centers)
    vmax = float(np.max(np.abs(V))) or 1.0
    crange = min(vmax, clip) if clip else vmax
    m = 40
    cell = size / cells
    # SvgCanvas.rect's markup, with the pixel strings formatted once per
    # column and row; the cells run column by column
    px = [_f(v) for v in m + (centers + 1.0) / 2.0 * size - cell / 2]
    py = [_f(v) for v in 30 + size - (centers + 1.0) / 2.0 * size - cell / 2]
    wh = f'width="{_f(cell + 0.5)}" height="{_f(cell + 0.5)}"'
    inside = centers[:, None] ** 2 + centers[None, :] ** 2 <= 1.0
    ii, jj = np.nonzero(inside)
    colors = diverging_colors(V[ii, jj] / crange)
    canvas.parts.extend(
        f'<rect x="{px[i]}" y="{py[j]}" {wh} fill="{color}" stroke="none"/>'
        for i, j, color in zip(ii.tolist(), jj.tolist(), colors)
    )
    canvas.circle(m + size / 2, 30 + size / 2, size / 2, stroke="black")
    bar_x = m + size + 20
    nbar = 64
    bar = diverging_colors(1.0 - 2.0 * np.arange(nbar) / (nbar - 1))
    for k, color in enumerate(bar):
        canvas.rect(bar_x, 30 + k * size / nbar, 18, size / nbar + 0.5, color)
    for frac, val in ((0.0, crange), (0.5, 0.0), (1.0, -crange)):
        canvas.text(bar_x + 24, 34 + frac * size, f"{val:.3g}", size=9)
    if clip and clip < vmax:
        canvas.text(bar_x, 30 + size + 24, f"clipped to +-{crange:.3g}", size=8)
    canvas.save(path)


def retina_figure(curves, critical_points, spike_tips, path) -> None:
    """Caustic curves at the retina plane (arcmin) with the projected cusps
    (``critical_points`` rows of report.json) and the spike tips."""
    canvas = SvgCanvas(620, 620, "caustics at the retina plane (arcmin)")
    pts = np.concatenate(curves) if curves else np.zeros((1, 2))
    lim = max(1.0, float(np.max(np.abs(pts))) * 1.1)
    fr = Frame(canvas, -lim, lim, -lim, lim)
    fr.frame_box("xi (arcmin)", "eta (arcmin)")
    nt = 5
    ticks = np.linspace(-lim, lim, nt)
    fr.ticks(ticks, ticks)
    for poly in curves:
        fr.polyline(poly, stroke="rgb(120,30,140)", width=1.0)
    for c in critical_points:
        x, y = fr.px(c["xi_arcmin"]), fr.py(c["eta_arcmin"])
        if c["class"] == "saddle":
            canvas.circle(x, y, 3.0, fill="rgb(30,150,60)", stroke="black")
            canvas.circle(x, y, 6.0, stroke="black")
        else:
            canvas.marker_star(x, y, 5.0, "rgb(30,150,60)")
    for t in spike_tips:
        a = math.radians(t["angle_deg"])
        x = fr.px(t["radius_arcmin"] * math.sin(a))
        y = fr.py(t["radius_arcmin"] * math.cos(a))
        canvas.circle(x, y, 4.0, stroke="rgb(200,120,0)", width=1.5)
    canvas.save(path)


def regions_figure(diagram, path) -> None:
    """A `regions.RegionDiagram`: shaded family codes, the boundary curves
    inside the alpha window, and the named gamma and alpha thresholds."""
    canvas = SvgCanvas(700, 560, f"saddle regions, n={diagram.n}, beta={diagram.beta}")
    g = diagram.gamma_values
    a = diagram.alpha_values
    fr = Frame(canvas, g[0], g[-1], a[0], a[-1])
    cw = fr.w / len(g)
    ch = fr.h / len(a)
    colors = {1: "rgb(255,200,130)", 2: "rgb(150,190,255)", 3: "rgb(190,150,220)"}
    # SvgCanvas.rect's markup, with the pixel strings formatted once per
    # column and row; the shaded cells run row by row
    px = [_f(v) for v in (fr.px(g) - cw / 2).tolist()]
    py = [_f(v) for v in (fr.py(a) - ch / 2).tolist()]
    wh = f'width="{_f(cw + 0.5)}" height="{_f(ch + 0.5)}"'
    ii, jj = np.nonzero(diagram.family_codes)
    canvas.parts.extend(
        f'<rect x="{px[j]}" y="{py[i]}" {wh} fill="{colors[code]}" stroke="none"/>'
        for i, j, code in zip(ii.tolist(), jj.tolist(),
                              diagram.family_codes[ii, jj].tolist())
    )
    curve_colors = {
        "alpha1_plus": "rgb(30,80,220)",
        "alpha1_minus": "rgb(110,110,20)",
        "alpha2": "rgb(230,130,20)",
        "alpha3": "rgb(200,30,30)",
        "sqrt15_beta-alpha2_plus": "rgb(0,150,150)",
        "sqrt15_beta-alpha2_minus": "rgb(200,30,160)",
    }
    for name, pts in diagram.boundary_curves.items():
        mask = (pts[:, 1] >= a[0]) & (pts[:, 1] <= a[-1])
        seg = []
        for (gv, av), ok in zip(pts, mask):
            if ok:
                seg.append((gv, av))
            else:
                if len(seg) > 1:
                    fr.polyline(seg, stroke=curve_colors.get(name, "black"), width=1.2)
                seg = []
        if len(seg) > 1:
            fr.polyline(seg, stroke=curve_colors.get(name, "black"), width=1.2)
    y0 = fr.py(a[0])
    for name, gv in diagram.ticks.items():
        if name.startswith("sqrt(15)"):
            if a[0] <= gv <= a[-1]:
                canvas.line(fr.px(g[0]), fr.py(gv), fr.px(g[-1]), fr.py(gv),
                            stroke="rgb(200,30,30)", width=0.8, dash="4,3")
                canvas.text(fr.px(g[0]) + 4, fr.py(gv) - 3, name, size=8)
        elif g[0] <= gv <= g[-1]:
            canvas.line(fr.px(gv), fr.py(a[0]), fr.px(gv), fr.py(a[-1]),
                        stroke="gray", width=0.7, dash="2,3")
            canvas.text(fr.px(gv), y0 + 26, name, size=8, anchor="middle")
    fr.frame_box("gamma (um)", "alpha (um)")
    fr.ticks(np.linspace(g[0], g[-1], 5), np.linspace(a[0], a[-1], 5))
    legend = [("even family", colors[1]), ("odd family", colors[2]), ("both (2n)", colors[3])]
    for k, (label, color) in enumerate(legend):
        canvas.rect(fr.m + 8 + 130 * k, 24, 12, 12, color, stroke="black")
        canvas.text(fr.m + 24 + 130 * k, 34, label, size=9)
    canvas.save(path)

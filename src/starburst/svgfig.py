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
    """Maps data coordinates to canvas pixels (y axis flipped)."""

    def __init__(self, canvas, x0, x1, y0, y1, margin=48):
        self.c = canvas
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.m = margin
        self.w = canvas.width - 2 * margin
        self.h = canvas.height - 2 * margin

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


def heatmap_figure(
    poly,
    title: str,
    path,
    cells: int = 96,
    clip: float | None = None,
    disk_only: bool = True,
    size: int = 520,
) -> None:
    """Render the polynomial ``poly`` over [-1, 1]^2 as a colored cell grid
    with a vertical colorbar; ``clip`` limits the color range to +-clip."""
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
    ii, jj = np.nonzero(inside if disk_only else np.ones_like(inside))
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

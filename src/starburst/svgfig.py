"""Minimal deterministic SVG 1.1 emitter for the package's figures.

No plotting dependencies: figures are built from rects, polylines,
circles and text, and the cells of a heatmap or a region diagram are one
embedded PNG written with the standard library (stored deflate blocks, so
its bytes do not depend on the zlib build).  All coordinates are formatted
with a fixed precision so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import base64
import math
import os
import struct
import zlib

import numpy as np

from .hessian import PointClass


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
        self.parts.append(_rect(x, y, w, h, fill, stroke))

    def line(self, x1, y1, x2, y2, stroke="black", width=1.0, dash=""):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"{d}/>'
        )

    def polyline(self, points, stroke="black", width=1.0):
        """``points``: an (n, 2) array; all of it formatted in one call, as
        ``_f`` formats each value."""
        flat = np.asarray(points, dtype=float).ravel().tolist()
        pts = ("%.3f,%.3f " * (len(flat) // 2))[:-1] % tuple(flat)
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

    def image(self, x, y, w, h, png: bytes):
        """A PNG scaled to w x h without smoothing, as a base64 data URI."""
        self.parts.append(
            f'<image xmlns:xlink="http://www.w3.org/1999/xlink" x="{_f(x)}" '
            f'y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
            f'image-rendering="pixelated" xlink:href="data:image/png;base64,'
            f'{base64.b64encode(png).decode("ascii")}"/>'
        )

    def text(self, x, y, s, size=10, anchor="start"):
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-size="{size}" '
            f'font-family="Helvetica,Arial,sans-serif" text-anchor="{anchor}" '
            f'fill="black">{_escape(s)}</text>'
        )

    def to_string(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"

    def save(self, path) -> None:
        write_new_file(path, self.to_string())


def write_new_file(path, text: str) -> None:
    """Write ``text`` as UTF-8, byte for byte, to a new file at ``path``.

    A file, symlink or hard link already at ``path`` is unlinked first, not
    truncated or written through, so a rerun into the same directory creates
    a new inode: truncating a file the last run wrote can wait for that
    file's writeback.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "xb") as fh:
        fh.write(text.encode("utf-8"))


def _rect(x, y, w, h, fill, stroke="none") -> str:
    return (f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
            f'fill="{fill}" stroke="{stroke}"/>')


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _rgb(t) -> np.ndarray:
    """Blue-white-red map for t in [-1, 1]: uint8 RGB, shape ``t.shape + (3,)``,
    one pass per channel.  ``np.rint`` rounds half to even, as ``round`` does."""
    t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    neg = t < 0
    u = np.where(neg, 1.0 + t, 1.0 - t)
    rgb = np.empty(t.shape + (3,), np.uint8)
    for c, (lo, hi) in enumerate(((43.0, 215.0), (131.0, 25.0), (186.0, 28.0))):
        end = np.where(neg, lo, hi)
        rgb[..., c] = np.rint(end + u * (255.0 - end))
    return rgb


def diverging_colors(t) -> list[str]:
    """``_rgb`` as SVG color strings, elementwise over an array of any shape."""
    return [f"rgb({r},{g},{b})" for r, g, b in _rgb(np.ravel(t)).tolist()]


def _png_rgba(rgba: np.ndarray) -> bytes:
    """An (h, w, 4) uint8 array as an 8-bit RGBA PNG (RFC 2083), rows top to
    bottom, every row with filter 0.  The zlib stream (RFC 1950) holds stored
    deflate blocks (RFC 1951) of at most 65,535 bytes, so the bytes do not
    depend on the zlib build."""
    h, w, _ = rgba.shape
    raw = np.pad(rgba.reshape(h, 4 * w), ((0, 0), (1, 0))).tobytes()  # filter bytes
    blocks = [raw[k:k + 65535] for k in range(0, len(raw), 65535)]
    stream = b"".join(
        struct.pack("<BHH", k == len(blocks) - 1, len(b), 0xFFFF ^ len(b)) + b
        for k, b in enumerate(blocks)
    )

    def chunk(kind: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + kind + data
                + struct.pack(">I", zlib.crc32(kind + data)))

    return b"".join((
        b"\x89PNG\r\n\x1a\n",
        chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 6, 0, 0, 0)),
        chunk(b"IDAT", b"\x78\x01" + stream + struct.pack(">I", zlib.adler32(raw))),
        chunk(b"IEND", b""),
    ))


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
        """``xy``: (n, 2) data points, mapped as ``px`` and ``py`` map each."""
        xy = np.asarray(xy, dtype=float)
        self.c.polyline(np.column_stack((self.px(xy[:, 0]), self.py(xy[:, 1]))), **kw)

    def frame_box(self, xlabel, ylabel):
        self.c.parts.append(
            f'<rect x="{_f(self.m)}" y="{_f(self.c.height - self.m - self.h)}" '
            f'width="{_f(self.w)}" height="{_f(self.h)}" fill="none" stroke="black"/>'
        )
        self.c.text(self.m + self.w / 2, self.c.height - 10, xlabel, anchor="middle")
        self.c.text(12, self.c.height - self.m - self.h / 2, ylabel, anchor="middle")

    def ticks(self, xticks, yticks):
        for t in xticks:
            x = self.px(t)
            y = self.py(self.y0)
            self.c.line(x, y, x, y + 4)
            self.c.text(x, y + 15, f"{t:.3g}", size=8, anchor="middle")
        for t in yticks:
            x = self.px(self.x0)
            y = self.py(t)
            self.c.line(x - 4, y, x, y)
            self.c.text(x - 6, y + 3, f"{t:.3g}", size=8, anchor="end")


_HEATMAP_CELLS = 96  # cells per axis over [-1, 1]
_HEATMAP_SIZE = 520  # pixels per axis of the cell grid
_HEATMAP_LEFT, _HEATMAP_TOP = 40, 30  # canvas pixels of the cell grid's corner
_HEATMAP_EDGES = np.linspace(-1.0, 1.0, _HEATMAP_CELLS + 1)
_HEATMAP_CENTERS = 0.5 * (_HEATMAP_EDGES[:-1] + _HEATMAP_EDGES[1:])
# [i, j]: cell (x, y) = (centers[i], centers[j]) lies inside the unit disk
_HEATMAP_INSIDE = _HEATMAP_CENTERS[:, None] ** 2 + _HEATMAP_CENTERS[None, :] ** 2 <= 1.0
_HEATMAP_INSIDE.flags.writeable = False
# the same in image order (rows from +y down, columns from -x), and as a mask
# of the RGB and alpha bytes: 255 inside the disk, 0 outside
_HEATMAP_PUPIL = _HEATMAP_INSIDE.T[::-1]
_HEATMAP_ALPHA = np.where(_HEATMAP_PUPIL, 255, 0).astype(np.uint8)[..., None]
_HEATMAP_ALPHA.flags.writeable = False
_HEATMAP_BAR_X = _HEATMAP_LEFT + _HEATMAP_SIZE + 20
# the colorbar's 64 rects, red at the top: the same in every heatmap
_HEATMAP_BAR = tuple(
    _rect(_HEATMAP_BAR_X, _HEATMAP_TOP + k * _HEATMAP_SIZE / 64, 18,
          _HEATMAP_SIZE / 64 + 0.5, color)
    for k, color in enumerate(diverging_colors(1.0 - 2.0 * np.arange(64) / 63)))


def heatmap_values(poly) -> np.ndarray:
    """The polynomial ``poly`` at the heatmap's cell centers, the grid
    ``heatmap_figure`` draws: [i, j] at (centers[i], centers[j])."""
    return poly.grid(_HEATMAP_CENTERS, _HEATMAP_CENTERS)


def heatmap_figure(values: np.ndarray, title: str, path, clip: float | None = None) -> None:
    """Render ``values = heatmap_values(poly)`` over the unit disk as one image,
    a pixel per cell and transparent outside the disk, with a vertical
    colorbar.  The color range is the largest |value| of a cell inside the
    disk; ``clip`` scales it down to that fraction.  Cells outside the disk
    are set to 0 before the division, then masked out of the one `_rgb` pass."""
    size = _HEATMAP_SIZE
    canvas = SvgCanvas(size + 110, size + 70, title)
    image = np.where(_HEATMAP_PUPIL, values.T[::-1], 0.0)
    vmax = float(np.max(np.abs(image)))
    crange = (clip * vmax if clip else vmax) or 1.0
    rgba = np.concatenate((_rgb(image / crange) & _HEATMAP_ALPHA, _HEATMAP_ALPHA), axis=2)
    canvas.image(_HEATMAP_LEFT, _HEATMAP_TOP, size, size, _png_rgba(rgba))
    canvas.circle(_HEATMAP_LEFT + size / 2, _HEATMAP_TOP + size / 2, size / 2,
                  stroke="black")
    canvas.parts += _HEATMAP_BAR
    bar_x = _HEATMAP_BAR_X
    for frac, val in ((0.0, crange), (0.5, 0.0), (1.0, -crange)):
        canvas.text(bar_x + 24, _HEATMAP_TOP + 4 + frac * size, f"{val:.3g}", size=9)
    if clip and vmax:
        canvas.text(bar_x, _HEATMAP_TOP + size + 24, f"clipped to +-{crange:.3g}", size=8)
    canvas.save(path)


def retina_figure(caustics, spike_tips, path) -> None:
    """A `caustics.CausticSet` at the retina plane (arcmin): its curves, its
    projected cusps of Gauss and the verdict's ``spike_tips``."""
    curves = caustics.retina_curves
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
    for proj in caustics.projected_cusps:
        x, y = fr.px(proj.xi), fr.py(proj.eta)
        if proj.point.kind is PointClass.SADDLE:
            canvas.circle(x, y, 3.0, fill="rgb(30,150,60)", stroke="black")
            canvas.circle(x, y, 6.0, stroke="black")
        else:
            canvas.marker_star(x, y, 5.0, "rgb(30,150,60)")
    for t in spike_tips:
        x = fr.px(t.radius_arcmin * math.sin(t.angle))
        y = fr.py(t.radius_arcmin * math.cos(t.angle))
        canvas.circle(x, y, 4.0, stroke="rgb(200,120,0)", width=1.5)
    canvas.save(path)


# RGBA of each family code: 0 none (transparent), 1 even, 2 odd, 3 both
_FAMILY_RGBA = np.array([(0, 0, 0, 0), (255, 200, 130, 255), (150, 190, 255, 255),
                         (190, 150, 220, 255)], np.uint8)
_FAMILY_RGBA.flags.writeable = False


def regions_figure(diagram, path) -> None:
    """A `regions.RegionDiagram`: shaded family codes as one image, a pixel
    per sample, under the boundary curves inside the alpha window and the
    named gamma and alpha thresholds."""
    canvas = SvgCanvas(700, 560, f"saddle regions, n={diagram.n}, beta={diagram.beta}")
    g = diagram.gamma_values
    a = diagram.alpha_values
    fr = Frame(canvas, g[0], g[-1], a[0], a[-1])
    # pixel centres on the samples: image rows run from the last alpha down,
    # columns from the first gamma
    sx = fr.w / (len(g) - 1)
    sy = fr.h / (len(a) - 1)
    canvas.image(fr.px(g[0]) - sx / 2, fr.py(a[-1]) - sy / 2, len(g) * sx, len(a) * sy,
                 _png_rgba(_FAMILY_RGBA[diagram.family_codes[::-1]]))
    curve_colors = {
        "alpha1_plus": "rgb(30,80,220)",
        "alpha1_minus": "rgb(110,110,20)",
        "alpha2": "rgb(230,130,20)",
        "alpha3": "rgb(200,30,30)",
        "sqrt15_beta-alpha2_plus": "rgb(0,150,150)",
        "sqrt15_beta-alpha2_minus": "rgb(200,30,160)",
    }
    for name, pts in diagram.boundary_curves.items():
        # one polyline per run of at least two points inside the alpha window
        inside = (pts[:, 1] >= a[0]) & (pts[:, 1] <= a[-1])
        edges = np.flatnonzero(np.diff(np.concatenate(([0], inside.astype(int), [0]))))
        for start, stop in zip(edges[::2].tolist(), edges[1::2].tolist()):
            if stop - start > 1:
                fr.polyline(pts[start:stop], stroke=curve_colors.get(name, "black"),
                            width=1.2)
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
    for k, label in enumerate(("even family", "odd family", "both (2n)")):
        color = "rgb({},{},{})".format(*_FAMILY_RGBA[k + 1, :3].tolist())
        canvas.rect(fr.m + 8 + 130 * k, 24, 12, 12, color, stroke="black")
        canvas.text(fr.m + 24 + 130 * k, 34, label, size=9)
    canvas.save(path)

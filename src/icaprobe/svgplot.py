"""Self-contained deterministic SVG plots.

The figures needed here are static line plots, stacked panels, and a
scatter; writing them as SVG paths directly keeps the artifact free of
plotting dependencies and makes outputs byte-reproducible.
"""

from __future__ import annotations

import math

import numpy as np

STYLES = {
    "solid": "",
    "dashed": 'stroke-dasharray="8,5" ',
    "dotted": 'stroke-dasharray="2,4" ',
}

_MARGIN = 46.0
_PANEL_W = 560.0
_PANEL_H = 150.0


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _finite_range(arr):
    arr = np.asarray(arr, dtype=float)
    finite = arr[np.isfinite(arr)]
    if finite.size == 0:
        return 0.0, 1.0
    lo, hi = float(finite.min()), float(finite.max())
    if hi <= lo:
        hi = lo + 1.0
    return lo, hi


class _Canvas:
    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
            f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
            '<rect width="100%" height="100%" fill="white"/>',
        ]

    def polyline(self, pts, style="solid"):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.parts.append(
            f'<polyline fill="none" stroke="black" stroke-width="1.2" '
            f"{STYLES[style]}points=\"{coords}\"/>"
        )

    def line(self, x1, y1, x2, y2, style="solid", width=1.0):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="black" stroke-width="{width}" {STYLES[style]}/>'
        )

    def circle(self, x, y):
        self.parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="1.40" fill="black"/>'
        )

    def text(self, x, y, s, size=11, anchor="start"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
            f'font-size="{size}" text-anchor="{anchor}">{s}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


class _Axes:
    """Maps data coordinates into one panel's pixel box."""

    def __init__(self, x0, y0, xlim, ylim, w=_PANEL_W, h=_PANEL_H):
        self.x0, self.y0, self.w, self.h = x0, y0, w, h
        self.xlim, self.ylim = xlim, ylim

    def px(self, x):
        lo, hi = self.xlim
        return self.x0 + (x - lo) / (hi - lo) * self.w

    def py(self, y):
        lo, hi = self.ylim
        return self.y0 + self.h - (y - lo) / (hi - lo) * self.h

    def frame(self, canvas, xlabel="", ylabel=""):
        canvas.line(self.x0, self.y0, self.x0, self.y0 + self.h, width=0.8)
        canvas.line(self.x0, self.y0 + self.h, self.x0 + self.w, self.y0 + self.h, width=0.8)
        canvas.text(self.x0 - 4, self.y0 + 10, f"{self.ylim[1]:.3g}", size=9, anchor="end")
        canvas.text(self.x0 - 4, self.y0 + self.h, f"{self.ylim[0]:.3g}", size=9, anchor="end")
        canvas.text(self.x0, self.y0 + self.h + 14, f"{self.xlim[0]:.3g}", size=9)
        canvas.text(self.x0 + self.w, self.y0 + self.h + 14, f"{self.xlim[1]:.3g}", size=9, anchor="end")
        if xlabel:
            canvas.text(self.x0 + self.w / 2, self.y0 + self.h + 28, xlabel, anchor="middle")
        if ylabel:
            canvas.text(self.x0 + 6, self.y0 + 12, ylabel)

    def curve(self, canvas, x, y, style="solid"):
        pts = [
            (self.px(a), self.py(b))
            for a, b in zip(np.asarray(x, float), np.asarray(y, float))
            if math.isfinite(b)
        ]
        if pts:
            canvas.polyline(pts, style=style)

    def vline(self, canvas, x, style="solid"):
        canvas.line(self.px(x), self.y0, self.px(x), self.y0 + self.h, style=style)


def stacked_panels(panels, xlabel: str, vlines=()) -> str:
    """Panels stacked on a shared x axis.

    ``panels``: list of (label, x, y, style); ``vlines``: (x, style) pairs
    drawn through every panel.
    """
    height = _MARGIN + len(panels) * (_PANEL_H + 34)
    canvas = _Canvas(_MARGIN + _PANEL_W + 20, height)
    xlim = _finite_range(panels[0][1])
    for i, (label, x, y, style) in enumerate(panels):
        ax = _Axes(_MARGIN, 18 + i * (_PANEL_H + 34), xlim, _finite_range(y))
        ax.frame(canvas, xlabel=xlabel if i == len(panels) - 1 else "", ylabel=label)
        for vx, vstyle in vlines:
            ax.vline(canvas, vx, style=vstyle)
        ax.curve(canvas, x, y, style=style)
    return canvas.render()


def overlay(curves, xlabel: str, ylabel: str) -> str:
    """Curves in one panel: list of (label, x, y, style)."""
    canvas = _Canvas(_MARGIN + _PANEL_W + 20, _MARGIN + 2.0 * _PANEL_H + 40)
    xlim = _finite_range(np.concatenate([np.asarray(c[1], float) for c in curves]))
    ylim = _finite_range(np.concatenate([np.asarray(c[2], float) for c in curves]))
    ax = _Axes(_MARGIN, 18, xlim, ylim, h=2.0 * _PANEL_H)
    ax.frame(canvas, xlabel=xlabel, ylabel=ylabel)
    for i, (label, x, y, style) in enumerate(curves):
        ax.curve(canvas, x, y, style=style)
        canvas.text(_MARGIN + _PANEL_W - 4, 30 + 14 * i, f"{label} ({style})", anchor="end")
    return canvas.render()


def scatter(x, y, xlabel: str = "", ylabel: str = "") -> str:
    """Scatter of points."""
    size = _MARGIN + 2.6 * _PANEL_H
    canvas = _Canvas(size + 40, size + 40)
    both = np.concatenate([np.asarray(x, float), np.asarray(y, float)])
    lim = _finite_range(both)
    pad = 0.05 * (lim[1] - lim[0])
    lim = (lim[0] - pad, lim[1] + pad)
    ax = _Axes(_MARGIN, 18, lim, lim, w=2.6 * _PANEL_H, h=2.6 * _PANEL_H)
    ax.frame(canvas, xlabel=xlabel, ylabel=ylabel)
    for a, b in zip(np.asarray(x, float), np.asarray(y, float)):
        canvas.circle(ax.px(a), ax.py(b))
    return canvas.render()


def loglog(series, xlabel: str, ylabel: str) -> str:
    """Log-log line plot: list of (label, x, y, style)."""
    logged = [
        (label, np.log10(np.asarray(x, float)), np.log10(np.asarray(y, float)), style)
        for label, x, y, style in series
    ]
    return overlay(logged, xlabel=f"log10 {xlabel}", ylabel=f"log10 {ylabel}")

"""Minimal hand-emitted SVG plots (no plotting dependency).

CSV files are the canonical outputs everywhere in the package; these
plots are a convenience rendering of the same numbers.  Two layouts
are provided: a line plot of one curve over its shaded uncertainty band
(for regret and trade-off curves) and a unit-square region plot showing a
decision boundary with its margin cells (for the geometry rasters).
Output is a deterministic function of the inputs: no timestamps, no
randomness, stable float formatting.
"""

from __future__ import annotations

import html
import math
from pathlib import Path

import numpy as np

from .errors import ValidationError

__all__ = ["line_plot_svg", "region_plot_svg", "write_svg"]

_COLOR = "#2563eb"
_WIDTH = 640
_HEIGHT = 420

_MARGIN_LEFT = 62
_MARGIN_RIGHT = 18
_MARGIN_TOP = 36
_MARGIN_BOTTOM = 48


def _fmt(value: float) -> str:
    text = f"{value:.6g}"
    return "0" if text == "-0" else text


def _nice_ticks(low: float, high: float, target: int = 5) -> list[float]:
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValidationError("axis range must be finite")
    if high <= low:
        return [low]
    raw = (high - low) / target
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = next(m * magnitude for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * magnitude)
    first = math.ceil(low / step - 1e-9) * step
    ticks = []
    value = first
    while value <= high + 1e-9 * step:
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return ticks


class _Frame:
    """Maps data coordinates onto the pixel plot area."""

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def __init__(self, x_range, y_range, x_log):
        self.x_log = x_log
        x0, x1 = x_range
        if x_log:
            if x0 <= 0:
                raise ValidationError("log-scale x values must be positive")
            x0, x1 = math.log10(x0), math.log10(x1)
        self.x0, self.x1 = x0, (x1 if x1 > x0 else x0 + 1.0)
        y0, y1 = y_range
        if y1 <= y0:
            pad = max(abs(y0), 1.0) * 0.1
            y0, y1 = y0 - pad, y0 + pad
        self.y0, self.y1 = y0, y1

    def x(self, value: float) -> float:
        v = math.log10(value) if self.x_log else value
        return _MARGIN_LEFT + (v - self.x0) / (self.x1 - self.x0) * self.plot_w

    def y(self, value: float) -> float:
        return _MARGIN_TOP + (self.y1 - value) / (self.y1 - self.y0) * self.plot_h


def _axes(frame: _Frame, title: str, x_label: str, y_label: str, x_ticks, y_ticks) -> list[str]:
    left, top = _MARGIN_LEFT, _MARGIN_TOP
    right = left + frame.plot_w
    bottom = top + frame.plot_h
    parts = [
        f'<rect x="{left}" y="{top}" width="{frame.plot_w}" height="{frame.plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14" fill="#111">{html.escape(title, quote=False)}</text>',
        f'<text x="{(left + right) / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-size="12" fill="#111">{html.escape(x_label, quote=False)}</text>',
        f'<text x="16" y="{(top + bottom) / 2:.1f}" text-anchor="middle" font-size="12" '
        f'fill="#111" transform="rotate(-90 16 {(top + bottom) / 2:.1f})">'
        f'{html.escape(y_label, quote=False)}</text>',
    ]
    for tick in x_ticks:
        px = frame.x(tick)
        if px < left - 0.5 or px > right + 0.5:
            continue
        parts.append(
            f'<line x1="{px:.1f}" y1="{bottom}" x2="{px:.1f}" y2="{bottom + 4}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{bottom + 16}" text-anchor="middle" font-size="10" '
            f'fill="#333">{_fmt(tick)}</text>'
        )
    for tick in y_ticks:
        py = frame.y(tick)
        if py < top - 0.5 or py > bottom + 0.5:
            continue
        parts.append(f'<line x1="{left - 4}" y1="{py:.1f}" x2="{left}" y2="{py:.1f}" stroke="#444"/>')
        parts.append(
            f'<text x="{left - 7}" y="{py + 3:.1f}" text-anchor="end" font-size="10" '
            f'fill="#333">{_fmt(tick)}</text>'
        )
    return parts


def line_plot_svg(
    name: str,
    x: np.ndarray,
    y: np.ndarray,
    band: tuple[np.ndarray, np.ndarray],
    *,
    title: str,
    x_label: str,
    y_label: str,
    x_log: bool = False,
) -> str:
    """Render one named line ``(x, y)`` over its shaded ``(lower, upper)`` band as an SVG string."""

    x, y, lower, upper = (np.asarray(values, dtype=float) for values in (x, y, *band))
    if x.ndim != 1 or x.size == 0 or not x.shape == y.shape == lower.shape == upper.shape:
        raise ValidationError(f"series {name!r} must have matching nonempty x, y and band")
    ys = np.concatenate([y, lower, upper])
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(ys))):
        raise ValidationError("plot data must be finite")
    frame = _Frame((x.min(), x.max()), (ys.min(), ys.max()), x_log)
    if x_log:
        lo_exp = math.floor(math.log10(x.min()))
        hi_exp = math.ceil(math.log10(x.max()))
        x_ticks = [10.0**e for e in range(int(lo_exp), int(hi_exp) + 1)]
    else:
        x_ticks = _nice_ticks(float(x.min()), float(x.max()))
    y_ticks = _nice_ticks(frame.y0, frame.y1)

    parts = [f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>']
    parts.extend(_axes(frame, title, x_label, y_label, x_ticks, y_ticks))
    forward = [f"{frame.x(a):.1f},{frame.y(b):.1f}" for a, b in zip(x, upper)]
    backward = [f"{frame.x(a):.1f},{frame.y(b):.1f}" for a, b in zip(x[::-1], lower[::-1])]
    points = " ".join(f"{frame.x(a):.1f},{frame.y(b):.1f}" for a, b in zip(x, y))
    swatch_x = _WIDTH - _MARGIN_RIGHT - 130
    legend_y = _MARGIN_TOP + 14
    parts += [
        f'<polygon points="{" ".join(forward + backward)}" fill="{_COLOR}" '
        'fill-opacity="0.22" stroke="none"/>',
        f'<polyline points="{points}" fill="none" stroke="{_COLOR}" stroke-width="1.8"/>',
        f'<line x1="{swatch_x}" y1="{legend_y - 4}" x2="{swatch_x + 18}" '
        f'y2="{legend_y - 4}" stroke="{_COLOR}" stroke-width="2"/>',
        f'<text x="{swatch_x + 24}" y="{legend_y}" font-size="11" '
        f'fill="#111">{html.escape(name, quote=False)}</text>',
    ]
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="Helvetica, Arial, sans-serif">\n'
        f"{body}\n</svg>\n"
    )


def region_plot_svg(
    grid_axis: np.ndarray,
    in_margin: np.ndarray,
    boundary_points: list[tuple[float, float]],
    *,
    title: str,
    annotation: str = "",
    size: int = 480,
) -> str:
    """Unit-square margin/boundary picture for a square-geometry raster.

    ``in_margin`` is an (n, n) boolean mask over ``grid_axis`` x
    ``grid_axis`` (first index = u); margin cells are shaded, the
    boundary polyline is drawn over them.
    """

    axis = np.asarray(grid_axis, dtype=float)
    mask = np.asarray(in_margin, dtype=bool)
    n = axis.size
    if mask.shape != (n, n) or n < 2:
        raise ValidationError("in_margin must be (n, n) over a grid axis of length n >= 2")
    pad_top = 36
    pad = 20
    plot = size - pad - pad
    cell = plot / (n - 1)

    def px(u: float) -> float:
        return pad + u * plot

    def py(v: float) -> float:
        return pad_top + (1.0 - v) * plot

    parts = [
        f'<rect width="{size}" height="{size + pad_top - pad}" fill="#ffffff"/>',
        f'<text x="{size / 2:.1f}" y="22" text-anchor="middle" font-size="13" '
        f'fill="#111">{html.escape(title, quote=False)}</text>',
        f'<rect x="{pad}" y="{pad_top}" width="{plot:.1f}" height="{plot:.1f}" '
        'fill="#f8fafc" stroke="#444"/>',
    ]
    half = cell / 2.0
    for i in range(n):
        for j in range(n):
            if mask[i, j]:
                parts.append(
                    f'<rect x="{px(axis[i]) - half:.1f}" y="{py(axis[j]) - half:.1f}" '
                    f'width="{cell:.1f}" height="{cell:.1f}" fill="#cbd5e1"/>'
                )
    if boundary_points:
        points = " ".join(f"{px(u):.1f},{py(v):.1f}" for u, v in boundary_points)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#2563eb" stroke-width="2"/>'
        )
    if annotation:
        parts.append(
            f'<text x="{pad + 6}" y="{pad_top + 16}" font-size="11" '
            f'fill="#334155">{html.escape(annotation, quote=False)}</text>'
        )
    body = "\n".join(parts)
    height = size + pad_top - pad
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{height}" '
        f'viewBox="0 0 {size} {height}" font-family="Helvetica, Arial, sans-serif">\n'
        f"{body}\n</svg>\n"
    )


def write_svg(svg_text: str, path: str | Path) -> None:
    Path(path).write_text(svg_text, encoding="utf-8")

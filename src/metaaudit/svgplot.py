"""Deterministic SVG rendering of the two plot types.

Renders are pure functions of (data, title, comment) on a fixed 800x600
canvas with 50 px margins: the same inputs always produce byte-identical
SVG 1.1 text, so golden-file comparisons are valid tests. No timestamps, no
randomness, fixed two-decimal coordinate formatting. Axes and tick marks are
drawn as paths; ``<line>`` elements are reserved for statistical reference
lines, which keeps the document easy to check structurally.
"""

from __future__ import annotations

from typing import Iterable

from .diagnostics import PValuePlotSeries, VolcanoPoint
from .errors import ValidationError

__all__ = ["render_pplot_svg", "render_volcano_svg"]

_WIDTH, _HEIGHT, _MARGIN, _POINT_RADIUS = 800, 600, 50, 3.0


def _fmt(value: float) -> str:
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def _escape(text: str) -> str:
    # XML character-data escape, as xml.sax.saxutils.escape without entities;
    # "&" goes first so the other two replacements are not escaped again.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Frame:
    """Maps data coordinates onto the pixel canvas."""

    left = top = float(_MARGIN)
    right = float(_WIDTH - _MARGIN)
    bottom = float(_HEIGHT - _MARGIN)

    def __init__(self, x_range: tuple[float, float], y_range: tuple[float, float]) -> None:
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range

    def px(self, x: float) -> float:
        return self.left + (x - self.x0) / (self.x1 - self.x0) * (self.right - self.left)

    def py(self, y: float) -> float:
        return self.bottom - (y - self.y0) / (self.y1 - self.y0) * (self.bottom - self.top)

    def open_svg(self, comment: str) -> list[str]:
        # "--" may not appear inside an XML comment, and the comment can hold user text.
        safe = comment.replace("--", "- -")
        return [
            '<?xml version="1.0" encoding="UTF-8"?>',
            *([f"<!-- {safe} -->"] if comment else []),
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_WIDTH}" height="{_HEIGHT}" '
            f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
            f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        ]

    def axes_path(self, extra_segments: Iterable[str]) -> str:
        d = " ".join([
            f"M{_fmt(self.left)} {_fmt(self.bottom)} L{_fmt(self.right)} {_fmt(self.bottom)}",
            f"M{_fmt(self.left)} {_fmt(self.bottom)} L{_fmt(self.left)} {_fmt(self.top)}",
            *extra_segments,
        ])
        return f'<path d="{d}" stroke="#000000" stroke-width="1" fill="none"/>'

    def x_tick(self, x: float, label: str) -> tuple[str, str]:
        px = self.px(x)
        segment = f"M{_fmt(px)} {_fmt(self.bottom)} L{_fmt(px)} {_fmt(self.bottom + 5)}"
        text = (
            f'<text x="{_fmt(px)}" y="{_fmt(self.bottom + 18)}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle">{_escape(label)}</text>'
        )
        return segment, text

    def y_tick(self, y: float, label: str) -> tuple[str, str]:
        py = self.py(y)
        segment = f"M{_fmt(self.left - 5)} {_fmt(py)} L{_fmt(self.left)} {_fmt(py)}"
        text = (
            f'<text x="{_fmt(self.left - 8)}" y="{_fmt(py + 4)}" font-family="sans-serif" '
            f'font-size="12" text-anchor="end">{_escape(label)}</text>'
        )
        return segment, text

    def h_ref_line(self, y: float, stroke: str, dashed: bool = False) -> str:
        py = self.py(y)
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        return (
            f'<line x1="{_fmt(self.left)}" y1="{_fmt(py)}" '
            f'x2="{_fmt(self.right)}" y2="{_fmt(py)}" '
            f'stroke="{stroke}" stroke-width="1.5"{dash}/>'
        )

    def titles(self, title: str, x_label: str, y_label: str) -> list[str]:
        parts = []
        if title:
            parts.append(
                f'<text x="{_fmt(_WIDTH / 2)}" y="{_fmt(self.top - 15)}" '
                f'font-family="sans-serif" font-size="16" text-anchor="middle">'
                f"{_escape(title)}</text>"
            )
        parts.append(
            f'<text x="{_fmt((self.left + self.right) / 2)}" y="{_fmt(_HEIGHT - 10)}" '
            f'font-family="sans-serif" font-size="13" text-anchor="middle">'
            f"{_escape(x_label)}</text>"
        )
        parts.append(
            f'<text x="15" y="{_fmt((self.top + self.bottom) / 2)}" '
            f'font-family="sans-serif" font-size="13" text-anchor="middle" '
            f'transform="rotate(-90 15 {_fmt((self.top + self.bottom) / 2)})">'
            f"{_escape(y_label)}</text>"
        )
        return parts


def render_pplot_svg(series: PValuePlotSeries, *, title: str = "", comment: str = "") -> str:
    """Render a rank-ordered p-value plot as SVG text.

    The scatter shows (rank, p) points; a solid black line marks
    p = alpha and a dashed grey line is the uniform reference running from
    the origin to (m, 1).

    Parameters
    ----------
    series : PValuePlotSeries
    title : str, optional
        Plot title; the series endpoint when empty.
    comment : str, optional
        Text of an XML comment at the top of the document; none when empty.

    Returns
    -------
    str
        Complete SVG document.
    """
    frame = _Frame(x_range=(0.0, float(series.m)), y_range=(0.0, 1.0))

    ticks = [frame.x_tick(float(x), str(x)) for x in sorted({0, series.m // 2, series.m})]
    ticks += [frame.y_tick(y, label) for y, label in
              ((0.0, "0"), (0.25, "0.25"), (0.5, "0.5"), (0.75, "0.75"), (1.0, "1"))]
    tick_segments, tick_texts = zip(*ticks)

    parts = frame.open_svg(comment)
    parts.append(frame.axes_path(tick_segments))
    parts.extend(tick_texts)
    # Uniform reference from the origin to (m, 1), then the alpha threshold.
    x0, y0 = frame.px(0.0), frame.py(0.0)
    x1, y1 = frame.px(float(series.m)), frame.py(1.0)
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
        f'stroke="#888888" stroke-width="1.5" stroke-dasharray="6 4"/>'
    )
    parts.append(frame.h_ref_line(series.alpha, "#000000"))
    px, py = frame.px, frame.py
    tail = f' r="{_fmt(_POINT_RADIUS)}" fill="#336699"/>'
    parts += [
        f'<circle cx="{_fmt(px(float(rank)))}" cy="{_fmt(py(p))}"{tail}'
        for rank, p in enumerate(series.p, start=1)
    ]
    parts.extend(frame.titles(title or series.endpoint, "rank (smallest to largest)", "p-value"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_volcano_svg(
    points: list[VolcanoPoint],
    bonferroni_y: float,
    *,
    title: str = "",
    comment: str = "",
) -> str:
    """Render a volcano plot as SVG text.

    The x-range is symmetric about zero and covers every effect; the
    y-range starts at 0 and covers both the points and the Bonferroni
    reference line, which is drawn dashed. Points with non-empty labels
    get a small text label.

    Parameters
    ----------
    points : list of VolcanoPoint
        At least one point.
    bonferroni_y : float
        Height of the multiplicity-adjusted reference line.
    title : str, optional
        Plot title; none when empty.
    comment : str, optional
        Text of an XML comment at the top of the document; none when empty.

    Returns
    -------
    str
        Complete SVG document.
    """
    if not points:
        raise ValidationError("cannot render a volcano plot with no points")
    x_extent = max(abs(point.effect) for point in points)
    if x_extent == 0.0:
        x_extent = 1.0
    x_extent *= 1.1
    y_extent = max(max(point.neg_log10_p for point in points), bonferroni_y, 0.0)
    if y_extent == 0.0:
        y_extent = 1.0
    y_extent *= 1.1
    frame = _Frame(x_range=(-x_extent, x_extent), y_range=(0.0, y_extent))

    ticks = [frame.x_tick(x, _fmt(x)) for x in (-x_extent / 1.1, 0.0, x_extent / 1.1)]
    ticks += [frame.y_tick(y, _fmt(y)) for y in (0.0, y_extent / 2.0, y_extent / 1.1)]
    tick_segments, tick_texts = zip(*ticks)
    # Vertical guide at zero effect, drawn as part of the axes path.
    zero_x = frame.px(0.0)
    zero_guide = f"M{_fmt(zero_x)} {_fmt(frame.bottom)} L{_fmt(zero_x)} {_fmt(frame.top)}"

    parts = frame.open_svg(comment)
    parts.append(frame.axes_path([*tick_segments, zero_guide]))
    parts.extend(tick_texts)
    parts.append(frame.h_ref_line(bonferroni_y, "#000000", dashed=True))
    for point in points:
        cx, cy = frame.px(point.effect), frame.py(point.neg_log10_p)
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
            f'r="{_fmt(_POINT_RADIUS)}" fill="#993333"/>'
        )
        if point.label:
            parts.append(
                f'<text x="{_fmt(cx + 6)}" y="{_fmt(cy - 6)}" font-family="sans-serif" '
                f'font-size="11">{_escape(point.label)}</text>'
            )
    parts.extend(frame.titles(title, "log risk ratio", "-log10(p)"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

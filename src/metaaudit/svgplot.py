"""Deterministic SVG rendering of the two plot types.

Renders are pure functions of (data, title, comment) on a fixed 800x600
canvas with 50 px margins: the same inputs always produce byte-identical
SVG 1.1 text, so golden-file comparisons are valid tests. No timestamps, no
randomness, fixed two-decimal coordinate formatting. Axes and tick marks are
drawn as paths; ``<line>`` elements are reserved for statistical reference
lines, which keeps the document easy to check structurally.

The output is well-formed XML for any text that holds no surrogate: SVG text
shows each character of ``statcore._CONTROL_ESCAPES`` as its escape, as the
printed tables do, and the comment has every ``--`` broken apart.
"""

from __future__ import annotations

from .diagnostics import PValuePlotSeries, VolcanoPoint
from .errors import ValidationError
from .statcore import _CONTROL_ESCAPES

__all__ = ["render_pplot_svg", "render_volcano_svg"]

_WIDTH, _HEIGHT, _MARGIN, _POINT_RADIUS = 800, 600, 50, 3.0


def _fmt(value: float) -> str:
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


# XML character data: the three characters xml.sax.saxutils.escape escapes, and the
# characters XML may not hold or that would break a line, as the printed tables show them.
_TEXT_ESCAPES = {**_CONTROL_ESCAPES, ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;"}


def _escape(text: str) -> str:
    return text.translate(_TEXT_ESCAPES)


class _Frame:
    """Maps data coordinates onto the pixel canvas and writes the document."""

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

    def line(self, x0: float, y0: float, x1: float, y1: float, stroke: str,
             dashed: bool = False) -> str:
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        return (
            f'<line x1="{_fmt(self.px(x0))}" y1="{_fmt(self.py(y0))}" '
            f'x2="{_fmt(self.px(x1))}" y2="{_fmt(self.py(y1))}" '
            f'stroke="{stroke}" stroke-width="1.5"{dash}/>'
        )

    def document(self, ticks: list[tuple[str, str]], marks: list[str], *, title: str,
                 x_label: str, y_label: str, comment: str, guides: tuple[str, ...] = ()) -> str:
        """Return the SVG document: axes with ``ticks`` and ``guides``, ``marks``, titles.

        The rest of the document is put around ``marks`` in place, so no
        second list of every mark is alive while the text is joined.
        """
        segments, labels = zip(*ticks)
        axes = " ".join([
            f"M{_fmt(self.left)} {_fmt(self.bottom)} L{_fmt(self.right)} {_fmt(self.bottom)}",
            f"M{_fmt(self.left)} {_fmt(self.bottom)} L{_fmt(self.left)} {_fmt(self.top)}",
            *segments, *guides,
        ])
        # "--" may not appear inside an XML comment, and the comment can hold user text.
        safe = comment.translate(_CONTROL_ESCAPES)
        while "--" in safe:  # "---" becomes "- --" in the first pass
            safe = safe.replace("--", "- -")
        marks[:0] = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            *([f"<!-- {safe} -->"] if comment else []),
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
            f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
            f'<path d="{axes}" stroke="#000000" stroke-width="1" fill="none"/>',
            *labels,
        ]
        if title:
            marks.append(
                f'<text x="{_fmt(_WIDTH / 2)}" y="{_fmt(self.top - 15)}" '
                f'font-family="sans-serif" font-size="16" text-anchor="middle">'
                f"{_escape(title)}</text>"
            )
        mid_y = _fmt((self.top + self.bottom) / 2)
        marks += [
            f'<text x="{_fmt((self.left + self.right) / 2)}" y="{_fmt(_HEIGHT - 10)}" '
            f'font-family="sans-serif" font-size="13" text-anchor="middle">'
            f"{_escape(x_label)}</text>",
            f'<text x="15" y="{mid_y}" font-family="sans-serif" font-size="13" '
            f'text-anchor="middle" transform="rotate(-90 15 {mid_y})">{_escape(y_label)}</text>',
            "</svg>",
            "",  # the last newline, joined in rather than copying the whole text to append it
        ]
        return "\n".join(marks)


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
    m = float(series.m)
    frame = _Frame(x_range=(0.0, m), y_range=(0.0, 1.0))
    ticks = [frame.x_tick(float(x), str(x)) for x in sorted({0, series.m // 2, series.m})]
    ticks += [frame.y_tick(y, label) for y, label in
              ((0.0, "0"), (0.25, "0.25"), (0.5, "0.5"), (0.75, "0.75"), (1.0, "1"))]
    # Uniform reference from the origin to (m, 1), then the alpha threshold.
    marks = [
        frame.line(0.0, 0.0, m, 1.0, "#888888", dashed=True),
        frame.line(0.0, series.alpha, m, series.alpha, "#000000"),
    ]
    # frame.px(rank) and frame.py(p) written out, as x0 = y0 = 0 and y1 = 1 make them;
    # both are at least 50, so _fmt's "-0.00" guard has nothing to do.
    circle = f'<circle cx="%.2f" cy="%.2f" r="{_fmt(_POINT_RADIUS)}" fill="#336699"/>'
    left, width = frame.left, frame.right - frame.left
    bottom, height = frame.bottom, frame.bottom - frame.top
    marks += [circle % (left + rank / m * width, bottom - p * height)
              for rank, p in enumerate(series.p, start=1)]
    return frame.document(ticks, marks, title=title or series.endpoint,
                          x_label="rank (smallest to largest)", y_label="p-value", comment=comment)


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
    # Vertical guide at zero effect, drawn as part of the axes path.
    zero_x = _fmt(frame.px(0.0))
    zero_guide = f"M{zero_x} {_fmt(frame.bottom)} L{zero_x} {_fmt(frame.top)}"

    marks = [frame.line(-x_extent, bonferroni_y, x_extent, bonferroni_y, "#000000", dashed=True)]
    for point in points:
        cx, cy = frame.px(point.effect), frame.py(point.neg_log10_p)
        marks.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
            f'r="{_fmt(_POINT_RADIUS)}" fill="#993333"/>'
        )
        if point.label:
            marks.append(
                f'<text x="{_fmt(cx + 6)}" y="{_fmt(cy - 6)}" font-family="sans-serif" '
                f'font-size="11">{_escape(point.label)}</text>'
            )
    return frame.document(ticks, marks, title=title, x_label="log risk ratio",
                          y_label="-log10(p)", comment=comment, guides=(zero_guide,))

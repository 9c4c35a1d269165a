"""Tests for the deterministic SVG renderers."""

import random
import tracemalloc
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaaudit import (
    PValuePlotSeries,
    PValueRecord,
    ValidationError,
    VolcanoPoint,
    build_pplot,
    build_volcano,
    case_effects_path,
    case_pvalues_path,
    load_effects,
    load_pvalues,
    render_pplot_svg,
    render_volcano_svg,
)
from metaaudit.statcore import _CONTROL_ESCAPES


def series_from(ps, endpoint="e"):
    records = [
        PValueRecord(citation=i + 1, author="t", endpoint=endpoint, p=float(p))
        for i, p in enumerate(ps)
    ]
    return build_pplot(records, endpoint)


@pytest.fixture(scope="module")
def ozone_series():
    return build_pplot(load_pvalues(case_pvalues_path()), "ozone")


@pytest.fixture(scope="module")
def case_volcano():
    estimates = load_effects(case_effects_path())
    return build_volcano(estimates, alpha=0.05, m_tests=6)


# ----------------------------------------------------------- p-value plot


def test_pplot_byte_identical(ozone_series):
    first = render_pplot_svg(ozone_series)
    second = render_pplot_svg(ozone_series)
    assert first == second


def test_pplot_structure(ozone_series):
    svg = render_pplot_svg(ozone_series)
    assert svg.count("<circle") == ozone_series.m == 19
    assert svg.count("<line") == 2
    assert "<title" not in svg  # title is a text element
    assert ">ozone</text>" in svg
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert svg.rstrip().endswith("</svg>")


def test_pplot_default_canvas(ozone_series):
    svg = render_pplot_svg(ozone_series)
    assert 'width="800" height="600"' in svg
    # alpha = 0.05 maps to y = 550 - 0.05 * 500 = 525 on a 50px-margin canvas
    assert 'y1="525.00"' in svg
    # the uniform reference runs corner to corner of the drawing area
    assert 'x1="50.00" y1="550.00" x2="750.00" y2="50.00"' in svg


def test_pplot_single_point():
    svg = render_pplot_svg(series_from([0.5]))
    assert svg.count("<circle") == 1


def test_pplot_escapes_labels():
    svg = render_pplot_svg(series_from([0.5], endpoint="a<b&c"))
    assert "a&lt;b&amp;c" in svg
    assert "a<b&c" not in svg
    # The renderers escape exactly as the standard library's XML escape does.
    from xml.sax.saxutils import escape

    for label in ("x>y", "a&lt;b", "<&>&&<<>>"):
        svg = render_pplot_svg(series_from([0.5], endpoint=label))
        assert f">{escape(label)}</text>" in svg
    assert ">a&amp;lt;b</text>" in render_pplot_svg(series_from([0.5], endpoint="a&lt;b"))
    points = [VolcanoPoint(label="NO2 <lag 0&1>", effect=0.1, neg_log10_p=1.1)]
    title = "risk ratios > 1 & &gt;"
    svg = render_volcano_svg(points, 1.3, title=title)
    assert f">{escape(points[0].label)}</text>" in svg
    assert f">{escape(title)}</text>" in svg
    assert "<lag" not in svg and "> 1 &" not in svg


def test_pplot_options_respected(ozone_series):
    svg = render_pplot_svg(ozone_series, title="custom")
    assert ">custom</text>" in svg
    assert ">ozone</text>" not in svg
    # title and comment are keyword-only, so a stray positional argument is refused.
    with pytest.raises(TypeError):
        render_pplot_svg(ozone_series, "custom")
    with pytest.raises(TypeError):
        render_volcano_svg([VolcanoPoint(label="", effect=0.1, neg_log10_p=1.1)], 1.3, "custom")


def test_pplot_comment_embedded(ozone_series):
    svg = render_pplot_svg(ozone_series, comment="case data -- draft")
    assert "<!-- case data - - draft -->" in svg  # double dash sanitized
    assert "<!--" not in render_pplot_svg(ozone_series)


def test_pplot_joins_the_document_without_a_second_copy():
    # A plot the size of the benchmark's 79,600-point NO2 series. Its marks take about
    # twice the text's size, so the peak is about 3 times the text; copying the joined
    # text once more, to append the last newline, made it about 4 times.
    rng = random.Random(79_600)
    series = PValuePlotSeries("NO2", [rng.random() * (0.01 if i % 4 == 0 else 1.0) or 1.0
                                      for i in range(79_600)])
    tracemalloc.start()
    try:
        svg = render_pplot_svg(series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert svg.endswith("</svg>\n") and not svg.endswith("\n\n")
    assert peak <= 3.5 * len(svg)


# --------------------------------------------------------------- volcano


def test_volcano_byte_identical(case_volcano):
    points, y = case_volcano
    assert render_volcano_svg(points, y) == render_volcano_svg(points, y)


def test_volcano_structure(case_volcano):
    points, y = case_volcano
    svg = render_volcano_svg(points, y)
    assert svg.count("<circle") == 6
    assert svg.count("<line") == 1
    for label in ("CO", "NO2", "SO2", "PM10", "PM2.5", "ozone"):
        assert f">{label}</text>" in svg


def test_volcano_reference_line_height():
    # bonferroni_y halfway up the y-range must sit mid-canvas
    points = [VolcanoPoint(label="", effect=0.1, neg_log10_p=1.1)]
    svg = render_volcano_svg(points, bonferroni_y=0.605)
    # y-range is [0, 1.21]; 0.605 maps to 550 - (0.605/1.21)*500 = 300
    assert 'y1="300.00"' in svg


def test_volcano_origin_point():
    svg = render_volcano_svg([VolcanoPoint(label="", effect=0.0, neg_log10_p=0.0)], 1.0)
    assert 'cx="400.00" cy="550.00"' in svg


def test_volcano_zero_height_falls_back_to_a_unit_range():
    # Every height is zero, one of them -0.0: there is no y-range to scale by.
    svg = render_volcano_svg([VolcanoPoint(label="x", effect=0.1, neg_log10_p=-0.0)], 0.0)
    ET.fromstring(svg)
    assert "nan" not in svg
    assert 'cy="550.00"' in svg  # the point sits on the baseline


def test_volcano_symmetric_range():
    points = [VolcanoPoint(label="", effect=0.5, neg_log10_p=2.0)]
    svg = render_volcano_svg(points, 1.3)
    assert ">-0.50</text>" in svg
    assert ">0.50</text>" in svg


def test_volcano_empty_is_error():
    with pytest.raises(ValidationError):
        render_volcano_svg([], 1.0)


# ------------------------------------------------------- well-formed XML

SVG_NS = {"svg": "http://www.w3.org/2000/svg"}
# Any text but a surrogate, with the characters that once broke the XML drawn often.
ANY_TEXT = st.text(st.one_of(st.sampled_from("-&<>\t\n\r\x00\x01\x7f\x85\u2028\ufffe\uffff"),
                             st.characters(exclude_categories=("Cs",))), max_size=12)


def shown(text):
    """A text as the SVG shows it: each character of the escape table as its escape."""
    return text.translate(_CONTROL_ESCAPES)


def text_of(root, font_size):
    """The text of the first ``<text>`` of this font size; empty when there is none."""
    element = root.find(f".//svg:text[@font-size='{font_size}']", SVG_NS)
    return "" if element is None else element.text or ""


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(endpoint=ANY_TEXT, label=ANY_TEXT, title=ANY_TEXT, comment=ANY_TEXT)
def test_any_text_renders_well_formed_xml(endpoint, label, title, comment):
    pplot = render_pplot_svg(PValuePlotSeries(endpoint, [0.5]), title=title, comment=comment)
    root = ET.fromstring(pplot.encode())
    assert text_of(root, 16) == shown(title or endpoint)

    points = [VolcanoPoint(label=label, effect=0.1, neg_log10_p=1.1)]
    volcano = render_volcano_svg(points, 1.3, title=title, comment=comment)
    root = ET.fromstring(volcano.encode())
    assert text_of(root, 11) == shown(label)
    assert text_of(root, 16) == shown(title)


def test_comment_breaks_every_double_dash(ozone_series):
    svg = render_pplot_svg(ozone_series, comment="x---y ---- z")
    assert "<!-- x- - -y - - - - z -->" in svg
    ET.fromstring(svg.encode())

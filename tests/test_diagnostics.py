"""Tests for p-value plots, uniformity and bilinearity diagnostics,
volcano coordinates, and per-endpoint descriptives."""

import math
import random
import re

import numpy as np
import pytest
from scipy import stats

import oracles
from metaaudit import (
    EffectEstimate,
    EmptySeriesError,
    InsufficientDataError,
    PValuePlotSeries,
    PValueRecord,
    ValidationError,
    bilinearity_fit,
    build_pplot,
    build_volcano,
    case_pvalues_path,
    descriptives,
    load_pvalues,
    shape_stats,
    uniformity_ks,
)
from metaaudit.diagnostics import _kolmogorov_sf
from metaaudit.simulate import _ks_d, _two_segment_fits


def records_from(ps, endpoint="e"):
    return [
        PValueRecord(citation=i + 1, author="t", endpoint=endpoint, p=float(p))
        for i, p in enumerate(ps)
    ]


def grid_records(m, endpoint="e"):
    return records_from([i / (m + 1) for i in range(1, m + 1)], endpoint)


@pytest.fixture(scope="module")
def case_pvalues():
    return load_pvalues(case_pvalues_path())


# --------------------------------------------------------- PValueRecord


def test_pvalue_record_validation():
    PValueRecord(citation=1, author="a", endpoint="e", p=1.0)
    with pytest.raises(ValidationError):
        PValueRecord(citation=1, author="a", endpoint="e", p=0.0)
    with pytest.raises(ValidationError):
        PValueRecord(citation=1, author="a", endpoint="e", p=1.2)
    with pytest.raises(ValidationError):
        PValueRecord(citation=1, author="a", endpoint="", p=0.5)


@pytest.mark.parametrize("flag", ["direction_negative", "truncated"])
@pytest.mark.parametrize("value", ["no", "false", 0, 1, None, np.True_],
                         ids=["no", "false", "0", "1", "None", "np.True_"])
def test_pvalue_record_flags_are_true_or_false(flag, value):
    # save_pvalues writes any value as "true"/"<" or "false"/"", so only a bool reads back.
    with pytest.raises(ValidationError, match=f"^{flag} must be True or False, got "):
        PValueRecord(citation=1, author="a", endpoint="e", p=0.5, **{flag: value})


# ---------------------------------------------------------- build_pplot


def test_build_pplot_case_ozone(case_pvalues):
    series = build_pplot(case_pvalues, "ozone")
    assert series.m == 19
    assert series.p[:3] == (0.001, 0.001, 0.001)
    assert sum(1 for p in series.p if p <= 0.05) == 9
    assert series.frac_le_alpha == pytest.approx(9 / 19, rel=1e-15)


def test_build_pplot_single_record():
    series = build_pplot(records_from([0.5]), "e")
    assert series.p == (0.5,)
    assert series.frac_le_alpha == 0.0


def test_build_pplot_uniform_grid():
    series = build_pplot(records_from([i / 20 for i in range(1, 21)]), "e")
    assert series.m == 20
    assert series.frac_le_alpha == pytest.approx(0.05, rel=1e-15)


def test_build_pplot_no_match_is_error(case_pvalues):
    with pytest.raises(EmptySeriesError):
        build_pplot(case_pvalues, "lead")


def test_build_pplot_is_permutation_and_order_free():
    ps = [0.4, 0.01, 0.8, 0.2, 0.05]
    records = records_from(ps)
    shuffled = records[:]
    random.Random(0).shuffle(shuffled)
    series = build_pplot(records, "e")
    assert series.p == tuple(sorted(ps))
    assert build_pplot(shuffled, "e").p == series.p


def test_build_pplot_tie_break_by_citation():
    records = [
        PValueRecord(citation=9, author="a", endpoint="e", p=0.3),
        PValueRecord(citation=2, author="b", endpoint="e", p=0.3),
        PValueRecord(citation=5, author="c", endpoint="e", p=0.1),
    ]
    series = build_pplot(records, "e")
    assert series.p == (0.1, 0.3, 0.3)


def test_build_pplot_rejects_bad_alpha(case_pvalues):
    with pytest.raises(ValidationError):
        build_pplot(case_pvalues, "ozone", alpha=0.0)


def test_series_sorts_coerces_and_validates_p():
    series = PValuePlotSeries("e", (0.3, 0.1, 0.2))
    assert series.p == (0.1, 0.2, 0.3)
    assert (series.m, series.alpha, series.frac_le_alpha) == (3, 0.05, 0.0)
    from_row = PValuePlotSeries("e", np.array([0.5, 0.1]))
    assert [type(p) for p in from_row.p] == [float, float]
    assert repr(from_row.p) == "(0.1, 0.5)"
    with pytest.raises(EmptySeriesError, match="no p-value records for endpoint 'e'"):
        PValuePlotSeries("e", ())
    with pytest.raises(ValidationError):
        PValuePlotSeries("e", (0.5,), alpha=0.0)


@pytest.mark.parametrize("bad", [float("nan"), 0.0, 1.5, -0.1])
def test_series_rejects_p_outside_unit_interval(bad):
    # NaN would leave the sort out of order and hang the Kolmogorov series.
    with pytest.raises(ValidationError, match=r"\(0, 1\], got .* \(endpoint 'e'\)"):
        PValuePlotSeries("e", [0.3, 0.4, 0.5, 0.6, bad])
    with pytest.raises(ValidationError, match="endpoint 'e'"):
        PValuePlotSeries("e", [bad, 0.3, 0.4, 0.5, 0.6])


@pytest.mark.parametrize("p", [
    [0.3, float("nan"), 0.5], [0.5, float("inf"), float("nan"), 0.2],
    [float("-inf"), 0.5, 2.0], [0.9, 0.1, float("nan"), 1.0, 0.0],
])
def test_series_names_the_first_bad_value_in_sorted_order(p):
    # A NaN between good ends: only the sum shows it, and the scan names it.
    bad = next(value for value in sorted(p) if not 0.0 < value <= 1.0)
    with pytest.raises(ValidationError, match=re.escape(f"got {bad!r} (endpoint 'e')")):
        PValuePlotSeries("e", p)


# --------------------------------------------------------- uniformity_ks


def test_uniformity_ks_near_uniform_grid():
    result = uniformity_ks(build_pplot(grid_records(20), "e"))
    assert result.d_stat == pytest.approx(20 / 420, abs=1e-12)
    assert result.d_stat < 0.05
    assert result.p_ks > 0.9


def test_uniformity_ks_degenerate_pile():
    result = uniformity_ks(build_pplot(records_from([0.001] * 10), "e"))
    assert result.d_stat == pytest.approx(0.999, abs=1e-12)
    assert result.p_ks < 1e-6


def test_uniformity_ks_matches_scipy():
    rng = np.random.RandomState(8)
    for n in (5, 23, 150):
        ps = rng.uniform(size=n)
        result = uniformity_ks(build_pplot(records_from(ps), "e"))
        reference = stats.kstest(ps, "uniform", mode="asymp")
        assert result.d_stat == pytest.approx(reference.statistic, abs=1e-14)
        assert result.p_ks == pytest.approx(reference.pvalue, abs=1e-12)


def test_uniformity_ks_p_matches_oracle():
    rng = np.random.default_rng(21)
    for n in (5, 6, 10, 30, 104, 1000):
        for ps in (rng.uniform(size=n), rng.uniform(size=n) ** 3):
            result = uniformity_ks(build_pplot(records_from(ps), "e"))
            expected = oracles.kolmogorov_sf(math.sqrt(n) * result.d_stat)
            assert abs(result.p_ks - expected) <= 1e-15
    # Both sides of the switch between the two series at x = 1.
    for x in np.linspace(0.05, 4.0, 80).tolist() + [1.0, math.nextafter(1.0, 0.0)]:
        assert abs(_kolmogorov_sf(x) - oracles.kolmogorov_sf(x)) <= 1e-15


def test_uniformity_ks_needs_five_points():
    with pytest.raises(InsufficientDataError):
        uniformity_ks(build_pplot(records_from([0.2, 0.4, 0.6, 0.8]), "e"))


# ------------------------------------------------------- bilinearity_fit


def brute_force_two_segment(ps):
    """Independent two-segment SSE search using polynomial fits."""
    y = np.sort(np.asarray(ps, dtype=float))
    m = len(y)
    x = np.arange(1, m + 1, dtype=float)

    def sse(xs, ys):
        coeffs = np.polyfit(xs, ys, 1)
        return float(np.sum((ys - np.polyval(coeffs, xs)) ** 2))

    best = (None, math.inf)
    for b in range(2, m - 1):
        total = sse(x[:b], y[:b]) + sse(x[b:], y[b:])
        if total < best[1]:
            best = (b, total)
    return best[0], best[1], sse(x, y)


def test_bilinearity_linear_series_has_ratio_one():
    fit = bilinearity_fit(build_pplot(grid_records(20), "e"))
    assert fit.ratio >= 1.0 - 1e-9


def test_bilinearity_hockey_stick():
    ps = [0.001] * 10 + [i / 11 for i in range(1, 11)]
    fit = bilinearity_fit(build_pplot(records_from(ps), "e"))
    assert fit.ratio < 0.2
    assert 9 <= fit.breakpoint_rank <= 11
    assert fit.sse_two_segment <= fit.sse_one_segment


def test_bilinearity_matches_brute_force():
    rng = np.random.RandomState(9)
    for _ in range(20):
        m = int(rng.randint(6, 40))
        ps = rng.uniform(0.001, 1.0, size=m)
        fit = bilinearity_fit(build_pplot(records_from(ps), "e"))
        expected_b, expected_two, expected_one = brute_force_two_segment(ps)
        assert fit.breakpoint_rank == expected_b
        assert fit.sse_two_segment == pytest.approx(expected_two, rel=1e-6, abs=1e-10)
        assert fit.sse_one_segment == pytest.approx(expected_one, rel=1e-6, abs=1e-10)


def test_bilinearity_ratio_bounds():
    rng = np.random.RandomState(10)
    for _ in range(20):
        ps = rng.uniform(0.001, 1.0, size=int(rng.randint(6, 30)))
        fit = bilinearity_fit(build_pplot(records_from(ps), "e"))
        assert 0.0 <= fit.ratio <= 1.0


def test_bilinearity_needs_six_points():
    with pytest.raises(InsufficientDataError):
        bilinearity_fit(build_pplot(records_from([0.1, 0.2, 0.3, 0.4, 0.5]), "e"))


# Loop references: the scalar, one-breakpoint-at-a-time forms of the batch
# kernels. Same arithmetic in the same order, so results must be equal, not
# merely close.


def loop_segment_sse(pref, i, j):
    """SSE of a least-squares line over the half-open index range [i, j)."""
    cx, cy, cxx, cyy, cxy = pref
    n = j - i
    sx = cx[j] - cx[i]
    sy = cy[j] - cy[i]
    sxx = (cxx[j] - cxx[i]) - sx * sx / n
    syy = (cyy[j] - cyy[i]) - sy * sy / n
    sxy = (cxy[j] - cxy[i]) - sx * sy / n
    if sxx <= 0.0:
        return max(0.0, float(syy))
    return max(0.0, float(syy - sxy * sxy / sxx))


def loop_bilinearity_fit(ps):
    """(breakpoint_rank, sse_two_segment, sse_one_segment, ratio) by a Python loop."""
    y = np.sort(np.asarray(ps, dtype=float))
    m = len(y)
    x = np.arange(1, m + 1, dtype=float)

    def cum(values):
        out = np.zeros(m + 1)
        np.cumsum(values, out=out[1:])
        return out

    pref = (cum(x), cum(y), cum(x * x), cum(y * y), cum(x * y))
    sse_one = loop_segment_sse(pref, 0, m)
    best_rank = 2
    best_sse = math.inf
    for rank in range(2, m - 1):
        total = loop_segment_sse(pref, 0, rank) + loop_segment_sse(pref, rank, m)
        if total < best_sse:
            best_sse = total
            best_rank = rank
    ratio = 1.0 if sse_one <= 1e-13 else min(1.0, best_sse / sse_one)
    return best_rank, best_sse, sse_one, ratio


def loop_ks_d(ps):
    y = np.sort(np.asarray(ps, dtype=float))
    m = len(y)
    i = np.arange(1, m + 1, dtype=float)
    return float(max(np.max(i / m - y), np.max(y - (i - 1.0) / m), 0.0))


def reference_series():
    rng = np.random.default_rng(1982)
    series = {f"random m={m}": rng.random(m) for m in (6, 7, 30, 101, 2000)}
    series["tied"] = np.round(rng.random(60), 1).clip(0.1, 1.0)
    series["constant"] = [0.3] * 25
    series["collinear"] = [rank / 64 for rank in range(1, 41)]
    series["two flat steps"] = [0.01] * 10 + [0.6] * 10
    series["hockey stick"] = [0.001] * 12 + [rank / 13 for rank in range(1, 13)]
    series["m=6 uniform grid"] = [rank / 7 for rank in range(1, 7)]
    return series


@pytest.mark.parametrize("name", sorted(reference_series()))
def test_bilinearity_fit_equals_loop_reference(name):
    ps = reference_series()[name]
    series = build_pplot(records_from(ps), "e")
    fit, d_stat = tuple(bilinearity_fit(series)), uniformity_ks(series).d_stat
    assert fit == loop_bilinearity_fit(ps)
    assert d_stat == loop_ks_d(ps)
    # The batched kernels of shape_stats give the same bits on the series as a one-row array.
    row = np.array([series.p])
    rank, *sses = _two_segment_fits(row)
    assert repr((int(rank[0]), *(float(a[0]) for a in sses))) == repr(fit)
    assert repr(float(_ks_d(row)[0])) == repr(d_stat)


def test_bilinearity_conventions_on_exact_lines():
    collinear = bilinearity_fit(build_pplot(records_from([r / 64 for r in range(1, 41)]), "e"))
    assert collinear.ratio == 1.0
    assert collinear.breakpoint_rank == 2  # every breakpoint fits exactly; the smallest wins
    constant = bilinearity_fit(build_pplot(records_from([0.3] * 25), "e"))
    assert constant.ratio == 1.0
    for value in (collinear.sse_two_segment, collinear.sse_one_segment):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_shape_stats_equals_per_row_diagnostics():
    p = np.random.default_rng(29).random((150, 30)) ** 2
    fracs, ks_ds, ratios = [], [], []
    for row in p:
        series = build_pplot(records_from(row), "e")
        fracs.append(series.frac_le_alpha)
        ks_ds.append(uniformity_ks(series).d_stat)
        ratios.append(bilinearity_fit(series).ratio)
    expected = (sum(fracs) / 150, sum(ks_ds) / 150, sum(ratios) / 150)
    assert tuple(shape_stats(p)) == expected


def test_shape_stats_validation():
    with pytest.raises(InsufficientDataError):
        shape_stats(np.full((99, 30), 0.5))
    with pytest.raises(InsufficientDataError):
        shape_stats(np.full((100, 5), 0.5))
    bad = np.full((100, 30), 0.5)
    bad[7, 3] = 0.0
    with pytest.raises(ValidationError):
        shape_stats(bad)


# --------------------------------------------------------- build_volcano


def test_build_volcano_case_co_row():
    points, y = build_volcano(
        [EffectEstimate(label="CO", rr=1.048, ci_low=1.026, ci_high=1.070)],
        alpha=0.05,
        m_tests=66,
    )
    assert points[0].effect == pytest.approx(0.0469, abs=5e-5)
    assert points[0].neg_log10_p == pytest.approx(4.919, abs=1e-3)
    assert y == pytest.approx(3.12, abs=0.005)


def test_build_volcano_null_point_at_origin():
    points, _ = build_volcano(
        [EffectEstimate(label="n", rr=1.0, ci_low=0.9, ci_high=1 / 0.9)],
        alpha=0.05,
        m_tests=6,
    )
    assert points[0].effect == 0.0
    assert points[0].neg_log10_p == 0.0


def test_build_volcano_reciprocal_invariance():
    rng = np.random.RandomState(11)
    for _ in range(30):
        center = float(rng.uniform(-0.5, 0.5))
        half = float(rng.uniform(0.01, 0.3))
        estimate = EffectEstimate(
            label="a",
            rr=math.exp(center),
            ci_low=math.exp(center - half),
            ci_high=math.exp(center + half),
        )
        flipped = EffectEstimate(
            label="b",
            rr=math.exp(-center),
            ci_low=math.exp(-center - half),
            ci_high=math.exp(-center + half),
        )
        points, _ = build_volcano([estimate, flipped], alpha=0.05, m_tests=2)
        assert points[0].neg_log10_p == pytest.approx(points[1].neg_log10_p, rel=1e-12)
        assert points[0].effect == pytest.approx(-points[1].effect, rel=1e-12)


def test_build_volcano_validation():
    with pytest.raises(ValidationError):
        build_volcano([], alpha=0.05, m_tests=6)
    with pytest.raises(ValidationError):
        build_volcano(
            [EffectEstimate(label="a", rr=1.0, ci_low=0.9, ci_high=1.1)],
            alpha=0.05,
            m_tests=0,
        )


def test_build_volcano_neg_log10_matches_oracle():
    estimate = EffectEstimate(label="PM2.5", rr=1.025, ci_low=1.015, ci_high=1.036)
    points, _ = build_volcano([estimate], alpha=0.05, m_tests=6)
    expected = -math.log10(oracles.p_from_ci("1.025", "1.015", "1.036"))
    assert points[0].neg_log10_p == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------- descriptives


def test_descriptives_case_dataset(case_pvalues):
    stats_by_endpoint = descriptives(case_pvalues)
    assert sum(s.count for s in stats_by_endpoint.values()) == 104
    assert stats_by_endpoint["CO"].min_p == 0.001
    assert stats_by_endpoint["CO"].max_p == 0.95
    assert stats_by_endpoint["ozone"].min_p == 0.001
    assert stats_by_endpoint["ozone"].max_p == 0.78


def test_descriptives_single_record():
    result = descriptives(records_from([0.37]))
    assert result["e"].count == 1
    assert result["e"].min_p == result["e"].max_p == 0.37


def test_descriptives_preserves_first_appearance_order():
    records = records_from([0.5], "b") + records_from([0.6], "a")
    assert list(descriptives(records).keys()) == ["b", "a"]


def test_descriptives_empty_is_error():
    with pytest.raises(ValidationError):
        descriptives([])

"""Shape diagnostics for collections of reported p-values.

The central construction is the rank-ordered p-value plot (Schweder &
Spjotvoll 1982, Biometrika 69:493-502): p-values sorted smallest to largest
and plotted against their ranks. Under a single null hypothesis in play the
points fall near a 45-degree line; a sharp bend ("hockey stick") suggests a
mix of real effects or selective analysis. Two statistics quantify the
visual judgement: a one-sample Kolmogorov-Smirnov test of uniformity, and
the SSE ratio of a free two-segment fit against a single line.  The ratio
has no fixed threshold for "straight": the free fit absorbs part of the
order-statistic noise, so uniform p-values average about 0.38 at m=30.  A
ratio is read against null series of the same m.

Volcano plots (effect size against -log10 p, Cui & Churchill 2003, Nature
Reviews Genetics 4:210) are built from published risk ratios through the
back-calculation in :mod:`metaaudit.statcore`.
"""

from __future__ import annotations

import bisect
import math
from itertools import accumulate
from operator import sub
from typing import Iterable, NamedTuple

from .errors import EmptySeriesError, InsufficientDataError, ValidationError
from .statcore import (
    _SQRT2PI,
    EffectEstimate,
    _Record,
    _real,
    _require_finite,
    _require_int,
    _require_open_unit,
    _require_trimmed,
    _shown,
    bonferroni_line,
    p_from_estimate,
)

__all__ = [
    "BilinearityFit",
    "EndpointDescriptives",
    "KsResult",
    "PValuePlotSeries",
    "PValueRecord",
    "VolcanoPoint",
    "bilinearity_fit",
    "build_pplot",
    "build_volcano",
    "descriptives",
    "uniformity_ks",
]


class PValueRecord(_Record):
    """One reported p-value from one study.

    Attributes
    ----------
    citation : int
        Citation number of the source study.
    author : str
        First author, for labelling.
    endpoint : str
        What was tested (e.g. a pollutant name, or a simulation regime).
    p : float
        Reported p-value in (0, 1].
    direction_negative : bool
        True when the underlying risk ratio was below 1.
    truncated : bool
        True when the source reported an upper bound (e.g. "<0.001")
        rather than an exact value.
    """

    __slots__ = ("citation", "author", "endpoint", "p", "direction_negative", "truncated")

    def __init__(
        self, citation: int, author: str, endpoint: str, p: float,
        direction_negative: bool = False, truncated: bool = False,
    ) -> None:
        _require_int("citation", citation)
        _require_trimmed("author", author)
        _require_trimmed("endpoint", endpoint)
        p = _check_reported(citation, endpoint, p)
        self._set_fields((citation, author, endpoint, p, direction_negative, truncated))


def _check_reported(citation: int, endpoint: str, p: float) -> float:
    """Check a reported p-value's endpoint (not empty) and p (in (0, 1]); return p."""
    if not endpoint:
        raise ValidationError("endpoint must be a non-empty string")
    value = _require_finite("p", p)
    if not 0.0 < value <= 1.0:
        raise ValidationError(f"p must lie in (0, 1], got {p!r} (citation {_shown(citation)})")
    return value


def _not_real(p: Iterable[float]) -> str:
    """``_require_finite``'s words for the first value of ``p`` that ``float`` refuses.

    An iterator has passed that value already, and a ``p`` that is not iterable
    has none, so either is named whole.
    """
    try:
        for value in p if iter(p) is not p else ():
            _real("p", value)
    except ValidationError as exc:
        return str(exc)
    except TypeError:  # not iterable
        pass
    return f"p must be real numbers, got {_shown(p)}"


class PValuePlotSeries(_Record):
    """Rank-ordered p-values for one endpoint.

    ``p`` is stored sorted ascending, so ``p[i]`` has rank ``i + 1``;
    ``frac_le_alpha`` is the fraction of p-values at or below ``alpha``.
    A p-value that is not a real number or lies outside (0, 1], NaN
    included, raises :class:`ValidationError`; an empty ``p`` raises
    :class:`EmptySeriesError`.
    """

    __slots__ = ("endpoint", "p", "alpha")

    def __init__(self, endpoint: str, p: Iterable[float], alpha: float = 0.05) -> None:
        alpha = _require_open_unit("alpha", alpha)
        try:
            p = sorted(map(float, p))
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"{_not_real(p)} (endpoint {endpoint!r})") from None
        # Without NaN the sort is total, so the ends bound every value; a NaN, which
        # leaves the sort out of order, makes the sum NaN.
        if p and not (0.0 < p[0] and p[-1] <= 1.0 and not math.isnan(sum(p))):
            bad = next(value for value in p if not 0.0 < value <= 1.0)
            raise ValidationError(f"p must lie in (0, 1], got {bad!r} (endpoint {endpoint!r})")
        if not p:
            raise EmptySeriesError(f"no p-value records for endpoint {endpoint!r}")
        self._set_fields((endpoint, tuple(p), alpha))

    @property
    def m(self) -> int:
        return len(self.p)

    @property
    def frac_le_alpha(self) -> float:
        return bisect.bisect_right(self.p, self.alpha) / self.m


class KsResult(NamedTuple):
    """Kolmogorov-Smirnov distance from Uniform(0,1), with asymptotic p-value."""

    d_stat: float
    p_ks: float


class BilinearityFit(NamedTuple):
    """Best two-segment least-squares fit versus a single line.

    ``ratio`` is ``sse_two_segment / sse_one_segment`` in [0, 1].  Even a
    straight-line (uniform) series scores well below 1, about 0.38 on
    average at m=30, so a ratio signals a bend (hockey-stick shape) only
    when it falls clearly below the ratios of null series of the same m.
    """

    breakpoint_rank: int
    sse_two_segment: float
    sse_one_segment: float
    ratio: float


class VolcanoPoint(NamedTuple):
    """One study on the volcano plot: log effect size against -log10 p."""

    label: str
    effect: float
    neg_log10_p: float


def build_pplot(
    records: list[PValueRecord], endpoint: str, alpha: float = 0.05
) -> PValuePlotSeries:
    """Rank-ordered p-value series for one endpoint.

    Filters ``records`` to the endpoint; the series sorts them ascending in
    p, so rank i is the i-th smallest.

    Parameters
    ----------
    records : list of PValueRecord
    endpoint : str
        Label to select on; exact match.
    alpha : float
        Significance threshold used for ``frac_le_alpha`` (default 0.05).

    Returns
    -------
    PValuePlotSeries

    Raises
    ------
    EmptySeriesError
        If no record matches the endpoint.
    """
    return PValuePlotSeries(endpoint, [r.p for r in records if r.endpoint == endpoint], alpha)


def uniformity_ks(series: PValuePlotSeries) -> KsResult:
    """One-sample Kolmogorov-Smirnov test of the series against Uniform(0,1).

    The p-value uses the asymptotic Kolmogorov distribution of
    ``sqrt(m) * D``. At the case study's sizes (m = 13-21) it is not
    exact: on the bundled endpoints it exceeded the exact finite-m p-value
    by up to about 3x (CO, m = 20: 1.7e-5 asymptotic, 5.5e-6 exact).

    Parameters
    ----------
    series : PValuePlotSeries
        At least 5 points.

    Returns
    -------
    KsResult

    Raises
    ------
    InsufficientDataError
        If the series has fewer than 5 points.
    """
    m = series.m
    if m < 5:
        raise InsufficientDataError(f"KS uniformity test needs m >= 5, got m={m}")
    d_stat = _ks_d(series.p)
    return KsResult(d_stat=d_stat, p_ks=_kolmogorov_sf(math.sqrt(m) * d_stat))


def _kolmogorov_sf(x: float) -> float:
    """Survival function P(K > x) of the limiting Kolmogorov distribution."""
    if x < 1.0:
        # Jacobi-theta form: converges fast for small x, where the
        # alternating series below would need many terms.
        c = math.pi**2 / (8.0 * x * x)
        s = sum(math.exp(-((2 * k - 1) ** 2) * c) for k in range(1, 8))
        return 1.0 - _SQRT2PI / x * s
    total, sign, k = 0.0, 1.0, 1
    while True:
        term = math.exp(-2.0 * k * k * x * x)
        total += sign * term
        if term < 1e-17:
            return 2.0 * total
        sign, k = -sign, k + 1


# SSE below this is treated as an exact straight line; covers accumulated
# roundoff without masking any real lack of fit (p-values live in [0, 1]).
_SSE_LINEAR_EPS = 1e-13

# Fewest p-values the two-segment fit accepts, here and in simulate.shape_stats.
_FIT_MIN_M = 6


def _ks_d(p: tuple[float, ...]) -> float:
    """KS distance from Uniform(0,1) of sorted p-values, all in (0, 1]."""
    m = len(p)
    steps = [i / m for i in range(m + 1)]  # the empirical CDF: (i - 1) / m, then i / m at p[i - 1]
    return max(max(map(sub, steps[1:], p)), max(map(sub, p, steps)))


def _line_sse(k, sx, sy, sxx, syy, sxy):
    """SSE of the least-squares line through k >= 2 points at distinct ranks x.

    The arguments are k and the sums of x, y, xx, yy and xy, as floats or as
    NumPy arrays taken element by element. Distinct ranks keep the centred
    sum of squares of x, k(k*k - 1)/12, above zero.
    """
    sxx = sxx - sx * sx / k
    syy = syy - sy * sy / k
    sxy = sxy - sx * sy / k
    sse = syy - sxy * sxy / sxx
    # Roundoff leaves an exact line slightly negative. For floats and arrays alike this
    # is 0.0 at any finite sse <= 0, -0.0 included.
    return abs(sse) * (sse > 0.0)


def _two_segment_fit(p: tuple[float, ...]) -> BilinearityFit:
    """:func:`bilinearity_fit` of sorted p-values, m >= 6, from running sums."""
    m = len(p)
    x = [float(rank) for rank in range(1, m + 1)]
    sums = [list(accumulate(values)) for values in (
        x, p, [a * a for a in x], [b * b for b in p], [a * b for a, b in zip(x, p)])]
    sx, sy, sxx, syy, sxy = sums
    tx, ty, txx, tyy, txy = (s[-1] for s in sums)
    # The left segment ends at rank k, so it has k points and its sums sit at index k - 1.
    # Each segment's SSE is _line_sse, written out: the same operations in the same order.
    totals = []
    for k, lx, ly, lxx, lyy, lxy in zip(range(2, m - 1), sx[1:], sy[1:], sxx[1:], syy[1:],
                                         sxy[1:]):
        cxy = lxy - lx * ly / k
        left = (lyy - ly * ly / k) - cxy * cxy / (lxx - lx * lx / k)
        n, rx, ry = m - k, tx - lx, ty - ly
        cxy = (txy - lxy) - rx * ry / n
        right = ((tyy - lyy) - ry * ry / n) - cxy * cxy / ((txx - lxx) - rx * rx / n)
        totals.append((left if left > 0.0 else 0.0) + (right if right > 0.0 else 0.0))
    sse_two = min(totals)
    sse_one = _line_sse(m, tx, ty, txx, tyy, txy)
    ratio = 1.0 if sse_one <= _SSE_LINEAR_EPS else min(sse_two / sse_one, 1.0)
    # .index finds the first minimum: ties go to the smallest rank.
    return BilinearityFit(totals.index(sse_two) + 2, sse_two, sse_one, ratio)


def bilinearity_fit(series: PValuePlotSeries) -> BilinearityFit:
    """Best free two-segment line fit of the rank/p series versus one line.

    Every breakpoint from rank 2 to rank m-2 is tried; at each, separate
    least-squares lines are fit to the left and right segments (each at
    least two points) and the breakpoint with the smallest total SSE wins.
    Ties go to the smallest rank. A series that is already collinear gets
    ratio 1.0 by convention.

    Parameters
    ----------
    series : PValuePlotSeries
        At least 6 points.

    Returns
    -------
    BilinearityFit

    Raises
    ------
    InsufficientDataError
        If the series has fewer than 6 points.
    """
    m = series.m
    if m < _FIT_MIN_M:
        raise InsufficientDataError(f"two-segment fit needs m >= {_FIT_MIN_M}, got m={m}")
    return _two_segment_fit(series.p)


def build_volcano(
    estimates: list[EffectEstimate], alpha: float, m_tests: int
) -> tuple[list[VolcanoPoint], float]:
    """Volcano-plot coordinates for a set of risk ratios.

    Each estimate becomes a point at (log risk ratio, -log10 p) with the
    p-value back-calculated from its interval. The returned ``bonferroni_y``
    is the height of the multiplicity-adjusted reference line,
    ``-log10(alpha / m_tests)``.

    Parameters
    ----------
    estimates : list of EffectEstimate
        At least one estimate.
    alpha : float
        Unadjusted significance level.
    m_tests : int
        Number of tests the Bonferroni correction accounts for.

    Returns
    -------
    (list of VolcanoPoint, float)
    """
    if not estimates:
        raise ValidationError("cannot build a volcano plot from no estimates")
    line = bonferroni_line(alpha, m_tests)
    points = []
    for estimate in estimates:
        back = p_from_estimate(estimate)
        points.append(
            VolcanoPoint(
                label=estimate.label,
                effect=back.log_effect,
                neg_log10_p=-math.log10(back.p),
            )
        )
    return points, line.neg_log10


class EndpointDescriptives(NamedTuple):
    """Count and p-value range for one endpoint."""

    count: int
    min_p: float
    max_p: float


def descriptives(records: list[PValueRecord]) -> dict[str, EndpointDescriptives]:
    """Per-endpoint count and exact min/max of reported p-values.

    Endpoints appear in first-appearance order of the input, so output is
    deterministic for a given record list.

    Parameters
    ----------
    records : list of PValueRecord
        At least one record.

    Returns
    -------
    dict mapping endpoint to EndpointDescriptives
    """
    if not records:
        raise ValidationError("cannot describe an empty record list")
    grouped: dict[str, list[float]] = {}
    for record in records:
        grouped.setdefault(record.endpoint, []).append(record.p)
    return {
        endpoint: EndpointDescriptives(
            count=len(ps), min_p=min(ps), max_p=max(ps)
        )
        for endpoint, ps in grouped.items()
    }

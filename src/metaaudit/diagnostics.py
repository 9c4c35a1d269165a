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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import kolmogorov

from .errors import EmptySeriesError, InsufficientDataError, ValidationError
from .statcore import (
    EffectEstimate,
    _require_finite,
    _require_int,
    _require_open_unit,
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


@dataclass(frozen=True)
class PValueRecord:
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

    citation: int
    author: str
    endpoint: str
    p: float
    direction_negative: bool = False
    truncated: bool = False

    def __post_init__(self) -> None:
        _require_int("citation", self.citation)
        if not self.endpoint:
            raise ValidationError("endpoint must be a non-empty string")
        p = _require_finite("p", self.p)
        if not 0.0 < p <= 1.0:
            raise ValidationError(
                f"p must lie in (0, 1], got {self.p!r} (citation {self.citation})"
            )
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class PValuePlotSeries:
    """Rank-ordered p-values for one endpoint.

    ``points`` holds ``(rank, p)`` pairs with ranks 1..m and p sorted
    ascending; ``frac_le_alpha`` is the fraction of p-values at or below
    ``alpha``.
    """

    endpoint: str
    points: tuple[tuple[int, float], ...]
    m: int
    frac_le_alpha: float
    alpha: float

    def __post_init__(self) -> None:
        if self.m != len(self.points):
            raise ValidationError(
                f"m={self.m} does not match the {len(self.points)} points supplied"
            )
        for index, (rank, p) in enumerate(self.points, start=1):
            if rank != index:
                raise ValidationError(f"rank {rank} at position {index}; expected {index}")
            if index > 1 and p < self.points[index - 2][1]:
                raise ValidationError("points must be sorted non-decreasing in p")


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


@dataclass(frozen=True)
class VolcanoPoint:
    """One study on the volcano plot: log effect size against -log10 p."""

    label: str
    effect: float
    neg_log10_p: float


def build_pplot(
    records: list[PValueRecord], endpoint: str, alpha: float = 0.05
) -> PValuePlotSeries:
    """Rank-ordered p-value series for one endpoint.

    Filters ``records`` to the endpoint, sorts ascending in p (ties broken
    by citation number, so the order is reproducible), and assigns ranks
    1..m.

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
    alpha = _require_open_unit("alpha", alpha)
    matching = [r for r in records if r.endpoint == endpoint]
    if not matching:
        raise EmptySeriesError(f"no p-value records for endpoint {endpoint!r}")
    matching.sort(key=lambda r: (r.p, r.citation))
    points = tuple((rank, r.p) for rank, r in enumerate(matching, start=1))
    m = len(points)
    frac = sum(1 for _, p in points if p <= alpha) / m
    return PValuePlotSeries(
        endpoint=endpoint, points=points, m=m, frac_le_alpha=frac, alpha=alpha
    )


def uniformity_ks(series: PValuePlotSeries) -> KsResult:
    """One-sample Kolmogorov-Smirnov test of the series against Uniform(0,1).

    The p-value uses the asymptotic Kolmogorov distribution of
    ``sqrt(m) * D``, adequate for the series sizes this package deals in.

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
    d_stat = float(_ks_d(np.array([[p for _, p in series.points]]))[0])
    p_ks = float(kolmogorov(math.sqrt(m) * d_stat))
    return KsResult(d_stat=d_stat, p_ks=p_ks)


# SSE below this is treated as an exact straight line; covers accumulated
# roundoff without masking any real lack of fit (p-values live in [0, 1]).
_SSE_LINEAR_EPS = 1e-13


def _ks_d(sorted_p: np.ndarray) -> np.ndarray:
    """KS distance from Uniform(0,1) of each row of a row-sorted 2-D array."""
    m = sorted_p.shape[1]
    i = np.arange(1, m + 1, dtype=float)
    d = np.maximum(np.max(i / m - sorted_p, axis=1), np.max(sorted_p - (i - 1.0) / m, axis=1))
    return np.maximum(d, 0.0)


def _line_sse(k, sx, sy, sxx, syy, sxy) -> np.ndarray:
    """SSE of least-squares lines through k points with the given sums of x, y, xx, yy, xy."""
    sxx = sxx - sx * sx / k
    syy = syy - sy * sy / k
    sxy = sxy - sx * sy / k
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = np.where(sxx <= 0.0, syy, syy - sxy * sxy / sxx)
    return np.where(sse > 0.0, sse, 0.0)  # not np.maximum, which keeps -0.0


def _two_segment_fits(sorted_p: np.ndarray):
    """:func:`bilinearity_fit` of every row of a row-sorted (n, m) array, m >= 6.

    Returns arrays ``(breakpoint_rank, sse_two_segment, sse_one_segment, ratio)``.
    """
    n, m = sorted_p.shape
    x, y = np.arange(1, m + 1, dtype=float), sorted_p
    # Running sums along each row; those of x are the same for every row.
    sums = (np.cumsum(x), np.cumsum(y, axis=1), np.cumsum(x * x),
            np.cumsum(y * y, axis=1), np.cumsum(x * y, axis=1))
    ranks = np.arange(2, m - 1)  # the left segment's last rank is also its size
    left = [s[..., ranks - 1] for s in sums]
    right = [s[..., -1:] - s_left for s, s_left in zip(sums, left)]
    totals = _line_sse(ranks, *left) + _line_sse(m - ranks, *right)
    best = np.argmin(totals, axis=1)  # the first minimum: ties go to the smallest rank
    sse_two = totals[np.arange(n), best]
    sse_one = _line_sse(m, *(s[..., -1] for s in sums))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(sse_one <= _SSE_LINEAR_EPS, 1.0, np.minimum(sse_two / sse_one, 1.0))
    return ranks[best], sse_two, sse_one, ratio


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
    if m < 6:
        raise InsufficientDataError(f"two-segment fit needs m >= 6, got m={m}")
    rank, sse_two, sse_one, ratio = _two_segment_fits(np.array([[p for _, p in series.points]]))
    return BilinearityFit(
        breakpoint_rank=int(rank[0]),
        sse_two_segment=float(sse_two[0]),
        sse_one_segment=float(sse_one[0]),
        ratio=float(ratio[0]),
    )


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

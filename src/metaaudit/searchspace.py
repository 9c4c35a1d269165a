"""Analysis search-space accounting for observational studies.

A study that measures several outcomes, several exposure predictors, and
several exposure lags can form ``outcomes * predictors * lags`` distinct
tests before any modelling choices are made. Each optional covariate can be
in or out of the model, multiplying the possibilities by ``2**covariates``.
The product of the two is the full space of analyses the authors could have
searched, which is the denominator that matters when judging a reported
p-value at face value.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import InsufficientDataError, SearchSpaceOverflowError, ValidationError
from .statcore import _Record, _require_int, _require_trimmed, _shown, quantile_type6

__all__ = [
    "SearchSpace",
    "SpaceSummary",
    "StudyCounts",
    "compute_space",
    "summarize_spaces",
]

_INT64_MAX = 2**63 - 1

# 2**63 already overflows signed 64-bit, so any covariate count beyond 62
# cannot be represented regardless of the other factors.
_MAX_COVARIATES = 62


class StudyCounts(_Record):
    """Variable counts extracted from one study.

    Attributes
    ----------
    citation : int
        Citation number identifying the study within its review.
    author : str
        First author, used only for labelling.
    outcomes, predictors, lags : int
        Counts of distinct health outcomes, exposure predictors, and
        exposure lags examined; each at least 1.
    covariates : int
        Number of optional adjustment covariates; at least 0.
    """

    __slots__ = ("citation", "author", "outcomes", "predictors", "covariates", "lags")

    def __init__(
        self, citation: int, author: str, outcomes: int, predictors: int, covariates: int,
        lags: int,
    ) -> None:
        _require_int("citation", citation)
        if not author:
            raise ValidationError("author must be a non-empty string")
        _require_trimmed("author", author)
        # The bounds are checked here, not by _require_int, to name the citation.
        for name, value in (("outcomes", outcomes), ("predictors", predictors), ("lags", lags)):
            if _require_int(name, value) < 1:
                raise ValidationError(
                    f"{name} must be at least 1, got {_shown(value)} "
                    f"(citation {_shown(citation)})"
                )
        if _require_int("covariates", covariates) < 0:
            raise ValidationError(
                f"covariates must be non-negative, got {_shown(covariates)} "
                f"(citation {_shown(citation)})"
            )
        self._set_fields((citation, author, outcomes, predictors, covariates, lags))


class SearchSpace(NamedTuple):
    """Search-space sizes for one study.

    ``space1`` counts outcome/predictor/lag combinations, ``space2`` counts
    covariate subsets, and ``space3`` is their product.
    """

    space1: int
    space2: int
    space3: int


def compute_space(counts: StudyCounts) -> SearchSpace:
    """Search-space sizes implied by a study's variable counts.

    Parameters
    ----------
    counts : StudyCounts

    Returns
    -------
    SearchSpace

    Raises
    ------
    SearchSpaceOverflowError
        If any of the three sizes exceeds the signed 64-bit range.
    """
    if counts.covariates > _MAX_COVARIATES:
        raise SearchSpaceOverflowError(
            f"2**{_shown(counts.covariates)} exceeds the 64-bit range "
            f"(citation {_shown(counts.citation)})"
        )
    space1 = counts.outcomes * counts.predictors * counts.lags
    space2 = 2**counts.covariates
    space3 = space1 * space2
    # space2 <= 2**62, as the covariate count was checked above.
    for name, value in (("space1", space1), ("space3", space3)):
        if value > _INT64_MAX:
            raise SearchSpaceOverflowError(
                f"{name}={_shown(value)} exceeds the 64-bit range "
                f"(citation {_shown(counts.citation)})"
            )
    return SearchSpace(space1=space1, space2=space2, space3=space3)


class SpaceSummary(NamedTuple):
    """Five-number summaries of the three search spaces across studies.

    Each field is a ``(min, q1, median, q3, max)`` tuple of floats. Minima
    and maxima are the spaces converted to float, so they are exact up to
    2**53 and rounded above it; the interior quartiles use type-6
    interpolation and may be fractional.
    """

    space1: tuple[float, float, float, float, float]
    space2: tuple[float, float, float, float, float]
    space3: tuple[float, float, float, float, float]


def _five_numbers(values: Sequence[int]) -> tuple[float, float, float, float, float]:
    return (
        float(min(values)),
        quantile_type6(values, 0.25),
        quantile_type6(values, 0.50),
        quantile_type6(values, 0.75),
        float(max(values)),
    )


def summarize_spaces(spaces: Iterable[SearchSpace]) -> SpaceSummary:
    """Five-number summary (min, quartiles, max) of each space across studies.

    Parameters
    ----------
    spaces : iterable of SearchSpace
        At least one element.

    Returns
    -------
    SpaceSummary
    """
    spaces = list(spaces)
    if not spaces:
        raise InsufficientDataError("cannot summarize an empty collection of spaces")
    return SpaceSummary(
        space1=_five_numbers([s.space1 for s in spaces]),
        space2=_five_numbers([s.space2 for s in spaces]),
        space3=_five_numbers([s.space3 for s in spaces]),
    )

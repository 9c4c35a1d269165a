"""Tests for search-space counting and the five-number summaries."""

import numpy as np
import pytest

from metaaudit import (
    SearchSpace,
    SearchSpaceOverflowError,
    StudyCounts,
    ValidationError,
    compute_space,
    load_counts,
    case_counts_path,
    summarize_spaces,
)


def make_counts(outcomes, predictors, covariates, lags, citation=1):
    return StudyCounts(
        citation=citation,
        author="test",
        outcomes=outcomes,
        predictors=predictors,
        covariates=covariates,
        lags=lags,
    )


def test_compute_space_small_example():
    # 4 outcomes, 1 predictor, 4 lags, 6 covariates
    space = compute_space(make_counts(4, 1, 6, 4))
    assert space == SearchSpace(space1=16, space2=64, space3=1024)


def test_compute_space_larger_example():
    space = compute_space(make_counts(15, 6, 8, 6))
    assert space == SearchSpace(space1=540, space2=256, space3=138240)


def test_compute_space_zero_covariates():
    space = compute_space(make_counts(2, 3, 0, 1))
    assert space.space2 == 1
    assert space.space3 == space.space1 == 6


def test_space_doubling_laws():
    rng = np.random.RandomState(4)
    for _ in range(50):
        o, p, g = (int(v) for v in rng.randint(1, 12, size=3))
        c = int(rng.randint(0, 15))
        base = compute_space(make_counts(o, p, c, g))
        doubled_outcomes = compute_space(make_counts(2 * o, p, c, g))
        assert doubled_outcomes.space1 == 2 * base.space1
        assert doubled_outcomes.space3 == 2 * base.space3
        extra_covariate = compute_space(make_counts(o, p, c + 1, g))
        assert extra_covariate.space2 == 2 * base.space2
        assert extra_covariate.space3 == 2 * base.space3


def test_compute_space_overflow_guard():
    with pytest.raises(SearchSpaceOverflowError):
        compute_space(make_counts(1, 1, 70, 1))
    # space1 and space2 fit separately but the product does not
    huge = make_counts(2**31, 2**31, 2, 1)
    with pytest.raises(SearchSpaceOverflowError):
        compute_space(huge)


def test_study_counts_validation():
    with pytest.raises(ValidationError):
        make_counts(0, 1, 1, 1)
    with pytest.raises(ValidationError):
        make_counts(1, 1, -1, 1)
    with pytest.raises(ValidationError):
        StudyCounts(citation=1, author="", outcomes=1, predictors=1, covariates=0, lags=1)


def test_summarize_spaces_case_dataset():
    spaces = [compute_space(c) for c in load_counts(case_counts_path())]
    summary = summarize_spaces(spaces)
    assert summary.space1 == (8.0, 23.0, 36.0, 109.0, 540.0)
    assert summary.space2 == (8.0, 64.0, 256.0, 1024.0, 16384.0)
    assert summary.space3 == (240.0, 2496.0, 12288.0, 58368.0, 4587520.0)


def test_summarize_spaces_single_study():
    summary = summarize_spaces([SearchSpace(space1=6, space2=4, space3=24)])
    assert summary.space3 == (24.0, 24.0, 24.0, 24.0, 24.0)


def test_summary_extremes_are_floats_rounded_above_2_to_the_53():
    # A space above 2**53 has no exact float, so its minimum and maximum are
    # rounded, while the SearchSpace itself keeps the exact integer.
    space = compute_space(make_counts(2**27 + 1, 2**27 + 1, 0, 1))
    assert space.space3 == 18014398777917441 == (2**27 + 1) ** 2
    summary = summarize_spaces([space])
    assert summary.space3[0] == summary.space3[4] == 1.801439877791744e16
    assert all(type(value) is float for value in summary.space3)
    assert int(summary.space3[4]) != space.space3


def test_summarize_spaces_empty_is_error():
    with pytest.raises(ValidationError):
        summarize_spaces([])

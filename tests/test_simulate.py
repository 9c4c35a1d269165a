"""Tests for the Monte-Carlo p-value generator and its shape summaries."""

import math
import sys

import numpy as np
import pytest
from scipy import stats

import oracles
from metaaudit import (
    InsufficientDataError,
    ShapeStats,
    SimConfig,
    ValidationError,
    build_pplot,
    draw_pvalues,
    fwer,
    shape_check,
    simulate_pvalues,
)
from metaaudit.simulate import _two_sided_p


def flat_p(replicated):
    return [record.p for records in replicated for record in records]


# ------------------------------------------------------------ SimConfig


def test_sim_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(regime="bogus", m=10, seed=1)
    with pytest.raises(ValidationError):
        SimConfig(regime="null", m=0, seed=1)
    with pytest.raises(ValidationError):
        SimConfig(regime="null", m=10, seed=-1)
    with pytest.raises(ValidationError):
        SimConfig(regime="null", m=10, seed=2**64)
    with pytest.raises(ValidationError):
        SimConfig(regime="mixture", m=10, seed=1, pi_mix=1.5)
    with pytest.raises(ValidationError):
        SimConfig(regime="phack", m=10, seed=1, s_tests=0)
    with pytest.raises(ValidationError):
        SimConfig(regime="mixture", m=10, seed=1, mix_component="other")
    with pytest.raises(ValidationError):
        SimConfig(regime="null", m=10, seed=1, replicates=0)


def test_sim_config_rejects_more_values_than_one_array_can_index():
    # checked before anything is drawn, so neither config allocates
    most = sys.maxsize // 8  # float64 values in the largest array the platform can index
    SimConfig(regime="null", m=1, seed=1, replicates=most)
    with pytest.raises(ValidationError, match=r"^replicates \* m must be at most "):
        SimConfig(regime="null", m=1, seed=1, replicates=most + 1)
    with pytest.raises(ValidationError, match=r"^replicates \* m must be at most "):
        SimConfig(regime="null", m=2**40, seed=1, replicates=2**40)


def test_two_sided_p_matches_oracle():
    rng = np.random.default_rng(17)
    z = np.concatenate([rng.standard_normal(500), 3.0 + rng.standard_normal(500)])
    for value, p in zip(z.tolist(), _two_sided_p(z).tolist()):
        assert p == pytest.approx(oracles.two_sided_p(value), rel=1e-14, abs=0.0)


def test_two_sided_p_equals_per_value_loop():
    # Several erfc blocks, a partial last one, and the shape kept.
    z = np.random.default_rng(18).standard_normal((3, 7000)) * 4.0
    p = _two_sided_p(z)
    assert p.shape == z.shape
    assert p.tolist() == [[math.erfc(abs(v) / math.sqrt(2.0)) for v in row] for row in z.tolist()]


# ------------------------------------------------------ simulate_pvalues


def test_record_structure():
    cfg = SimConfig(regime="phack", m=7, seed=3, s_tests=4, replicates=2)
    replicated = simulate_pvalues(cfg)
    assert len(replicated) == 2
    for records in replicated:
        assert [r.citation for r in records] == list(range(1, 8))
        assert all(r.endpoint == "phack" for r in records)
        assert all(0.0 < r.p <= 1.0 for r in records)


def test_determinism_same_seed():
    cfg = SimConfig(regime="mixture", m=20, seed=123, s_tests=50, pi_mix=0.3, replicates=5)
    assert simulate_pvalues(cfg) == simulate_pvalues(cfg)


def test_different_seeds_differ():
    a = simulate_pvalues(SimConfig(regime="null", m=20, seed=1))
    b = simulate_pvalues(SimConfig(regime="null", m=20, seed=2))
    assert a != b


def test_replicate_streams_are_independent_of_count():
    # replicate i is the same whether or not later replicates are generated,
    # which is what makes parallel and serial execution agree
    for extra in (
        {"regime": "null"},
        {"regime": "phack", "s_tests": 40},
        {"regime": "mixture", "s_tests": 40, "pi_mix": 0.3},
        {"regime": "mixture", "delta": 2.0, "pi_mix": 0.3, "mix_component": "effect"},
    ):
        short = simulate_pvalues(SimConfig(m=15, seed=9, replicates=2, **extra))
        long = simulate_pvalues(SimConfig(m=15, seed=9, replicates=6, **extra))
        assert long[:2] == short, extra


def test_null_fraction_below_alpha():
    cfg = SimConfig(regime="null", m=20, seed=21, replicates=2000)
    ps = np.array(flat_p(simulate_pvalues(cfg)))
    assert np.mean(ps <= 0.05) == pytest.approx(0.05, abs=0.005)


def test_effect_regime_increases_power():
    null_ps = np.array(flat_p(simulate_pvalues(SimConfig(regime="null", m=50, seed=4, replicates=40))))
    effect_ps = np.array(
        flat_p(simulate_pvalues(SimConfig(regime="effect", m=50, seed=4, delta=3.0, replicates=40)))
    )
    assert np.mean(effect_ps <= 0.05) > 0.7
    assert np.mean(effect_ps <= 0.05) > np.mean(null_ps <= 0.05) + 0.5


def test_effect_with_zero_delta_matches_null():
    null_ps = flat_p(simulate_pvalues(SimConfig(regime="null", m=400, seed=5, replicates=5)))
    effect_ps = flat_p(
        simulate_pvalues(SimConfig(regime="effect", m=400, seed=50, delta=0.0, replicates=5))
    )
    assert stats.ks_2samp(null_ps, effect_ps).pvalue > 0.01


def test_phack_severe_search_is_essentially_always_significant():
    cfg = SimConfig(regime="phack", m=200, seed=6, s_tests=500, replicates=20)
    ps = np.array(flat_p(simulate_pvalues(cfg)))
    assert np.mean(ps <= 0.05) > 0.99


def test_phack_single_test_matches_null():
    phack_ps = flat_p(simulate_pvalues(SimConfig(regime="phack", m=500, seed=7, s_tests=1, replicates=4)))
    null_ps = flat_p(simulate_pvalues(SimConfig(regime="null", m=500, seed=70, replicates=4)))
    assert stats.ks_2samp(phack_ps, null_ps).pvalue > 0.01


def test_phack_matches_fwer_closed_form():
    cfg = SimConfig(regime="phack", m=2000, seed=8, s_tests=20, replicates=5)
    ps = np.array(flat_p(simulate_pvalues(cfg)))
    assert np.mean(ps <= 0.05) == pytest.approx(fwer(20, 0.05), abs=0.02)


@pytest.mark.parametrize("s_tests", [1, 2, 20])
def test_phack_matches_brute_force_minimum(s_tests):
    # the reference takes the minimum of S uniforms from a generator of its own
    ps = draw_pvalues(SimConfig(regime="phack", m=500, seed=15, s_tests=s_tests, replicates=4))
    brute = np.random.default_rng(150).random((2000, s_tests)).min(axis=1)
    assert stats.ks_2samp(ps.ravel(), brute).pvalue > 0.01


def test_phack_huge_search_matches_closed_form_cdf():
    s_tests = 10**6
    ps = draw_pvalues(SimConfig(regime="phack", m=2000, seed=16, s_tests=s_tests))
    assert stats.kstest(ps.ravel(), lambda t: 1 - (1 - t) ** s_tests).pvalue > 0.01


def test_phack_stochastic_dominance():
    small = np.array(flat_p(simulate_pvalues(SimConfig(regime="phack", m=5000, seed=9, s_tests=2))))
    large = np.array(flat_p(simulate_pvalues(SimConfig(regime="phack", m=5000, seed=90, s_tests=10))))
    grid = np.linspace(0.02, 0.98, 25)
    for t in grid:
        assert np.mean(large <= t) >= np.mean(small <= t) - 0.03


def test_mixture_interpolates_between_components():
    cfg = SimConfig(regime="mixture", m=3000, seed=10, s_tests=200, pi_mix=0.5, replicates=1)
    ps = np.array(flat_p(simulate_pvalues(cfg)))
    expected = 0.5 * fwer(200, 0.05) + 0.5 * 0.05
    assert np.mean(ps <= 0.05) == pytest.approx(expected, abs=0.03)


def test_mixture_effect_component():
    cfg = SimConfig(
        regime="mixture", m=3000, seed=11, delta=3.0, pi_mix=1.0,
        mix_component="effect", replicates=1,
    )
    ps = np.array(flat_p(simulate_pvalues(cfg)))
    # with pi_mix = 1 every study carries the shifted statistic
    assert np.mean(ps <= 0.05) > 0.7


# ----------------------------------------------------------- shape_check


def test_shape_check_null_calibration():
    result = shape_check(SimConfig(regime="null", m=30, seed=12, replicates=200))
    assert isinstance(result, ShapeStats)
    assert result.mean_frac_le_005 == pytest.approx(0.05, abs=0.01)
    assert 0.0 < result.mean_ks_d < 0.35


def test_shape_check_separates_mixture_from_null():
    null = shape_check(SimConfig(regime="null", m=30, seed=13, replicates=200))
    mixture = shape_check(
        SimConfig(regime="mixture", m=30, seed=13, s_tests=1000, pi_mix=0.4, replicates=200)
    )
    assert mixture.mean_frac_le_005 > 0.3
    assert mixture.mean_bilinearity_ratio < 0.5 * null.mean_bilinearity_ratio
    assert mixture.mean_ks_d > null.mean_ks_d


def test_shape_check_preconditions():
    with pytest.raises(InsufficientDataError):
        shape_check(SimConfig(regime="null", m=30, seed=1, replicates=99))
    with pytest.raises(InsufficientDataError):
        shape_check(SimConfig(regime="null", m=5, seed=1, replicates=100))


def test_shape_check_feeds_diagnostics_cleanly():
    cfg = SimConfig(regime="phack", m=12, seed=14, s_tests=100, replicates=100)
    replicated = simulate_pvalues(cfg)
    series = build_pplot(replicated[0], endpoint="phack")
    assert series.m == 12
    result = shape_check(cfg)
    assert result.mean_frac_le_005 > 0.9

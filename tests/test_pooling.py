"""Tests for fixed-effect and DerSimonian-Laird pooling."""

import math
from fractions import Fraction

import numpy as np
import pytest

from metaaudit import (
    EffectEstimate,
    ValidationError,
    i2,
    p_from_estimate,
    pool_fixed,
    pool_random_dl,
    z_crit,
)


def estimate_from(log_effect: float, se: float, label: str = "s") -> EffectEstimate:
    """Build an estimate whose back-calculated (log_effect, se) are exact."""
    crit = z_crit(0.95)
    return EffectEstimate(
        label=label,
        rr=math.exp(log_effect),
        ci_low=math.exp(log_effect - crit * se),
        ci_high=math.exp(log_effect + crit * se),
    )


def brute_force_fixed(pairs):
    """Direct-formula pooling, written independently of the implementation."""
    weights = [1.0 / se**2 for _, se in pairs]
    total = sum(weights)
    pooled = sum(w * y for (y, _), w in zip(pairs, weights)) / total
    q = sum(w * (y - pooled) ** 2 for (y, _), w in zip(pairs, weights))
    return pooled, 1.0 / math.sqrt(total), q


def brute_force_dl(pairs):
    pooled_fixed, _, q = brute_force_fixed(pairs)
    k = len(pairs)
    weights = [1.0 / se**2 for _, se in pairs]
    total = sum(weights)
    c = total - sum(w * w for w in weights) / total
    tau2 = max(0.0, (q - (k - 1)) / c)
    star = [1.0 / (se**2 + tau2) for _, se in pairs]
    star_total = sum(star)
    pooled = sum(w * y for (y, _), w in zip(pairs, star)) / star_total
    return pooled, 1.0 / math.sqrt(star_total), q, tau2


def test_identical_studies_have_no_heterogeneity():
    studies = [
        EffectEstimate(label=f"s{i}", rr=1.05, ci_low=1.02, ci_high=1.08)
        for i in range(3)
    ]
    result = pool_fixed(studies)
    assert math.exp(result.pooled_log) == pytest.approx(1.05, rel=1e-12)
    assert result.q_stat == pytest.approx(0.0, abs=1e-20)
    assert result.i2_percent == 0.0


def test_single_study_equals_back_calculation():
    study = EffectEstimate(label="s", rr=1.2, ci_low=1.1, ci_high=1.31)
    back = p_from_estimate(study)
    result = pool_fixed([study])
    assert result.k == 1
    assert result.pooled_log == pytest.approx(back.log_effect, rel=1e-15)
    assert result.pooled_se == pytest.approx(back.se, rel=1e-15)
    assert result.q_stat == 0.0
    assert result.i2_percent == 0.0


def test_two_study_hand_oracle():
    studies = [estimate_from(0.0, 0.1, "a"), estimate_from(0.2, 0.1, "b")]
    fixed = pool_fixed(studies)
    assert fixed.pooled_log == pytest.approx(0.1, abs=1e-12)
    assert fixed.q_stat == pytest.approx(2.0, abs=1e-9)
    assert fixed.method == "fixed"
    assert fixed.tau2 == 0.0

    random = pool_random_dl(studies)
    # tau2 = (2 - 1) / (200 - 20000/200) = 0.01; w* = 50 each
    assert random.q_stat == pytest.approx(2.0, abs=1e-9)
    assert random.tau2 == pytest.approx(0.01, abs=1e-10)
    assert random.pooled_log == pytest.approx(0.1, abs=1e-12)
    assert random.pooled_se == pytest.approx(0.1, abs=1e-10)
    assert random.method == "random_DL"


def test_homogeneous_random_equals_fixed():
    studies = [estimate_from(0.05, 0.2, "a"), estimate_from(0.06, 0.2, "b")]
    fixed = pool_fixed(studies)
    random = pool_random_dl(studies)
    assert fixed.q_stat < 1.0  # genuinely homogeneous
    assert random.tau2 == 0.0
    assert random.pooled_log == pytest.approx(fixed.pooled_log, rel=1e-15)
    assert random.pooled_se == pytest.approx(fixed.pooled_se, rel=1e-15)


def test_symmetric_effects_pool_to_zero():
    studies = [estimate_from(0.3, 0.15, "a"), estimate_from(-0.3, 0.15, "b")]
    assert pool_fixed(studies).pooled_log == pytest.approx(0.0, abs=1e-15)
    assert pool_random_dl(studies).pooled_log == pytest.approx(0.0, abs=1e-15)


def test_confidence_interval_brackets_estimate():
    studies = [estimate_from(0.1, 0.05, "a"), estimate_from(0.3, 0.08, "b")]
    for result in (pool_fixed(studies), pool_random_dl(studies)):
        assert result.ci_low < result.pooled_log < result.ci_high
        half = z_crit(0.95) * result.pooled_se
        assert result.ci_high - result.pooled_log == pytest.approx(half, rel=1e-12)


def test_pooled_log_within_study_range():
    rng = np.random.RandomState(5)
    for _ in range(50):
        k = int(rng.randint(2, 6))
        logs = rng.uniform(-0.5, 0.5, size=k)
        ses = rng.uniform(0.02, 0.4, size=k)
        studies = [estimate_from(float(y), float(s)) for y, s in zip(logs, ses)]
        for result in (pool_fixed(studies), pool_random_dl(studies)):
            assert logs.min() - 1e-12 <= result.pooled_log <= logs.max() + 1e-12


def test_matches_brute_force_oracle():
    rng = np.random.RandomState(6)
    for _ in range(50):
        k = int(rng.randint(1, 5))
        pairs = [
            (float(rng.uniform(-0.6, 0.6)), float(rng.uniform(0.02, 0.5)))
            for _ in range(k)
        ]
        studies = [estimate_from(y, s) for y, s in pairs]
        fixed = pool_fixed(studies)
        expected_log, expected_se, expected_q = brute_force_fixed(pairs)
        assert fixed.pooled_log == pytest.approx(expected_log, abs=1e-12)
        assert fixed.pooled_se == pytest.approx(expected_se, abs=1e-12)
        assert fixed.q_stat == pytest.approx(expected_q, rel=1e-9, abs=1e-9)
        if k >= 2:
            random = pool_random_dl(studies)
            expected = brute_force_dl(pairs)
            assert random.pooled_log == pytest.approx(expected[0], abs=1e-12)
            assert random.pooled_se == pytest.approx(expected[1], abs=1e-12)
            assert random.tau2 == pytest.approx(expected[3], abs=1e-10)


def test_large_heterogeneity_approaches_unweighted_mean():
    # Precise but wildly different studies force a large tau2, which should
    # push the random-effects weights toward equality.
    studies = [estimate_from(0.0, 0.001, "a"), estimate_from(1.0, 0.001, "b")]
    result = pool_random_dl(studies)
    assert result.tau2 > 0.1
    assert result.pooled_log == pytest.approx(0.5, abs=1e-6)


def test_i2_known_values():
    assert i2(10.0, 6) == 50.0
    assert i2(4.0, 6) == 0.0
    assert i2(0.0, 6) == 0.0
    assert i2(5.0, 1) == 0.0
    # back-solving (Q - 5)/Q = 0.83 gives Q = 29.41
    assert abs(i2(29.4, 6) - 83.0) < 0.1


def test_i2_scale_invariance():
    rng = np.random.RandomState(7)
    for _ in range(30):
        k = int(rng.randint(2, 6))
        logs = [float(v) for v in rng.uniform(-0.5, 0.5, size=k)]
        ses = [float(v) for v in rng.uniform(0.05, 0.4, size=k)]
        scale = float(rng.uniform(0.3, 3.0))
        base = pool_fixed([estimate_from(y, s) for y, s in zip(logs, ses)])
        scaled = pool_fixed(
            [estimate_from(y * scale, s * scale) for y, s in zip(logs, ses)]
        )
        assert scaled.i2_percent == pytest.approx(base.i2_percent, abs=1e-8)


def test_i2_validation():
    with pytest.raises(ValidationError):
        i2(-0.5, 3)
    with pytest.raises(ValidationError):
        i2(1.0, 0)


def test_pooling_preconditions():
    with pytest.raises(ValidationError):
        pool_fixed([])
    with pytest.raises(ValidationError):
        pool_random_dl([estimate_from(0.1, 0.1)])


def exact_tau2(estimates):
    """tau2 from the fixed-effect weights and Q, with c = sum(w) - sum(w**2)/sum(w) exact."""
    weights = [Fraction(1.0 / p_from_estimate(e).se ** 2) for e in estimates]
    total = sum(weights)
    c = total - sum(w * w for w in weights) / total
    return max(0.0, float((Fraction(pool_fixed(estimates).q_stat) - (len(estimates) - 1)) / c))


@pytest.mark.parametrize("estimates", [
    # Beside a weight of about 4e20 one of 8 vanishes: sum(w) - sum(w**2)/sum(w) gives 0.
    [EffectEstimate(label="A", rr=1.0, ci_low=0.9999999999, ci_high=1.0000000001),
     EffectEstimate(label="B", rr=2.0, ci_low=1.0, ci_high=4.0)],
    # A log half-width of 1e-8 beside two ordinary studies: that form gives c = 64.0, not 62.72.
    [EffectEstimate(label="A", rr=1.0, ci_low=math.exp(-1e-8), ci_high=math.exp(1e-8)),
     EffectEstimate(label="B", rr=2.0, ci_low=1.0, ci_high=4.0),
     EffectEstimate(label="C", rr=1.5, ci_low=1.0, ci_high=2.25)],
], ids=["dwarfed pair", "dwarfed triple"])
def test_dl_tau2_does_not_cancel_when_one_weight_dwarfs_the_others(estimates):
    tau2 = pool_random_dl(estimates).tau2
    assert tau2 > 0.0
    assert tau2 == pytest.approx(exact_tau2(estimates), rel=1e-14)

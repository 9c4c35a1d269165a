"""Tests for the numeric kernels: normal distribution, quantiles, FWER,
Bonferroni arithmetic, and p-value back-calculation."""

import math

import numpy as np
import pytest

import oracles
from metaaudit import (
    DegenerateIntervalError,
    EffectEstimate,
    P_FLOOR,
    PValueRecord,
    SimConfig,
    StudyCounts,
    ValidationError,
    bonferroni_line,
    fwer,
    i2,
    normal_cdf,
    normal_quantile,
    p_from_estimate,
    quantile_type6,
    z_crit,
)


# ----------------------------------------------------------- normal_cdf


def test_normal_cdf_center():
    assert normal_cdf(0.0) == 0.5


def test_normal_cdf_known_points():
    assert abs(normal_cdf(1.959964) - 0.975) < 1e-6
    # deep left tail keeps relative accuracy instead of flushing to 0
    assert abs(normal_cdf(-8.0) - 6.22e-16) < 0.01e-16


@pytest.mark.parametrize("x", [-8.0, -2.5, -1.0, -0.5, 0.3, 1.0, 1.959964, 2.5, 8.0])
def test_normal_cdf_matches_high_precision(x):
    assert abs(normal_cdf(x) - oracles.norm_cdf(x)) < 1e-13


def test_normal_cdf_deep_tail_relative_accuracy():
    for x in (-10.0, -15.0, -20.0):
        expected = oracles.norm_cdf(x)
        assert abs(normal_cdf(x) - expected) / expected < 1e-12


def test_normal_cdf_symmetry_and_monotonicity():
    rng = np.random.RandomState(0)
    xs = np.sort(rng.uniform(-6, 6, size=200))
    values = [normal_cdf(float(x)) for x in xs]
    for x, value in zip(xs, values):
        assert abs(value + normal_cdf(float(-x)) - 1.0) < 1e-14
    assert all(a < b for a, b in zip(values, values[1:]))


def test_normal_cdf_rejects_non_finite():
    with pytest.raises(ValidationError):
        normal_cdf(float("nan"))
    with pytest.raises(ValidationError):
        normal_cdf(float("inf"))


# ------------------------------------------------------ normal_quantile


def test_normal_quantile_known_points():
    assert normal_quantile(0.5) == 0.0
    assert abs(normal_quantile(0.975) - 1.959964) < 1e-6
    assert abs(normal_quantile(0.95) - 1.644854) < 1e-6


def test_normal_quantile_round_trip():
    rng = np.random.RandomState(1)
    for q in rng.uniform(0.001, 0.999, size=100):
        assert abs(normal_cdf(normal_quantile(float(q))) - q) < 1e-10


def test_normal_quantile_rejects_out_of_range():
    for q in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValidationError):
            normal_quantile(q)


def test_z_crit_default_level():
    assert abs(z_crit() - 1.959963984540054) < 1e-12
    assert abs(z_crit(0.90) - normal_quantile(0.95)) < 1e-15


# ------------------------------------------------------- quantile_type6


def test_quantile_type6_single_element():
    for q in (0.0, 0.25, 0.5, 1.0):
        assert quantile_type6([7.0], q) == 7.0


def test_quantile_type6_interpolation():
    values = list(range(1, 10))  # n=9, h = 10q
    assert quantile_type6(values, 0.25) == 2.5
    assert quantile_type6(values, 0.5) == 5.0
    assert quantile_type6(values, 0.75) == 7.5


def test_quantile_type6_clamps_to_extremes():
    values = [3.0, 1.0, 2.0]
    assert quantile_type6(values, 0.0) == 1.0
    assert quantile_type6(values, 1.0) == 3.0
    assert quantile_type6(values, 0.01) == 1.0  # h = 0.04 < 1


def test_quantile_type6_ignores_input_order():
    assert quantile_type6([5.0, 1.0, 4.0, 2.0, 3.0], 0.5) == 3.0


def test_quantile_type6_monotone_and_bounded():
    rng = np.random.RandomState(2)
    values = rng.uniform(-10, 10, size=37).tolist()
    results = [quantile_type6(values, q) for q in np.linspace(0, 1, 41)]
    assert all(a <= b + 1e-12 for a, b in zip(results, results[1:]))
    assert min(values) <= results[0] and results[-1] <= max(values)


def test_quantile_type6_empty_is_error():
    with pytest.raises(ValidationError):
        quantile_type6([], 0.5)


# ----------------------------------------------------------------- fwer


def test_fwer_known_values():
    assert fwer(1, 0.05) == pytest.approx(0.05, abs=1e-15)
    assert fwer(500, 0.05) > 0.999
    assert abs(fwer(500, 0.005) - 0.918) < 0.001


def test_fwer_monotone_in_n_and_alpha():
    values = [fwer(n, 0.05) for n in range(1, 200)]
    assert all(a < b for a, b in zip(values, values[1:]))
    values = [fwer(20, a) for a in np.linspace(0.001, 0.5, 50)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_fwer_vanishes_with_alpha():
    assert fwer(100, 1e-12) < 1e-9


def test_fwer_validation():
    with pytest.raises(ValidationError):
        fwer(0, 0.05)
    with pytest.raises(ValidationError):
        fwer(10, 0.0)
    with pytest.raises(ValidationError):
        fwer(10, 1.0)


# ------------------------------------------------------- bonferroni_line


def test_bonferroni_line_known_values():
    line = bonferroni_line(0.05, 66)
    assert abs(line.neg_log10 - 3.12) < 0.005
    assert line.threshold == pytest.approx(0.05 / 66, rel=1e-15)

    line = bonferroni_line(0.05, 1)
    assert line.threshold == 0.05
    assert abs(line.neg_log10 - 1.301) < 0.001

    assert bonferroni_line(0.05, 204).threshold == pytest.approx(2.451e-4, abs=1e-7)


def test_bonferroni_line_validation():
    with pytest.raises(ValidationError):
        bonferroni_line(0.05, 0)
    with pytest.raises(ValidationError):
        bonferroni_line(1.5, 10)


# -------------------------------------------------------- EffectEstimate


def test_effect_estimate_validation():
    with pytest.raises(ValidationError):
        EffectEstimate(label="x", rr=-1.0, ci_low=0.5, ci_high=1.5)
    with pytest.raises(ValidationError):
        EffectEstimate(label="x", rr=1.0, ci_low=1.1, ci_high=1.5)
    with pytest.raises(ValidationError):
        EffectEstimate(label="x", rr=1.0, ci_low=0.9, ci_high=0.95)
    with pytest.raises(ValidationError):
        EffectEstimate(label="x", rr=1.0, ci_low=0.9, ci_high=1.1, level=1.0)


def test_effect_estimate_accepts_boundary_rr():
    EffectEstimate(label="x", rr=1.0, ci_low=1.0, ci_high=1.1)


# ------------------------------------------------------- p_from_estimate


def test_p_from_estimate_null_effect():
    back = p_from_estimate(
        EffectEstimate(label="null", rr=1.0, ci_low=0.9, ci_high=1 / 0.9)
    )
    assert back.z == 0.0
    assert back.p == 1.0
    assert back.log_effect == 0.0


def test_p_from_estimate_case_rows_match_oracle():
    rows = [
        ("CO", 1.048, 1.026, 1.070),
        ("NO2", 1.011, 1.006, 1.016),
        ("SO2", 1.010, 1.003, 1.017),
        ("PM10", 1.006, 1.002, 1.009),
        ("PM2.5", 1.025, 1.015, 1.036),
        ("ozone", 1.003, 0.997, 1.010),
    ]
    for label, rr, lo, hi in rows:
        back = p_from_estimate(EffectEstimate(label=label, rr=rr, ci_low=lo, ci_high=hi))
        expected = oracles.p_from_ci(str(rr), str(lo), str(hi))
        assert back.p == pytest.approx(expected, rel=1e-9), label


def test_p_from_estimate_magnitudes():
    ozone = p_from_estimate(
        EffectEstimate(label="ozone", rr=1.003, ci_low=0.997, ci_high=1.010)
    )
    assert abs(ozone.p - 0.365) < 0.001
    pm10 = p_from_estimate(
        EffectEstimate(label="PM10", rr=1.006, ci_low=1.002, ci_high=1.009)
    )
    assert abs(pm10.p - 7.6e-4) < 0.05e-4


def test_p_from_estimate_round_trip_z():
    rng = np.random.RandomState(3)
    for _ in range(200):
        z = float(rng.uniform(-6, 6))
        se = float(rng.uniform(0.01, 1.0))
        level = float(rng.uniform(0.5, 0.999))
        crit = z_crit(level)
        center = z * se
        estimate = EffectEstimate(
            label="t",
            rr=math.exp(center),
            ci_low=math.exp(center - crit * se),
            ci_high=math.exp(center + crit * se),
            level=level,
        )
        back = p_from_estimate(estimate)
        assert abs(back.z - z) < 1e-9
        assert abs(back.se - se) < 1e-9


def test_p_from_estimate_monotone_in_effect():
    # fixed log-scale CI width, growing |ln rr| => strictly smaller p
    width = 0.1
    previous = None
    for shift in np.linspace(0.0, 0.5, 20):
        estimate = EffectEstimate(
            label="t",
            rr=math.exp(shift),
            ci_low=math.exp(shift - width),
            ci_high=math.exp(shift + width),
        )
        p = p_from_estimate(estimate).p
        if previous is not None:
            assert p < previous
        previous = p


def test_p_from_estimate_clamps_at_floor():
    back = p_from_estimate(
        EffectEstimate(label="t", rr=math.exp(60.0), ci_low=math.exp(59.9), ci_high=math.exp(60.1))
    )
    assert back.p == P_FLOOR


def test_p_from_estimate_degenerate_interval():
    with pytest.raises(DegenerateIntervalError):
        p_from_estimate(EffectEstimate(label="t", rr=1.0, ci_low=1.0, ci_high=1.0))


# ------------------------------------------- coercion at the boundary


def test_pvalue_record_stores_p_as_float():
    p = PValueRecord(citation=1, author="a", endpoint="x", p="0.5").p
    assert type(p) is float and p == 0.5


def test_effect_estimate_stores_floats():
    given = EffectEstimate("a", "1.2", "1.1", "1.3", "0.9")
    assert given == EffectEstimate("a", 1.2, 1.1, 1.3, 0.9)
    assert all(type(v) is float for v in (given.rr, given.ci_low, given.ci_high, given.level))
    assert p_from_estimate(EffectEstimate("a", "1.2", "1.1", "1.3")) == p_from_estimate(
        EffectEstimate("a", 1.2, 1.1, 1.3)
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: PValueRecord(citation=1, author="a", endpoint="x", p="abc"),
        lambda: PValueRecord(citation=1, author="a", endpoint="x", p=None),
        lambda: EffectEstimate("a", None, 1.1, 1.3),
        lambda: EffectEstimate("a", "abc", 1.1, 1.3),
    ],
    ids=["p-abc", "p-None", "rr-None", "rr-abc"],
)
def test_non_numbers_are_validation_errors(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize("bad", [True, "3"])
@pytest.mark.parametrize(
    "name,build",
    [
        ("citation", lambda v: PValueRecord(citation=v, author="a", endpoint="x", p=0.5)),
        ("citation", lambda v: StudyCounts(v, "a", 1, 1, 0, 1)),
        ("m", lambda v: SimConfig(regime="null", m=v, seed=1)),
        ("k", lambda v: i2(3.0, v)),
        ("n_tests", lambda v: fwer(v)),
        ("m_tests", lambda v: bonferroni_line(0.05, v)),
    ],
)
def test_integer_fields_reject_bool_and_str(name, build, bad):
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        build(bad)

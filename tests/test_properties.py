"""Property tests of the command-line contract: any input bytes, any
integer, float or seed setting, and effects whose intervals span many orders
of magnitude give exit 0 or 2, an exit 2 prints exactly one stderr line and
leaves no ``--out`` directory, and no exception escapes ``main``. Then two
invariants of the shape diagnostics on arbitrary series, and two of the
statistics: the ``p_from_estimate`` round trip, and DerSimonian-Laird pooling
with tau2 = 0 equal to fixed-effect pooling."""

import bisect
import contextlib
import io
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metaaudit import (
    EffectEstimate,
    PValuePlotSeries,
    bilinearity_fit,
    case_effects_path,
    case_pvalues_path,
    p_from_estimate,
    pool_fixed,
    pool_random_dl,
    uniformity_ks,
    z_crit,
)
from metaaudit.cli import main

# Reproducible, and no example database is written.
SETTINGS = settings(derandomize=True, database=None, max_examples=200, deadline=None)

HEADERS = {
    "spaces": "citation,author,outcomes,predictors,covariates,lags",
    "pplot": "citation,author,endpoint,p,direction_negative",
    "pool": "label,rr,ci_low,ci_high",
    "pfromci": "label,rr,ci_low,ci_high",
    "volcano": "label,rr,ci_low,ci_high",
}
EXTRA_ARGS = {"pplot": ["--endpoint", "x"], "pool": ["--method", "dl"]}


def run_main(argv):
    """``main(argv)`` in a fresh output directory; returns (exit code, stderr).

    A command line the parser rejects counts with the exit code it raises. An
    exit 2 must leave no ``--out`` directory behind.
    """
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        out = Path(tmp) / "out"
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        assert code != 2 or not out.exists(), argv
    return code, err.getvalue()


def assert_contract(code, err):
    assert code in (0, 2), err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err


# Cells that reach the parsers: numbers, booleans, blanks, quotes and separators.
CSV_TEXT = st.text(alphabet=st.sampled_from(list('0123456789.-+eEinfatrusxX ,"\n\r#')),
                   max_size=200)


@SETTINGS
@given(
    command=st.sampled_from(sorted(HEADERS)),
    header=st.booleans(),
    body=st.one_of(st.binary(max_size=200), CSV_TEXT.map(str.encode)),
)
def test_any_input_bytes_keep_the_exit_contract(command, header, body):
    data = (HEADERS[command] + "\n").encode() + body if header else body
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_bytes(data)
        code, err = run_main([command, "--in", str(path), *EXTRA_ARGS.get(command, [])])
    assert_contract(code, err)


# Past sys.maxsize // 8 values an array cannot be indexed; 10**400 is past the float range.
INTS = st.sampled_from([0, -1, 1, 30, 2**40, 10**400])


def small_or_unindexable(m_replicates):
    # Anything in between would be a real allocation of terabytes.
    values = m_replicates[0] * m_replicates[1]
    return values <= 1000 or values * 8 > sys.maxsize


@SETTINGS
@given(
    regime=st.sampled_from(["null", "phack", "mixture"]),
    m_replicates=st.tuples(INTS, INTS).filter(small_or_unindexable),
    s_tests=st.one_of(st.none(), INTS),
)
def test_any_simulate_integers_keep_the_exit_contract(regime, m_replicates, s_tests):
    m, replicates = m_replicates
    argv = ["simulate", "--regime", regime, "--m", str(m), "--replicates", str(replicates),
            "--seed", "1"]
    if s_tests is not None:
        argv += ["--s-tests", str(s_tests)]
    assert_contract(*run_main(argv))


@SETTINGS
@given(m_tests=INTS)
def test_any_volcano_m_tests_keeps_the_exit_contract(m_tests):
    argv = ["volcano", "--in", str(case_effects_path()), "--m-tests", str(m_tests)]
    assert_contract(*run_main(argv))


# Config lines: known keys with short values (so that no draw is large), unknown
# keys, lines without '=', comments, and raw bytes.
CONFIG_LINE = st.one_of(
    st.builds("{}={}".format,
              st.sampled_from(["regime", "m", "seed", "delta", "s_tests", "pi", "replicates",
                               "mix_component", "x", " m ", ""]),
              st.one_of(st.sampled_from(["null", "effect", "phack", "mixture"]),
                        st.text(alphabet="0123456789.-+eEinfa ", max_size=4))),
    st.sampled_from(["", "# comment", "m 5", "=", "regime=null=1"]),
).map(str.encode)


@SETTINGS
@given(body=st.one_of(st.binary(max_size=200),
                      st.lists(st.one_of(CONFIG_LINE, st.binary(max_size=8)), max_size=8)
                      .map(b"\n".join)))
def test_any_simulate_config_bytes_keep_the_exit_contract(body):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sim.cfg"
        path.write_bytes(body)
        argv = ["simulate", "--in", str(path), "--m", "6", "--replicates", "1"]
        assert_contract(*run_main(argv))


# Every float, NaN and both infinities included. Passed as --flag=<repr> so
# that a leading '-' reaches the parser as a value.
FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, 1.0, 0.05, 0.5, 1e-300, 5e-324, 1e300]))


@SETTINGS
@given(command=st.sampled_from(["pplot", "volcano", "report"]), alpha=FLOATS)
def test_any_alpha_keeps_the_exit_contract(command, alpha):
    argv = {
        "pplot": ["pplot", "--in", str(case_pvalues_path()), "--endpoint", "NO2"],
        "volcano": ["volcano", "--in", str(case_effects_path())],
        "report": ["report", "--fixtures"],
    }[command]
    assert_contract(*run_main(argv + [f"--alpha={alpha!r}"]))


@SETTINGS
@given(flag=st.sampled_from(["delta", "pi"]), value=FLOATS)
def test_any_simulate_float_keeps_the_exit_contract(flag, value):
    regime = "effect" if flag == "delta" else "mixture"
    argv = ["simulate", "--regime", regime, "--m", "6", "--replicates", "1", "--seed", "1",
            f"--{flag}={value!r}"]
    assert_contract(*run_main(argv))


@SETTINGS
@given(seed=st.one_of(st.integers(), st.sampled_from([-1, 0, 2**64 - 1, 2**64, 10**400])))
def test_any_seed_keeps_the_exit_contract(seed):
    argv = ["simulate", "--regime", "null", "--m", "6", "--replicates", "1", f"--seed={seed!r}"]
    assert_contract(*run_main(argv))


# One effects row: a log risk ratio up to +-700, the log half-width of its interval,
# from 1e-16 to about 100, so that one study's weight may dwarf the others' and bounds
# near 1e300 may differ while their logs round alike, and an optional level, so small
# at 1e-300 and 1e-17 that its critical value rounds to 0. The extremes are also
# drawn as samples, so that the derandomized run reaches them. The bounds are
# rr * exp(+-half): a half-width below an ulp of log(rr) still moves them.
EFFECT_ROWS = st.lists(
    st.tuples(
        st.one_of(st.floats(-700.0, 700.0), st.sampled_from([-700.0, 700.0, math.log(1e300)])),
        st.one_of(st.builds(float.__mul__, st.floats(1.0, 10.0, exclude_max=True),
                            st.integers(-16, 1).map(lambda e: 10.0**e)),
                  st.sampled_from([1e-16, 2e-16, 1e-8])),
        st.one_of(st.none(), st.floats(0.0, 1.0), st.sampled_from([0.95, 1e-300, 1e-17])),
    ),
    min_size=2, max_size=6,
)


@SETTINGS
@given(rows=EFFECT_ROWS)
def test_effects_of_any_interval_width_keep_the_exit_contract(rows):
    levels = any(level is not None for _, _, level in rows)
    lines = ["label,rr,ci_low,ci_high" + ",level" * levels]
    for index, (log_rr, half, level) in enumerate(rows):
        rr = math.exp(log_rr)
        cells = [repr(rr), repr(rr * math.exp(-half)), repr(rr * math.exp(half))]
        if levels:
            cells.append("" if level is None else repr(level))
        lines.append(f"s{index}," + ",".join(cells))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "effects.csv"
        path.write_text("\n".join(lines) + "\n")
        for argv in (["pool", "--method", "dl"], ["pool", "--method", "fixed"], ["volcano"],
                     ["pfromci"]):
            assert_contract(*run_main([*argv, "--in", str(path)]))


def ecdf_distance(p):
    """sup |F(x) - x| of the empirical CDF F of ``p``, from its limits at each value."""
    p = sorted(p)
    m = len(p)
    return max(max(bisect.bisect_right(p, x) / m - x, x - bisect.bisect_left(p, x) / m)
               for x in p)


# P-values in (0, 1], with ties and 1.0 drawn often.
SERIES = st.lists(
    st.one_of(st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
              st.sampled_from([1.0, 0.5, 0.05, 1e-300, 5e-324])),
    min_size=6, max_size=60,
)


@SETTINGS
@given(p=SERIES)
def test_ks_distance_is_the_empirical_cdf_distance(p):
    assert uniformity_ks(PValuePlotSeries("x", p)).d_stat == ecdf_distance(p)


@SETTINGS
@given(p=SERIES)
def test_bilinearity_ratio_lies_in_the_unit_interval(p):
    assert 0.0 <= bilinearity_fit(PValuePlotSeries("x", p)).ratio <= 1.0


def estimate(log_rr, se, level=0.95):
    """The estimate whose interval is ``log_rr +- z_crit(level) * se`` on the log scale."""
    crit = z_crit(level)
    return EffectEstimate(label="t", rr=math.exp(log_rr), ci_low=math.exp(log_rr - crit * se),
                          ci_high=math.exp(log_rr + crit * se), level=level)


@SETTINGS
@given(z=st.floats(-6.0, 6.0), se=st.floats(0.01, 1.0), level=st.floats(0.5, 0.999))
def test_p_from_estimate_recovers_z_and_se(z, se, level):
    back = p_from_estimate(estimate(z * se, se, level))
    assert abs(back.z - z) < 1e-9
    assert abs(back.se - se) < 1e-9


# Why DL with tau2 = 0 can differ from fixed pooling, and by how much at most.
# u = 2**-53 is the unit roundoff, and g(n) = n*u / (1 - n*u) bounds the relative
# error of n roundings (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
# ed., Lemma 3.1). Both methods start from the same weights w_i = 1/se_i**2 and
# log risk ratios y_i, and compute the same Q, so k, Q and I2 agree exactly.
#
# Weights: fixed pooling uses w_i; DL uses fl(1/fl(1/w_i + 0.0)) = w_i (1+e2)/(1+e1),
# |e1|, |e2| <= u. So each DL weight is w_i (1 + d_i), with 1 + d_i in [1/rho, rho],
# rho = (1+u)/(1-u): |d_i| <= d = rho - 1 = 2u/(1-u), about one ulp. (Here w_i is
# itself a reciprocal, and for those 1/(1/w_i) has returned w_i in every case tried;
# the bound does not rely on that.)
#
# pooled_log = fl(fl(sum fl(w_i y_i)) / fl(sum w_i)). With k - 1 roundings per sum
# (Python 3.11's sum; the compensated sum of 3.12 is more accurate), the numerator
# is off by at most g(k) * W * M and the denominator W = sum w_i by a factor 1 + a,
# |a| <= g(k-1), where M = max |y_i|. As |exact mean| <= M, each method's pooled_log
# lies within E = M (g(k)(1+u) + u + g(k-1)) / (1 - g(k-1)) of the exact weighted
# mean of its own weights. Those two exact means differ by
# |sum w_i d_i (y_i - mean) / sum w_i (1+d_i)| <= d * rho * (max y - min y).
# So |pooled_log(DL) - pooled_log(fixed)| <= 2E + d * rho * (max y - min y).
#
# pooled_se = fl(1 / fl(sqrt(fl(sum w)))). The exact weight sums differ by a factor
# in [1/rho, rho] and each computed sum is within 1 +- g(k-1) of its exact sum, so
# the two computed sums differ by a factor in [1/R, R], R = rho (1+g(k-1)) / (1-g(k-1)).
# The square root halves that, and the sqrt and division roundings add a factor in
# [1/rho, rho] for each method: the ratio of the two pooled_se lies in [1/T, T],
# T = rho**2 sqrt(R) <= rho**2 (1 + R) / 2, which keeps the bound a rational number.
U = Fraction(1, 2**53)
RHO = (1 + U) / (1 - U)


def roundings(n):
    return n * U / (1 - n * U)


# Each log risk ratio within one standard error of a common value, so Q <= k
# and tau2 is almost always 0; the rest are skipped.
STUDIES = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.02, 2.0)),
                   min_size=2, max_size=12)


@SETTINGS
@given(center=st.floats(-3.0, 3.0), studies=STUDIES)
def test_dl_with_zero_tau2_is_fixed_effect_pooling(center, studies):
    estimates = [estimate(center + z * se, se) for z, se in studies]
    dl, fixed = pool_random_dl(estimates), pool_fixed(estimates)
    assume(dl.tau2 == 0.0)
    assert (dl.k, dl.q_stat, dl.i2_percent) == (fixed.k, fixed.q_stat, fixed.i2_percent)

    logs = [Fraction(p_from_estimate(e).log_effect) for e in estimates]
    k, d = len(logs), RHO - 1
    e = max(map(abs, logs)) * (roundings(k) * (1 + U) + U + roundings(k - 1)) \
        / (1 - roundings(k - 1))
    log_bound = 2 * e + d * RHO * (max(logs) - min(logs))
    assert abs(Fraction(dl.pooled_log) - Fraction(fixed.pooled_log)) <= log_bound
    r = RHO * (1 + roundings(k - 1)) / (1 - roundings(k - 1))
    se_bound = RHO**2 * (1 + r) / 2 - 1
    assert abs(Fraction(dl.pooled_se) / Fraction(fixed.pooled_se) - 1) <= se_bound

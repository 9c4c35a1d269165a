"""Property tests of the command-line contract: any input bytes and any
integer, float or seed setting give exit 0 or 2, an exit 2 prints exactly one
stderr line and leaves no ``--out`` directory, and no exception escapes
``main``. Last, two invariants of the shape diagnostics on arbitrary series."""

import bisect
import contextlib
import io
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from metaaudit import (
    PValuePlotSeries,
    bilinearity_fit,
    case_effects_path,
    case_pvalues_path,
    uniformity_ks,
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
FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, 1.0, 0.05, 0.5, 1e-300, 1e300]))


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

"""Property tests of the command-line contract: any input bytes and any
integer setting give exit 0 or 2, an exit 2 prints exactly one stderr line,
and no exception escapes ``main``."""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from metaaudit import case_effects_path
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
    """``main(argv)`` in a fresh output directory; returns (exit code, stderr)."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv + ["--out", tmp + "/out"])
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

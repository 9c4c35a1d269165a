"""The two readers of a p-value CSV: the row path and the column path.

``datasets._pvalue_rows`` reads a file row by row through ``csv.reader`` and
is the specification: it checks every row and writes every error message.
``datasets._pvalue_columns`` checks a regular file a column at a time and
hands a pipe, or a file at the first piece it does not take, to the row path
from the start. So ``load_pvalues`` and ``pplot`` must give what the row path
gives on any bytes, or raise its exact message. Then the large-input pins:
the bytes of ``pplot`` on a seeded 20,000-row file, pinned before the column
path existed, and its working memory against the row path's.
"""

import contextlib
import csv
import hashlib
import io
import os
import random
import tempfile
import threading
import tracemalloc
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaaudit import PValueRecord, ValidationError, case_pvalues_path, datasets, load_pvalues
from metaaudit.cli import _endpoint_p, main

SETTINGS = settings(derandomize=True, database=None, max_examples=300, deadline=None)

HEADER = "citation,author,endpoint,p,direction_negative"


def outcome(function, *args):
    """``repr`` of what ``function(*args)`` returns, or the message it raises."""
    try:
        return repr(function(*args))
    except ValidationError as exc:
        return f"ValidationError: {exc}"


@contextlib.contextmanager
def field_size_limit(limit):
    old = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


# ------------------------------------------------------ the two paths agree

# Cells the row path accepts, outer spaces and "<" included.
VALID = [
    st.integers(1, 10**6).map(str),
    st.sampled_from(["A", "", " Braga ", "Lee Jr", "é", "#x", "\ufeffC", "D\x0cE", "F\x1cG",
                     "H\x85I", "L\tM", "<N"]),
    st.sampled_from(["NO2", "NO2", "CO", " CO ", "PM\u2028"]),
    st.one_of(st.floats(0.0, 1.0, exclude_min=True).map(repr),
              st.sampled_from(["<0.001", "< 0.5", " 0.25 ", "1", "1e-300", "1_0e-1", "٠.٥"])),
    st.sampled_from(["true", "false", "FALSE", "True", "1", "0", "yes", "No", " no "]),
]
# Cells it rejects, one list per column; the author column takes any text.
INVALID = [
    st.sampled_from(["", "x", "1.0", "9" * 4400]),
    st.nothing(),
    st.sampled_from([""]),
    st.one_of(st.sampled_from(["<", "<<0.1", "abc", "0", "-0.0", "nan", "inf", "1.5", "0x1p-2"]),
              st.floats(1.0, exclude_min=True).map(repr)),
    st.sampled_from(["", "maybe", "t", "2"]),
]
OTHER_LINES = st.sampled_from(["# a note", "#a,b,c", "", "#"])
# What sends a file, or a piece of it, to the row path. A short row and a field
# size limit below a line's length make the column path refuse a piece that
# the row path reads without error.
FAULTS = ["header", "no header", "quote", "lone CR", "byte", "ragged", "short row", "cell",
          "duplicate", "field limit"]


@st.composite
def pvalue_files(draw):
    """File bytes and a csv field size limit (None for the default).

    A third of the files have no fault, half have one and the rest two, each
    at a random row.
    """
    count = draw(st.sampled_from([0, 0, 1, 1, 1, 2]))
    faults = draw(st.sampled_from(list(combinations(FAULTS, count))))
    rows = []
    for number in range(1, draw(st.integers(0, 12)) + 1):
        cells = [str(number)] + [draw(column) for column in VALID[1:]]
        if draw(st.integers(0, 7)) == 0:  # a blank p cell skips the row, whatever it holds
            cells[3] = draw(st.sampled_from(["", " "]))
            cells[0] = draw(st.one_of(VALID[0], INVALID[0]))
            cells[4] = draw(st.one_of(VALID[4], INVALID[4]))
        rows.append(cells)
    if not rows:
        faults = [fault for fault in faults if fault in ("header", "no header", "lone CR", "byte")]
    pick = st.integers(0, len(rows) - 1)
    if "cell" in faults:
        column = draw(st.sampled_from([0, 2, 3, 3, 4]))
        draw(st.sampled_from(rows))[column] = draw(INVALID[column])
    if "duplicate" in faults:
        first, second = draw(pick), draw(pick)
        rows[second][0], rows[second][2] = rows[first][0], rows[first][2]
    if "quote" in faults:
        cells = draw(st.sampled_from(rows))
        index = draw(st.integers(0, 4))
        cells[index] = '"' + cells[index].replace('"', '""') + '"'
    lines = [",".join(cells) for cells in rows]
    if "ragged" in faults:
        at = draw(pick)
        lines[at] = ",".join(rows[at][:draw(st.integers(1, 4))] if draw(st.booleans())
                             else rows[at] + ["extra"])
    if "short row" in faults:
        short = draw(st.sampled_from(["  ", "7,a", "8,,NO2"]))  # the row path skips each
        lines.insert(draw(st.integers(0, len(lines))), short)
    if "quote" in faults and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), '#"a quote in a comment"')
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(OTHER_LINES))
    header = HEADER if "header" not in faults else draw(st.sampled_from([
        "author,citation,endpoint,p,direction_negative", HEADER + ",level", "citation,p", "",
    ]))
    if draw(st.booleans()):
        header = header.replace(",", " , ")
    lines = draw(st.lists(OTHER_LINES, max_size=2)) + (
        [] if "no header" in faults else [header]) + lines
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n"]))] * len(lines)
    if "lone CR" in faults and lines:
        ends[draw(st.integers(0, len(lines) - 1))] = "\r"
    text = "".join(map(str.__add__, lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode()
    if "byte" in faults:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\x00", b"\xff", b"\xc3"])) + data[at:]
    limit = None
    if "field limit" in faults:  # below a line's length: a field may fit or not
        limit = draw(st.integers(1, len(max(lines, key=len)) or 1))
    return data, limit


@SETTINGS
@given(file=pvalue_files(), piece=st.integers(1, 40))
def test_column_path_gives_what_the_row_path_gives(file, piece):
    data, limit = file
    with tempfile.TemporaryDirectory() as tmp, field_size_limit(limit), \
            mock.patch.object(datasets, "_PIECE_CHARS", piece):
        path = Path(tmp) / "p.csv"
        path.write_bytes(data)
        expected = outcome(list, datasets._pvalue_rows(path))
        records = outcome(lambda: [r.__getstate__() for r in load_pvalues(path)])
        assert records == expected
        if expected.startswith("ValidationError"):
            assert outcome(_endpoint_p, str(path), "NO2") == expected
            return
        rows = list(datasets._pvalue_rows(path))
        for endpoint in {"NO2", *(row[2] for row in rows)}:
            wanted = [row[3] for row in rows if row[2] == endpoint]
            assert outcome(_endpoint_p, str(path), endpoint) == repr(wanted)


@pytest.mark.parametrize("column, cell", [
    (0, ""), (0, "x"), (0, "1.0"), (2, ""), (3, "<"), (3, "<<0.1"), (3, "abc"), (3, "0"),
    (3, "-0.0"), (3, "nan"), (3, "inf"), (3, "-inf"), (3, "1.5"), (4, ""), (4, "maybe"),
])
def test_a_bad_cell_in_a_plain_file_gives_the_row_paths_message(tmp_path, column, cell):
    rows = [["1", "a", "NO2", "0.5", "false"], ["2", "b", "NO2", "0.25", "true"],
            ["1", "c", "CO", "0.125", "false"]]
    rows[1][column] = cell
    path = tmp_path / "p.csv"
    path.write_text(HEADER + "\n" + "".join(",".join(row) + "\n" for row in rows))
    expected = outcome(list, datasets._pvalue_rows(path))
    assert "row 3: " in expected
    assert outcome(load_pvalues, path) == outcome(_endpoint_p, str(path), "NO2") == expected


def test_a_short_row_and_a_long_row_do_not_pair_up(tmp_path):
    # Four cells, then six: ten cells that read as two valid rows if split as one text.
    path = tmp_path / "p.csv"
    path.write_text(HEADER + "\n1,a,NO2,0.5\nfalse,2,b,NO2,0.25,true\n")
    expected = outcome(list, datasets._pvalue_rows(path))
    assert "row 2: field 'direction_negative'" in expected
    assert outcome(load_pvalues, path) == outcome(_endpoint_p, str(path), "NO2") == expected


@pytest.mark.parametrize("data, plain", [
    (HEADER + "\n1,a,x,0.5,false\n", True),
    (HEADER + "\r\n1,a,x,0.5,false\r\n", True),
    (HEADER + "\r1,a,x,0.5,false\r", False),
    (HEADER + "\n1,\"a\",x,0.5,false\n", False),
    (HEADER + "\n1,a\x00,x,0.5,false\n", False),
])
def test_plain_files_have_no_quote_nul_or_lone_cr(tmp_path, data, plain):
    path = tmp_path / "p.csv"
    path.write_text(data, encoding="utf-8", newline="")
    if plain:
        columns = list(datasets._plain_columns(path))
        assert [row for part in columns for row in zip(*part)] == list(datasets._pvalue_rows(path))
    else:
        with pytest.raises(datasets._RowPath):
            list(datasets._plain_columns(path))


def test_a_crlf_split_over_two_pieces_is_plain(tmp_path):
    text = HEADER + "\r\n1,a,x,0.5,false\r\n2,b,x,0.25,true\r\n"
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode())
    # Each piece size in turn ends a piece between a CR and its LF.
    for piece in (len(HEADER) + 1, text.index("\r\n2") + 1):
        assert text[piece - 1:piece + 1] == "\r\n"
        with mock.patch.object(datasets, "_PIECE_CHARS", piece):
            columns = list(datasets._plain_columns(path))
        assert [row for part in columns for row in zip(*part)] == list(datasets._pvalue_rows(path))


@pytest.mark.parametrize("late", ['"', "\x00", "\r"], ids=["quote", "NUL", "lone CR"])
@pytest.mark.parametrize("bad", [False, True], ids=["good", "bad row"])
def test_a_late_quote_nul_or_lone_cr_gives_what_the_row_path_gives(tmp_path, late, bad):
    lines = [HEADER] + [f"{n},a{n},NO2,0.5,false" for n in range(1, 41)]
    if bad:
        lines[35] = lines[35].replace("0.5", "1.5")
    if late == "\r":  # a line end of its own
        lines[30:32] = [lines[30] + late + lines[31]]
    else:
        lines[30] = lines[30].replace(",a30,", f",a{late}30,")
    path = tmp_path / "p.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode())
    with mock.patch.object(datasets, "_PIECE_CHARS", 64):
        assert next(datasets._plain_columns(path))  # the first piece takes the column path
        expected = outcome(list, datasets._pvalue_rows(path))
        assert ("row 36: " in expected) is bad
        records = outcome(lambda: [r.__getstate__() for r in load_pvalues(path)])
        assert records == expected
        wanted = expected if bad else repr([0.5] * 40)
        assert outcome(_endpoint_p, str(path), "NO2") == wanted


@pytest.mark.parametrize("load", [load_pvalues, lambda path: _endpoint_p(str(path), "NO2")],
                         ids=["load_pvalues", "pplot"])
def test_a_plain_file_is_opened_once(load):
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    with mock.patch.object(datasets, "open", counting_open, create=True):
        load(case_pvalues_path())
    assert opened == [case_pvalues_path()]


def test_the_bundled_file_takes_the_column_path():
    path = case_pvalues_path()
    columns = list(datasets._plain_columns(path))  # raises _RowPath if a piece is refused
    assert [row for part in columns for row in zip(*part)] == list(datasets._pvalue_rows(path))


def test_a_pipe_is_read_once_by_the_row_path(tmp_path):
    fifo = tmp_path / "p.csv"
    os.mkfifo(fifo)
    text = case_pvalues_path().read_text(encoding="utf-8")
    writer = threading.Thread(target=fifo.write_text, args=(text,), kwargs={"encoding": "utf-8"})
    writer.start()
    try:
        records = load_pvalues(fifo)
    finally:
        writer.join()
    assert records == load_pvalues(case_pvalues_path())


def test_loaded_records_equal_records_built_with_the_checks():
    records = load_pvalues(case_pvalues_path())
    rows = datasets._pvalue_rows(case_pvalues_path())
    assert records == [PValueRecord(*fields) for fields in rows]
    assert [type(record) for record in records] == [PValueRecord] * len(records)


# ----------------------------------------------------------- large inputs

ROWS, SEED = 20_000, 2305
LARGE_ENDPOINTS = ("NO2",) * 16 + ("CO", "PM10", "SO2", "ozone")


def write_large_pvalues(path, rows=ROWS, seed=SEED):
    """A seeded hockey-stick file: 0.5% blank p cells, 1% "<0.001", a quarter small p."""
    rng = random.Random(seed)
    lines = [HEADER]
    for citation in range(1, rows + 1):
        endpoint = rng.choice(LARGE_ENDPOINTS)
        u = rng.random()
        if u < 0.005:
            cell = ""
        elif u < 0.015:
            cell = "<0.001"
        elif u < 0.265:
            cell = repr(0.05 * (1.0 - rng.random()) ** 3)
        else:
            cell = repr(1.0 - rng.random())
        negative = "true" if rng.random() < 0.2 else "false"
        lines.append(f"{citation},A{rng.randrange(10**6)},{endpoint},{cell},{negative}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def large_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("large") / "pvalues.csv"
    write_large_pvalues(path)
    return path


# Taken with the row path, before the column path existed.
LARGE_INPUT = "998c0f186ee81e0ac344096e0e2612030eec92c267e6e5f5ea81294b5d78676a"
LARGE_GOLDEN = {
    "diagnostics.csv": "97efa03373880c3ab04d172aaf9d3a87a3fefe5389978b572d1fae567cb8c77c",
    "pplot_NO2.csv": "b3a4428af410164b361ce6a1cebfd4fb55641a8d9db1ac2dd0be470e6c128b81",
    "pplot_NO2.svg": "8d917b017214c02e7ea2acf30425ffb6cd18e23cfeac1f69ed284031beacf641",
}
LARGE_STDOUT = "8f9031ff9c545ea0a52c2695da0651e19bb77125863a68a15328be07cfce275c"


def test_large_pplot_matches_golden_hashes(large_file, tmp_path):
    assert hashlib.sha256(large_file.read_bytes()).hexdigest() == LARGE_INPUT
    out = tmp_path / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["pplot", "--in", str(large_file), "--endpoint", "NO2", "--out", str(out)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert written == LARGE_GOLDEN
    text = stdout.getvalue().replace(str(out), "<out>")
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_STDOUT


def peak_bytes(function, *args):
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def row_path_p(path, endpoint):
    return [p for _, _, name, p, _, _ in datasets._pvalue_rows(path) if name == endpoint]


def row_path_records(path):
    return [PValueRecord(*fields) for fields in datasets._pvalue_rows(path)]


@pytest.mark.parametrize("load, row_load", [
    (lambda path: _endpoint_p(str(path), "NO2"), lambda path: row_path_p(path, "NO2")),
    (load_pvalues, row_path_records),
], ids=["pplot", "load_pvalues"])
def test_column_path_memory_stays_within_the_row_paths(large_file, load, row_load):
    list(datasets._plain_columns(large_file))  # the file takes the column path
    assert peak_bytes(load, large_file) <= 1.1 * peak_bytes(row_load, large_file)

"""CSV ingestion and serialization of the three dataset shapes.

Three file schemas, all plain comma-separated UTF-8 with a header row,
optional comments (records whose first line starts with an unquoted ``#``)
and no row longer than the header. Each schema is the fields of the record
its rows load as, in order, and ``_parse`` parses and words every number and
boolean cell:

* counts: ``citation,author,outcomes,predictors,covariates,lags`` with
  optional ``space1,space2,space3`` columns. Printed space columns are
  never trusted as data; they are recomputed on load and any mismatch is
  an error.
* p-values: ``citation,author,endpoint,p,direction_negative``. A blank p
  cell yields no record; a cell like ``<0.001`` loads as the bound with
  the truncated flag set.
* effects: ``label,rr,ci_low,ci_high`` with optional ``level`` (default
  0.95).

p-value files have two readers. ``_pvalue_rows`` reads row by row through
``csv.reader``; it is the specification, and the only code that words a
p-value row error. ``_pvalue_columns``, which ``load_pvalues`` and ``pplot``
call, checks a regular file a column at a time with builtins, in pieces of
whole lines, and hands the file to ``_pvalue_rows`` from the start at the
first piece it does not take, such as one that holds a ``"``, a NUL or a CR
outside a CRLF line end.

One formatter, ``_table_text``, formats the ``save_*`` files and the tables
of the command line, all but the two long number tables, which
``_ranked_lines`` and ``_pvalue_lines`` write in the same format.
``_read_config`` reads the ``key=value`` settings file of ``simulate``. One
primitive, ``_write_text``, writes every file that the package writes, and no
other module opens a file.

The package bundles a transcription of a well-known case study: the 34
base papers of a 2012 meta-analysis of main air pollutants and myocardial
infarction (JAMA 307(7):713-721), as variable counts, 104 reported
p-values across six pollutants, and the six pooled risk ratios.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import compress, islice, repeat
from pathlib import Path
from typing import Container, Iterable, Iterator, Sequence

from .diagnostics import PValuePlotSeries, PValueRecord, _check_reported
from .errors import ValidationError
from .searchspace import SearchSpace, StudyCounts, compute_space
from .statcore import EffectEstimate, _Record

__all__ = [
    "Dataset",
    "case_counts_path",
    "case_effects_path",
    "case_pvalues_path",
    "load_case_dataset",
    "load_counts",
    "load_dataset",
    "load_effects",
    "load_pvalues",
    "save_counts",
    "save_effects",
    "save_pvalues",
]


class Dataset(_Record):
    """The three record collections, checked for duplicate keys."""

    __slots__ = ("counts", "pvalues", "effects")

    def __init__(
        self, counts: list[StudyCounts], pvalues: list[PValueRecord],
        effects: list[EffectEstimate],
    ) -> None:
        seen_citations = set()
        for record in counts:
            if record.citation in seen_citations:
                raise ValidationError(f"duplicate citation {record.citation} in counts")
            seen_citations.add(record.citation)
        seen_keys = set()
        for record in pvalues:
            key = (record.citation, record.endpoint)
            if key in seen_keys:
                raise ValidationError(
                    f"duplicate (citation, endpoint) = {key} in p-value records"
                )
            seen_keys.add(key)
        self._set_fields((counts, pvalues, effects))


def _data_rows(path: Path) -> Iterator[tuple[int, list[str]]]:
    """Yield (record number, cells) of the header and data rows.

    A record whose first line starts with an unquoted ``#`` is a comment;
    comments and blank records are skipped. Every record counts, comments and
    blanks included, as a spreadsheet counts rows; a quoted cell that spans
    lines makes later records lag their lines. A data row longer than the
    header is an error; a shorter one is padded with blank cells to its width.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        record_lines: list[str] = []

        def lines() -> Iterator[str]:
            # csv.reader takes one line at a time, so this collects one record's lines.
            for line in handle:
                record_lines.append(line)
                yield line

        reader = csv.reader(lines())
        width = None
        try:
            for lineno, row in enumerate(reader, start=1):
                first_line = record_lines[0]
                record_lines.clear()
                if not row or first_line.startswith("#"):
                    continue
                if width is None:
                    width = len(row)
                elif len(row) > width:
                    raise ValidationError(
                        f"{path}: row {lineno}: {len(row)} cells, but the header has {width}"
                    )
                yield lineno, [*map(str.strip, row), *("",) * (width - len(row))]
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None


def _open_table(
    path: str | Path, required: tuple[str, ...], optional: tuple[str, ...]
) -> tuple[Path, dict[str, int], Iterator[tuple[int, list[str]]]]:
    """Read the header row; return the path, the column indexes and the data rows."""
    path = Path(path)
    rows = _data_rows(path)
    try:
        _, header = next(rows)
    except StopIteration:
        raise ValidationError(f"{path}: empty file, expected a header row") from None
    columns = {name: index for index, name in enumerate(header)}
    missing = [name for name in required if name not in columns]
    if missing:
        raise ValidationError(f"{path}: header is missing column(s) {', '.join(missing)}")
    unknown = [name for name in header if name not in required + optional]
    if unknown:
        raise ValidationError(f"{path}: unexpected column(s) {', '.join(unknown)}")
    return path, columns, rows


# Each boolean cell, lowered, and the value it means.
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _bool(raw: str) -> bool:
    return _BOOLS[raw.lower()]


# Each cell parser, and what a cell it cannot parse is not.
_IS_NOT = {int: "an integer", float: "a number", _bool: "a boolean"}


def _parse(parse, raw: str, name: str, where: str = "field"):
    """``parse(raw)``; a cell it cannot parse raises, named ``{where} '{name}'``."""
    try:
        return parse(raw)
    except (ValueError, KeyError):
        raise ValidationError(f"{where} '{name}': not {_IS_NOT[parse]}: {raw!r}") from None


def _table_text(header: Iterable[str], rows: Iterable[Sequence]) -> str:
    """Format a header row and data rows as CSV text.

    Lines end in a bare line feed, and a cell is quoted only when it holds a
    comma, a quote or a line break, or when a row starts with ``#``, which
    bare would make the row a comment. Numbers are written by ``str``, which
    for a float is its shortest round-tripping form.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    quote_all = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(header)
    for row in rows:
        first = row[0]
        (quote_all if isinstance(first, str) and first.startswith("#") else writer).writerow(row)
    return buffer.getvalue()


def _write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """Write text chunks to ``path`` as UTF-8, line ends as given; no other code writes a file."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(chunks)


# The two long tables, joined by hand, not by _table_text: every cell is a number or a
# name that needs no quoting, so the bytes are the same, and the hand join took 0.081
# against 0.117 s on 79,600 (rank, p) rows and 0.26 against 0.57 s on the 300,000 rows
# of a 10,000-replicate simulate run (best of 5 and of 3, Python 3.11.7, 2-vCPU x86-64 VM).
def _ranked_lines(series: PValuePlotSeries) -> Iterator[str]:
    """Yield the pplot CSV: its header, then every (rank, p) row as one text."""
    yield "rank,p\n"
    yield "".join(map("%d,%r\n".__mod__, enumerate(series.p, start=1)))


def _pvalue_lines(p, endpoint: str, author: str) -> Iterator[str]:
    """Yield the pvalues.csv header, then one replicate's text, a row of ``p``, at a time."""
    yield "replicate,citation,author,endpoint,p\n"
    middles = [f",{study},{author},{endpoint}," for study in range(1, p.shape[1] + 1)]
    for index, row in enumerate(p):
        prefix = str(index)
        yield "".join([
            prefix + middle + value + "\n"
            for middle, value in zip(middles, map(repr, row.tolist()))
        ])


_COUNT_COLUMNS = StudyCounts.__slots__
_SPACE_COLUMNS = SearchSpace._fields


def load_counts(path: str | Path) -> list[StudyCounts]:
    """Load study variable counts from CSV.

    Any ``space1/space2/space3`` columns present are recomputed from the
    counts and must match; they are otherwise ignored.

    Parameters
    ----------
    path : str or Path

    Returns
    -------
    list of StudyCounts

    Raises
    ------
    ValidationError
        Malformed header, unparseable field, printed space mismatch, or
        duplicate citation; messages name the row and field.
    """
    path, columns, rows = _open_table(path, _COUNT_COLUMNS, _SPACE_COLUMNS)
    cells = [(str if name == "author" else int, columns[name], name) for name in _COUNT_COLUMNS]
    records: list[StudyCounts] = []
    seen: set[int] = set()
    for lineno, row in rows:
        try:
            record = StudyCounts(*[_parse(parse, row[i], name) for parse, i, name in cells])
            for name, computed in zip(_SPACE_COLUMNS, compute_space(record)):
                raw = row[columns[name]] if name in columns else ""
                printed = _parse(int, raw, name) if raw else computed
                if printed != computed:
                    raise ValidationError(
                        f"field '{name}': printed value {printed} "
                        f"does not match recomputed {computed}"
                    )
            if record.citation in seen:
                raise ValidationError(f"duplicate citation {record.citation}")
        except ValidationError as exc:
            raise type(exc)(f"{path}: row {lineno}: {exc}") from None
        seen.add(record.citation)
        records.append(record)
    return records


_PVALUE_COLUMNS = PValueRecord.__slots__[:-1]  # truncated is the p cell's "<"


def _pvalue_rows(path: str | Path) -> Iterator[tuple[int, str, str, float, bool, bool]]:
    """Yield the ``PValueRecord`` fields of each row with a p cell, every row validated.

    The first bad field raises with its row, checked in the order p, citation,
    direction_negative, ``_check_reported``, unique (citation, endpoint).
    """
    path, columns, rows = _open_table(path, _PVALUE_COLUMNS, ())
    i_citation, i_author, i_endpoint, i_p, i_negative = [columns[n] for n in _PVALUE_COLUMNS]
    seen: set[tuple[int, str]] = set()
    for lineno, row in rows:
        raw_p = row[i_p]
        if not raw_p:
            continue
        try:
            truncated = raw_p.startswith("<")
            p = _parse(float, raw_p[1:] if truncated else raw_p, "p")
            citation = _parse(int, row[i_citation], "citation")
            negative = _parse(_bool, row[i_negative], "direction_negative")
            endpoint = row[i_endpoint]
            p = _check_reported(citation, endpoint, p)
            key = (citation, endpoint)
            if key in seen:
                raise ValidationError(f"duplicate (citation, endpoint) = {key}")
        except ValidationError as exc:
            raise type(exc)(f"{path}: row {lineno}: {exc}") from None
        seen.add(key)
        yield citation, row[i_author], endpoint, p, negative, truncated


# The column path reads a file this many characters at a time, each piece
# extended to the end of its last line. Below csv's default field size limit, so
# that only a piece with a longer line needs its lines measured; 2**18 read 1.26
# times the row path's tracemalloc peak on a 20,000-row file, 2**16 read 0.96.
_PIECE_CHARS = 1 << 16


class _RowPath(Exception):
    """A piece of a file that the column path does not take."""


def _plain_columns(path: Path) -> Iterator[tuple[list, ...]]:
    """Yield the ``_pvalue_rows`` fields of a file as six columns, a piece at a time.

    Each check runs over a whole column with builtins, in any order; the first
    that fails raises ``_RowPath``, and so does anything that the row path
    might read differently: a piece that holds a ``"``, a NUL or a CR outside a
    CRLF line end, a header that is not exactly the five columns, a line with
    other than five cells or longer than ``csv.field_size_limit()``, or text
    that is not UTF-8. Every endpoint goes through one dict, so that the key
    set holds one string per distinct endpoint.
    """
    limit = csv.field_size_limit()
    names: dict[str, str] = {}
    seen: set[tuple[int, str]] = set()
    header = False
    with open(path, encoding="utf-8-sig", newline="") as handle:
        try:
            while text := handle.read(_PIECE_CHARS) + handle.readline():
                # Without these every record is one line and every cell the text between
                # two commas, so str.split reads the piece as csv.reader does. NUL is kept
                # out because Python 3.10's csv rejects it.
                if '"' in text or "\0" in text or (
                        "\r" in text and text.count("\r") != text.count("\r\n")):
                    raise _RowPath
                lines = text.replace("\r\n", "\n").split("\n")
                if len(text) > limit and max(map(len, lines)) > limit:
                    raise _RowPath
                if "#" in text:
                    lines = [line for line in lines if not line.startswith("#")]
                lines = [*filter(None, lines)]  # blank records
                if not header and lines:
                    if [*map(str.strip, lines[0].split(","))] != [*_PVALUE_COLUMNS]:
                        raise _RowPath
                    header = True
                    del lines[0]
                if not lines:
                    continue
                if set(map(str.count, lines, repeat(","))) != {4}:
                    raise _RowPath
                cells = [*map(str.strip, ",".join(lines).split(","))]
                columns = [cells[i::5] for i in range(5)]
                del lines, cells
                if "" in columns[3]:  # a blank p cell: the row path skips the row unchecked
                    keep = [*map(bool, columns[3])]
                    columns = [[*compress(column, keep)] for column in columns]
                citations, authors, endpoints, raw_p, negatives = columns
                if not raw_p:
                    continue
                truncated = [*map(str.startswith, raw_p, repeat("<"))]
                p = [*map(float, map(str.removeprefix, raw_p, repeat("<")))]
                if not all(map(math.isfinite, p)) or min(p) <= 0.0 or max(p) > 1.0:
                    raise _RowPath
                citations = [*map(int, citations)]
                negatives = [*map(_BOOLS.__getitem__, map(str.lower, negatives))]
                if "" in endpoints:
                    raise _RowPath
                endpoints = [*map(names.setdefault, endpoints, endpoints)]
                before = len(seen)
                seen.update(zip(citations, endpoints))
                if len(seen) != before + len(citations):
                    raise _RowPath
                yield citations, authors, endpoints, p, negatives, truncated
        except (ValueError, KeyError):  # UnicodeDecodeError is a ValueError
            raise _RowPath from None
    if not header:
        raise _RowPath


def _pvalue_columns(path: str | Path) -> Iterator[Sequence[Sequence]]:
    """Yield the fields of ``_pvalue_rows(path)`` as six columns, some rows at a time.

    A regular file is checked a column at a time by ``_plain_columns``; a
    pipe, which could not be read again, is not. Any other file, or a regular
    one at the first piece the column path does not take, goes to
    ``_pvalue_rows`` from the start, which yields the rows not yet given or
    raises its message: the row path stays the specification. So a file
    whose first ``"`` comes in its last row is read twice over: ``pplot``'s load
    of 100,000 such rows took 0.47 s, against 0.38 s when a whole-file scan
    chose the path first (min of 7, 2-vCPU x86-64 VM).
    """
    path = Path(path)
    given = 0
    if path.is_file():
        try:
            for columns in _plain_columns(path):
                yield columns
                given += len(columns[0])
            return
        except _RowPath:
            pass
    rows = islice(_pvalue_rows(path), given, None)
    while batch := [*islice(rows, 4096)]:
        yield [*zip(*batch)]


def load_pvalues(path: str | Path) -> list[PValueRecord]:
    """Load reported p-values from CSV.

    Rows with a blank p cell are skipped (the source had no result to
    report). A leading ``<`` marks a truncated value: ``<0.001`` loads as
    p = 0.001 with ``truncated=True``.

    Parameters
    ----------
    path : str or Path

    Returns
    -------
    list of PValueRecord

    Raises
    ------
    ValidationError
        Malformed rows, p outside (0, 1], or duplicate (citation, endpoint).
    """
    return [record for columns in _pvalue_columns(path) for record in map(PValueRecord, *columns)]


def _endpoint_p(path: str | Path, endpoint: str) -> list[float]:
    """The p-values of one endpoint; every row of the file is validated."""
    p: list[float] = []
    for _, _, endpoints, values, _, _ in _pvalue_columns(path):
        p += compress(values, map(endpoint.__eq__, endpoints))
    return p


_EFFECT_COLUMNS = EffectEstimate.__slots__  # level, the last, is optional


def load_effects(path: str | Path) -> list[EffectEstimate]:
    """Load risk-ratio estimates from CSV.

    The ``level`` column is optional; a missing column or blank cell means
    0.95.

    Parameters
    ----------
    path : str or Path

    Returns
    -------
    list of EffectEstimate

    Raises
    ------
    ValidationError
        Malformed rows or an interval that does not bracket its estimate.
    """
    path, columns, rows = _open_table(path, _EFFECT_COLUMNS[:-1], _EFFECT_COLUMNS[-1:])
    cells = [(str if name == "label" else float, columns[name], name)
             for name in _EFFECT_COLUMNS[:-1]]
    records: list[EffectEstimate] = []
    for lineno, row in rows:
        try:
            raw_level = row[columns["level"]] if "level" in columns else ""
            level = _parse(float, raw_level, "level") if raw_level else 0.95
            values = [_parse(parse, row[i], name) for parse, i, name in cells]
            records.append(EffectEstimate(*values, level))
        except ValidationError as exc:
            raise type(exc)(f"{path}: row {lineno}: {exc}") from None
    return records


def _read_config(path: str | Path, keys: Container[str]) -> dict[str, str]:
    """The ``key=value`` lines of a settings file; each key is one of ``keys``, given once."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    values: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    # Lines end where the CSV loaders end them: read_text has made "\r" and "\r\n" "\n".
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}: line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValidationError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in key_lines:
            raise ValidationError(
                f"{path}: line {lineno}: key {key!r} repeats line {key_lines[key]}"
            )
        key_lines[key] = lineno
        values[key] = value.strip()
    return values


def _counts_text(records: list[StudyCounts]) -> tuple[list[SearchSpace], str]:
    """The records' spaces, and their counts CSV text with the space columns."""
    spaces = [compute_space(r) for r in records]
    rows = ((*r.__getstate__(), *s) for r, s in zip(records, spaces))
    return spaces, _table_text(_COUNT_COLUMNS + _SPACE_COLUMNS, rows)


def save_counts(records: list[StudyCounts], path: str | Path) -> list[SearchSpace]:
    """Write study counts as CSV, including recomputed space columns; return the spaces."""
    spaces, text = _counts_text(records)
    _write_text(path, (text,))
    return spaces


def save_pvalues(records: list[PValueRecord], path: str | Path) -> None:
    """Write p-value records as CSV; truncated values keep their ``<``."""
    rows = (
        (r.citation, r.author, r.endpoint, f"<{r.p}" if r.truncated else r.p,
         "true" if r.direction_negative else "false")
        for r in records
    )
    _write_text(path, (_table_text(_PVALUE_COLUMNS, rows),))


def save_effects(records: list[EffectEstimate], path: str | Path) -> None:
    """Write effect estimates as CSV with an explicit level column."""
    _write_text(path, (_table_text(_EFFECT_COLUMNS, map(EffectEstimate.__getstate__, records)),))


def load_dataset(
    counts_path: str | Path,
    pvalues_path: str | Path,
    effects_path: str | Path,
) -> Dataset:
    """Load the three CSV files into one validated Dataset."""
    return Dataset(
        load_counts(counts_path), load_pvalues(pvalues_path), load_effects(effects_path)
    )


def _fixture_path(name: str) -> Path:
    return Path(__file__).with_name("fixtures") / name


def case_counts_path() -> Path:
    """Path of the bundled case-study counts CSV (34 studies)."""
    return _fixture_path("case_counts.csv")


def case_pvalues_path() -> Path:
    """Path of the bundled case-study p-value CSV (104 records)."""
    return _fixture_path("case_pvalues.csv")


def case_effects_path() -> Path:
    """Path of the bundled case-study pooled risk ratio CSV (6 rows)."""
    return _fixture_path("case_effects.csv")


def load_case_dataset() -> Dataset:
    """The bundled case-study dataset, fully loaded and validated."""
    return load_dataset(case_counts_path(), case_pvalues_path(), case_effects_path())

"""CSV ingestion and serialization of the three dataset shapes.

Three file schemas, all plain comma-separated UTF-8 with a header row,
optional comments (records whose first line starts with an unquoted ``#``)
and no row longer than the header:

* counts: ``citation,author,outcomes,predictors,covariates,lags`` with
  optional ``space1,space2,space3`` columns. Printed space columns are
  never trusted as data; they are recomputed on load and any mismatch is
  an error.
* p-values: ``citation,author,endpoint,p,direction_negative``. A blank p
  cell yields no record; a cell like ``<0.001`` loads as the bound with
  the truncated flag set.
* effects: ``label,rr,ci_low,ci_high`` with optional ``level`` (default
  0.95).

One writer, ``_write_table``, writes the ``save_*`` files and the tables of
the command line, so every table shares one format.

The package bundles a transcription of a well-known case study: the 34
base papers of a 2012 meta-analysis of main air pollutants and myocardial
infarction (JAMA 307(7):713-721), as variable counts, 104 reported
p-values across six pollutants, and the six pooled risk ratios.
"""

from __future__ import annotations

import csv
import io
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .diagnostics import PValueRecord, _check_reported
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
    """The three record collections plus a provenance note.

    ``provenance`` records where the data came from (paths and row counts)
    and is excluded from equality comparisons.
    """

    __slots__ = ("counts", "pvalues", "effects", "provenance")

    def __init__(
        self, counts: list[StudyCounts], pvalues: list[PValueRecord],
        effects: list[EffectEstimate], provenance: str = "",
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
        self._set_fields((counts, pvalues, effects, provenance))

    def _compared(self) -> tuple:
        return self.counts, self.pvalues, self.effects


def _data_rows(path: Path) -> Iterator[tuple[int, list[str]]]:
    """Yield (record number, cells) of the header and data rows.

    A record whose first line starts with an unquoted ``#`` is a comment;
    comments and blank records are skipped. Every record counts, comments and
    blanks included, as a spreadsheet counts rows; a quoted cell that spans
    lines makes later records lag their lines. A data row longer than the
    header is an error; a shorter one is padded with blank cells to its width.
    """
    with open(path, newline="", encoding="utf-8") as handle:
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


def _parse_int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"field '{name}': not an integer: {raw!r}") from None


def _parse_float(name: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"field '{name}': not a number: {raw!r}") from None


_TRUE = {"true", "1", "yes"}
_FALSE = {"false", "0", "no"}


def _parse_bool(name: str, raw: str) -> bool:
    lowered = raw.lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValidationError(f"field '{name}': not a boolean: {raw!r}")


def _write_table(path: str | Path, header: Iterable[str], rows: Iterable[Sequence]) -> str:
    """Write a header row and data rows as CSV; return the text written.

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
    text = buffer.getvalue()
    Path(path).write_text(text, encoding="utf-8", newline="")
    return text


_COUNT_COLUMNS = ("citation", "author", "outcomes", "predictors", "covariates", "lags")
_SPACE_COLUMNS = ("space1", "space2", "space3")


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
    records: list[StudyCounts] = []
    seen: set[int] = set()
    for lineno, row in rows:
        try:
            values = {
                name: _parse_int(name, row[columns[name]])
                for name in ("citation", "outcomes", "predictors", "covariates", "lags")
            }
            record = StudyCounts(author=row[columns["author"]], **values)
            space = compute_space(record)
            for name, computed in zip(_SPACE_COLUMNS, space):
                raw = row[columns[name]] if name in columns else ""
                printed = _parse_int(name, raw) if raw else computed
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


_PVALUE_COLUMNS = ("citation", "author", "endpoint", "p", "direction_negative")


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
            p = _parse_float("p", raw_p[1:] if truncated else raw_p)
            citation = _parse_int("citation", row[i_citation])
            negative = _parse_bool("direction_negative", row[i_negative])
            endpoint = row[i_endpoint]
            p = _check_reported(citation, endpoint, p)
            key = (citation, endpoint)
            if key in seen:
                raise ValidationError(f"duplicate (citation, endpoint) = {key}")
        except ValidationError as exc:
            raise type(exc)(f"{path}: row {lineno}: {exc}") from None
        seen.add(key)
        yield citation, row[i_author], endpoint, p, negative, truncated


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
    return [PValueRecord(*row) for row in _pvalue_rows(path)]


_EFFECT_COLUMNS = ("label", "rr", "ci_low", "ci_high")


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
    path, columns, rows = _open_table(path, _EFFECT_COLUMNS, ("level",))
    records: list[EffectEstimate] = []
    for lineno, row in rows:
        try:
            raw_level = row[columns["level"]] if "level" in columns else ""
            level = _parse_float("level", raw_level) if raw_level else 0.95
            records.append(
                EffectEstimate(
                    label=row[columns["label"]],
                    rr=_parse_float("rr", row[columns["rr"]]),
                    ci_low=_parse_float("ci_low", row[columns["ci_low"]]),
                    ci_high=_parse_float("ci_high", row[columns["ci_high"]]),
                    level=level,
                )
            )
        except ValidationError as exc:
            raise type(exc)(f"{path}: row {lineno}: {exc}") from None
    return records


def save_counts(records: list[StudyCounts], path: str | Path) -> list[SearchSpace]:
    """Write study counts as CSV, including recomputed space columns; return the spaces."""
    spaces = [compute_space(r) for r in records]
    rows = (
        (r.citation, r.author, r.outcomes, r.predictors, r.covariates, r.lags, *s)
        for r, s in zip(records, spaces)
    )
    _write_table(path, _COUNT_COLUMNS + _SPACE_COLUMNS, rows)
    return spaces


def save_pvalues(records: list[PValueRecord], path: str | Path) -> None:
    """Write p-value records as CSV; truncated values keep their ``<``."""
    rows = (
        (r.citation, r.author, r.endpoint, f"<{r.p}" if r.truncated else r.p,
         "true" if r.direction_negative else "false")
        for r in records
    )
    _write_table(path, _PVALUE_COLUMNS, rows)


def save_effects(records: list[EffectEstimate], path: str | Path) -> None:
    """Write effect estimates as CSV with an explicit level column."""
    rows = ((r.label, r.rr, r.ci_low, r.ci_high, r.level) for r in records)
    _write_table(path, _EFFECT_COLUMNS + ("level",), rows)


def load_dataset(
    counts_path: str | Path,
    pvalues_path: str | Path,
    effects_path: str | Path,
) -> Dataset:
    """Load the three CSV files into one validated Dataset."""
    counts = load_counts(counts_path)
    pvalues = load_pvalues(pvalues_path)
    effects = load_effects(effects_path)
    provenance = (
        f"counts: {counts_path} ({len(counts)} rows); "
        f"pvalues: {pvalues_path} ({len(pvalues)} rows); "
        f"effects: {effects_path} ({len(effects)} rows)"
    )
    return Dataset(counts=counts, pvalues=pvalues, effects=effects, provenance=provenance)


def _fixture_path(name: str) -> Path:
    return Path(str(resources.files("metaaudit").joinpath("fixtures").joinpath(name)))


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

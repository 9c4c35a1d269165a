"""CSV ingestion and serialization of the three dataset shapes.

Three file schemas, all plain comma-separated UTF-8 with a header row and
optional ``#`` comment lines:

* counts: ``citation,author,outcomes,predictors,covariates,lags`` with
  optional ``space1,space2,space3`` columns. Printed space columns are
  never trusted as data; they are recomputed on load and any mismatch is
  an error.
* p-values: ``citation,author,endpoint,p,direction_negative``. A blank p
  cell yields no record; a cell like ``<0.001`` loads as the bound with
  the truncated flag set.
* effects: ``label,rr,ci_low,ci_high`` with optional ``level`` (default
  0.95).

The package bundles a transcription of a well-known case study: the 34
base papers of a 2012 meta-analysis of main air pollutants and myocardial
infarction (JAMA 307(7):713-721), as variable counts, 104 reported
p-values across six pollutants, and the six pooled risk ratios.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterator

from .diagnostics import PValueRecord
from .errors import ValidationError
from .searchspace import StudyCounts, compute_space
from .statcore import EffectEstimate

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


@dataclass(frozen=True)
class Dataset:
    """The three record collections plus a provenance note.

    ``provenance`` records where the data came from (paths and row counts)
    and is excluded from equality comparisons.
    """

    counts: list[StudyCounts]
    pvalues: list[PValueRecord]
    effects: list[EffectEstimate]
    provenance: str = field(compare=False, default="")

    def __post_init__(self) -> None:
        seen_citations = set()
        for record in self.counts:
            if record.citation in seen_citations:
                raise ValidationError(f"duplicate citation {record.citation} in counts")
            seen_citations.add(record.citation)
        seen_keys = set()
        for record in self.pvalues:
            key = (record.citation, record.endpoint)
            if key in seen_keys:
                raise ValidationError(
                    f"duplicate (citation, endpoint) = {key} in p-value records"
                )
            seen_keys.add(key)


def _data_rows(path: Path) -> Iterator[tuple[int, list[str]]]:
    """Yield (record number, cells) skipping comments and blanks.

    Every record counts, comments and blanks included, as a spreadsheet counts
    rows; a quoted cell that spans lines makes later records lag their lines.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            for lineno, row in enumerate(reader, start=1):
                if not row or row[0].startswith("#"):
                    continue
                yield lineno, [cell.strip() for cell in row]
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


def _cell(row: list[str], columns: dict[str, int], name: str) -> str:
    index = columns[name]
    return row[index] if index < len(row) else ""


def _parse_int(path: Path, lineno: int, name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(
            f"{path}: row {lineno}: field '{name}': not an integer: {raw!r}"
        ) from None


def _parse_float(path: Path, lineno: int, name: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(
            f"{path}: row {lineno}: field '{name}': not a number: {raw!r}"
        ) from None


_TRUE = {"true", "1", "yes"}
_FALSE = {"false", "0", "no"}


def _parse_bool(path: Path, lineno: int, name: str, raw: str) -> bool:
    lowered = raw.lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValidationError(
        f"{path}: row {lineno}: field '{name}': not a boolean: {raw!r}"
    )


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
        values = {
            name: _parse_int(path, lineno, name, _cell(row, columns, name))
            for name in ("citation", "outcomes", "predictors", "covariates", "lags")
        }
        try:
            record = StudyCounts(author=_cell(row, columns, "author"), **values)
            space = compute_space(record)
        except ValidationError as exc:
            raise type(exc)(f"{path}: row {lineno}: {exc}") from None
        for name, computed in zip(_SPACE_COLUMNS, (space.space1, space.space2, space.space3)):
            if name not in columns:
                continue
            raw = _cell(row, columns, name)
            if not raw:
                continue
            printed = _parse_int(path, lineno, name, raw)
            if printed != computed:
                raise ValidationError(
                    f"{path}: row {lineno}: field '{name}': printed value {printed} "
                    f"does not match recomputed {computed}"
                )
        if record.citation in seen:
            raise ValidationError(
                f"{path}: row {lineno}: duplicate citation {record.citation}"
            )
        seen.add(record.citation)
        records.append(record)
    return records


_PVALUE_COLUMNS = ("citation", "author", "endpoint", "p", "direction_negative")


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
    path, columns, rows = _open_table(path, _PVALUE_COLUMNS, ())
    records: list[PValueRecord] = []
    seen: set[tuple[int, str]] = set()
    for lineno, row in rows:
        raw_p = _cell(row, columns, "p")
        if not raw_p:
            continue
        truncated = raw_p.startswith("<")
        p = _parse_float(path, lineno, "p", raw_p[1:] if truncated else raw_p)
        citation = _parse_int(path, lineno, "citation", _cell(row, columns, "citation"))
        direction_negative = _parse_bool(
            path, lineno, "direction_negative", _cell(row, columns, "direction_negative")
        )
        try:
            record = PValueRecord(
                citation=citation,
                author=_cell(row, columns, "author"),
                endpoint=_cell(row, columns, "endpoint"),
                p=p,
                direction_negative=direction_negative,
                truncated=truncated,
            )
        except ValidationError as exc:
            raise type(exc)(f"{path}: row {lineno}: {exc}") from None
        key = (record.citation, record.endpoint)
        if key in seen:
            raise ValidationError(
                f"{path}: row {lineno}: duplicate (citation, endpoint) = {key}"
            )
        seen.add(key)
        records.append(record)
    return records


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
        raw_level = _cell(row, columns, "level") if "level" in columns else ""
        level = _parse_float(path, lineno, "level", raw_level) if raw_level else 0.95
        rr, ci_low, ci_high = (
            _parse_float(path, lineno, name, _cell(row, columns, name))
            for name in ("rr", "ci_low", "ci_high")
        )
        try:
            records.append(
                EffectEstimate(
                    label=_cell(row, columns, "label"),
                    rr=rr,
                    ci_low=ci_low,
                    ci_high=ci_high,
                    level=level,
                )
            )
        except ValidationError as exc:
            raise type(exc)(f"{path}: row {lineno}: {exc}") from None
    return records


def save_counts(records: list[StudyCounts], path: str | Path) -> None:
    """Write study counts as CSV, including recomputed space columns."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_COUNT_COLUMNS + _SPACE_COLUMNS)
        for record in records:
            space = compute_space(record)
            writer.writerow(
                [
                    record.citation,
                    record.author,
                    record.outcomes,
                    record.predictors,
                    record.covariates,
                    record.lags,
                    space.space1,
                    space.space2,
                    space.space3,
                ]
            )


def save_pvalues(records: list[PValueRecord], path: str | Path) -> None:
    """Write p-value records as CSV; truncated values keep their ``<``."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_PVALUE_COLUMNS)
        for record in records:
            p_text = f"<{record.p}" if record.truncated else str(record.p)
            writer.writerow(
                [
                    record.citation,
                    record.author,
                    record.endpoint,
                    p_text,
                    "true" if record.direction_negative else "false",
                ]
            )


def save_effects(records: list[EffectEstimate], path: str | Path) -> None:
    """Write effect estimates as CSV with an explicit level column."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_EFFECT_COLUMNS + ("level",))
        for record in records:
            writer.writerow(
                [record.label, record.rr, record.ci_low, record.ci_high, record.level]
            )


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

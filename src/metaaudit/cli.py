"""Command-line interface.

Subcommands map one-to-one onto the library workflows:

* ``spaces``    counts CSV -> per-study search spaces and five-number summary
* ``pplot``     p-value CSV + endpoint -> ranked series, SVG, shape diagnostics
* ``volcano``   effects CSV -> volcano coordinates and SVG
* ``pool``      effects CSV -> fixed-effect or DerSimonian-Laird pooled result
* ``pfromci``   effects CSV -> back-calculated z and p per row
* ``simulate``  config flags or key=value file -> simulated p-values + shape stats
* ``report``    bundled case-study fixtures -> the full audit bundle

Every command is non-interactive, reads only the named inputs, and writes
only beneath the output directory (default ``./out/<command>/``). A
``cmd_*`` function only computes: it creates nothing and returns its files,
as ``(name, chunks)`` pairs in write order, and the text to print. ``main``
alone creates the directory and writes each file through
``datasets._write_text``, printing one ``# wrote <path>`` line after each;
then it prints the text. ``spaces``, ``pplot``, ``pfromci`` and ``volcano``
are each a loader plus a builder (``_spaces``, ``_pplots``, ``_backcalc``,
``_volcano``) that runs the analysis on loaded inputs and returns those files
and that text; ``report`` joins the four builders' files. A plot's text and
``pvalues.csv`` are built only as ``main`` writes them, so at most one large
text is held at a time.
Outputs are byte-identical across re-runs on unchanged inputs; the only
randomness anywhere is in ``simulate`` and is pinned by its required
``--seed``. An input file may start with a UTF-8 byte-order mark.

Exit codes: 0 success, 2 invalid data or arguments, 1 I/O failure or out of memory.

A process started as ``metaaudit`` or ``python -m metaaudit.cli`` runs
OpenBLAS on one thread unless ``OPENBLAS_NUM_THREADS`` is set: no command
calls BLAS, and each idle OpenBLAS worker that ``import numpy`` starts spins
for about 0.1 s of CPU. ``main`` leaves the environment alone, so a library
caller keeps the threads it chose.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import compress
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, Sequence

from . import datasets, diagnostics, pooling, simulate, svgplot
from .errors import InsufficientDataError, ValidationError
from .searchspace import SpaceSummary, StudyCounts, summarize_spaces
from .statcore import _CONTROL_ESCAPES, BackCalcResult, EffectEstimate, p_from_estimate

__all__ = ["main", "run"]


# An output file: its name in --out and the chunks of its text, in order.
_File = tuple[str, Iterable[str]]


def _later(render, *args, **kwargs) -> Iterator[str]:
    """Yield one text, rendered only when the writer asks for it."""
    yield render(*args, **kwargs)


# Every escape of _CONTROL_ESCAPES but the line feed, which ends each CSV record.
_ECHO_ESCAPES = {code: text for code, text in _CONTROL_ESCAPES.items() if code != ord("\n")}


def _echo(csv_text: str) -> str:
    """A table written as CSV, for stdout; its lines break only where the file's lines do."""
    return csv_text.translate(_ECHO_ESCAPES)


def _text_table(headers: Sequence[str], rows: list[list[str]]) -> str:
    rows = [[cell.translate(_CONTROL_ESCAPES) for cell in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    lines = [headers, ["-" * width for width in widths], *rows]
    return "".join("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
                   + "\n" for line in lines)


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def _load_rows(load, path: str) -> list:
    rows = load(path)
    if not rows:
        raise ValidationError(f"{path}: no rows")
    return rows


# ---------------------------------------------------------------- spaces

_STATS = ("min", "q1", "median", "q3", "max")
_SUMMARY_COLUMNS = ("statistic", *SpaceSummary._fields)


def _spaces(records: list[StudyCounts]) -> tuple[list[_File], str]:
    """spaces.csv and space_summary.csv; the summary is echoed, then shown rounded."""
    spaces, spaces_csv = datasets._counts_text(records)
    summary = summarize_spaces(spaces)
    summary_csv = datasets._table_text(_SUMMARY_COLUMNS, zip(_STATS, *summary))
    rows = [[stat, *(f"{_round_half_up(value):,}" for value in values)]
            for stat, *values in zip(_STATS, *summary)]
    files = [("spaces.csv", (spaces_csv,)), ("space_summary.csv", (summary_csv,))]
    return files, _echo(summary_csv) + _text_table(_SUMMARY_COLUMNS, rows)


def cmd_spaces(args: argparse.Namespace) -> tuple[list[_File], str]:
    return _spaces(_load_rows(datasets.load_counts, args.infile))


# ----------------------------------------------------------------- pplot

_DIAG_COLUMNS = (
    "endpoint", "m", "frac_le_alpha", "ks_d", "ks_p", *diagnostics.BilinearityFit._fields
)


def _diagnostics_row(series: diagnostics.PValuePlotSeries) -> list:
    """One diagnostics.csv row; a statistic the series is too short for is blank."""
    row = [series.endpoint, series.m, series.frac_le_alpha]
    try:
        ks = diagnostics.uniformity_ks(series)
        row += [ks.d_stat, ks.p_ks]
    except InsufficientDataError:
        row += ["", ""]
    try:
        row += diagnostics.bilinearity_fit(series)
    except InsufficientDataError:
        row += [""] * len(diagnostics.BilinearityFit._fields)
    return row


def _ranked_lines(series: diagnostics.PValuePlotSeries) -> Iterator[str]:
    """Yield the pplot CSV: its header, then every (rank, p) row as one text."""
    yield "rank,p\n"
    # Formatted by hand, not by the dataset writer: every cell is a number, so none
    # needs quoting, and csv.writer took about 1.5 times as long on 79,600
    # (rank, p) rows (Python 3.11, 2-vCPU x86-64 VM).
    yield "".join(map("%d,%r\n".__mod__, enumerate(series.p, start=1)))


def _pplots(plots: Sequence[diagnostics.PValuePlotSeries],
            source: str = "") -> tuple[list[_File], str]:
    """pplot_<endpoint>.csv and .svg per series, then diagnostics.csv, and their text.

    Each endpoint label becomes part of a file name, so it must make one name.
    A plot file's text is built only as it is written, so one is held at a time.
    """
    files: list[_File] = []
    for series in plots:
        # A separator would add directories to the path, no file name may hold NUL, a
        # line break or other control character would split the "# wrote" lines, and
        # Linux and macOS file systems take no file name longer than 255 bytes.
        too_long = len(os.fsencode(f"pplot_{series.endpoint}.svg")) > 255
        if too_long or any(char in "/\\" or ord(char) in _CONTROL_ESCAPES
                           for char in series.endpoint):
            raise ValidationError(
                f"endpoint {series.endpoint!r} cannot be part of an output file name: " + (
                    "pplot_<endpoint>.svg would be longer than 255 bytes" if too_long
                    else "it contains '/', '\\' or a control character")
            )
        comment = f"p-value plot, endpoint {series.endpoint}{source}"
        svg = _later(svgplot.render_pplot_svg, series, comment=comment)
        files += [(f"pplot_{series.endpoint}.csv", _ranked_lines(series)),
                  (f"pplot_{series.endpoint}.svg", svg)]
    diagnostics_csv = datasets._table_text(_DIAG_COLUMNS, map(_diagnostics_row, plots))
    files.append(("diagnostics.csv", (diagnostics_csv,)))
    return files, _echo(diagnostics_csv) + "".join(
        f"endpoint {series.endpoint}: m={series.m}, "
        f"fraction of p <= {series.alpha:g}: {series.frac_le_alpha:.3f}\n" for series in plots
    )


def _endpoint_p(path: str, endpoint: str) -> list[float]:
    """The p-values of one endpoint; every row of the file is validated."""
    p: list[float] = []
    for _, _, endpoints, values, _, _ in datasets._pvalue_columns(path):
        p += compress(values, map(endpoint.__eq__, endpoints))
    return p


def cmd_pplot(args: argparse.Namespace) -> tuple[list[_File], str]:
    p = _endpoint_p(args.infile, args.endpoint)
    return _pplots([diagnostics.PValuePlotSeries(args.endpoint, p, args.alpha)])


# --------------------------------------------------------------- volcano


def _volcano(estimates: list[EffectEstimate], alpha: float, m_tests: int,
             source: str = "", title: str = "") -> tuple[list[_File], str]:
    """volcano.csv and volcano.svg, and their text."""
    points, bonferroni_y = diagnostics.build_volcano(estimates, alpha, m_tests)
    csv_text = datasets._table_text(diagnostics.VolcanoPoint._fields, points)
    comment = f"volcano plot{source}, alpha {alpha:g}, m_tests {m_tests}"
    svg = _later(svgplot.render_volcano_svg, points, bonferroni_y, title=title, comment=comment)
    rows = [[p.label, f"{p.effect:.4f}", f"{p.neg_log10_p:.3f}"] for p in points]
    return [("volcano.csv", (csv_text,)), ("volcano.svg", svg)], (
        _echo(csv_text) + _text_table(["label", "log_rr", "-log10(p)"], rows)
        + f"reference line -log10({alpha:g}/{m_tests}) = {bonferroni_y:.3f}\n"
    )


def cmd_volcano(args: argparse.Namespace) -> tuple[list[_File], str]:
    estimates = _load_rows(datasets.load_effects, args.infile)
    m_tests = args.m_tests if args.m_tests is not None else len(estimates)
    return _volcano(estimates, args.alpha, m_tests)


# ------------------------------------------------------------------ pool


def cmd_pool(args: argparse.Namespace) -> tuple[list[_File], str]:
    estimates = _load_rows(datasets.load_effects, args.infile)
    if args.method == "fixed":
        result = pooling.pool_fixed(estimates)
    else:
        result = pooling.pool_random_dl(estimates)
    try:
        rr, rr_low, rr_high = map(math.exp, (result.pooled_log, result.ci_low, result.ci_high))
    except OverflowError:
        raise ValidationError(
            f"pooled interval upper limit exp({result.ci_high!r}) is past the float range"
        ) from None

    cells = (
        ("method", result.method),
        ("k", result.k),
        ("pooled_log", result.pooled_log),
        ("pooled_se", result.pooled_se),
        ("ci_low", result.ci_low),
        ("ci_high", result.ci_high),
        ("pooled_rr", rr),
        ("rr_ci_low", rr_low),
        ("rr_ci_high", rr_high),
        ("q_stat", result.q_stat),
        ("tau2", result.tau2),
        ("i2_percent", result.i2_percent),
    )
    columns, values = zip(*cells)
    csv_text = datasets._table_text(columns, [values])
    return [("pooled.csv", (csv_text,))], _echo(csv_text) + (
        f"{result.method}: k={result.k}, pooled RR {rr:.4f} ({rr_low:.4f} to {rr_high:.4f}), "
        f"Q={result.q_stat:.3f}, tau2={result.tau2:.5f}, I2={result.i2_percent:.1f}%\n"
    )


# --------------------------------------------------------------- pfromci


def _backcalc(estimates: list[EffectEstimate]) -> tuple[list[_File], str]:
    """backcalc.csv: each estimate's back-calculated z and p; and its text."""
    rows = [(estimate.label, *p_from_estimate(estimate)) for estimate in estimates]
    csv_text = datasets._table_text(("label", *BackCalcResult._fields), rows)
    shown = [[label, f"{log_effect:.5f}", f"{se:.5f}", f"{z:.3f}", f"{p:.3g}"]
             for label, log_effect, se, z, p in rows]
    text = _echo(csv_text) + _text_table(["label", "log_rr", "se", "z", "p"], shown)
    return [("backcalc.csv", (csv_text,))], text


def cmd_pfromci(args: argparse.Namespace) -> tuple[list[_File], str]:
    return _backcalc(_load_rows(datasets.load_effects, args.infile))


# -------------------------------------------------------------- simulate

# Config key (flag --key, '-' for '_') -> SimConfig field, parser of a flag or file
# value, what a run without it lacks when the field has no default, the flag's
# choices and its help. In walk order, which is also the order of --help.
_SETTINGS = {
    "regime": ("regime", str, "a regime", simulate.REGIMES, None),
    "m": ("m", int, "m", None, "p-values per replicate"),
    "seed": ("seed", int, "a seed", None, "RNG seed (required)"),
    "delta": ("delta", float, None, None, "effect-regime mean shift"),
    "s_tests": ("s_tests", int, None, None, "candidate tests per study under phack"),
    "pi": ("pi_mix", float, None, None, "mixture fraction"),
    "replicates": ("replicates", int, None, None, None),
    "mix_component": ("mix_component", str, None, simulate.MIX_COMPONENTS,
                      "what the non-null mixture studies are"),
}


def _read_config(path: Path) -> dict[str, str]:
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
        if key not in _SETTINGS:
            raise ValidationError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in key_lines:
            raise ValidationError(
                f"{path}: line {lineno}: key {key!r} repeats line {key_lines[key]}"
            )
        key_lines[key] = lineno
        values[key] = value.strip()
    return values


def _build_sim_config(args: argparse.Namespace) -> simulate.SimConfig:
    """SimConfig from the flags over the config file; SimConfig holds the defaults.

    A flag the run never reads is rejected, so that it cannot pass unnoticed.
    Config-file keys are not checked: one file may serve several regimes.
    """
    file_values = _read_config(Path(args.infile)) if args.infile else {}
    given = {}
    for key, (field, parse, needs, *_) in _SETTINGS.items():
        raw = file_values.get(key)
        if getattr(args, key) is not None:
            given[field] = getattr(args, key)
        elif raw is not None:
            given[field] = datasets._parse(parse, raw, key, f"{args.infile}: key")
        elif needs:
            raise ValidationError(f"simulate needs {needs} (--{key} or config file)")
    try:
        cfg = simulate.SimConfig(**given)
    except ValidationError as exc:  # it names a field; name the key the user typed
        field, _, rest = str(exc).partition(" ")
        key = next((k for k, (f, *_) in _SETTINGS.items() if f == field), field)
        raise ValidationError(f"{key} {rest}") from None
    for key, (field, *_) in _SETTINGS.items():
        if getattr(args, key) is not None and field not in cfg.reads():
            regime = cfg.regime
            if regime == "mixture":
                regime += f" with mix component {cfg.mix_component}"
            raise ValidationError(f"regime {regime} does not read --{key.replace('_', '-')}")
    return cfg


def _pvalue_lines(cfg: simulate.SimConfig, p) -> Iterator[str]:
    """Yield the pvalues.csv header, then one replicate's text at a time, never the whole."""
    # Joined by hand, not by the dataset formatter: the cells are numbers and a
    # regime name from REGIMES, so none needs quoting, and csv.writer took about
    # 1.7 times as long on the 300,000 rows of a 10,000-replicate run (Python
    # 3.11, 2-vCPU x86-64 VM).
    yield "replicate,citation,author,endpoint,p\n"
    middles = [f",{study},{simulate.RECORD_AUTHOR},{cfg.regime}," for study in range(1, cfg.m + 1)]
    for index, row in enumerate(p):
        prefix = str(index)
        yield "".join([
            prefix + middle + value + "\n"
            for middle, value in zip(middles, map(repr, row.tolist()))
        ])


def cmd_simulate(args: argparse.Namespace) -> tuple[list[_File], str]:
    cfg = _build_sim_config(args)
    p = simulate.draw_pvalues(cfg)
    files: list[_File] = [("pvalues.csv", _pvalue_lines(cfg, p))]

    try:
        stats = simulate.shape_stats(p)
    except InsufficientDataError as exc:
        return files, (f"regime {cfg.regime}: wrote {cfg.replicates} replicate(s) of "
                       f"m={cfg.m} p-values ({exc})\n")
    csv_text = datasets._table_text(simulate.ShapeStats._fields, [stats])
    return files + [("shape_stats.csv", (csv_text,))], _echo(csv_text) + (
        f"regime {cfg.regime}: mean frac p<=0.05 {stats.mean_frac_le_005:.4f}, "
        f"mean KS D {stats.mean_ks_d:.4f}, "
        f"mean bilinearity ratio {stats.mean_bilinearity_ratio:.4f}\n"
    )


# ---------------------------------------------------------------- report

# The builders' ``source`` in report: each SVG comment names the data after what it plots.
_CASE_STUDY = ", case-study dataset"


def cmd_report(args: argparse.Namespace) -> tuple[list[_File], str]:
    if not args.fixtures:
        raise ValidationError("report runs on the bundled case-study dataset; pass --fixtures")
    dataset = datasets.load_case_dataset()
    described = diagnostics.descriptives(dataset.pvalues)
    plots = [diagnostics.build_pplot(dataset.pvalues, endpoint, args.alpha)
             for endpoint in described]
    desc_columns = ("endpoint", *diagnostics.EndpointDescriptives._fields)
    desc_rows = [(endpoint, *stats) for endpoint, stats in described.items()]
    # Each builder's stdout text is dropped: report prints only the descriptives.
    files = [
        *_spaces(dataset.counts)[0],
        ("descriptives.csv", (datasets._table_text(desc_columns, desc_rows),)),
        *_pplots(plots, _CASE_STUDY)[0],
        *_backcalc(dataset.effects)[0],
        *_volcano(dataset.effects, args.alpha, len(dataset.effects), _CASE_STUDY,
                  title="pooled risk ratios")[0],
    ]

    total = sum(stats.count for stats in described.values())
    return files, (
        _text_table(desc_columns, [[str(cell) for cell in row] for row in desc_rows])
        + f"total reported p-values: {total}\n"
    )


# ------------------------------------------------------------------ main


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one ``error: ...`` stderr line, exit 2.

    Subparsers are built from the same class, so they report the same way.
    """

    def error(self, message: str) -> NoReturn:
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="metaaudit",
        description="Reliability auditing of meta-analyses: search spaces, "
        "p-value plots, volcano plots, pooling, and p-value simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", help="output directory (default ./out/%s/)" % name)
        return p

    p = add("spaces", cmd_spaces, "compute analysis search spaces from a counts CSV")
    p.add_argument("--in", dest="infile", required=True, help="counts CSV")

    p = add("pplot", cmd_pplot, "rank-ordered p-value plot for one endpoint")
    p.add_argument("--in", dest="infile", required=True, help="p-values CSV")
    p.add_argument("--endpoint", required=True, help="endpoint label to plot")
    p.add_argument("--alpha", type=float, default=0.05, help="significance level")

    p = add("volcano", cmd_volcano, "volcano plot from an effects CSV")
    p.add_argument("--in", dest="infile", required=True, help="effects CSV")
    p.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p.add_argument(
        "--m-tests", dest="m_tests", type=int, default=None,
        help="tests for the Bonferroni line (default: number of rows)",
    )

    p = add("pool", cmd_pool, "pool an effects CSV")
    p.add_argument("--in", dest="infile", required=True, help="effects CSV")
    p.add_argument(
        "--method", required=True, choices=("fixed", "dl"),
        help="fixed-effect or DerSimonian-Laird random effects",
    )

    p = add("pfromci", cmd_pfromci, "back-calculate z and p from each CI")
    p.add_argument("--in", dest="infile", required=True, help="effects CSV")

    p = add("simulate", cmd_simulate, "simulate p-value populations")
    p.add_argument("--in", dest="infile", default=None, help="key=value config file")
    for key, (_, parse, _, choices, help_text) in _SETTINGS.items():
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=parse, choices=choices,
                       help=help_text)

    p = add("report", cmd_report, "full audit bundle for the bundled dataset")
    p.add_argument("--fixtures", action="store_true",
                   help="run on the bundled case-study fixtures")
    p.add_argument("--alpha", type=float, default=0.05, help="significance level")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        files, text = args.func(args)
        out = Path(args.out) if args.out else Path("out") / args.command
        out.mkdir(parents=True, exist_ok=True)
        for name, chunks in files:
            datasets._write_text(out / name, chunks)
            print(f"# wrote {out / name}")
        print(text, end="")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1
    return 0


def run() -> NoReturn:
    """Process entry: one OpenBLAS thread unless the user chose a number, then ``main``."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # A strict stdout would fail after the files are written; escape as stderr does.
    if getattr(sys.stdout, "errors", None) == "strict":
        sys.stdout.reconfigure(errors="backslashreplace")
    sys.exit(main())


if __name__ == "__main__":
    run()

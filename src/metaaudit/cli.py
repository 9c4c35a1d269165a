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
only beneath the output directory (default ``./out/<command>/``). Each file
written gets one ``# wrote <path>`` line on stdout, in the order written.
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


def _out_dir(args: argparse.Namespace, command: str) -> Path:
    out = Path(args.out) if args.out else Path("out") / command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, chunks: Iterable[str]) -> None:
    """Write one output file through the dataset writer, then name it on stdout."""
    datasets._write_text(path, chunks)
    print(f"# wrote {path}")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Write one table in the dataset format; return its text."""
    text = datasets._table_text(header, rows)
    _write(path, (text,))
    return text


# Every escape of _CONTROL_ESCAPES but the line feed, which ends each CSV record.
_ECHO_ESCAPES = {code: text for code, text in _CONTROL_ESCAPES.items() if code != ord("\n")}


def _echo(csv_text: str) -> None:
    """Print a table written as CSV; stdout lines break only where the file's lines do."""
    print(csv_text.translate(_ECHO_ESCAPES), end="")


def _text_table(headers: Sequence[str], rows: list[list[str]]) -> str:
    rows = [[cell.translate(_CONTROL_ESCAPES) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


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


def _write_spaces(out: Path, records: list[StudyCounts]) -> tuple[SpaceSummary, str]:
    """Write spaces.csv and space_summary.csv; return the summary and its CSV text."""
    spaces, spaces_csv = datasets._counts_text(records)
    _write(out / "spaces.csv", (spaces_csv,))

    summary = summarize_spaces(spaces)
    rows = zip(_STATS, *summary)
    summary_csv = _write_csv(out / "space_summary.csv", _SUMMARY_COLUMNS, rows)
    return summary, summary_csv


def cmd_spaces(args: argparse.Namespace) -> None:
    records = _load_rows(datasets.load_counts, args.infile)
    summary, summary_csv = _write_spaces(_out_dir(args, "spaces"), records)
    _echo(summary_csv)
    rows = [[stat, *(f"{_round_half_up(value):,}" for value in values)]
            for stat, *values in zip(_STATS, *summary)]
    print(_text_table(_SUMMARY_COLUMNS, rows))


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


def _check_labels(plots: Sequence[diagnostics.PValuePlotSeries]) -> None:
    """Each endpoint label becomes part of a file name, so it must be one name."""
    # A separator would add directories to the path, no file name may hold NUL, and
    # a line break or other control character would split the "# wrote" lines.
    for series in plots:
        if any(char in "/\\" or ord(char) in _CONTROL_ESCAPES for char in series.endpoint):
            raise ValidationError(
                f"endpoint {series.endpoint!r} cannot be part of an output file name: "
                "it contains '/', '\\' or a control character"
            )


def _write_pplots(
    out: Path, plots: Sequence[diagnostics.PValuePlotSeries], source: str = ""
) -> str:
    """Write pplot_<endpoint>.csv and .svg per series, then diagnostics.csv; return its text."""
    for series in plots:
        # Formatted by hand, not by the dataset writer: every cell is a number, so none
        # needs quoting, and csv.writer took about 1.5 times as long on 79,600
        # (rank, p) rows (Python 3.11, 2-vCPU x86-64 VM).
        rows = map("%d,%r\n".__mod__, enumerate(series.p, start=1))
        _write(out / f"pplot_{series.endpoint}.csv", ("rank,p\n", "".join(rows)))
        comment = f"p-value plot, endpoint {series.endpoint}{source}"
        _write(out / f"pplot_{series.endpoint}.svg",
               (svgplot.render_pplot_svg(series, comment=comment),))
    return _write_csv(out / "diagnostics.csv", _DIAG_COLUMNS, map(_diagnostics_row, plots))


def _endpoint_p(path: str, endpoint: str) -> list[float]:
    """The p-values of one endpoint; every row of the file is validated."""
    p: list[float] = []
    for _, _, endpoints, values, _, _ in datasets._pvalue_columns(path):
        p += compress(values, map(endpoint.__eq__, endpoints))
    return p


def cmd_pplot(args: argparse.Namespace) -> None:
    p = _endpoint_p(args.infile, args.endpoint)
    series = diagnostics.PValuePlotSeries(args.endpoint, p, args.alpha)
    _check_labels([series])
    _echo(_write_pplots(_out_dir(args, "pplot"), [series]))
    print(
        f"endpoint {series.endpoint}: m={series.m}, "
        f"fraction of p <= {series.alpha:g}: {series.frac_le_alpha:.3f}"
    )


# --------------------------------------------------------------- volcano


def _write_volcano(out: Path, points: list[diagnostics.VolcanoPoint], bonferroni_y: float,
                   alpha: float, m_tests: int, source: str = "", title: str = "") -> str:
    """Write volcano.csv and volcano.svg; return the CSV text."""
    csv_text = _write_csv(out / "volcano.csv", diagnostics.VolcanoPoint._fields, points)
    comment = f"volcano plot{source}, alpha {alpha:g}, m_tests {m_tests}"
    svg = svgplot.render_volcano_svg(points, bonferroni_y, title=title, comment=comment)
    _write(out / "volcano.svg", (svg,))
    return csv_text


def cmd_volcano(args: argparse.Namespace) -> None:
    estimates = _load_rows(datasets.load_effects, args.infile)
    m_tests = args.m_tests if args.m_tests is not None else len(estimates)
    points, bonferroni_y = diagnostics.build_volcano(estimates, args.alpha, m_tests)
    out = _out_dir(args, "volcano")
    csv_text = _write_volcano(out, points, bonferroni_y, args.alpha, m_tests)

    _echo(csv_text)
    rows = [[p.label, f"{p.effect:.4f}", f"{p.neg_log10_p:.3f}"] for p in points]
    print(_text_table(["label", "log_rr", "-log10(p)"], rows))
    print(f"reference line -log10({args.alpha:g}/{m_tests}) = {bonferroni_y:.3f}")


# ------------------------------------------------------------------ pool


def cmd_pool(args: argparse.Namespace) -> None:
    estimates = _load_rows(datasets.load_effects, args.infile)
    if args.method == "fixed":
        result = pooling.pool_fixed(estimates)
    else:
        result = pooling.pool_random_dl(estimates)
    out = _out_dir(args, "pool")

    cells = (
        ("method", result.method),
        ("k", result.k),
        ("pooled_log", result.pooled_log),
        ("pooled_se", result.pooled_se),
        ("ci_low", result.ci_low),
        ("ci_high", result.ci_high),
        ("pooled_rr", math.exp(result.pooled_log)),
        ("rr_ci_low", math.exp(result.ci_low)),
        ("rr_ci_high", math.exp(result.ci_high)),
        ("q_stat", result.q_stat),
        ("tau2", result.tau2),
        ("i2_percent", result.i2_percent),
    )
    columns, values = zip(*cells)
    csv_text = _write_csv(out / "pooled.csv", columns, [values])

    _echo(csv_text)
    print(
        f"{result.method}: k={result.k}, pooled RR {math.exp(result.pooled_log):.4f} "
        f"({math.exp(result.ci_low):.4f} to {math.exp(result.ci_high):.4f}), "
        f"Q={result.q_stat:.3f}, tau2={result.tau2:.5f}, I2={result.i2_percent:.1f}%"
    )


# --------------------------------------------------------------- pfromci


def _write_backcalc(
    out: Path, estimates: list[EffectEstimate], backs: Iterable[BackCalcResult]
) -> str:
    """Write backcalc.csv from each estimate and its back-calculation; return its text."""
    rows = ((estimate.label, *back) for estimate, back in zip(estimates, backs))
    return _write_csv(out / "backcalc.csv", ("label", *BackCalcResult._fields), rows)


def cmd_pfromci(args: argparse.Namespace) -> None:
    estimates = _load_rows(datasets.load_effects, args.infile)
    backs = [p_from_estimate(estimate) for estimate in estimates]
    csv_text = _write_backcalc(_out_dir(args, "pfromci"), estimates, backs)

    _echo(csv_text)
    rows = [
        [estimate.label, f"{back.log_effect:.5f}", f"{back.se:.5f}",
         f"{back.z:.3f}", f"{back.p:.3g}"]
        for estimate, back in zip(estimates, backs)
    ]
    print(_text_table(["label", "log_rr", "se", "z", "p"], rows))


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


def cmd_simulate(args: argparse.Namespace) -> None:
    cfg = _build_sim_config(args)
    p = simulate.draw_pvalues(cfg)
    out = _out_dir(args, "simulate")
    _write(out / "pvalues.csv", _pvalue_lines(cfg, p))

    try:
        stats = simulate.shape_stats(p)
    except InsufficientDataError as exc:
        print(f"regime {cfg.regime}: wrote {cfg.replicates} replicate(s) of m={cfg.m} "
              f"p-values ({exc})")
        return
    _echo(_write_csv(out / "shape_stats.csv", simulate.ShapeStats._fields, [stats]))
    print(
        f"regime {cfg.regime}: mean frac p<=0.05 {stats.mean_frac_le_005:.4f}, "
        f"mean KS D {stats.mean_ks_d:.4f}, "
        f"mean bilinearity ratio {stats.mean_bilinearity_ratio:.4f}"
    )


# ---------------------------------------------------------------- report

# The writers' ``source`` in report: each SVG comment names the data after what it plots.
_CASE_STUDY = ", case-study dataset"


def cmd_report(args: argparse.Namespace) -> None:
    if not args.fixtures:
        raise ValidationError(
            "report runs on the bundled case-study dataset; pass --fixtures"
        )
    dataset = datasets.load_case_dataset()
    described = diagnostics.descriptives(dataset.pvalues)
    plots = [diagnostics.build_pplot(dataset.pvalues, endpoint, args.alpha)
             for endpoint in described]
    _check_labels(plots)
    backs = [p_from_estimate(estimate) for estimate in dataset.effects]
    m_tests = len(dataset.effects)
    points, bonferroni_y = diagnostics.build_volcano(dataset.effects, args.alpha, m_tests)

    out = _out_dir(args, "report")
    _write_spaces(out, dataset.counts)
    desc_columns = ("endpoint", *diagnostics.EndpointDescriptives._fields)
    desc_rows = [(endpoint, *stats) for endpoint, stats in described.items()]
    _write_csv(out / "descriptives.csv", desc_columns, desc_rows)
    _write_pplots(out, plots, _CASE_STUDY)
    _write_backcalc(out, dataset.effects, backs)
    _write_volcano(out, points, bonferroni_y, args.alpha, m_tests, _CASE_STUDY,
                   title="pooled risk ratios")

    total = sum(stats.count for stats in described.values())
    print(_text_table(desc_columns, [[str(cell) for cell in row] for row in desc_rows]))
    print(f"total reported p-values: {total}")


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
        args.func(args)
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
    sys.exit(main())


if __name__ == "__main__":
    run()

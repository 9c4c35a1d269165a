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
only beneath the output directory (default ``./out/<command>/``). Outputs
are byte-identical across re-runs on unchanged inputs; the only randomness
anywhere is in ``simulate`` and is pinned by its required ``--seed``.

Exit codes: 0 success, 2 invalid data or arguments, 1 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Iterable, NoReturn, Sequence

from . import datasets, diagnostics, pooling, simulate, svgplot
from .errors import InsufficientDataError, ValidationError
from .searchspace import SpaceSummary, StudyCounts, compute_space, summarize_spaces
from .statcore import BackCalcResult, EffectEstimate, _require_open_unit, p_from_estimate

__all__ = ["main"]


def _out_dir(args: argparse.Namespace, command: str) -> Path:
    out = Path(args.out) if args.out else Path("out") / command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="")
    print(f"# wrote {path}")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Write one table through the dataset writer; return its text."""
    text = datasets._write_table(path, header, rows)
    print(f"# wrote {path}")
    return text


def _text_table(headers: Sequence[str], rows: list[list[str]]) -> str:
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
_SUMMARY_COLUMNS = ("statistic", "space1", "space2", "space3")


def _write_spaces(out: Path, records: list[StudyCounts]) -> tuple[SpaceSummary, str]:
    """Write spaces.csv and space_summary.csv; return the summary and its CSV text."""
    path = out / "spaces.csv"
    datasets.save_counts(records, path)
    print(f"# wrote {path}")

    summary = summarize_spaces([compute_space(r) for r in records])
    rows = zip(_STATS, summary.space1, summary.space2, summary.space3)
    summary_csv = _write_csv(out / "space_summary.csv", _SUMMARY_COLUMNS, rows)
    return summary, summary_csv


def cmd_spaces(args: argparse.Namespace) -> int:
    records = _load_rows(datasets.load_counts, args.infile)
    summary, summary_csv = _write_spaces(_out_dir(args, "spaces"), records)
    print(summary_csv, end="")
    rows = [
        [stat]
        + [
            f"{_round_half_up(getattr(summary, f'space{j}')[i]):,}"
            for j in (1, 2, 3)
        ]
        for i, stat in enumerate(_STATS)
    ]
    print(_text_table(_SUMMARY_COLUMNS, rows))
    return 0


# ----------------------------------------------------------------- pplot

_DIAG_COLUMNS = [
    "endpoint",
    "m",
    "frac_le_alpha",
    "ks_d",
    "ks_p",
    "breakpoint_rank",
    "sse_two_segment",
    "sse_one_segment",
    "ratio",
]


def _diagnostics_row(series: diagnostics.PValuePlotSeries) -> list:
    """One diagnostics.csv row; a statistic the series is too short for is blank."""
    row = [series.endpoint, series.m, series.frac_le_alpha]
    try:
        ks = diagnostics.uniformity_ks(series)
        row += [ks.d_stat, ks.p_ks]
    except InsufficientDataError:
        row += ["", ""]
    try:
        fit = diagnostics.bilinearity_fit(series)
        row += [fit.breakpoint_rank, fit.sse_two_segment, fit.sse_one_segment, fit.ratio]
    except InsufficientDataError:
        row += ["", "", "", ""]
    return row


def _write_pplot(
    out: Path, series: diagnostics.PValuePlotSeries, options: svgplot.PlotOptions
) -> None:
    """Write pplot_<endpoint>.csv and .svg; the endpoint label must be one file name."""
    # A separator would add directories to the path, and no file name may hold NUL.
    if any(char in series.endpoint for char in ("/", "\\", "\0")):
        raise ValidationError(
            f"endpoint {series.endpoint!r} cannot be part of an output file name: "
            "it contains '/', '\\' or NUL"
        )
    # Joined by hand, not by the dataset writer: every cell is a number, so none
    # needs quoting, and csv.writer took about 1.5 times as long on 79,600
    # (rank, p) rows (Python 3.11, 2-vCPU x86-64 VM). A generator, so that no
    # list of rows stays alive while the SVG renders.
    rows = (f"{rank},{p!r}" for rank, p in series.points)
    _write(out / f"pplot_{series.endpoint}.csv", "\n".join(["rank,p", *rows]) + "\n")
    _write(out / f"pplot_{series.endpoint}.svg", svgplot.render_pplot_svg(series, options))


def cmd_pplot(args: argparse.Namespace) -> int:
    records = datasets.load_pvalues(args.infile)
    series = diagnostics.build_pplot(records, endpoint=args.endpoint, alpha=args.alpha)
    options = svgplot.PlotOptions(comment=f"p-value plot, endpoint {series.endpoint}")
    out = _out_dir(args, "pplot")
    _write_pplot(out, series, options)
    diag_csv = _write_csv(out / "diagnostics.csv", _DIAG_COLUMNS, [_diagnostics_row(series)])
    print(diag_csv, end="")
    print(
        f"endpoint {series.endpoint}: m={series.m}, "
        f"fraction of p <= {series.alpha:g}: {series.frac_le_alpha:.3f}"
    )
    return 0


# --------------------------------------------------------------- volcano


def _write_volcano(
    out: Path,
    points: list[diagnostics.VolcanoPoint],
    bonferroni_y: float,
    options: svgplot.PlotOptions,
) -> str:
    """Write volcano.csv and volcano.svg; return the CSV text."""
    rows = ((point.label, point.effect, point.neg_log10_p) for point in points)
    csv_text = _write_csv(out / "volcano.csv", ("label", "effect", "neg_log10_p"), rows)
    _write(out / "volcano.svg", svgplot.render_volcano_svg(points, bonferroni_y, options))
    return csv_text


def cmd_volcano(args: argparse.Namespace) -> int:
    estimates = _load_rows(datasets.load_effects, args.infile)
    m_tests = args.m_tests if args.m_tests is not None else len(estimates)
    points, bonferroni_y = diagnostics.build_volcano(estimates, args.alpha, m_tests)
    options = svgplot.PlotOptions(comment=f"volcano plot, alpha {args.alpha:g}, m_tests {m_tests}")
    csv_text = _write_volcano(_out_dir(args, "volcano"), points, bonferroni_y, options)

    print(csv_text, end="")
    rows = [[p.label, f"{p.effect:.4f}", f"{p.neg_log10_p:.3f}"] for p in points]
    print(_text_table(["label", "log_rr", "-log10(p)"], rows))
    print(f"reference line -log10({args.alpha:g}/{m_tests}) = {bonferroni_y:.3f}")
    return 0


# ------------------------------------------------------------------ pool


def cmd_pool(args: argparse.Namespace) -> int:
    estimates = _load_rows(datasets.load_effects, args.infile)
    if args.method == "fixed":
        result = pooling.pool_fixed(estimates)
    else:
        result = pooling.pool_random_dl(estimates)
    out = _out_dir(args, "pool")

    columns = [
        "method",
        "k",
        "pooled_log",
        "pooled_se",
        "ci_low",
        "ci_high",
        "pooled_rr",
        "rr_ci_low",
        "rr_ci_high",
        "q_stat",
        "tau2",
        "i2_percent",
    ]
    values = [
        result.method,
        result.k,
        result.pooled_log,
        result.pooled_se,
        result.ci_low,
        result.ci_high,
        math.exp(result.pooled_log),
        math.exp(result.ci_low),
        math.exp(result.ci_high),
        result.q_stat,
        result.tau2,
        result.i2_percent,
    ]
    csv_text = _write_csv(out / "pooled.csv", columns, [values])

    print(csv_text, end="")
    print(
        f"{result.method}: k={result.k}, pooled RR {math.exp(result.pooled_log):.4f} "
        f"({math.exp(result.ci_low):.4f} to {math.exp(result.ci_high):.4f}), "
        f"Q={result.q_stat:.3f}, tau2={result.tau2:.5f}, I2={result.i2_percent:.1f}%"
    )
    return 0


# --------------------------------------------------------------- pfromci


def _write_backcalc(
    out: Path, estimates: list[EffectEstimate]
) -> tuple[str, list[BackCalcResult]]:
    """Write backcalc.csv; return its text and the back-calculation of each estimate."""
    backs = [p_from_estimate(estimate) for estimate in estimates]
    rows = (
        (estimate.label, back.log_effect, back.se, back.z, back.p)
        for estimate, back in zip(estimates, backs)
    )
    csv_text = _write_csv(out / "backcalc.csv", ("label", "log_effect", "se", "z", "p"), rows)
    return csv_text, backs


def cmd_pfromci(args: argparse.Namespace) -> int:
    estimates = _load_rows(datasets.load_effects, args.infile)
    csv_text, backs = _write_backcalc(_out_dir(args, "pfromci"), estimates)

    print(csv_text, end="")
    rows = [
        [estimate.label, f"{back.log_effect:.5f}", f"{back.se:.5f}",
         f"{back.z:.3f}", f"{back.p:.3g}"]
        for estimate, back in zip(estimates, backs)
    ]
    print(_text_table(["label", "log_rr", "se", "z", "p"], rows))
    return 0


# -------------------------------------------------------------- simulate

_CONFIG_KEYS = ("regime", "m", "delta", "s_tests", "pi", "seed", "replicates", "mix_component")


def _read_config(path: Path) -> dict[str, str]:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}: line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"{path}: line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _config_int(source: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{source}: key '{key}': not an integer: {raw!r}") from None


def _config_float(source: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"{source}: key '{key}': not a number: {raw!r}") from None


def _build_sim_config(args: argparse.Namespace) -> simulate.SimConfig:
    file_values: dict[str, str] = {}
    if args.infile:
        file_values = _read_config(Path(args.infile))
    source = str(args.infile)

    def pick(flag_value, key: str, cast, default):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            return cast(source, key, file_values[key])
        return default

    regime = args.regime if args.regime else file_values.get("regime")
    if regime is None:
        raise ValidationError("simulate needs a regime (--regime or config file)")
    m = pick(args.m, "m", _config_int, None)
    if m is None:
        raise ValidationError("simulate needs m (--m or config file)")
    seed = pick(args.seed, "seed", _config_int, None)
    if seed is None:
        raise ValidationError("simulate needs a seed (--seed or config file)")
    cfg = simulate.SimConfig(
        regime=regime,
        m=m,
        seed=seed,
        delta=pick(args.delta, "delta", _config_float, None),
        s_tests=pick(args.s_tests, "s_tests", _config_int, 1),
        pi_mix=pick(args.pi, "pi", _config_float, 0.0),
        replicates=pick(args.replicates, "replicates", _config_int, 1),
        mix_component=args.mix_component or file_values.get("mix_component", "phack"),
    )
    _reject_unread_flags(args, cfg)
    return cfg


def _reject_unread_flags(args: argparse.Namespace, cfg: simulate.SimConfig) -> None:
    """Reject a regime flag that the run never reads, so that it cannot pass unnoticed.

    Config-file keys are not checked: one file may serve several regimes.
    """
    if cfg.regime == "mixture":
        component_flag = "s_tests" if cfg.mix_component == "phack" else "delta"
        read = {"pi", "mix_component", component_flag}
        regime = f"mixture with mix component {cfg.mix_component}"
    else:
        read = {"null": set(), "effect": {"delta"}, "phack": {"s_tests"}}[cfg.regime]
        regime = cfg.regime
    for name in ("delta", "s_tests", "pi", "mix_component"):
        if getattr(args, name) is not None and name not in read:
            flag = "--" + name.replace("_", "-")
            raise ValidationError(f"regime {regime} does not read {flag}")


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _build_sim_config(args)
    out = _out_dir(args, "simulate")

    p = simulate.draw_pvalues(cfg)
    path = out / "pvalues.csv"
    # Joined by hand, not by the dataset writer: the cells are numbers and a
    # regime name from REGIMES, so none needs quoting, and csv.writer took about
    # 1.7 times as long on the 300,000 rows of a 10,000-replicate run (Python
    # 3.11, 2-vCPU x86-64 VM).
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write("replicate,citation,author,endpoint,p\n")
        for index, row in enumerate(p):
            handle.write("".join([
                f"{index},{study},{simulate.RECORD_AUTHOR},{cfg.regime},{value!r}\n"
                for study, value in enumerate(row.tolist(), start=1)
            ]))
    print(f"# wrote {path}")

    if cfg.replicates >= 100 and cfg.m >= 6:
        stats = simulate.shape_stats(p)
        csv_text = _write_csv(
            out / "shape_stats.csv",
            ("mean_frac_le_005", "mean_ks_d", "mean_bilinearity_ratio"),
            [(stats.mean_frac_le_005, stats.mean_ks_d, stats.mean_bilinearity_ratio)],
        )
        print(csv_text, end="")
        print(
            f"regime {cfg.regime}: mean frac p<=0.05 {stats.mean_frac_le_005:.4f}, "
            f"mean KS D {stats.mean_ks_d:.4f}, "
            f"mean bilinearity ratio {stats.mean_bilinearity_ratio:.4f}"
        )
    else:
        print(
            f"regime {cfg.regime}: wrote {cfg.replicates} replicate(s) of m={cfg.m} "
            "p-values (shape statistics need replicates >= 100 and m >= 6)"
        )
    return 0


# ---------------------------------------------------------------- report


def cmd_report(args: argparse.Namespace) -> int:
    if not args.fixtures:
        raise ValidationError(
            "report runs on the bundled case-study dataset; pass --fixtures"
        )
    # build_pplot checks alpha too, but only after the first tables are
    # written; checking first keeps a bad value from leaving a partial bundle.
    _require_open_unit("alpha", args.alpha)
    out = _out_dir(args, "report")
    dataset = datasets.load_case_dataset()
    _write_spaces(out, dataset.counts)

    described = diagnostics.descriptives(dataset.pvalues)
    desc_columns = ("endpoint", "count", "min_p", "max_p")
    desc_rows = [
        (endpoint, stats.count, stats.min_p, stats.max_p)
        for endpoint, stats in described.items()
    ]
    _write_csv(out / "descriptives.csv", desc_columns, desc_rows)

    diag_rows = []
    for endpoint in described:
        series = diagnostics.build_pplot(dataset.pvalues, endpoint=endpoint, alpha=args.alpha)
        comment = f"p-value plot, endpoint {endpoint}, case-study dataset"
        _write_pplot(out, series, svgplot.PlotOptions(comment=comment))
        diag_rows.append(_diagnostics_row(series))
    _write_csv(out / "diagnostics.csv", _DIAG_COLUMNS, diag_rows)

    _write_backcalc(out, dataset.effects)
    m_tests = len(dataset.effects)
    points, bonferroni_y = diagnostics.build_volcano(dataset.effects, args.alpha, m_tests)
    options = svgplot.PlotOptions(
        title="pooled risk ratios",
        comment=f"volcano plot, case-study dataset, alpha {args.alpha:g}, m_tests {m_tests}",
    )
    _write_volcano(out, points, bonferroni_y, options)

    total = sum(stats.count for stats in described.values())
    print(_text_table(desc_columns, [[str(cell) for cell in row] for row in desc_rows]))
    print(f"total reported p-values: {total}")
    return 0


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
    p.add_argument("--regime", choices=simulate.REGIMES, default=None)
    p.add_argument("--m", type=int, default=None, help="p-values per replicate")
    p.add_argument("--delta", type=float, default=None, help="effect-regime mean shift")
    p.add_argument("--s-tests", dest="s_tests", type=int, default=None,
                   help="candidate tests per study under phack")
    p.add_argument("--pi", type=float, default=None, help="mixture fraction")
    p.add_argument("--mix-component", dest="mix_component", choices=simulate.MIX_COMPONENTS,
                   default=None, help="what the non-null mixture studies are")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (required)")
    p.add_argument("--replicates", type=int, default=None)

    p = add("report", cmd_report, "full audit bundle for the bundled dataset")
    p.add_argument("--fixtures", action="store_true",
                   help="run on the bundled case-study fixtures")
    p.add_argument("--alpha", type=float, default=0.05, help="significance level")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

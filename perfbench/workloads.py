"""The benchmark's workloads: their inputs, CLI invocations and output checks.

A workload is built from a checkout root, a scratch directory for its
generated inputs, and the workload seed. The seed drives the simulation
``--seed`` and the ``pplot_large`` input generator; the program only sees
the resulting arguments and files.

The output checks accept any correct implementation: they test counts,
ranges and statistics computed independently of the package, never bytes
against stored goldens.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Problems found in one iteration's outputs, keyed by invocation name.
Problems = dict[str, list[str]]


@dataclass(frozen=True)
class Invocation:
    """One ``python -m metaaudit.cli`` call; ``--out <dir>/<name>`` is appended."""

    name: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]  # files the call must write into its out dir


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    work: int  # units of work done by one iteration
    work_unit: str  # what work_per_s counts
    inputs: dict[str, Path]
    check: Callable[[Path], Problems]


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _read_sim_pvalues(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        if handle.readline().strip() != "replicate,citation,author,endpoint,p":
            raise ValueError(f"{path.name}: unexpected header")
        return np.array([float(line.rpartition(",")[2]) for line in handle])


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(row for row in handle if not row.startswith("#")))


def _guarded(name: str, check: Callable[[Path], list[str]]) -> Callable[[Path], Problems]:
    """Run ``check`` on one invocation's out dir; unreadable output is a problem."""

    def run(root: Path) -> Problems:
        try:
            return {name: check(root / name)}
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return {name: [f"unreadable output: {exc!r}"]}

    return run


# ---------------------------------------------------------------- simulate

SIM_M = 30
NULL_REPLICATES = 10_000
PHACK_S_TESTS = 10_000
PHACK_REPLICATES = 1_000


def _simulate(name: str, regime_args: tuple[str, ...], n_pvalues: int,
              check: Callable[[Path], list[str]]) -> Workload:
    invocation = Invocation("simulate", ("simulate", *regime_args), ("pvalues.csv", "shape_stats.csv"))
    return Workload(
        name=name,
        invocations=(invocation,),
        work=n_pvalues,
        work_unit="p-values simulated",
        inputs={},
        check=_guarded("simulate", check),
    )


def simulate_null(root: Path, scratch: Path, seed: int) -> Workload:
    n = NULL_REPLICATES * SIM_M

    def check(out: Path) -> list[str]:
        problems = []
        p = _read_sim_pvalues(out / "pvalues.csv")
        if p.size != n:
            problems.append(f"pvalues.csv has {p.size} rows, expected {n}")
        if not np.all((p >= 1e-300) & (p <= 1.0)):
            problems.append("pvalues.csv has p outside [1e-300, 1]")
        frac = float(_read_rows(out / "shape_stats.csv")[0]["mean_frac_le_005"])
        if not 0.045 <= frac <= 0.055:
            problems.append(f"mean_frac_le_005 = {frac!r}, outside [0.045, 0.055]")
        return problems

    args = ("--regime", "null", "--m", str(SIM_M), "--replicates", str(NULL_REPLICATES),
            "--seed", str(seed))
    return _simulate("simulate_null", args, n, check)


def simulate_phack(root: Path, scratch: Path, seed: int) -> Workload:
    n = PHACK_REPLICATES * SIM_M
    s = PHACK_S_TESTS

    def check(out: Path) -> list[str]:
        problems = []
        p = _read_sim_pvalues(out / "pvalues.csv")
        if p.size != n:
            problems.append(f"pvalues.csv has {p.size} rows, expected {n}")
            return problems
        # The minimum of S uniforms is Beta(1, S): mean 1/(S+1).
        mean = 1.0 / (s + 1)
        se = math.sqrt(s / ((s + 1) ** 2 * (s + 2)) / n)
        if abs(float(p.mean()) - mean) > 5.0 * se:
            problems.append(f"mean p {p.mean()!r} is more than 5 SE from 1/(S+1) = {mean!r}")
        return problems

    args = ("--regime", "phack", "--m", str(SIM_M), "--s-tests", str(s),
            "--replicates", str(PHACK_REPLICATES), "--seed", str(seed))
    return _simulate("simulate_phack", args, n, check)


# ------------------------------------------------------------ pplot_large

PPLOT_ENDPOINT = "NO2"
PPLOT_OTHERS = ("CO", "PM10", "SO2", "ozone")
PPLOT_ROWS = {PPLOT_ENDPOINT: 80_000, **{e: 5_000 for e in PPLOT_OTHERS}}
PPLOT_BLANK_SHARE = 0.005  # rows with a blank p cell, which load as no record
PPLOT_TRUNCATED_SHARE = 0.01  # rows reported as "<0.001"
PPLOT_SMALL_SHARE = 0.25  # rows from the selected, small-p arm of the hockey stick
ALPHA = 0.05


def _generate_pvalue_csv(path: Path, seed: int) -> np.ndarray:
    """Write a hockey-stick p-value CSV; return the target endpoint's p as loaded."""
    rng = np.random.default_rng(seed)
    endpoints, cells = [], []
    target_p = None
    for endpoint, rows in PPLOT_ROWS.items():
        p = 1.0 - rng.random(rows)  # Uniform on (0, 1]
        small = rng.permutation(rows)[: int(rows * PPLOT_SMALL_SHARE)]
        p[small] = ALPHA * (1.0 - rng.random(small.size)) ** 3
        text = [repr(float(v)) for v in p]
        special = rng.permutation(rows)
        n_blank = int(rows * PPLOT_BLANK_SHARE)
        n_truncated = int(rows * PPLOT_TRUNCATED_SHARE)
        for i in special[:n_blank]:
            text[i] = ""
        for i in special[n_blank:n_blank + n_truncated]:
            text[i] = "<0.001"
            p[i] = 0.001
        if endpoint == PPLOT_ENDPOINT:
            target_p = np.delete(p, special[:n_blank])
        endpoints += [endpoint] * rows
        cells += text
    order = rng.permutation(len(cells))
    negative = rng.random(len(cells)) < 0.2
    lines = ["citation,author,endpoint,p,direction_negative"]
    for citation, i in enumerate(order, start=1):
        lines.append(f"{citation},A{i},{endpoints[i]},{cells[i]},"
                     f"{'true' if negative[i] else 'false'}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return target_p


def pplot_large(root: Path, scratch: Path, seed: int) -> Workload:
    infile = scratch / "pvalues_large.csv"
    p = np.sort(_generate_pvalue_csv(infile, seed))
    m = p.size
    i = np.arange(1, m + 1, dtype=float)
    ks_d = float(max(np.max(i / m - p), np.max(p - (i - 1.0) / m), 0.0))
    k = int(np.count_nonzero(p <= ALPHA))

    def check(out: Path) -> list[str]:
        problems = []
        row = _read_rows(out / "diagnostics.csv")[0]
        if int(row["m"]) != m:
            problems.append(f"m = {row['m']}, expected {m}")
        if float(row["frac_le_alpha"]) != k / m:
            problems.append(f"frac_le_alpha = {row['frac_le_alpha']}, expected {k}/{m}")
        if abs(float(row["ks_d"]) - ks_d) > 1e-12:
            problems.append(f"ks_d = {row['ks_d']}, direct computation {ks_d!r}")
        if not 0.0 <= float(row["ratio"]) <= 1.0:
            problems.append(f"ratio = {row['ratio']}, outside [0, 1]")
        circles = (out / f"pplot_{PPLOT_ENDPOINT}.svg").read_text(encoding="utf-8").count("<circle")
        if circles != m:
            problems.append(f"SVG has {circles} circles, expected {m}")
        return problems

    invocation = Invocation(
        "pplot",
        ("pplot", "--in", str(infile), "--endpoint", PPLOT_ENDPOINT),
        (f"pplot_{PPLOT_ENDPOINT}.csv", f"pplot_{PPLOT_ENDPOINT}.svg", "diagnostics.csv"),
    )
    return Workload(
        name="pplot_large",
        invocations=(invocation,),
        work=sum(PPLOT_ROWS.values()),
        work_unit="input rows",
        inputs={infile.name: infile},
        check=_guarded("pplot", check),
    )


# --------------------------------------------------------- audit_fixtures


def _mp_p_from_ci(rr: str, ci_low: str, ci_high: str, level: str) -> float:
    """Two-sided p implied by a ratio and its CI, at 50 digits."""
    from mpmath import erfc, erfinv, log, mp, mpf, sqrt

    with mp.workdps(50):
        crit = sqrt(2) * erfinv(mpf(level))
        se = (log(mpf(ci_high)) - log(mpf(ci_low))) / (2 * crit)
        z = log(mpf(rr)) / se
        return float(erfc(abs(z) / sqrt(2)))


def audit_fixtures(root: Path, scratch: Path, seed: int) -> Workload:
    fixtures = root / "src" / "metaaudit" / "fixtures"
    counts = fixtures / "case_counts.csv"
    pvalues = fixtures / "case_pvalues.csv"
    effects = fixtures / "case_effects.csv"
    reference_p = {
        row["label"]: _mp_p_from_ci(row["rr"], row["ci_low"], row["ci_high"],
                                    row.get("level") or "0.95")
        for row in _read_rows(effects)
    }
    ozone_m = sum(1 for row in _read_rows(pvalues) if row["endpoint"] == "ozone" and row["p"])

    def backcalc_problems(path: Path) -> list[str]:
        rows = _read_rows(path)
        problems = [] if len(rows) == len(reference_p) else [
            f"{path.name} has {len(rows)} rows, expected {len(reference_p)}"]
        for row in rows:
            expected = reference_p[row["label"]]
            if abs(float(row["p"]) - expected) > 1e-12 * expected:
                problems.append(f"{path.name}: {row['label']} p = {row['p']}, mpmath {expected!r}")
        return problems

    def space_rows(path: Path) -> list[str]:
        n = len(_read_rows(path))
        return [] if n == 34 else [f"{path.name} has {n} rows, expected 34"]

    def report(out: Path) -> list[str]:
        total = sum(int(row["count"]) for row in _read_rows(out / "descriptives.csv"))
        problems = [] if total == 104 else [f"descriptives.csv counts {total} p-values, expected 104"]
        return problems + space_rows(out / "spaces.csv") + backcalc_problems(out / "backcalc.csv")

    def pplot(out: Path) -> list[str]:
        m = int(_read_rows(out / "diagnostics.csv")[0]["m"])
        return [] if m == ozone_m else [f"ozone m = {m}, expected {ozone_m}"]

    def no_check(out: Path) -> list[str]:
        return []

    report_outputs = ("spaces.csv", "space_summary.csv", "descriptives.csv", "diagnostics.csv",
                      "backcalc.csv", "volcano.csv", "volcano.svg")
    plan = (
        (Invocation("report", ("report", "--fixtures"), report_outputs), report),
        (Invocation("pool_dl", ("pool", "--in", str(effects), "--method", "dl"), ("pooled.csv",)),
         no_check),
        (Invocation("pool_fixed", ("pool", "--in", str(effects), "--method", "fixed"),
                    ("pooled.csv",)), no_check),
        (Invocation("pfromci", ("pfromci", "--in", str(effects)), ("backcalc.csv",)),
         lambda out: backcalc_problems(out / "backcalc.csv")),
        (Invocation("spaces", ("spaces", "--in", str(counts)), ("spaces.csv", "space_summary.csv")),
         lambda out: space_rows(out / "spaces.csv")),
        (Invocation("volcano", ("volcano", "--in", str(effects)), ("volcano.csv", "volcano.svg")),
         no_check),
        (Invocation("pplot", ("pplot", "--in", str(pvalues), "--endpoint", "ozone"),
                    ("pplot_ozone.csv", "pplot_ozone.svg", "diagnostics.csv")), pplot),
    )
    checks = [_guarded(inv.name, fn) for inv, fn in plan]

    def check(root_out: Path) -> Problems:
        problems: Problems = {}
        for fn in checks:
            problems.update(fn(root_out))
        return problems

    return Workload(
        name="audit_fixtures",
        invocations=tuple(inv for inv, _ in plan),
        work=len(plan),
        work_unit="commands",
        inputs={p.name: p for p in (counts, pvalues, effects)},
        check=check,
    )


WORKLOADS = {
    "audit_fixtures": audit_fixtures,
    "simulate_null": simulate_null,
    "simulate_phack": simulate_phack,
    "pplot_large": pplot_large,
}

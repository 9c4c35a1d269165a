"""End-to-end tests of the command-line interface: exit codes, outputs,
determinism, and argument validation."""

import csv
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import metaaudit
from metaaudit import case_counts_path, case_effects_path, case_pvalues_path, simulate
from metaaudit.cli import main


def run(args, tmp_path, out="o"):
    return main(args + ["--out", str(tmp_path / out)])


def read_all(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# ---------------------------------------------------------------- spaces


def test_spaces_reproduces_summary(tmp_path, capsys):
    code = run(["spaces", "--in", str(case_counts_path())], tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    for token in ("12,288", "2,496", "58,368", "4,587,520", "16,384"):
        assert token in out
    assert (tmp_path / "o" / "spaces.csv").exists()
    assert (tmp_path / "o" / "space_summary.csv").exists()
    spaces_lines = (tmp_path / "o" / "spaces.csv").read_text().splitlines()
    assert len(spaces_lines) == 35  # header + 34 studies


def test_spaces_rerun_is_byte_identical(tmp_path):
    run(["spaces", "--in", str(case_counts_path())], tmp_path, out="a")
    run(["spaces", "--in", str(case_counts_path())], tmp_path, out="b")
    assert read_all(tmp_path / "a") == read_all(tmp_path / "b")


def test_spaces_does_not_mutate_input(tmp_path):
    copy = tmp_path / "counts.csv"
    shutil.copyfile(case_counts_path(), copy)
    before = copy.read_bytes()
    assert run(["spaces", "--in", str(copy)], tmp_path) == 0
    assert copy.read_bytes() == before


# ----------------------------------------------------------------- pplot


def test_pplot_outputs(tmp_path, capsys):
    code = run(
        ["pplot", "--in", str(case_pvalues_path()), "--endpoint", "ozone"], tmp_path
    )
    assert code == 0
    names = set(read_all(tmp_path / "o"))
    assert names == {"pplot_ozone.csv", "pplot_ozone.svg", "diagnostics.csv"}
    out = capsys.readouterr().out
    assert "m=19" in out


def test_pplot_unknown_endpoint(tmp_path, capsys):
    code = run(
        ["pplot", "--in", str(case_pvalues_path()), "--endpoint", "lead"], tmp_path
    )
    assert code == 2
    assert "lead" in capsys.readouterr().err


def test_pplot_invalid_row_names_location(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("citation,author,endpoint,p,direction_negative\n1,a,x,2.0,false\n")
    code = run(["pplot", "--in", str(bad), "--endpoint", "x"], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert "row 2" in err


@pytest.mark.parametrize(
    "command,header,row",
    [
        ("pplot", "citation,author,endpoint,p,direction_negative", "1,a,x,0.5,maybe"),
        ("pplot", "citation,author,endpoint,p,direction_negative", "one,a,x,0.5,false"),
        ("pfromci", "label,rr,ci_low,ci_high", "x,abc,1.0,2.0"),
    ],
    ids=["direction_negative", "citation", "rr"],
)
def test_bad_field_names_location_once(tmp_path, capsys, command, header, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"{header}\n{row}\n")
    extra = ["--endpoint", "x"] if command == "pplot" else []
    assert run([command, "--in", str(bad), *extra], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.count(f"{bad}: row 2: ") == 1


@pytest.mark.parametrize("command", ["pfromci", "volcano"])
def test_oversized_csv_field_is_validation_error(tmp_path, capsys, command):
    big = tmp_path / "big.csv"
    big.write_text("label,rr,ci_low,ci_high\n" + "x" * 200_000 + ",1.1,1.0,1.2\n")
    assert run([command, "--in", str(big)], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {big}: line 2: ") and "field limit" in err


def test_missing_input_is_io_error(tmp_path, capsys):
    code = run(["pplot", "--in", str(tmp_path / "nope.csv"), "--endpoint", "x"], tmp_path)
    assert code == 1


def test_pplot_non_utf8_input_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"citation,author,endpoint,p,direction_negative\n1,M\xfcller,x,0.5,false\n")
    code = run(["pplot", "--in", str(bad), "--endpoint", "x"], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(bad) in err and "UTF-8" in err


@pytest.mark.parametrize("label", ["a/b", "x/../../escaped", "a\\b"])
def test_pplot_endpoint_label_must_be_one_file_name(tmp_path, capsys, label):
    data = tmp_path / "labels.csv"
    data.write_text(
        "citation,author,endpoint,p,direction_negative\n"
        f"1,a,{label},0.01,false\n2,b,{label},0.4,false\n"
    )
    out = tmp_path / "o"
    (out / "pplot_x").mkdir(parents=True)  # lets "pplot_x/../../escaped" resolve
    code = run(["pplot", "--in", str(data), "--endpoint", label], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert repr(label) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.csv", "o"]
    assert [p.name for p in out.iterdir()] == ["pplot_x"]
    assert not any((out / "pplot_x").iterdir())


# --------------------------------------------------------------- volcano


def test_volcano_outputs(tmp_path, capsys):
    code = run(["volcano", "--in", str(case_effects_path()), "--m-tests", "66"], tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "3.121" in out  # -log10(0.05/66)
    assert {"volcano.csv", "volcano.svg"} <= set(read_all(tmp_path / "o"))


def test_volcano_default_m_tests(tmp_path, capsys):
    code = run(["volcano", "--in", str(case_effects_path())], tmp_path)
    assert code == 0
    assert "0.05/6" in capsys.readouterr().out


# ------------------------------------------------------------------ pool


@pytest.mark.parametrize("method,expected", [("fixed", "fixed"), ("dl", "random_DL")])
def test_pool_methods(tmp_path, capsys, method, expected):
    code = run(["pool", "--in", str(case_effects_path()), "--method", method], tmp_path)
    assert code == 0
    assert expected in capsys.readouterr().out
    assert "pooled.csv" in read_all(tmp_path / "o")


# --------------------------------------------------------------- pfromci


def test_pfromci_table(tmp_path, capsys):
    code = run(["pfromci", "--in", str(case_effects_path())], tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "ozone" in out
    assert "backcalc.csv" in read_all(tmp_path / "o")


def test_pfromci_empty_is_validation_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("label,rr,ci_low,ci_high\n")
    code = run(["pfromci", "--in", str(empty)], tmp_path)
    assert code == 2
    assert "no rows" in capsys.readouterr().err


# -------------------------------------------------------------- simulate


def test_simulate_requires_seed(tmp_path, capsys):
    code = run(["simulate", "--regime", "null", "--m", "10"], tmp_path)
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_seed_rejected_outside_simulate(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["pool", "--in", str(case_effects_path()), "--method", "dl", "--seed", "1"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--m", "abc", "--seed", "1"],
        ["bogus"],
        ["simulate", "--regime", "bogus", "--m", "10", "--seed", "1"],
    ],
    ids=["bad-int", "unknown-command", "bad-choice"],
)
def test_bad_command_line_is_one_stderr_line(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_simulate_deterministic_outputs(tmp_path):
    args = ["simulate", "--regime", "phack", "--m", "8", "--s-tests", "30",
            "--seed", "99", "--replicates", "3"]
    run(args, tmp_path, out="a")
    run(args, tmp_path, out="b")
    assert read_all(tmp_path / "a") == read_all(tmp_path / "b")
    lines = (tmp_path / "a" / "pvalues.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 8


def test_simulate_shape_stats_written(tmp_path, capsys):
    code = run(
        ["simulate", "--regime", "null", "--m", "10", "--seed", "5",
         "--replicates", "100"],
        tmp_path,
    )
    assert code == 0
    assert "shape_stats.csv" in read_all(tmp_path / "o")
    assert "mean bilinearity ratio" in capsys.readouterr().out


def test_simulate_config_file(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("# demo config\nregime=phack\nm=6\ns_tests=12\nseed=4\nreplicates=2\n")
    code = run(["simulate", "--in", str(cfg)], tmp_path)
    assert code == 0
    lines = (tmp_path / "o" / "pvalues.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 6


def test_simulate_flags_override_config(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("regime=null\nm=6\nseed=4\nreplicates=2\n")
    code = run(["simulate", "--in", str(cfg), "--replicates", "5"], tmp_path)
    assert code == 0
    lines = (tmp_path / "o" / "pvalues.csv").read_text().splitlines()
    assert len(lines) == 1 + 5 * 6


def test_simulate_bad_config_key(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("regime=null\nm=6\nseed=4\nwat=1\n")
    code = run(["simulate", "--in", str(cfg)], tmp_path)
    assert code == 2
    assert "wat" in capsys.readouterr().err


def test_simulate_non_utf8_config_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_bytes(b"regime=null\nm=6\xff\nseed=4\n")
    code = run(["simulate", "--in", str(cfg)], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(cfg) in err and "UTF-8" in err


@pytest.mark.parametrize(
    "flags, config",
    [
        (["--regime", "effect"], ""),
        ([], "regime=mixture\nmix_component=effect\npi=0.3\n"),
        (["--regime", "mixture", "--mix-component", "effect", "--pi", "0.3"], ""),
    ],
    ids=["effect", "mixture-effect", "mixture-effect-flag"],
)
def test_simulate_effect_studies_need_delta(tmp_path, capsys, flags, config):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(config + "m=10\nseed=4\n")
    code = run(["simulate", "--in", str(cfg)] + flags, tmp_path)
    assert code == 2
    assert "delta" in capsys.readouterr().err
    assert run(["simulate", "--in", str(cfg), "--delta", "0"] + flags, tmp_path) == 0


def test_simulate_mix_component_flag_overrides_config(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("regime=mixture\nmix_component=effect\ndelta=3\npi=1\nm=10\nseed=4\n")
    assert run(["simulate", "--in", str(cfg)], tmp_path, out="effect") == 0
    assert run(["simulate", "--in", str(cfg), "--mix-component", "phack"], tmp_path,
               out="phack") == 0
    # with pi=1 every study is non-null, so the two components give different p-values
    effect, phack = (read_all(tmp_path / out) for out in ("effect", "phack"))
    assert effect["pvalues.csv"] != phack["pvalues.csv"]


@pytest.mark.parametrize(
    "regime_flags, unread",
    [
        (["--regime", "null"], ["--delta", "2"]),
        (["--regime", "null"], ["--s-tests", "7"]),
        (["--regime", "null"], ["--pi", "0.5"]),
        (["--regime", "null"], ["--mix-component", "effect"]),
        (["--regime", "effect", "--delta", "1"], ["--s-tests", "7"]),
        (["--regime", "phack", "--s-tests", "7"], ["--delta", "2"]),
        (["--regime", "phack"], ["--mix-component", "phack"]),
        (["--regime", "mixture", "--pi", "0.5"], ["--delta", "2"]),
        (["--regime", "mixture", "--pi", "0.5", "--mix-component", "effect", "--delta", "1"],
         ["--s-tests", "7"]),
    ],
    ids=["null-delta", "null-s-tests", "null-pi", "null-mix-component", "effect-s-tests",
         "phack-delta", "phack-mix-component", "mixture-phack-delta", "mixture-effect-s-tests"],
)
def test_simulate_rejects_flags_the_regime_never_reads(tmp_path, capsys, regime_flags, unread):
    argv = ["simulate", *regime_flags, "--m", "10", "--seed", "1"]
    assert run(argv, tmp_path) == 0
    capsys.readouterr()
    assert run(argv + unread, tmp_path, out="unread") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"regime {regime_flags[1]}" in err and unread[0] in err
    assert not (tmp_path / "unread").exists()


@pytest.mark.parametrize(
    "flags", [["--regime", "phack"], ["--regime", "mixture", "--pi", "0.4"]],
    ids=["phack", "mixture"],
)
def test_simulate_search_space_of_any_size(tmp_path, capsys, flags):
    # the minimum p of 10**8 candidates is one Beta(1, S) draw per study
    code = run(["simulate", *flags, "--m", "30", "--s-tests", "100000000",
                "--replicates", "2", "--seed", "1"], tmp_path)
    assert code == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "o" / "pvalues.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 30


def test_simulate_draw_memory_does_not_grow_with_search_space():
    def peak(s_tests):
        cfg = simulate.SimConfig(regime="mixture", m=30, seed=1, s_tests=s_tests, pi_mix=0.4,
                                 replicates=50)
        tracemalloc.start()
        try:
            simulate.draw_pvalues(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, huge = peak(10), peak(10**8)
    assert huge <= 2 * small


# ---------------------------------------------------------------- report


def test_report_requires_fixtures_flag(tmp_path, capsys):
    code = run(["report"], tmp_path)
    assert code == 2
    assert "--fixtures" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["2", "0", "nan", "-inf"])
def test_report_bad_alpha_writes_nothing(tmp_path, capsys, alpha):
    code = run(["report", "--fixtures", f"--alpha={alpha}"], tmp_path)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "alpha must" in captured.err
    assert not (tmp_path / "o").exists()


def test_report_bundle(tmp_path, capsys):
    code = run(["report", "--fixtures"], tmp_path)
    assert code == 0
    names = set(read_all(tmp_path / "o"))
    expected = {
        "spaces.csv", "space_summary.csv", "descriptives.csv", "diagnostics.csv",
        "backcalc.csv", "volcano.csv", "volcano.svg",
    }
    for endpoint in ("ozone", "CO", "NO2", "SO2", "PM10", "PM2.5"):
        expected.add(f"pplot_{endpoint}.csv")
        expected.add(f"pplot_{endpoint}.svg")
    assert names == expected
    out = capsys.readouterr().out
    assert "total reported p-values: 104" in out


def test_report_rerun_is_byte_identical(tmp_path):
    run(["report", "--fixtures"], tmp_path, out="a")
    run(["report", "--fixtures"], tmp_path, out="b")
    assert read_all(tmp_path / "a") == read_all(tmp_path / "b")


# --------------------------------------------------------------- imports


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(metaaudit.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=120,
    )


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; the installed tool must not need it.
    code = (
        "import metaaudit.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert run_fresh(code).stdout == "[]\n"


def test_array_free_commands_load_no_numpy(tmp_path):
    # Five of the seven commands never build an array, so they must start
    # without numpy, and no command needs the XML or URL libraries.
    heavy = ("numpy", "xml.sax", "urllib.request")
    code = f"""
import sys
import metaaudit
bare = sorted(m for m in {heavy!r} if m in sys.modules)
from metaaudit import case_counts_path, case_effects_path
from metaaudit.cli import main
effects, out = str(case_effects_path()), {str(tmp_path)!r}
runs = [
    ["spaces", "--in", str(case_counts_path())],
    ["pool", "--in", effects, "--method", "fixed"],
    ["pool", "--in", effects, "--method", "dl"],
    ["pfromci", "--in", effects],
    ["volcano", "--in", effects],
]
codes = [main(argv + ["--out", out + "/" + argv[0]]) for argv in runs]
print(bare, codes, sorted(m for m in {heavy!r} if m in sys.modules), file=sys.stderr)
"""
    assert run_fresh(code).stderr == "[] [0, 0, 0, 0, 0] []\n"


# ------------------------------------------------------------ CSV quoting

# Free text in a cell: a comma, a quote and a line break.
TRICKY = 'Smith, "J"\nJr'
TRICKY_CELL = '"Smith, ""J""\nJr"'


def read_table(path):
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    assert all(len(row) == len(header) for row in rows), path
    return rows


def test_free_text_cells_are_quoted_and_read_back(tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text(
        "citation,author,outcomes,predictors,covariates,lags\n"
        f"1,{TRICKY_CELL},2,3,4,5\n2,Braga,4,1,6,4\n"
    )
    effects = tmp_path / "effects.csv"
    effects.write_text(f"label,rr,ci_low,ci_high\n{TRICKY_CELL},1.05,1.01,1.09\nCO,1.048,1.026,1.070\n")
    pvalues = tmp_path / "pvalues.csv"
    pvalues.write_text(
        "citation,author,endpoint,p,direction_negative\n"
        + "".join(f"{i},{TRICKY_CELL},{TRICKY_CELL},0.0{i},false\n" for i in range(1, 4))
    )
    assert run(["spaces", "--in", str(counts)], tmp_path, out="spaces") == 0
    assert run(["volcano", "--in", str(effects)], tmp_path, out="volcano") == 0
    assert run(["pfromci", "--in", str(effects)], tmp_path, out="pfromci") == 0
    assert run(["pplot", "--in", str(pvalues), "--endpoint", TRICKY], tmp_path, out="pplot") == 0

    assert read_table(tmp_path / "spaces" / "spaces.csv")[0][1] == TRICKY
    assert read_table(tmp_path / "volcano" / "volcano.csv")[0][0] == TRICKY
    assert read_table(tmp_path / "pfromci" / "backcalc.csv")[0][0] == TRICKY
    assert read_table(tmp_path / "pplot" / "diagnostics.csv")[0][0] == TRICKY

    # spaces.csv is itself a valid counts input, and reading it back changes nothing
    spaces_csv = tmp_path / "spaces" / "spaces.csv"
    assert run(["spaces", "--in", str(spaces_csv)], tmp_path, out="again") == 0
    assert (tmp_path / "again" / "spaces.csv").read_bytes() == spaces_csv.read_bytes()

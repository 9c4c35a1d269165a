"""End-to-end tests of the command-line interface: exit codes, outputs,
determinism, and argument validation."""

import argparse
import csv
import inspect
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import metaaudit
from metaaudit import (
    ValidationError, case_counts_path, case_effects_path, case_pvalues_path, compute_space,
    load_pvalues, simulate,
)
from metaaudit.cli import _SETTINGS, _build_parser, main


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


@pytest.mark.parametrize(
    "argv", [["spaces", "--in", str(case_counts_path())], ["report", "--fixtures"]],
    ids=["spaces", "report"],
)
def test_spaces_are_computed_once_to_check_and_once_to_write(tmp_path, monkeypatch, argv):
    # The summary is taken over the spaces save_counts wrote, not computed a third time.
    calls = []

    def counted(counts):
        calls.append(counts.citation)
        return compute_space(counts)

    for module in (metaaudit.datasets, metaaudit.cli):
        if hasattr(module, "compute_space"):
            monkeypatch.setattr(module, "compute_space", counted)
    assert run(argv, tmp_path) == 0
    assert len(calls) == 2 * 34


def test_spaces_does_not_mutate_input(tmp_path):
    copy = tmp_path / "counts.csv"
    shutil.copyfile(case_counts_path(), copy)
    before = copy.read_bytes()
    assert run(["spaces", "--in", str(copy)], tmp_path) == 0
    assert copy.read_bytes() == before


def test_spaces_too_long_to_print_is_one_stderr_line(tmp_path, capsys):
    # 4000 digits parse, but their 8000-digit product is past Python's int -> str limit.
    digits = "7" * 4000
    counts = tmp_path / "c.csv"
    counts.write_text(
        f"citation,author,outcomes,predictors,covariates,lags\n1,a,{digits},{digits},0,1\n"
    )
    assert run(["spaces", "--in", str(counts)], tmp_path) == 2
    assert capsys.readouterr().err == (
        f"error: {counts}: row 2: space1=<integer of more than 4300 digits> "
        "exceeds the 64-bit range (citation 1)\n"
    )
    assert not (tmp_path / "o").exists()


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


PVALUES_HEADER = "citation,author,endpoint,p,direction_negative"


@pytest.mark.parametrize(
    "row, message",
    [
        ("7,a,y,abc,false", "field 'p': not a number: 'abc'"),
        ("7,a,y,1.5,false", "p must lie in (0, 1], got 1.5 (citation 7)"),
        ("7,a,y,nan,false", "p must be finite, got nan"),
        ("7.5,a,y,0.5,false", "field 'citation': not an integer: '7.5'"),
        ("7,a,y,0.5,maybe", "field 'direction_negative': not a boolean: 'maybe'"),
        ("7,a,,0.5,false", "endpoint must be a non-empty string"),
        ("3,b,y,0.6,false", "duplicate (citation, endpoint) = (3, 'y')"),
    ],
    ids=["p-not-a-number", "p-above-one", "p-nan", "citation", "direction_negative",
         "blank-endpoint", "duplicate-key"],
)
def test_pplot_validates_rows_of_other_endpoints(tmp_path, capsys, row, message):
    # The bad row is record 5, in endpoint y (or none), while x is plotted.
    bad = tmp_path / "bad.csv"
    plotted = [f"{citation},a,x,{citation / 10},false" for citation in range(1, 7)]
    rows = [PVALUES_HEADER, *plotted[:2], "3,a,y,0.2,false", row, *plotted[2:]]
    bad.write_text("\n".join(rows) + "\n")
    assert run(["pplot", "--in", str(bad), "--endpoint", "x"], tmp_path) == 2
    assert capsys.readouterr().err == f"error: {bad}: row 5: {message}\n"
    assert not (tmp_path / "o").exists()


def test_pplot_plots_the_loaded_pvalues_of_its_endpoint(tmp_path):
    data = tmp_path / "mixed.csv"
    data.write_text("\n".join([
        PVALUES_HEADER,
        "1,a,x,0.30,false", "1,a,y,<0.001,true", "2,b,x,,false", "2,b,y,0.02,false",
        "3,c,x,<0.001,false", "# a comment", "3,c,y,,true", "4,d,x,0.04,true",
        "5,e,y,1,false", "5,e,x,0.5e-2,false", "6,f,z,0.7,false",
    ]) + "\n")
    records = load_pvalues(data)
    for endpoint in ("x", "y", "z"):
        assert run(["pplot", "--in", str(data), "--endpoint", endpoint], tmp_path,
                   out=endpoint) == 0
        lines = (tmp_path / endpoint / f"pplot_{endpoint}.csv").read_text().splitlines()
        plotted = [float(line.split(",")[1]) for line in lines[1:]]
        assert plotted == sorted(r.p for r in records if r.endpoint == endpoint)


def test_pplot_builds_no_records(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pplot built a record")

    monkeypatch.setattr(metaaudit.datasets, "load_pvalues", refuse)
    monkeypatch.setattr(metaaudit.diagnostics, "build_pplot", refuse)
    monkeypatch.setattr(metaaudit.diagnostics.PValueRecord, "__init__", refuse)
    assert run(["pplot", "--in", str(case_pvalues_path()), "--endpoint", "CO"], tmp_path) == 0


@pytest.mark.parametrize(
    "command,header,row",
    [
        ("pplot", "citation,author,endpoint,p,direction_negative", "1,a,x,0.5,maybe"),
        ("pplot", "citation,author,endpoint,p,direction_negative", "one,a,x,0.5,false"),
        ("pfromci", "label,rr,ci_low,ci_high", "x,abc,1.0,2.0"),
        ("pplot", "citation,author,endpoint,p,direction_negative", "1,a,x,0.5,false,EXTRA,MORE"),
    ],
    ids=["direction_negative", "citation", "rr", "extra-cells"],
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


def test_pplot_bad_endpoint_label_creates_no_out_directory(tmp_path, capsys):
    data = tmp_path / "labels.csv"
    data.write_text(f"{PVALUES_HEADER}\n1,a,a/b,0.01,false\n")
    assert run(["pplot", "--in", str(data), "--endpoint", "a/b"], tmp_path) == 2
    assert capsys.readouterr().err == (
        "error: endpoint 'a/b' cannot be part of an output file name: "
        "it contains '/', '\\' or NUL\n"
    )
    assert not (tmp_path / "o").exists()


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


def test_pfromci_failure_leaves_no_out_directory(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    flat.write_text("label,rr,ci_low,ci_high\na,1.1,1.1,1.1\n")
    assert run(["pfromci", "--in", str(flat)], tmp_path) == 2
    assert capsys.readouterr().err == (
        "error: a: interval has zero width, cannot recover a standard error\n"
    )
    assert not (tmp_path / "o").exists()


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


def test_simulate_repeated_config_key(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("regime=null\nm=5\nseed=4\n# m again\n m = 7\n")
    code = run(["simulate", "--in", str(cfg)], tmp_path)
    assert code == 2
    assert capsys.readouterr().err == f"error: {cfg}: line 5: key 'm' repeats line 2\n"
    assert not (tmp_path / "o").exists()


def test_simulate_config_line_without_equals(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("regime=null\nm 5\nseed=4\n")
    assert run(["simulate", "--in", str(cfg)], tmp_path) == 2
    assert capsys.readouterr().err == f"error: {cfg}: line 2: expected key=value, got 'm 5'\n"
    assert not (tmp_path / "o").exists()


def test_simulate_non_utf8_config_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_bytes(b"regime=null\nm=6\xff\nseed=4\n")
    code = run(["simulate", "--in", str(cfg)], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(cfg) in err and "UTF-8" in err


@pytest.mark.parametrize(
    "config, message",
    [
        ("regime=null\nm=abc\nseed=1\n", "key 'm': not an integer: 'abc'"),
        ("regime=effect\nm=5\nseed=1\ndelta=x1\n", "key 'delta': not a number: 'x1'"),
        ("regime=mixture\nm=5\nseed=1\npi=\n", "key 'pi': not a number: ''"),
        ("regime=null\nm=5\nseed=1\nreplicates=2.5\n",
         "key 'replicates': not an integer: '2.5'"),
        # a required setting is checked before any later key is read
        ("m=5\nseed=1\n", "simulate needs a regime (--regime or config file)"),
        ("m=5\nseed=1\ndelta=x\n", "simulate needs a regime (--regime or config file)"),
        ("regime=null\nseed=1\n", "simulate needs m (--m or config file)"),
        ("regime=null\nseed=abc\n", "simulate needs m (--m or config file)"),
        ("regime=null\nm=5\n", "simulate needs a seed (--seed or config file)"),
        ("regime=null\nm=5\ndelta=x\ns_tests=y\n",
         "simulate needs a seed (--seed or config file)"),
        ("regime=null\nm=abc\n", "key 'm': not an integer: 'abc'"),
        ("regime=bogus\nm=5\nseed=1\ns_tests=y\n", "key 's_tests': not an integer: 'y'"),
        ("regime=bogus\nm=5\nseed=1\n", "regime must be one of"),
        ("regime=mixture\nmix_component=bogus\nm=5\nseed=1\n", "mix_component must be one of"),
    ],
    ids=["int", "float", "empty-float", "float-for-int", "no-regime", "no-regime-bad-delta",
         "no-m", "no-m-bad-seed", "no-seed", "no-seed-bad-delta", "bad-m-no-seed",
         "bad-s-tests-bad-regime", "bad-regime", "bad-mix-component"],
)
def test_simulate_config_errors_in_key_order(tmp_path, capsys, config, message):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(config)
    assert run(["simulate", "--in", str(cfg)], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    expected = f"{cfg}: {message}" if message.startswith("key ") else message
    assert err.startswith(f"error: {expected}")
    assert not (tmp_path / "o").exists()


def test_simulate_flag_overrides_a_bad_config_value(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("regime=null\nm=abc\nseed=1\n")
    assert run(["simulate", "--in", str(cfg), "--m", "5"], tmp_path) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.endswith(
        "regime null: wrote 1 replicate(s) of m=5 p-values "
        "(shape statistics need replicates >= 100 and m >= 6)\n"
    )
    lines = (tmp_path / "o" / "pvalues.csv").read_text().splitlines()
    assert len(lines) == 1 + 5


@pytest.mark.parametrize(
    "given, defaults",
    [
        (["--regime", "null"], ["--replicates", "1"]),
        (["--regime", "effect", "--delta", "0.5"], ["--replicates", "1"]),
        (["--regime", "phack"], ["--s-tests", "1", "--replicates", "1"]),
        (["--regime", "mixture"],
         ["--pi", "0", "--mix-component", "phack", "--s-tests", "1", "--replicates", "1"]),
    ],
    ids=["null", "effect", "phack", "mixture"],
)
def test_simulate_defaults_equal_explicit_values(tmp_path, capsys, given, defaults):
    argv = ["simulate", *given, "--m", "7", "--seed", "3"]
    assert run(argv, tmp_path, out="implicit") == 0
    implicit = capsys.readouterr().out.replace("implicit", "<out>")
    assert run(argv + defaults, tmp_path, out="explicit") == 0
    explicit = capsys.readouterr().out.replace("explicit", "<out>")
    assert implicit == explicit
    assert read_all(tmp_path / "implicit") == read_all(tmp_path / "explicit")


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


@pytest.mark.parametrize("flags, config", [(["--pi", "1.5"], ""), ([], "pi=1.5\n")],
                         ids=["flag", "config"])
def test_simulate_range_error_names_the_key(tmp_path, capsys, flags, config):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("regime=mixture\nm=10\nseed=4\n" + config)
    assert run(["simulate", "--in", str(cfg), *flags], tmp_path) == 2
    assert capsys.readouterr().err == "error: pi must lie in [0, 1], got 1.5\n"
    # The library names its own field.
    with pytest.raises(ValidationError, match=r"^pi_mix must lie in \[0, 1\], got 1.5$"):
        simulate.SimConfig(regime="mixture", m=10, seed=4, pi_mix=1.5)


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


def test_simulate_settings_agree_with_flags_and_sim_config():
    # a setting added to the table, the flags or SimConfig but missed elsewhere fails here
    parser = _build_parser()
    [subcommands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        action.dest: action for action in subcommands.choices["simulate"]._actions
        if action.dest not in ("help", "out", "infile")
    }
    fields = inspect.signature(simulate.SimConfig).parameters
    assert set(_SETTINGS) == set(flags)
    assert {field for field, _, _ in _SETTINGS.values()} == set(fields)
    for key, (field, parse, needs) in _SETTINGS.items():
        assert flags[key].option_strings == ["--" + key.replace("_", "-")]
        assert flags[key].default is None
        assert flags[key].type in (parse, None)
        assert (needs is not None) == (fields[field].default is inspect.Parameter.empty)
    for regime in simulate.REGIMES:
        for component in simulate.MIX_COMPONENTS:
            cfg = simulate.SimConfig(regime=regime, m=5, seed=1, delta=1.0,
                                     mix_component=component)
            assert cfg.reads() <= set(fields)


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


# Each would overflow or exceed the platform's array size if it reached the draw;
# SimConfig and bonferroni_line reject it before anything is allocated or written.
HUGE = str(10**400)
TERA = str(2**40)


@pytest.mark.parametrize(
    "argv, key",
    [
        (["simulate", "--regime", "null", "--m", "30", "--replicates", HUGE, "--seed", "1"],
         "replicates"),
        (["simulate", "--regime", "null", "--m", TERA, "--replicates", TERA, "--seed", "1"],
         "replicates"),
        (["simulate", "--regime", "phack", "--m", "5", "--seed", "1", "--s-tests", HUGE],
         "s_tests"),
        (["volcano", "--in", str(case_effects_path()), "--m-tests", HUGE], "m_tests"),
    ],
    ids=["replicates-past-dimension", "array-too-big", "s-tests-past-float", "m-tests-past-float"],
)
def test_integer_settings_too_large_for_their_use(tmp_path, capsys, argv, key):
    assert run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_simulate_large_search_space_still_draws(tmp_path, capsys):
    argv = ["simulate", "--regime", "phack", "--m", "5", "--seed", "1", "--s-tests", str(10**30)]
    assert run(argv, tmp_path) == 0
    assert capsys.readouterr().err == ""


def test_out_of_memory_is_one_stderr_line(tmp_path, capsys, monkeypatch):
    # Never a real allocation: with memory overcommitted, it could be granted and filled.
    def exhausted(cfg):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(simulate, "draw_pvalues", exhausted)
    assert run(["simulate", "--regime", "null", "--m", "30", "--seed", "1"], tmp_path) == 1
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 8.00 TiB for an array\n"
    )
    assert not (tmp_path / "o").exists()


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


def run_fresh(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(metaaudit.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=check, timeout=120,
    )


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; the installed tool must not need it.
    code = (
        "import metaaudit.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert run_fresh("-c", code).stdout == "[]\n"


def test_package_namespace_loads_a_module_when_one_of_its_names_is_used():
    # `import metaaudit` loads no submodule, so a process that uses one name
    # compiles only that name's module and the modules it imports.
    code = """
import sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("metaaudit."))
import metaaudit
print(loaded())
print(hasattr(metaaudit, "__wrapped__"), loaded())
from metaaudit import compute_space
print(loaded())
try:
    metaaudit.no_such_name
except AttributeError as exc:
    print(exc)
namespace = {}
exec("from metaaudit import *", namespace)
print(len(namespace.keys() - {"__builtins__"}), all(namespace[name] is getattr(metaaudit, name)
                                                    for name in metaaudit.__all__))
"""
    assert run_fresh("-c", code).stdout.splitlines() == [
        "[]",
        "False []",
        "['metaaudit.errors', 'metaaudit.searchspace', 'metaaudit.statcore']",
        "module 'metaaudit' has no attribute 'no_such_name'",
        "58 True",
    ]


def test_array_free_commands_load_no_numpy(tmp_path):
    # Only simulate builds arrays, so the other six commands must run without
    # numpy, and no command needs the XML or URL libraries.
    heavy = ("numpy", "xml.sax", "urllib.request")
    code = f"""
import sys
import metaaudit
bare = sorted(m for m in {heavy!r} if m in sys.modules)
from metaaudit import case_counts_path, case_effects_path, case_pvalues_path
from metaaudit.cli import main
effects, out = str(case_effects_path()), {str(tmp_path)!r}
runs = [
    ["spaces", "--in", str(case_counts_path())],
    ["pool", "--in", effects, "--method", "fixed"],
    ["pool", "--in", effects, "--method", "dl"],
    ["pfromci", "--in", effects],
    ["volcano", "--in", effects],
    ["pplot", "--in", str(case_pvalues_path()), "--endpoint", "ozone"],
    ["report", "--fixtures"],
]
codes = [main(argv + ["--out", out + "/" + argv[0]]) for argv in runs]
print(bare, codes, sorted(m for m in {heavy!r} if m in sys.modules), file=sys.stderr)
"""
    assert run_fresh("-c", code).stderr == "[] [0, 0, 0, 0, 0, 0, 0] []\n"


# Each command, and the modules it must not load. The records are plain
# classes, so no command imports dataclasses (and with it inspect, ast, dis
# and tokenize); simulate still gets inspect through numpy. statistics, with
# the fractions and decimal it imports, is loaded only for a normal quantile.
_UNLOADED = {
    "spaces": (["spaces", "--in", str(case_counts_path())],
               ("dataclasses", "inspect", "statistics")),
    "pplot": (["pplot", "--in", str(case_pvalues_path()), "--endpoint", "ozone"],
              ("dataclasses", "inspect", "statistics")),
    "volcano": (["volcano", "--in", str(case_effects_path())], ("dataclasses", "inspect")),
    "pool": (["pool", "--in", str(case_effects_path()), "--method", "dl"],
             ("dataclasses", "inspect")),
    "pfromci": (["pfromci", "--in", str(case_effects_path())], ("dataclasses", "inspect")),
    "report": (["report", "--fixtures"], ("dataclasses", "inspect")),
    "simulate": (["simulate", "--regime", "null", "--m", "6", "--replicates", "100",
                  "--seed", "1"], ("dataclasses",)),
}


@pytest.mark.parametrize("command", list(_UNLOADED))
def test_command_loads_no_dataclasses(tmp_path, command):
    argv, unloaded = _UNLOADED[command]
    code = f"""
import sys
from metaaudit.cli import main
code = main({argv + ["--out", str(tmp_path / "out")]!r})
print(code, sorted(m for m in {unloaded!r} if m in sys.modules), file=sys.stderr)
"""
    assert run_fresh("-c", code).stderr == "0 []\n"


@pytest.mark.parametrize(
    "infile, code, err",
    [
        (str(case_effects_path()), 0, ""),
        ("{tmp}/missing.csv", 1, "i/o error: [Errno 2] No such file or directory: "
                                 "'{tmp}/missing.csv'\n"),
        ("{tmp}/bad.csv", 2, "error: {tmp}/bad.csv: row 2: field 'rr': not a number: 'abc'\n"),
    ],
    ids=["ok", "missing-input", "bad-row"],
)
def test_module_entry_point_exits_with_the_code_of_main(tmp_path, infile, code, err):
    # perfbench runs every command as `python -m metaaudit.cli`.
    (tmp_path / "bad.csv").write_text("label,rr,ci_low,ci_high\nx,abc,1.0,2.0\n")
    out = tmp_path / "o"
    done = run_fresh("-m", "metaaudit.cli", "pool", "--in", infile.format(tmp=tmp_path),
                     "--method", "fixed", "--out", str(out), check=False)
    assert (done.returncode, done.stderr) == (code, err.format(tmp=tmp_path))
    assert (out / "pooled.csv").exists() == (code == 0)


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

"""End-to-end tests of the command-line interface: exit codes, outputs,
determinism, and argument validation."""

import shutil

import pytest

from metaaudit import case_counts_path, case_effects_path, case_pvalues_path
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
    ],
    ids=["effect", "mixture-effect"],
)
def test_simulate_effect_studies_need_delta(tmp_path, capsys, flags, config):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(config + "m=10\nseed=4\n")
    code = run(["simulate", "--in", str(cfg)] + flags, tmp_path)
    assert code == 2
    assert "delta" in capsys.readouterr().err
    assert run(["simulate", "--in", str(cfg), "--delta", "0"] + flags, tmp_path) == 0


# ---------------------------------------------------------------- report


def test_report_requires_fixtures_flag(tmp_path, capsys):
    code = run(["report"], tmp_path)
    assert code == 2
    assert "--fixtures" in capsys.readouterr().err


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

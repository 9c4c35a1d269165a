"""Tests for CSV loading, validation diagnostics, serialization round
trips, and the bundled case-study fixtures."""

import csv

import pytest

from metaaudit import (
    Dataset,
    EffectEstimate,
    PValueRecord,
    SearchSpaceOverflowError,
    StudyCounts,
    ValidationError,
    case_counts_path,
    case_effects_path,
    case_pvalues_path,
    compute_space,
    load_case_dataset,
    load_counts,
    load_dataset,
    load_effects,
    load_pvalues,
    save_counts,
    save_effects,
    save_pvalues,
)
from metaaudit.cli import main


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ------------------------------------------------------------- fixtures


def test_fixture_files_exist():
    for path in (case_counts_path(), case_pvalues_path(), case_effects_path()):
        assert path.is_file(), path


def test_case_counts_load():
    records = load_counts(case_counts_path())
    assert len(records) == 34
    first = records[0]
    assert (first.citation, first.author) == (7, "Braga")
    assert (first.outcomes, first.predictors, first.covariates, first.lags) == (4, 1, 6, 4)
    assert len({r.citation for r in records}) == 34


def test_case_pvalues_load():
    records = load_pvalues(case_pvalues_path())
    assert len(records) == 104
    assert sum(1 for r in records if r.endpoint == "ozone") == 19
    braga = [r for r in records if r.citation == 7]
    assert len(braga) == 1
    assert braga[0].endpoint == "PM10"
    assert braga[0].p == 0.001
    assert any(r.direction_negative for r in records)
    assert not any(r.truncated for r in records)


def test_case_effects_load():
    records = load_effects(case_effects_path())
    assert [r.label for r in records] == ["CO", "NO2", "SO2", "PM10", "PM2.5", "ozone"]
    assert all(r.level == 0.95 for r in records)
    ozone = records[-1]
    assert ozone.ci_low < 1.0 < ozone.ci_high


def test_case_dataset_loads_clean():
    dataset = load_case_dataset()
    assert (len(dataset.counts), len(dataset.pvalues), len(dataset.effects)) == (34, 104, 6)
    assert "34 rows" in dataset.provenance


# ---------------------------------------------------------- load_counts


COUNTS_HEADER = "citation,author,outcomes,predictors,covariates,lags\n"


def test_load_counts_header_only(tmp_path):
    path = write(tmp_path, "c.csv", COUNTS_HEADER)
    assert load_counts(path) == []


def test_load_counts_missing_column(tmp_path):
    path = write(tmp_path, "c.csv", "citation,author,outcomes,predictors,covariates\n")
    with pytest.raises(ValidationError, match="lags"):
        load_counts(path)


def test_load_counts_unknown_column(tmp_path):
    path = write(tmp_path, "c.csv", COUNTS_HEADER.strip() + ",bogus\n")
    with pytest.raises(ValidationError, match="bogus"):
        load_counts(path)


def test_load_counts_bad_field_names_row_and_field(tmp_path):
    path = write(tmp_path, "c.csv", COUNTS_HEADER + "1,a,x,1,1,1\n")
    with pytest.raises(ValidationError, match=r"row 2.*outcomes"):
        load_counts(path)


def test_load_counts_duplicate_citation(tmp_path):
    path = write(tmp_path, "c.csv", COUNTS_HEADER + "1,a,1,1,1,1\n1,b,2,2,2,2\n")
    with pytest.raises(ValidationError, match="duplicate citation 1"):
        load_counts(path)


def test_load_counts_overflow(tmp_path):
    path = write(tmp_path, "c.csv", COUNTS_HEADER + "1,a,1,1,70,1\n")
    with pytest.raises(SearchSpaceOverflowError):
        load_counts(path)


def test_load_counts_space_cross_check(tmp_path):
    good = "citation,author,outcomes,predictors,covariates,lags,space1,space2,space3\n"
    path = write(tmp_path, "c.csv", good + "1,a,2,3,2,1,6,4,24\n")
    assert len(load_counts(path)) == 1
    path = write(tmp_path, "bad.csv", good + "1,a,2,3,2,1,6,4,25\n")
    with pytest.raises(ValidationError, match=r"space3.*25.*24"):
        load_counts(path)


def test_load_counts_comments_skipped(tmp_path):
    path = write(tmp_path, "c.csv", "# provenance\n" + COUNTS_HEADER + "1,a,1,1,0,1\n")
    assert len(load_counts(path)) == 1


def test_comment_is_a_record_starting_with_a_bare_hash(tmp_path):
    rows = ['"#1 lag",1.1,1.0,1.2', "#2 lag,1.1,1.0,1.2", '# note,"spans\nlines"', "", "c,?,1,1"]
    path = write(tmp_path, "e.csv", "\n".join(["label,rr,ci_low,ci_high", *rows]) + "\n")
    # comment and blank records count: the bad row is the sixth record
    with pytest.raises(ValidationError, match="row 6: field 'rr'"):
        load_effects(path)
    path = write(tmp_path, "e.csv", "\n".join(["label,rr,ci_low,ci_high", *rows[:4]]) + "\n")
    assert [record.label for record in load_effects(path)] == ["#1 lag"]


def test_row_longer_than_header_is_rejected(tmp_path):
    path = write(tmp_path, "p.csv", PVALUES_HEADER + "1,a,ozone,0.5,false,EXTRA,MORE\n")
    with pytest.raises(ValidationError, match=r"p\.csv: row 2: 7 cells, but the header has 5"):
        load_pvalues(path)
    # a short row is legal: its missing cells are blank
    path = write(tmp_path, "e.csv", "label,rr,ci_low,ci_high,level\na,1.1,1.0,1.2\n")
    assert load_effects(path)[0].level == 0.95


# --------------------------------------------------------- load_pvalues


PVALUES_HEADER = "citation,author,endpoint,p,direction_negative\n"


def test_load_pvalues_blank_cell_skipped(tmp_path):
    path = write(tmp_path, "p.csv", PVALUES_HEADER + "1,a,x,,false\n2,b,x,0.5,true\n")
    records = load_pvalues(path)
    assert len(records) == 1
    assert records[0].citation == 2
    assert records[0].direction_negative is True


def test_load_pvalues_truncated_marker(tmp_path):
    path = write(tmp_path, "p.csv", PVALUES_HEADER + "1,a,x,<0.001,false\n")
    record = load_pvalues(path)[0]
    assert record.p == 0.001
    assert record.truncated is True


def test_load_pvalues_out_of_range(tmp_path):
    path = write(tmp_path, "p.csv", PVALUES_HEADER + "1,a,x,1.5,false\n")
    with pytest.raises(ValidationError, match="row 2"):
        load_pvalues(path)
    path = write(tmp_path, "p0.csv", PVALUES_HEADER + "1,a,x,0,false\n")
    with pytest.raises(ValidationError, match="row 2"):
        load_pvalues(path)


def test_load_pvalues_bad_boolean(tmp_path):
    path = write(tmp_path, "p.csv", PVALUES_HEADER + "1,a,x,0.5,maybe\n")
    with pytest.raises(ValidationError, match="direction_negative"):
        load_pvalues(path)


def test_load_pvalues_duplicate_key(tmp_path):
    path = write(tmp_path, "p.csv", PVALUES_HEADER + "1,a,x,0.5,false\n1,a,x,0.6,false\n")
    with pytest.raises(ValidationError, match="duplicate"):
        load_pvalues(path)


# --------------------------------------------------------- load_effects


def test_load_effects_level_column(tmp_path):
    path = write(
        tmp_path,
        "e.csv",
        "label,rr,ci_low,ci_high,level\na,1.1,1.0,1.2,0.9\nb,1.1,1.0,1.2,\n",
    )
    records = load_effects(path)
    assert records[0].level == 0.9
    assert records[1].level == 0.95


def test_load_effects_interval_violation(tmp_path):
    path = write(tmp_path, "e.csv", "label,rr,ci_low,ci_high\na,1.0,1.1,1.2\n")
    with pytest.raises(ValidationError, match="row 2"):
        load_effects(path)


def test_load_effects_bad_number(tmp_path):
    path = write(tmp_path, "e.csv", "label,rr,ci_low,ci_high\na,?,1.0,1.2\n")
    with pytest.raises(ValidationError, match=r"field 'rr'"):
        load_effects(path)


def test_load_empty_file_is_error(tmp_path):
    path = write(tmp_path, "e.csv", "")
    with pytest.raises(ValidationError, match="header"):
        load_effects(path)


# ------------------------------------------------------------ Dataset


def test_dataset_uniqueness_invariants():
    record = PValueRecord(citation=1, author="a", endpoint="x", p=0.5)
    with pytest.raises(ValidationError, match="duplicate"):
        Dataset(counts=[], pvalues=[record, record], effects=[])
    counts = StudyCounts(1, "a", 1, 1, 0, 1)
    with pytest.raises(ValidationError, match="^duplicate citation 1 in counts$"):
        Dataset(counts=[counts, counts], pvalues=[], effects=[])


def test_round_trip_case_dataset(tmp_path):
    original = load_case_dataset()
    save_counts(original.counts, tmp_path / "counts.csv")
    save_pvalues(original.pvalues, tmp_path / "pvalues.csv")
    save_effects(original.effects, tmp_path / "effects.csv")
    reloaded = load_dataset(
        tmp_path / "counts.csv", tmp_path / "pvalues.csv", tmp_path / "effects.csv"
    )
    assert reloaded == original


def test_round_trip_truncated_record(tmp_path):
    records = [PValueRecord(citation=1, author="a", endpoint="x", p=0.001, truncated=True)]
    save_pvalues(records, tmp_path / "p.csv")
    text = (tmp_path / "p.csv").read_text()
    assert "<0.001" in text
    assert load_pvalues(tmp_path / "p.csv") == records


def test_save_counts_writes_the_spaces_csv_of_report(tmp_path):
    assert main(["report", "--fixtures", "--out", str(tmp_path / "report")]) == 0
    save_counts(load_case_dataset().counts, tmp_path / "counts.csv")
    saved = (tmp_path / "counts.csv").read_bytes()
    assert saved == (tmp_path / "report" / "spaces.csv").read_bytes()


@pytest.mark.parametrize(
    "save, load, kind",
    [(save_pvalues, load_pvalues, "pvalues"), (save_effects, load_effects, "effects")],
    ids=["pvalues", "effects"],
)
def test_saved_tables_have_lf_line_ends_and_round_trip(tmp_path, save, load, kind):
    records = getattr(load_case_dataset(), kind)
    save(records, tmp_path / "t.csv")
    data = (tmp_path / "t.csv").read_bytes()
    assert b"\r" not in data and data.count(b"\n") == len(records) + 1
    assert load(tmp_path / "t.csv") == records


@pytest.mark.parametrize("label", ["#1 lag", "# note, with a comma", "a\n#b"])
def test_label_starting_with_hash_round_trips(tmp_path, label):
    records = [EffectEstimate(label, 1.1, 1.0, 1.2), EffectEstimate("CO", 1.05, 1.01, 1.09)]
    save_effects(records, tmp_path / "e.csv")
    assert load_effects(tmp_path / "e.csv") == records
    assert main(["volcano", "--in", str(tmp_path / "e.csv"), "--out", str(tmp_path / "v")]) == 0
    with open(tmp_path / "v" / "volcano.csv", newline="", encoding="utf-8") as handle:
        assert [row[0] for row in csv.reader(handle)] == ["label", label, "CO"]


def test_saved_counts_pass_cross_check(tmp_path):
    records = load_counts(case_counts_path())
    assert save_counts(records, tmp_path / "c.csv") == [compute_space(r) for r in records]
    text = (tmp_path / "c.csv").read_text()
    assert "space3" in text.splitlines()[0]
    reloaded = load_counts(tmp_path / "c.csv")
    assert reloaded == records
    assert compute_space(reloaded[0]).space3 == 1024

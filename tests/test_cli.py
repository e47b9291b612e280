"""End-to-end command-line flows on temporary directories.

Every test drives main(argv) directly; exit codes and written artifacts are
the contract. The tiny corpus keeps default exclusion thresholds from
emptying the rankings, so most flows zero them out explicitly.
"""

import csv
import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys

import pytest

from fsskit import cli
from fsskit.cli import main
from fsskit.errors import ComputationError, InputError
from fsskit.rankings import read_rankings
from conftest import child_env

NO_EXCLUSIONS = ["--min-years", "0", "--min-staff-uda", "0", "--min-staff-total", "0"]


def data_args(directory):
    return ["--data", str(directory)]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_reports_counts_and_warnings(tiny_dir, capsys):
    assert main(["validate", *data_args(tiny_dir)]) == 0
    out = capsys.readouterr().out
    assert "researchers: 5 rows" in out
    assert "publications: 7 rows" in out
    assert "warning:" in out  # out-of-window p6 and unresolved 'ghost'
    assert out.strip().endswith("ok")


def test_validate_missing_files_exit_2(tmp_path, capsys):
    tmp_path.joinpath("empty").mkdir()
    assert main(["validate", "--data", str(tmp_path / "empty")]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_data_flag_exit_2(capsys):
    assert main(["validate"]) == 2
    assert "researchers" in capsys.readouterr().err


def test_validate_directory_as_input_file_exit_2(tiny_dir, capsys):
    assert main(["validate", *data_args(tiny_dir), "--bylines", str(tiny_dir)]) == 2
    assert f"error: {tiny_dir}: cannot be read" in capsys.readouterr().err


def test_repeated_field_code_in_taxonomy_exit_2(tiny_dir, capsys):
    taxonomy = tiny_dir / "taxonomy.csv"
    taxonomy.write_text(taxonomy.read_text() + "MAT01,MATH,alphabetical\n")
    assert main(["validate", *data_args(tiny_dir)]) == 2
    assert capsys.readouterr().err == (f"error: {taxonomy}, line 4, column 'sds': "
                                       "duplicate field code 'MAT01'\n")


def without_publications(directory):
    """The census in ``directory`` with header-only publications and bylines."""
    for name in ("publications.csv", "bylines.csv"):
        path = directory / name
        path.write_text(path.read_text().splitlines()[0] + "\n")
    return directory


def test_census_without_publications_scores_zero(tiny_dir, tmp_path, capsys):
    data = without_publications(tiny_dir)
    assert main(["validate", *data_args(data)]) == 0
    out = capsys.readouterr().out
    assert "warning: publication file is empty; all scores will be zero\n" in out
    assert "warning: corpus has no publications in the observation window\n" in out
    assert main(["score", *data_args(data), "--output-dir", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "scores.csv", newline="") as fh:
        values = [float(row["value"]) for row in csv.DictReader(fh)]
    assert values and set(values) == {0.0}


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def test_score_writes_scores_baselines_report(tiny_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["score", *data_args(tiny_dir), *NO_EXCLUSIONS,
                 "--output-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "defaults in effect:" in stdout
    assert "researcher/fss_r: 5 units" in stdout

    with open(out / "scores.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0].keys() == {"level", "unit_id", "indicator", "value"}
    researcher_rows = [r for r in rows if r["level"] == "researcher"]
    assert len(researcher_rows) == 5
    # default scope "university" adds the three institution indicators
    assert {r["indicator"] for r in rows if r["level"] == "university"} == \
        {"fss_u", "p_u", "fp_u"}

    assert (out / "baselines.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["tool"]["name"] == "fsskit"
    assert set(report["inputs"]) == {"researchers.csv", "publications.csv",
                                     "bylines.csv", "taxonomy.csv", "salaries.csv"}
    assert report["exclusions"]["researchers_excluded"] == 0
    assert report["row_counts"]["researchers"] == 5
    assert len(report["config_hash"]) == 64
    assert "output_dir" not in report["config"]
    assert "workers" not in report["config"]


def test_score_report_independent_of_output_dir(tiny_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["score", *data_args(tiny_dir), *NO_EXCLUSIONS,
                     "--output-dir", str(out)]) == 0
        outs.append(out)
    for artifact in ("scores.csv", "baselines.csv", "report.json"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def test_score_from_baseline_file_matches_computed(tiny_dir, tmp_path):
    first = tmp_path / "first"
    assert main(["score", *data_args(tiny_dir), *NO_EXCLUSIONS,
                 "--output-dir", str(first)]) == 0
    second = tmp_path / "second"
    assert main(["score", *data_args(tiny_dir), *NO_EXCLUSIONS,
                 "--baseline-file", str(first / "baselines.csv"),
                 "--output-dir", str(second)]) == 0
    assert (first / "scores.csv").read_bytes() == (second / "scores.csv").read_bytes()
    assert not (second / "baselines.csv").exists()


def test_baseline_file_must_cover_every_cited_publication_whatever_the_floor(tmp_path,
                                                                                  capsys):
    # P000273 is cited, and its one census author, R00047, has 2 years in
    # post. Moved into a category the baseline file lacks, it is refused
    # whether or not the tenure floor drops its author: floors choose which
    # units are scored, never which inputs must be complete.
    census = tmp_path / "census"
    assert main(["synth", "--seed", "5", "--researchers", "300", "--institutions", "4",
                 "--out", str(census)]) == 0
    assert main(["score", *data_args(census), "--output-dir", str(tmp_path / "base")]) == 0
    publications = census / "publications.csv"
    text = publications.read_text()
    assert "\nP000273,2010,1,CAT01b\n" in text
    assert "R00047,Researcher 47,SDS01,full,,U04,U04-D1,2.0\n" in (
        census / "researchers.csv").read_text()
    publications.write_text(text.replace("\nP000273,2010,1,CAT01b\n", "\nP000273,2010,1,CATZZ\n"))
    capsys.readouterr()
    for floor in (["--min-years", "0"], []):
        assert main(["score", *data_args(census), *floor,
                     "--baseline-file", str(tmp_path / "base" / "baselines.csv"),
                     "--output-dir", str(tmp_path / "out")]) == 2
        first = capsys.readouterr().err.splitlines()[0]
        assert first == (f"error: {tmp_path / 'base' / 'baselines.csv'}: no citation baseline "
                         "for year 2010, category 'CATZZ'"), floor


def test_report_keys_each_input_checksum_by_its_role(tiny_dir, tmp_path):
    # Five per-file inputs that share one basename keep five checksums.
    flags = []
    for name in ("researchers", "publications", "bylines", "taxonomy", "salaries"):
        path = tmp_path / name / "in.csv"
        path.parent.mkdir()
        path.write_bytes((tiny_dir / f"{name}.csv").read_bytes())
        flags += [f"--{name}", str(path)]
    out = tmp_path / "out"
    assert main(["score", *flags, *NO_EXCLUSIONS, "--output-dir", str(out)]) == 0
    inputs = json.loads((out / "report.json").read_text())["inputs"]
    assert inputs == {f"{name}.csv": hashlib.sha256((tiny_dir / f"{name}.csv").read_bytes())
                      .hexdigest() for name in ("researchers", "publications", "bylines",
                                                "taxonomy", "salaries")}


def test_report_checksums_the_baseline_file(tiny_dir, tmp_path):
    # Two baseline files that differ in one c_bar give two different inputs.
    assert main(["score", *data_args(tiny_dir), *NO_EXCLUSIONS,
                 "--output-dir", str(tmp_path / "computed")]) == 0
    text = (tmp_path / "computed" / "baselines.csv").read_text()
    header, first, *rest = text.splitlines(keepends=True)
    cells = first.split(",")
    cells[2] = "1.5"
    edited = "".join([header, ",".join(cells), *rest])
    assert edited != text
    inputs = []
    for name, content in (("a", text), ("b", edited)):
        baselines = tmp_path / f"{name}.csv"
        baselines.write_text(content)
        out = tmp_path / name
        assert main(["score", *data_args(tiny_dir), *NO_EXCLUSIONS,
                     "--baseline-file", str(baselines), "--output-dir", str(out)]) == 0
        inputs.append(json.loads((out / "report.json").read_text())["inputs"])
        assert inputs[-1]["baseline_file"] == hashlib.sha256(content.encode()).hexdigest()
    assert inputs[0] != inputs[1]


def test_score_scope_country(tiny_dir, tmp_path):
    out = tmp_path / "out"
    assert main(["score", *data_args(tiny_dir), *NO_EXCLUSIONS,
                 "--scope", "country", "--output-dir", str(out)]) == 0
    text = (out / "scores.csv").read_text()
    assert "@country:MAT01" in text
    assert "@country:BIO01" in text


def test_score_default_thresholds_drop_short_tenure(tiny_dir, tmp_path):
    out = tmp_path / "out"
    assert main(["score", *data_args(tiny_dir), "--output-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    # r4 has 2 years in post, below the default 3-year floor
    assert report["exclusions"]["researchers_excluded"] == 1
    assert "r4" not in (out / "scores.csv").read_text()


def test_unknown_config_key_exit_2(tiny_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"citation_cutof": "2011-12-31"}')
    assert main(["score", *data_args(tiny_dir), "--config", str(config),
                 "--output-dir", str(tmp_path / "out")]) == 2
    assert "citation_cutof" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_university(tiny_dir, tmp_path):
    out = tmp_path / "out"
    assert main(["rank", *data_args(tiny_dir), *NO_EXCLUSIONS,
                 "--level", "university", "--output-dir", str(out)]) == 0
    ranked = read_rankings(out / "rankings.csv")
    assert [e.unit_id for e in ranked.entries] == ["UA", "UB"]
    assert ranked.entries[0].rank == 1
    with open(out / "percentile_distribution.csv", newline="") as fh:
        bands = list(csv.DictReader(fh))
    assert len(bands) == 10
    assert sum(int(b["count"]) for b in bands) == 2


def test_rank_university_within_uda_gets_group_column(tiny_dir, tmp_path):
    out = tmp_path / "out"
    assert main(["rank", *data_args(tiny_dir), *NO_EXCLUSIONS,
                 "--level", "university", "--uda", "MATH",
                 "--output-dir", str(out)]) == 0
    header = (out / "rankings.csv").read_text().splitlines()[0]
    assert header == "group,unit_id,score,rank,percentile"
    ranked = read_rankings(out / "rankings.csv")
    assert ranked.group == "MATH"
    assert {e.unit_id for e in ranked.entries} == {"UA", "UB"}


def test_rank_researcher_standardized(tiny_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["rank", *data_args(tiny_dir), *NO_EXCLUSIONS,
                 "--level", "researcher", "--standardize",
                 "--output-dir", str(out)]) == 0
    assert "by fss_r_std" in capsys.readouterr().out
    ranked = read_rankings(out / "rankings.csv")
    assert len(ranked.entries) == 5


def test_rank_flag_validation_exit_2(tiny_dir, tmp_path, capsys):
    base = ["rank", *data_args(tiny_dir), "--output-dir", str(tmp_path / "out")]
    assert main([*base, "--level", "researcher", "--uda", "MATH"]) == 2
    assert main([*base, "--level", "staff", "--indicator", "p_u"]) == 2
    # Only researcher and staff scores have a field mean to divide by.
    assert main([*base, "--level", "department", "--standardize"]) == 2
    assert main([*base, "--level", "university", "--standardize"]) == 2
    err = capsys.readouterr().err
    assert "--uda" in err and "--indicator" in err
    assert err.count("--standardize only applies") == 2
    assert not (tmp_path / "out" / "rankings.csv").exists()


def test_rank_flag_misuse_is_refused_before_loading(tmp_path, capsys):
    # The flag error wins over the missing census: nothing is read first.
    assert main(["rank", "--data", str(tmp_path / "missing"), "--level", "department",
                 "--standardize", "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "--standardize only applies" in err
    assert "not found" not in err
    assert not (tmp_path / "out").exists()


def test_rank_everything_excluded_exit_1(tiny_dir, tmp_path, capsys):
    # Default staff floors (10 per field, 30 total) flag both tiny
    # institutions, leaving nothing to rank.
    assert main(["rank", *data_args(tiny_dir), "--level", "university",
                 "--output-dir", str(tmp_path / "out")]) == 1
    assert "no units left" in capsys.readouterr().err


def test_rank_unknown_discipline_exit_2(tiny_dir, tmp_path, capsys):
    # Not an exclusion outcome: the code is absent from the taxonomy.
    assert main(["rank", *data_args(tiny_dir), *NO_EXCLUSIONS, "--level", "university",
                 "--uda", "MATHS", "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "'MATHS'" in err
    assert "BIO, MATH" in err
    assert not (tmp_path / "out" / "rankings.csv").exists()


def test_rank_staff_respects_field_exclusions(tiny_dir, tmp_path):
    # min_staff_uda=2 flags (UB, MATH): r5 is UB's only MATH researcher.
    out = tmp_path / "out"
    assert main(["rank", *data_args(tiny_dir), "--min-years", "0",
                 "--min-staff-uda", "2", "--min-staff-total", "0",
                 "--level", "staff", "--output-dir", str(out)]) == 0
    ranked = read_rankings(out / "rankings.csv")
    assert {e.unit_id for e in ranked.entries} == {"UA:MAT01", "UB:BIO01"}


def test_rank_staff_with_separator_in_field_code(tiny_dir, tmp_path):
    # A field code may hold the ':' that joins institution and field in a
    # staff unit id; (UB, MATH) is still flagged and left out.
    for name in ("researchers.csv", "taxonomy.csv"):
        path = tiny_dir / name
        path.write_text(path.read_text().replace("MAT01", "MAT:01"))
    out = tmp_path / "out"
    assert main(["rank", *data_args(tiny_dir), "--min-years", "0",
                 "--min-staff-uda", "2", "--min-staff-total", "0",
                 "--level", "staff", "--output-dir", str(out)]) == 0
    ranked = read_rankings(out / "rankings.csv")
    assert {e.unit_id for e in ranked.entries} == {"UA:MAT:01", "UB:BIO01"}


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_flow(tiny_dir, tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["rank", *data_args(tiny_dir), *NO_EXCLUSIONS,
                 "--level", "university", "--output-dir", str(out_a)]) == 0
    assert main(["rank", *data_args(tiny_dir), *NO_EXCLUSIONS,
                 "--level", "university", "--indicator", "p_u",
                 "--output-dir", str(out_b)]) == 0
    out_c = tmp_path / "c"
    assert main(["compare", "--a", str(out_a / "rankings.csv"),
                 "--b", str(out_b / "rankings.csv"), "--out", str(out_c)]) == 0
    doc = json.loads((out_c / "comparison.json").read_text())
    # UA leads UB on both indicators, so nothing shifts.
    assert doc["n_units"] == 2
    assert doc["pct_shifting"] == 0.0
    assert doc["spearman"] == 1.0
    lines = (out_c / "shift_histogram.csv").read_text().splitlines()
    assert lines[0] == "shift,count"
    assert lines[1] == "0,2"


def test_compare_mismatched_units_exit_2(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("unit_id,score,rank,percentile\nu1,2.0,1,50.0\nu2,1.0,2,0.0\n")
    b.write_text("unit_id,score,rank,percentile\nu1,2.0,1,50.0\nu3,1.0,2,0.0\n")
    assert main(["compare", "--a", str(a), "--b", str(b),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "u2" in err and "u3" in err
    # Each unit only one ranking has is named with the file holding it.
    assert f"u2 (only in {a}), u3 (only in {b})" in err


def test_compare_refuses_a_nonzero_score_that_reads_as_0(tmp_path, capsys):
    # Read as 0.0, C's 1e-400 would tie B and agree with the ranks written.
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("unit_id,score,rank,percentile\n"
                 "A,2.0,1,66.66666666666667\nB,0.0,2,0.0\nC,1e-400,2,0.0\n")
    b.write_text("unit_id,score,rank,percentile\n"
                 "A,3.0,1,66.66666666666667\nB,2.0,2,33.333333333333336\nC,1.0,3,0.0\n")
    assert main(["compare", "--a", str(a), "--b", str(b), "--out", str(tmp_path / "out")]) == 2
    assert ("line 4, column 'score': nonzero but too small for a float: '1e-400'"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# dea
# ---------------------------------------------------------------------------

def test_dea_from_corpus(tiny_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["dea", *data_args(tiny_dir), "--min-years", "0",
                 "--output-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "crs:" in stdout and "vrs:" in stdout
    header = (out / "dmus.csv").read_text().splitlines()[0]
    assert header == ("id,input_cost_assistant,input_cost_full,"
                      "output_impact,output_count")
    with open(out / "dea_results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # 2 institutions x 2 models
    assert {r["model"] for r in rows} == {"crs", "vrs"}
    se_lines = (out / "scale_efficiency.csv").read_text().splitlines()
    assert se_lines[0] == "id,scale_efficiency"
    assert len(se_lines) == 3


def test_dea_on_a_census_without_output_exit_1(tiny_dir, tmp_path, capsys):
    data = without_publications(tiny_dir)
    assert main(["dea", *data_args(data), "--output-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    for inst in ("UA", "UB"):
        assert f"warning: institution {inst!r} has no research output; skipped\n" in captured.out
    assert captured.err == "error: no institutions with research output left after exclusions\n"


def test_dea_from_prepared_table(tmp_path):
    dmus = tmp_path / "dmus.csv"
    dmus.write_text("id,input_x,output_y\nA,2.0,4.0\nB,4.0,8.0\nC,4.0,4.0\n")
    out = tmp_path / "out"
    assert main(["dea", "--dmus", str(dmus), "--model", "crs",
                 "--output-dir", str(out)]) == 0
    with open(out / "dea_results.csv", newline="") as fh:
        rows = {r["id"]: r for r in csv.DictReader(fh)}
    assert float(rows["C"]["efficiency"]) == pytest.approx(0.5, abs=1e-9)
    assert not (out / "scale_efficiency.csv").exists()


DMUS_REFUSED = {
    "--data": ["--data", "census"],
    "--researchers": ["--researchers", "researchers.csv"],
    "--publications": ["--publications", "publications.csv"],
    "--bylines": ["--bylines", "bylines.csv"],
    "--taxonomy": ["--taxonomy", "taxonomy.csv"],
    "--salaries": ["--salaries", "salaries.csv"],
    "--config": ["--config", "c.json"],
    "--window": ["--window", "2010", "2001"],
    "--scope": ["--scope", "sds"],
    "--baseline-file": ["--baseline-file", "baselines.csv"],
    "--min-years": ["--min-years", "-5"],
    "--min-staff-uda": ["--min-staff-uda", "0"],
    "--min-staff-total": ["--min-staff-total", "0"],
}


# Config flags that the dea parser does not offer at all, in either mode.
DEA_UNOFFERED = ("--scope", "--min-staff-uda", "--min-staff-total")


@pytest.mark.parametrize("flag", DMUS_REFUSED)
def test_dea_dmus_refuses_census_and_config_flags(tmp_path, monkeypatch, capsys, flag):
    # A prepared table takes only --model and --output-dir. Every other
    # flag is refused before anything is read or written: by argparse if
    # dea offers no such flag, else by name.
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"output_dir": str(tmp_path / "configured")}))
    argv = ["dea", "--dmus", "missing.csv", *DMUS_REFUSED[flag]]
    if flag in DEA_UNOFFERED:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        expected = f"unrecognized arguments: {' '.join(DMUS_REFUSED[flag])}"
    else:
        assert main(argv) == 2
        expected = f"{flag} does not apply with --dmus"
    err = capsys.readouterr().err
    assert expected in err
    assert "not found" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


# A command's parser offers only the config flags the command reads, so
# argparse refuses any other before anything is loaded or written.
UNREAD_FLAGS = {
    "--scope": ["--scope", "sds"],
    "--baseline-file": ["--baseline-file", "baselines.csv"],
    "--min-years": ["--min-years", "0"],
    "--min-staff-uda": ["--min-staff-uda", "0"],
    "--min-staff-total": ["--min-staff-total", "99"],
    "--output-dir": ["--output-dir", "zz"],
}
UNREAD = {
    **{f"validate{flag}": (["validate"], flag) for flag in UNREAD_FLAGS},
    "rank--scope": (["rank", "--level", "researcher", "--output-dir", "out"], "--scope"),
    **{f"dea{flag}": (["dea", "--output-dir", "out"], flag) for flag in DEA_UNOFFERED},
}


@pytest.mark.parametrize("case", UNREAD)
def test_unread_config_flags_are_refused(tiny_dir, tmp_path, monkeypatch, capsys, case):
    command, flag = UNREAD[case]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*command, *data_args(tiny_dir), *UNREAD_FLAGS[flag]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {' '.join(UNREAD_FLAGS[flag])}" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny"]


# The defaults line names, one by one, the settings a command reads and was
# not given; never one that the command does not read.
DEFAULTS_LINES = {
    "validate": (["validate"], "window"),
    "rank": (["rank", "--level", "researcher", *NO_EXCLUSIONS, "--output-dir", "out"],
             "baseline_file, window"),
    "dea": (["dea", "--min-years", "0", "--output-dir", "out"],
            "baseline_file, window"),
    "score": (["score", "--min-years", "0", "--output-dir", "out"],
              "baseline_file, min_staff_total, min_staff_uda, scope, window"),
}


@pytest.mark.parametrize("case", DEFAULTS_LINES)
def test_defaults_line_lists_only_settings_the_command_reads(tiny_dir, tmp_path, monkeypatch,
                                                             capsys, case):
    command, expected = DEFAULTS_LINES[case]
    monkeypatch.chdir(tmp_path)
    assert main([*command, *data_args(tiny_dir)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("defaults in effect: ")]
    assert lines == [f"defaults in effect: {expected}"]
    if case == "score":
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["defaults_in_effect"] == expected.split(", ")


def test_dea_quotes_ids_holding_a_comma(tmp_path):
    dmus = tmp_path / "dmus.csv"
    dmus.write_text('id,input_x,output_y\n"U,1",2.0,4.0\n"U,2",4.0,4.0\n')
    out = tmp_path / "out"
    assert main(["dea", "--dmus", str(dmus), "--output-dir", str(out)]) == 0
    for name in ("dea_results.csv", "scale_efficiency.csv"):
        with open(out / name, newline="") as fh:
            ids = {row["id"] for row in csv.DictReader(fh)}
        assert ids == {"U,1", "U,2"}, name


# ---------------------------------------------------------------------------
# Output directories
# ---------------------------------------------------------------------------

def command_argv(command, tiny_dir, tmp_path):
    """The argv of one writing command, up to its output directory flag."""
    ranking = tmp_path / "rankings.csv"
    ranking.write_text("unit_id,score,rank,percentile\nu1,2.0,1,50.0\nu2,1.0,2,0.0\n")
    dmus = tmp_path / "dmus.csv"
    dmus.write_text("id,input_x,output_y\nA,2.0,4.0\nB,4.0,8.0\n")
    return {
        "score": ["score", *data_args(tiny_dir), "--output-dir"],
        "rank": ["rank", *data_args(tiny_dir), *NO_EXCLUSIONS, "--level", "university",
                 "--output-dir"],
        "compare": ["compare", "--a", str(ranking), "--b", str(ranking), "--out"],
        "dea-corpus": ["dea", *data_args(tiny_dir), "--min-years", "0", "--output-dir"],
        "dea-dmus": ["dea", "--dmus", str(dmus), "--output-dir"],
        "synth": ["synth", "--researchers", "30", "--out"],
    }[command]


@pytest.mark.parametrize("command", ["score", "rank", "compare", "dea-corpus", "dea-dmus",
                                     "synth"])
def test_output_path_that_is_a_file_exit_2(tiny_dir, tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main([*command_argv(command, tiny_dir, tmp_path), str(out)]) == 2
    assert f"error: cannot make output directory {out}" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


# Each command's first artifact, or one of them -> the file made a directory.
ARTIFACTS = [("score", "scores.csv"), ("score", "report.json"), ("rank", "rankings.csv"),
             ("compare", "comparison.json"), ("dea-corpus", "dmus.csv"),
             ("dea-dmus", "dea_results.csv"), ("synth", "researchers.csv")]


@pytest.mark.parametrize("command, artifact", ARTIFACTS)
def test_artifact_path_that_is_a_directory_exit_2(tiny_dir, tmp_path, capsys, command, artifact):
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    assert main([*command_argv(command, tiny_dir, tmp_path), str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / artifact}: cannot be written: ")
    assert err.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize("seed", range(3))
def test_json_artifact_refuses_a_non_finite_value(tmp_path, monkeypatch, capsys, seed):
    # JSON has no NaN or infinity: a statistic that is one exits 1 naming the
    # file, and no comparison.json is written.
    rng = random.Random(seed)
    bad = rng.choice([math.nan, math.inf, -math.inf])
    real = cli.compare_rankings

    def broken(a, b):
        stats = real(a, b)
        return stats._replace(**{rng.choice(["pct_shifting", "avg_shift", "spearman"]): bad})

    monkeypatch.setattr(cli, "compare_rankings", broken)
    argv = command_argv("compare", None, tmp_path)
    out = tmp_path / "out"
    assert main([*argv, str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {out / 'comparison.json'}: a value to write "
                                       "is not a finite number\n")
    assert not (out / "comparison.json").exists()


# Path("") is the working directory, so an empty path would read or write
# there. Each case -> (argv, the config file's contents or None, the error).
ARGPARSE_EMPTY = "argument {}: an empty path names no file or directory"
EMPTY_PATHS = {
    "score--output-dir": (["score", "--output-dir", ""], None, ARGPARSE_EMPTY),
    "rank--output-dir": (["rank", "--level", "researcher", "--output-dir", ""], None,
                         ARGPARSE_EMPTY),
    "synth--out": (["synth", "--researchers", "30", "--out", ""], None, ARGPARSE_EMPTY),
    "score--config": (["score", "--config", ""], None, ARGPARSE_EMPTY),
    "score--baseline-file": (["score", "--baseline-file", ""], None, ARGPARSE_EMPTY),
    "compare--a": (["compare", "--a", "", "--b", "{ranking}"], None, ARGPARSE_EMPTY),
    "compare--b": (["compare", "--a", "{ranking}", "--b", ""], None, ARGPARSE_EMPTY),
    "compare--out": (["compare", "--a", "{ranking}", "--b", "{ranking}", "--out", ""], None,
                     ARGPARSE_EMPTY),
    "dea--dmus": (["dea", "--dmus", ""], None, ARGPARSE_EMPTY),
    "validate--data": (["validate", "--data", ""], None, ARGPARSE_EMPTY),
    "validate--researchers": (["validate", "--researchers", ""], None, ARGPARSE_EMPTY),
    "config-output_dir": (["score", "--config", "{config}"], {"output_dir": ""},
                          "error: config key 'output_dir' must be a non-empty string"),
    "config-baseline_file": (["score", "--config", "{config}"], {"baseline_file": ""},
                             "error: config key 'baseline_file' must be a non-empty string "
                             "or null"),
}


@pytest.mark.parametrize("case", EMPTY_PATHS)
def test_empty_path_exits_2_naming_its_flag(tiny_dir, tmp_path, monkeypatch, capsys, case):
    argv, settings, expected = EMPTY_PATHS[case]
    ranking = tmp_path / "rankings.csv"
    ranking.write_text("unit_id,score,rank,percentile\nu1,2.0,1,50.0\nu2,1.0,2,0.0\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings or {}))
    argv = [arg.format(ranking=ranking, config=config) for arg in argv]
    if argv[0] in ("validate", "score", "rank"):
        argv += data_args(tiny_dir)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    if settings is None:
        flag = argv[argv.index("") - 1]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        expected = expected.format(flag)
    else:
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert expected in captured.err
    assert captured.out == ""
    assert list(cwd.iterdir()) == []


# ---------------------------------------------------------------------------
# synth and the full pipeline
# ---------------------------------------------------------------------------

def test_synth_validate_score_rank_pipeline(tmp_path, capsys):
    data = tmp_path / "census"
    assert main(["synth", "--seed", "3", "--researchers", "60",
                 "--institutions", "3", "--sds", "2", "--out", str(data)]) == 0
    assert main(["validate", "--data", str(data)]) == 0
    out = tmp_path / "out"
    assert main(["score", "--data", str(data), *NO_EXCLUSIONS,
                 "--output-dir", str(out)]) == 0
    assert main(["rank", "--data", str(data), *NO_EXCLUSIONS,
                 "--level", "researcher", "--output-dir", str(out)]) == 0
    ranked = read_rankings(out / "rankings.csv")
    assert len(ranked.entries) == 60
    capsys.readouterr()


def test_synth_is_reproducible(tmp_path):
    for name in ("a", "b"):
        assert main(["synth", "--seed", "11", "--researchers", "40",
                     "--institutions", "2", "--sds", "2",
                     "--out", str(tmp_path / name)]) == 0
    for artifact in ("researchers.csv", "publications.csv", "bylines.csv",
                     "taxonomy.csv", "salaries.csv"):
        assert (tmp_path / "a" / artifact).read_bytes() == \
            (tmp_path / "b" / artifact).read_bytes()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_no_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# The cyclic garbage collector
# ---------------------------------------------------------------------------

# outcome -> (error the command raises, or None; main's exit code, or None
# when the error propagates)
OUTCOMES = {
    "exit-0": (None, 0),
    "exit-1": (ComputationError, 1),
    "exit-2": (InputError, 2),
    "unexpected": (RuntimeError, None),
}


@pytest.mark.parametrize("caller_enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("outcome", OUTCOMES)
def test_command_runs_without_cyclic_gc_and_main_restores_it(monkeypatch, capsys, outcome,
                                                               caller_enabled):
    error, expected = OUTCOMES[outcome]
    seen = []

    def command(args):
        seen.append(gc.isenabled())
        if error is not None:
            raise error("from the command")
        return 0

    monkeypatch.setattr(cli, "cmd_validate", command)
    was_enabled = gc.isenabled()
    (gc.enable if caller_enabled else gc.disable)()
    try:
        if expected is None:
            with pytest.raises(error):
                main(["validate"])
        else:
            assert main(["validate"]) == expected
        after = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False]
    assert after is caller_enabled


# ---------------------------------------------------------------------------
# Child processes: what a command imports, and a closed stdout
# ---------------------------------------------------------------------------

# Runs each argv through main in one process and prints, as its last line,
# which of the watched modules had been imported after each command.
IMPORT_PROBE = """
import json, sys
from fsskit.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    seen.append([argv[0], [name for name in ("numpy", "inspect", "dataclasses", "statistics")
                           if name in sys.modules]])
print(json.dumps(seen))
"""


def test_only_dea_imports_numpy(tiny_dir, tmp_path):
    # numpy serves the simplex alone; importing it would cost each census
    # command about as much CPU as its own work on a small census. numpy
    # brings inspect with it; no command needs dataclasses or statistics.
    out = tmp_path / "out"
    dmus = tmp_path / "dmus.csv"
    dmus.write_text("id,input_x,output_y\nA,2.0,4.0\nB,4.0,8.0\nC,4.0,4.0\n")
    rank = ["rank", *data_args(tiny_dir), *NO_EXCLUSIONS, "--level", "university"]
    argvs = [
        ["validate", *data_args(tiny_dir)],
        ["score", *data_args(tiny_dir), "--output-dir", str(out / "score")],
        [*rank, "--output-dir", str(out / "a")],
        [*rank, "--indicator", "fp_u", "--output-dir", str(out / "b")],
        ["compare", "--a", str(out / "a" / "rankings.csv"),
         "--b", str(out / "b" / "rankings.csv"), "--out", str(out / "c")],
        ["synth", "--seed", "1", "--researchers", "30", "--out", str(out / "synth")],
        ["dea", "--dmus", str(dmus), "--output-dir", str(out / "dea")],
    ]
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(argvs)],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert [command for command, _ in seen] == [argv[0] for argv in argvs]
    assert [(command, names) for command, names in seen if names] == [
        ("dea", ["numpy", "inspect"])]


def test_rankings_loads_no_library_module():
    # The package resolves its Library names on first use, so `compare`,
    # which needs only rankings, does not load the indicator modules.
    probe = "import json, sys, fsskit.rankings; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "fsskit.rankings" in loaded
    assert not loaded & {"fsskit.config", "fsskit.indicators", "fsskit.normalize", "fsskit.dea"}


# Runs one command through main in a fresh interpreter and prints, as its
# last line, which of the watched modules that command loaded.
WATCHED = ("fsskit.indicators", "fsskit.normalize", "fsskit.rankings", "fsskit.dea",
           "fsskit.simplex", "fsskit.synth", "hashlib", "json")
COMMAND_PROBE = f"""
import sys
from fsskit.cli import main
code = main(sys.argv[1:])
print(*[name for name in {WATCHED!r} if name in sys.modules])
sys.exit(code)
"""
LOADS = {
    "validate": [],
    "score": ["fsskit.indicators", "fsskit.normalize", "hashlib", "json"],
    "rank": ["fsskit.indicators", "fsskit.normalize", "fsskit.rankings"],
    "compare": ["fsskit.rankings", "json"],
    "dea-dmus": ["fsskit.normalize", "fsskit.dea", "fsskit.simplex"],
    "synth": ["fsskit.synth"],
}


@pytest.mark.parametrize("command", LOADS)
def test_each_command_loads_only_the_modules_it_runs(tiny_dir, tmp_path, command):
    # With no bytecode cache, each module a command imports is compiled at
    # every start, so one that it does not run is pure start-up cost.
    if command == "validate":
        argv = ["validate", *data_args(tiny_dir)]
    else:
        argv = [*command_argv(command, tiny_dir, tmp_path), str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", COMMAND_PROBE, *argv], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == LOADS[command]


def test_parser_offers_every_university_indicator():
    from fsskit.indicators import UNIVERSITY_INDICATORS

    assert cli.UNIVERSITY_INDICATORS == tuple(UNIVERSITY_INDICATORS)


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["validate", "score"])
def test_closed_stdout_exits_141_without_a_traceback(tiny_dir, tmp_path, command, buffering):
    # The read end is closed before the child starts, so its first write to
    # stdout fails, whenever that happens.
    read_end, write_end = os.pipe()
    os.close(read_end)
    argv = [command, *data_args(tiny_dir)]
    if command == "score":
        argv += ["--output-dir", str(tmp_path / "out")]
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run([sys.executable, "-m", "fsskit.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["dea", "--help"]])
def test_help_and_version_on_a_closed_stdout_exit_141(argv, buffering):
    # argparse prints these and exits inside parse_args. Buffered, the
    # failed write shows at the flush; unbuffered, argparse 3.11 ignores it.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run([sys.executable, "-m", "fsskit.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""

"""End-to-end command-line flows on temporary directories.

Every test drives main(argv) directly; exit codes and written artifacts are
the contract. The tiny corpus keeps default exclusion thresholds from
emptying the rankings, so most flows zero them out explicitly.
"""

import csv
import json

import pytest

from fsskit.cli import main
from fsskit.rankings import read_rankings

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
                 "--baseline-source", "file",
                 "--baseline-file", str(first / "baselines.csv"),
                 "--output-dir", str(second)]) == 0
    assert (first / "scores.csv").read_bytes() == (second / "scores.csv").read_bytes()
    assert not (second / "baselines.csv").exists()


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
    assert ranked.unit_ids() == {"UA", "UB"}


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
    assert ranked.unit_ids() == {"UA:MAT01", "UB:BIO01"}


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


# ---------------------------------------------------------------------------
# dea
# ---------------------------------------------------------------------------

def test_dea_from_corpus(tiny_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["dea", *data_args(tiny_dir), *NO_EXCLUSIONS,
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

"""Loading, validation, export round-trip, and exclusion filters."""

import dataclasses

import pytest

from fsskit.config import RunConfig
from fsskit.corpus import apply_exclusions, export_corpus, load_corpus, resolve_salary
from fsskit.errors import InputError, LoadError, RankNotFoundError
from fsskit.indicators import researcher_scores
from fsskit.normalize import compute_baselines

from conftest import TINY_FILES, write_tiny_files


def load_from(directory, config=None):
    return load_corpus(
        directory / "researchers.csv", directory / "publications.csv",
        directory / "bylines.csv", directory / "taxonomy.csv",
        directory / "salaries.csv", config or RunConfig(),
    )


def load_patched(tmp_path, **replacements):
    """Write the tiny corpus with some files replaced, then load it."""
    directory = tmp_path / "patched"
    directory.mkdir()
    for name, content in TINY_FILES.items():
        (directory / name).write_text(replacements.get(name, content), encoding="utf-8")
    return load_from(directory)


def test_loads_tiny_corpus(tiny):
    assert sorted(tiny.corpus.researchers) == ["r1", "r2", "r3", "r4", "r5"]
    # p6 is outside the 2006-2010 window and must not appear.
    assert sorted(tiny.corpus.publications) == ["p1", "p2", "p3", "p4", "p5", "p7"]
    assert tiny.report.row_counts == {"researchers": 5, "publications": 7, "bylines": 14}


def test_load_warnings(tiny):
    warnings = tiny.report.warnings
    assert len(warnings) == 2
    assert any("window" in w for w in warnings)
    assert any("external" in w for w in warnings)


def test_unresolved_byline_author_becomes_external(tiny):
    p5 = tiny.corpus.publications["p5"]
    assert [a.researcher_id for a in p5.byline] == [None, "r3", None]


def test_out_of_window_bylines_dropped_silently(tiny):
    assert all(pub.id != "p6" for pub in tiny.corpus.publications.values())
    assert tiny.corpus.publications_of("r1") == [
        (tiny.corpus.publications["p1"], 1),
        (tiny.corpus.publications["p2"], 1),
        (tiny.corpus.publications["p7"], 2),
    ]


def test_salary_resolution(tiny):
    researchers = tiny.corpus.researchers
    schedule = tiny.corpus.salaries
    assert resolve_salary(researchers["r1"], schedule) == 40000
    # "full" has only banded entries; the rank value is their mean.
    assert resolve_salary(researchers["r2"], schedule) == 70000
    # Explicit salary wins over the schedule.
    assert resolve_salary(researchers["r3"], schedule) == 90000
    ghost = dataclasses.replace(researchers["r1"], rank="dean", salary_per_year=None)
    with pytest.raises(RankNotFoundError):
        resolve_salary(ghost, schedule)


def test_staff_filters(tiny):
    corpus = tiny.corpus
    assert [r.id for r in corpus.staff(institution_id="UA")] == ["r1", "r2"]
    assert [r.id for r in corpus.staff(sds_code="BIO01")] == ["r3", "r4"]
    assert [r.id for r in corpus.staff(uda_code="MATH")] == ["r1", "r2", "r5"]
    assert [r.id for r in corpus.staff(institution_id="UB", department_id="UB-M")] == ["r5"]
    assert corpus.institutions() == ["UA", "UB"]
    assert corpus.departments() == ["UA-M", "UB-B", "UB-M"]


def test_missing_file_names_the_path(tmp_path):
    directory = write_tiny_files(tmp_path / "t")
    (directory / "taxonomy.csv").unlink()
    with pytest.raises(LoadError) as err:
        load_from(directory)
    assert "taxonomy.csv" in str(err.value)


def test_missing_column_rejected(tmp_path):
    with pytest.raises(LoadError) as err:
        load_patched(tmp_path, **{"salaries.csv": "rank,seniority_band\nassistant,\n"})
    assert "salary_per_year" in str(err.value)


def test_duplicate_researcher_id_rejected(tmp_path):
    bad = TINY_FILES["researchers.csv"] + "r1,Dup,MAT01,assistant,,UA,,5\n"
    with pytest.raises(LoadError) as err:
        load_patched(tmp_path, **{"researchers.csv": bad})
    assert "duplicate researcher id" in str(err.value)
    assert "line 7" in str(err.value)


def test_unknown_field_code_rejected(tmp_path):
    bad = TINY_FILES["researchers.csv"].replace("MAT01,assistant", "XXX99,assistant", 1)
    with pytest.raises(LoadError) as err:
        load_patched(tmp_path, **{"researchers.csv": bad})
    assert "XXX99" in str(err.value)


def test_negative_citations_rejected(tmp_path):
    bad = TINY_FILES["publications.csv"].replace("p3,2006,0,alg", "p3,2006,-1,alg")
    with pytest.raises(LoadError) as err:
        load_patched(tmp_path, **{"publications.csv": bad})
    assert "citations" in str(err.value)


def test_non_numeric_field_reports_position(tmp_path):
    bad = TINY_FILES["researchers.csv"].replace("r1,Ann,MAT01,assistant,,UA,UA-M,5",
                                                "r1,Ann,MAT01,assistant,,UA,UA-M,soon")
    with pytest.raises(LoadError) as err:
        load_patched(tmp_path, **{"researchers.csv": bad})
    message = str(err.value)
    assert "researchers.csv" in message
    assert "line 2" in message
    assert "years_in_window" in message


def test_byline_position_gap_rejected(tmp_path):
    bad = TINY_FILES["bylines.csv"].replace("p2,2,,XX", "p2,4,,XX")
    with pytest.raises(LoadError) as err:
        load_patched(tmp_path, **{"bylines.csv": bad})
    assert "1..n" in str(err.value)


def test_duplicate_byline_position_rejected(tmp_path):
    bad = TINY_FILES["bylines.csv"].replace("p2,3,r2,UA", "p2,1,r2,UA")
    with pytest.raises(LoadError):
        load_patched(tmp_path, **{"bylines.csv": bad})


def test_byline_for_unknown_publication_rejected(tmp_path):
    bad = TINY_FILES["bylines.csv"] + "p99,1,r1,UA\n"
    with pytest.raises(LoadError) as err:
        load_patched(tmp_path, **{"bylines.csv": bad})
    assert "p99" in str(err.value)


def test_publication_without_categories_rejected(tmp_path):
    bad = TINY_FILES["publications.csv"].replace("p5,2007,4,bio", "p5,2007,4,")
    with pytest.raises(LoadError) as err:
        load_patched(tmp_path, **{"publications.csv": bad})
    assert "category" in str(err.value)


def test_nonpositive_years_rejected(tmp_path):
    bad = TINY_FILES["researchers.csv"].replace("r4,Dan,BIO01,assistant,,UB,UB-B,2",
                                                "r4,Dan,BIO01,assistant,,UB,UB-B,0")
    with pytest.raises(LoadError):
        load_patched(tmp_path, **{"researchers.csv": bad})


def test_bad_convention_rejected(tmp_path):
    bad = TINY_FILES["taxonomy.csv"].replace("alphabetical", "by_fiat")
    with pytest.raises(LoadError) as err:
        load_patched(tmp_path, **{"taxonomy.csv": bad})
    assert "by_fiat" in str(err.value)


def test_export_round_trip_is_fixpoint(tiny, tmp_path):
    first = tmp_path / "export1"
    second = tmp_path / "export2"
    export_corpus(tiny.corpus, first)
    reloaded, _ = load_from(first)
    export_corpus(reloaded, second)
    for name in ("researchers.csv", "publications.csv", "bylines.csv",
                 "taxonomy.csv", "salaries.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_exclusions_drop_short_tenure(tiny):
    filtered, report = apply_exclusions(tiny.corpus, min_years=3)
    assert sorted(filtered.researchers) == ["r1", "r2", "r3", "r5"]
    assert report.excluded_researchers == [("r4", "years_in_window 2.0 < 3")]
    # Publications stay; the excluded researcher's byline rows untouched.
    assert sorted(filtered.publications) == sorted(tiny.corpus.publications)
    assert filtered.publications["p4"].byline[2].researcher_id == "r4"
    assert filtered.publications_of("r4") == []


def test_exclusions_flag_small_units(tiny):
    filtered, report = apply_exclusions(tiny.corpus, min_staff_uda=2, min_staff_total=3)
    # UB has 3 staff but only 1 in MATH; UA has 2 total.
    assert ("UB", "MATH") in filtered.excluded_institution_udas
    assert ("UA", "MATH") not in filtered.excluded_institution_udas
    assert filtered.excluded_institutions == frozenset({"UA"})
    assert report.excluded_institutions == ["UA"]
    # Flags gate rankings only: all researchers are still present.
    assert sorted(filtered.researchers) == sorted(tiny.corpus.researchers)


def test_staff_counted_after_tenure_filter(tiny):
    # r4 is dropped by min_years first, leaving UB-BIO with one researcher.
    filtered, _ = apply_exclusions(tiny.corpus, min_years=3, min_staff_uda=2)
    assert ("UB", "BIO") in filtered.excluded_institution_udas


def test_exclusions_idempotent(tiny):
    once, _ = apply_exclusions(tiny.corpus, min_years=3, min_staff_uda=2, min_staff_total=3)
    twice, report = apply_exclusions(once, min_years=3, min_staff_uda=2, min_staff_total=3)
    assert sorted(twice.researchers) == sorted(once.researchers)
    assert twice.excluded_institution_udas == once.excluded_institution_udas
    assert twice.excluded_institutions == once.excluded_institutions
    assert report.excluded_researchers == []


def test_negative_thresholds_rejected(tiny):
    with pytest.raises(InputError):
        apply_exclusions(tiny.corpus, min_years=-1)


def test_exclusions_keep_authorship_index(tiny):
    corpus = tiny.corpus
    researcher_scores(corpus, compute_baselines(corpus.publications))
    assert corpus._ledger is not None
    filtered, _ = apply_exclusions(corpus, min_years=3)
    assert filtered._authorships is corpus._authorships
    assert filtered._ledger is None

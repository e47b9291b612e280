"""Loading, validation and the export round-trip."""

import pickle
import random

import pytest

from fsskit.config import RunConfig
from fsskit.corpus import export_corpus, load_corpus
from fsskit.errors import InputError, LoadError
from fsskit.indicators import credit_ledger
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


def ledger_cost(corpus):
    baselines = compute_baselines(corpus.publications.values())
    return {row.id: row.cost for row in credit_ledger(corpus, baselines)}


def test_salary_resolution(tiny):
    corpus = tiny.corpus
    schedule = corpus.salaries
    assert schedule.lookup("assistant") == 40000
    # "full" has only banded entries; the rank value is their mean.
    assert schedule.lookup("full") == 70000
    with pytest.raises(InputError, match="rank 'dean' not present in the salary schedule"):
        schedule.lookup("dean")
    # The ledger costs r1 (assistant) and r2 (full) at their rank's schedule
    # salary, and r3 at its explicit salary, which wins over the schedule.
    cost = ledger_cost(corpus)
    assert cost["r1"] == 40000 * 5
    assert cost["r2"] == 70000 * 4
    assert cost["r3"] == 90000 * 5
    ghost = corpus.researchers["r1"]._replace(rank="dean", salary_per_year=None)
    with pytest.raises(InputError, match="rank 'dean' not present in the salary schedule"):
        ledger_cost(corpus._replace(researchers={**corpus.researchers, "r1": ghost}))


def test_staff_filters(tiny):
    corpus = tiny.corpus
    assert [r.id for r in corpus.staff(institution_id="UA")] == ["r1", "r2"]
    assert [r.id for r in corpus.staff(sds_code="BIO01")] == ["r3", "r4"]
    assert [r.id for r in corpus.staff(uda_code="MATH")] == ["r1", "r2", "r5"]
    assert [r.id for r in corpus.staff(institution_id="UB", department_id="UB-M")] == ["r5"]
    assert corpus.institutions() == ["UA", "UB"]
    assert sorted({r.department_id for r in corpus.researchers.values()}) == ["UA-M", "UB-B", "UB-M"]


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


def test_unknown_rank_without_salary_rejected(tmp_path):
    # r4 has 2 years in the window, so the default min_years would exclude
    # them; the row is refused at load time all the same.
    bad = TINY_FILES["researchers.csv"].replace("r4,Dan,BIO01,assistant,,", "r4,Dan,BIO01,dean,,")
    with pytest.raises(LoadError) as err:
        load_patched(tmp_path, **{"researchers.csv": bad})
    message = str(err.value)
    assert "rank 'dean' not present in the salary schedule" in message
    assert "researchers.csv" in message
    assert "line 5" in message
    assert "column 'rank'" in message


def test_unknown_rank_with_explicit_salary_loads(tmp_path):
    paid = TINY_FILES["researchers.csv"].replace("r3,Cyn,BIO01,full,90000", "r3,Cyn,BIO01,dean,90000")
    corpus, _ = load_patched(tmp_path, **{"researchers.csv": paid})
    assert ledger_cost(corpus)["r3"] == 90000 * 5


def test_byline_position_gap_rejected(tmp_path):
    bad = TINY_FILES["bylines.csv"].replace("p2,2,,XX", "p2,4,,XX")
    with pytest.raises(LoadError) as err:
        load_patched(tmp_path, **{"bylines.csv": bad})
    assert "1..n" in str(err.value)


def test_duplicate_byline_position_rejected(tmp_path):
    bad = TINY_FILES["bylines.csv"].replace("p2,3,r2,UA", "p2,1,r2,UA")
    with pytest.raises(LoadError):
        load_patched(tmp_path, **{"bylines.csv": bad})


def test_census_researcher_twice_on_one_byline_rejected(tmp_path):
    bad = TINY_FILES["bylines.csv"].replace("p2,3,r2,UA", "p2,3,r1,UA")
    with pytest.raises(LoadError) as err:
        load_patched(tmp_path, **{"bylines.csv": bad})
    message = str(err.value)
    assert "'r1' appears twice in the byline of 'p2'" in message
    assert "bylines.csv" in message
    assert "line 5" in message
    assert "researcher_id" in message


def test_external_authors_may_repeat_on_one_byline(tmp_path):
    # p5 then lists the unresolved id "ghost" twice, and p4 two external authors.
    repeated = (TINY_FILES["bylines.csv"].replace("p5,1,,XY", "p5,1,ghost,XY")
                .replace("p4,1,r3,UB", "p4,1,,XX"))
    corpus, _ = load_patched(tmp_path, **{"bylines.csv": repeated})
    assert [a.researcher_id for a in corpus.publications["p5"].byline] == [None, "r3", None]
    assert [a.researcher_id for a in corpus.publications["p4"].byline] == [None, None, "r4"]


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


def replace_rows(name, *pairs):
    """``name``'s tiny file with each (old, new) replacement made."""
    content = TINY_FILES[name]
    for old, new in pairs:
        assert old in content
        content = content.replace(old, new)
    return {name: content}


def replace_row(name, old, new):
    return replace_rows(name, (old, new))


# id -> (patched file, file the error names, line, column, full message).
# Publications: header on line 1, p1..p7 on lines 2..8. Bylines: header on
# line 1, then 14 rows on lines 2..15.
LOAD_ERRORS = {
    "publication-duplicate-id": (
        {"publications.csv": TINY_FILES["publications.csv"] + "p1,2006,1,alg\n"},
        "publications.csv", 9, "id", "duplicate publication id 'p1'"),
    "publication-year-not-integer": (
        replace_row("publications.csv", "p3,2006,0,alg", "p3,20x6,0,alg"),
        "publications.csv", 4, "year", "not an integer: '20x6'"),
    "publication-citations-not-integer": (
        replace_row("publications.csv", "p3,2006,0,alg", "p3,2006,lots,alg"),
        "publications.csv", 4, "citations", "not an integer: 'lots'"),
    "publication-citations-negative": (
        replace_row("publications.csv", "p3,2006,0,alg", "p3,2006,-1,alg"),
        "publications.csv", 4, "citations", "citations must be >= 0"),
    "publication-no-category": (
        replace_row("publications.csv", "p5,2007,4,bio", "p5,2007,4, ; "),
        "publications.csv", 6, "subject_categories", "at least one subject category is required"),
    "byline-empty-publication-id": (
        replace_row("bylines.csv", "p3,1,r2,UA", ",1,r2,UA"),
        "bylines.csv", 6, "publication_id", "value is required"),
    "byline-unknown-publication": (
        replace_row("bylines.csv", "p3,1,r2,UA", "p99,1,r2,UA"),
        "bylines.csv", 6, "publication_id", "byline references unknown publication 'p99'"),
    "byline-position-not-integer": (
        replace_row("bylines.csv", "p2,2,,XX", "p2,two,,XX"),
        "bylines.csv", 4, "position", "not an integer: 'two'"),
    "byline-position-zero": (
        replace_row("bylines.csv", "p3,1,r2,UA", "p3,0,r2,UA"),
        "bylines.csv", 6, "position", "position must be >= 1"),
    "byline-duplicate-position": (
        replace_row("bylines.csv", "p2,3,r2,UA", "p2,1,r2,UA"),
        "bylines.csv", 5, "position", "duplicate position 1 for publication 'p2'"),
    "byline-census-researcher-twice": (
        replace_row("bylines.csv", "p2,3,r2,UA", "p2,3,r1,UA"),
        "bylines.csv", 5, "researcher_id", "researcher 'r1' appears twice in the byline of 'p2'"),
    "byline-empty-institution": (
        replace_row("bylines.csv", "p3,1,r2,UA", "p3,1,r2,"),
        "bylines.csv", 6, "institution_id", "value is required"),
    "byline-missing": (
        replace_row("bylines.csv", "p3,1,r2,UA\n", ""),
        "bylines.csv", None, None, "publication 'p3' has no byline"),
    "byline-gap": (
        replace_row("bylines.csv", "p2,2,,XX", "p2,4,,XX"),
        "bylines.csv", None, "position", "byline positions for publication 'p2' are not 1..n without gaps"),
    # Bylines whose rows arrive out of position order: p2's rows are lines 3..5.
    "byline-duplicate-position-after-out-of-order-row": (
        replace_rows("bylines.csv", ("p2,1,r1,UA", "p2,2,r1,UA"), ("p2,2,,XX", "p2,1,,XX"),
                     ("p2,3,r2,UA", "p2,2,r2,UA")),
        "bylines.csv", 5, "position", "duplicate position 2 for publication 'p2'"),
    # Position 3 is the next slot by count (len + 1) but was already taken.
    "byline-duplicate-next-position-after-out-of-order-row": (
        replace_rows("bylines.csv", ("p2,1,r1,UA", "p2,3,r1,UA"), ("p2,2,,XX", "p2,1,,XX")),
        "bylines.csv", 5, "position", "duplicate position 3 for publication 'p2'"),
    "byline-census-researcher-twice-out-of-order": (
        replace_rows("bylines.csv", ("p2,1,r1,UA", "p2,2,r1,UA"), ("p2,2,,XX", "p2,1,,XX"),
                     ("p2,3,r2,UA", "p2,3,r1,UA")),
        "bylines.csv", 5, "researcher_id", "researcher 'r1' appears twice in the byline of 'p2'"),
    "byline-gap-out-of-order": (
        replace_rows("bylines.csv", ("p7,1,r5,UB", "p7,3,r5,UB"), ("p7,2,r1,UA", "p7,1,r1,UA")),
        "bylines.csv", None, "position", "byline positions for publication 'p7' are not 1..n without gaps"),
    # Two faults on one row: the publication is checked before the position.
    "byline-unknown-publication-and-bad-position": (
        replace_row("bylines.csv", "p3,1,r2,UA", "p99,x,r2,UA"),
        "bylines.csv", 6, "publication_id", "byline references unknown publication 'p99'"),
    # A row's own cells are checked before its byline's.
    "byline-duplicate-position-and-empty-institution": (
        replace_row("bylines.csv", "p2,3,r2,UA", "p2,1,r2,"),
        "bylines.csv", 5, "institution_id", "value is required"),
    "byline-census-researcher-twice-and-empty-institution": (
        replace_row("bylines.csv", "p2,3,r2,UA", "p2,3,r1,"),
        "bylines.csv", 5, "institution_id", "value is required"),
    # The loader parses and checks each distinct cell once and remembers only
    # cells that passed, so a bad cell on two rows is blamed at the first.
    "repeated-bad-year": (
        replace_rows("publications.csv", ("p3,2006,0,alg", "p3,20x6,0,alg"),
                     ("p4,2007,8,bio;alg", "p4,20x6,8,bio;alg")),
        "publications.csv", 4, "year", "not an integer: '20x6'"),
    "repeated-bad-citations": (
        replace_rows("publications.csv", ("p3,2006,0,alg", "p3,2006,-1,alg"),
                     ("p5,2007,4,bio", "p5,2007,-1,bio")),
        "publications.csv", 4, "citations", "citations must be >= 0"),
    "repeated-bad-subject-categories": (
        replace_rows("publications.csv", ("p3,2006,0,alg", "p3,2006,0,;"),
                     ("p5,2007,4,bio", "p5,2007,4,;")),
        "publications.csv", 4, "subject_categories", "at least one subject category is required"),
    "repeated-bad-position": (
        replace_rows("bylines.csv", ("p2,2,,XX", "p2,0,,XX"), ("p4,2,,XX", "p4,0,,XX")),
        "bylines.csv", 4, "position", "position must be >= 1"),
    "repeated-bad-position-out-of-window-first": (
        replace_rows("bylines.csv", ("p6,1,r1,UA", "p6,x1,r1,UA"), ("p7,1,r5,UB", "p7,x1,r5,UB")),
        "bylines.csv", 13, "position", "not an integer: 'x1'"),
    "repeated-empty-institution": (
        replace_rows("bylines.csv", ("p3,1,r2,UA", "p3,1,r2,"), ("p5,1,,XY", "p5,1,,")),
        "bylines.csv", 6, "institution_id", "value is required"),
    "repeated-empty-institution-out-of-window-first": (
        replace_rows("bylines.csv", ("p6,1,r1,UA", "p6,1,r1,"), ("p7,1,r5,UB", "p7,1,r5,")),
        "bylines.csv", 13, "institution_id", "value is required"),
}


@pytest.mark.parametrize("case", LOAD_ERRORS)
def test_load_error_names_file_line_column_and_message(tmp_path, case):
    patched, name, line, column, message = LOAD_ERRORS[case]
    with pytest.raises(LoadError) as err:
        load_patched(tmp_path, **patched)
    error = err.value
    assert (error.file.name, error.line, error.column) == (name, line, column)
    where = [str(error.file)]
    if line is not None:
        where.append(f"line {line}")
    if column is not None:
        where.append(f"column '{column}'")
    assert str(error) == f"{', '.join(where)}: {message}"


# p6 (2003) is outside the default 2006-2010 window; its byline row is line 13.
OUT_OF_WINDOW_ROWS = {
    "position-not-integer": ("p6,abc,r1,", "position", "not an integer: 'abc'"),
    "position-zero": ("p6,0,r1,UA", "position", "position must be >= 1"),
    "empty-institution": ("p6,1,r1,", "institution_id", "value is required"),
}


@pytest.mark.parametrize("case", OUT_OF_WINDOW_ROWS)
@pytest.mark.parametrize("window", [(2006, 2010), (2000, 2020)])
def test_byline_row_cells_checked_whatever_the_window(tmp_path, case, window):
    row, column, message = OUT_OF_WINDOW_ROWS[case]
    directory = tmp_path / "patched"
    directory.mkdir()
    for name, content in {**TINY_FILES, **replace_row("bylines.csv", "p6,1,r1,UA", row)}.items():
        (directory / name).write_text(content, encoding="utf-8")
    with pytest.raises(LoadError) as err:
        load_from(directory, RunConfig(window=window))
    assert (err.value.file.name, err.value.line, err.value.column) == ("bylines.csv", 13, column)
    assert str(err.value).endswith(f": {message}")


def test_publication_level_byline_checks_skip_out_of_window_publications(tmp_path):
    # p6 is outside the window: a gap, a repeated position and a repeated
    # census researcher in its byline are not checked.
    extra = "p6,3,r1,UA\np6,3,r2,UA\n"
    corpus, _ = load_patched(tmp_path, **{"bylines.csv": TINY_FILES["bylines.csv"] + extra})
    assert "p6" not in corpus.publications


def test_cells_good_outside_the_window_are_accepted_inside_it(tmp_path):
    # p6 (2003) is outside the window; its cells, first seen there, are
    # taken as they are on the in-window rows that repeat them.
    corpus, _ = load_patched(
        tmp_path,
        **replace_rows("publications.csv", ("p6,2003,7,alg", "p6,2003,07,alg;top"),
                       ("p7,2008,6,alg", "p7,2008,07,alg;top")),
        **replace_rows("bylines.csv", ("p6,1,r1,UA", "p6,01,r1,UQ"), ("p1,1,r1,UA", "p1,01,r1,UQ")))
    p7 = corpus.publications["p7"]
    assert (p7.citations, p7.subject_categories) == (7, ("alg", "top"))
    assert corpus.publications["p1"].byline == ((1, "UQ", "r1"),)


def test_each_unresolved_researcher_row_is_counted(tmp_path):
    # "ghost" then names no census researcher on two rows, p2's and p5's.
    _, report = load_patched(tmp_path, **replace_row("bylines.csv", "p2,2,,XX", "p2,2,ghost,XX"))
    assert "2 byline author(s) did not resolve to a census researcher; treated as external" \
        in report.warnings


def test_equal_positions_written_differently_share_one_authorship(tmp_path):
    corpus, _ = load_patched(tmp_path, **replace_row("bylines.csv", "p2,1,r1,UA", "p2,01,r1,UA"))
    first = corpus.publications["p1"].byline[0]
    assert first == (1, "UA", "r1")
    assert corpus.publications["p2"].byline[0] is first


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


def test_shuffled_bylines_load_to_the_same_corpus(synth_corpus, tmp_path):
    # A pickle also records which objects the records share, so equal pickles
    # mean equal values shared alike, whatever the order of the byline rows.
    canonical = tmp_path / "canonical"
    export_corpus(synth_corpus, canonical)
    shuffled = tmp_path / "shuffled"
    export_corpus(synth_corpus, shuffled)
    header, *rows = (canonical / "bylines.csv").read_text(encoding="utf-8").splitlines()
    random.Random(32).shuffle(rows)
    (shuffled / "bylines.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    assert (shuffled / "bylines.csv").read_bytes() != (canonical / "bylines.csv").read_bytes()
    assert pickle.dumps(load_from(shuffled)) == pickle.dumps(load_from(canonical))


def test_corpus_is_frozen(tiny):
    with pytest.raises(AttributeError):
        tiny.corpus.researchers = {}

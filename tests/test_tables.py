"""The one CSV contract every fsskit reader shares.

Each reader entry point goes through corpus.read_table, so each must treat
a missing file, a missing header or column, an over-wide row, a blank line,
padded cells, a non-numeric cell and an empty key cell the same way: skip
what is harmless, and otherwise raise a LoadError that names the file, the
line and the column.
"""

import csv
import re
from pathlib import Path

import pytest

from fsskit.config import RunConfig
from fsskit.corpus import (load_corpus, load_salary_schedule, load_taxonomy, read_table,
                           write_table)
from fsskit.dea import read_dmus
from fsskit.errors import LoadError
from fsskit.normalize import load_baselines
from fsskit.rankings import read_rankings

from conftest import TINY_FILES

CENSUS = ("researchers", "publications", "bylines", "taxonomy", "salaries")
SRC = Path(__file__).resolve().parent.parent / "src" / "fsskit"


def load_census_file(path):
    """load_corpus with ``path`` standing in for its file among the tiny census."""
    for name, content in TINY_FILES.items():
        if name != path.name:
            (path.parent / name).write_text(content, encoding="utf-8")
    corpus, _ = load_corpus(*(path.parent / f"{name}.csv" for name in CENSUS), RunConfig())
    return corpus


# (reader, file name, valid content, a required column, a numeric column, a key column)
READERS = {
    "load_taxonomy": (load_taxonomy, "taxonomy.csv", TINY_FILES["taxonomy.csv"],
                      "uda", None, "sds"),
    "load_salary_schedule": (load_salary_schedule, "salaries.csv", TINY_FILES["salaries.csv"],
                             "salary_per_year", "salary_per_year", "rank"),
    "load_corpus-researchers": (load_census_file, "researchers.csv",
                                TINY_FILES["researchers.csv"],
                                "years_in_window", "years_in_window", "id"),
    "load_corpus-publications": (load_census_file, "publications.csv",
                                 TINY_FILES["publications.csv"], "citations", "citations", "id"),
    "load_corpus-bylines": (load_census_file, "bylines.csv", TINY_FILES["bylines.csv"],
                            "position", "position", "publication_id"),
    "load_baselines": (load_baselines, "baselines.csv",
                       "year,category,c_bar,n_cited\n2006,alg,7.5,2\n2007,bio,4.0,1\n",
                       "c_bar", "n_cited", "category"),
    "read_rankings": (read_rankings, "rankings.csv",
                      "unit_id,score,rank,percentile\nu1,2.0,1,50.0\nu2,1.0,2,0.0\n",
                      "rank", "rank", "unit_id"),
    "read_dmus": (read_dmus, "dmus.csv", "id,input_cost,output_impact\nA,1.0,2.0\nB,2.0,3.0\n",
                  "id", "input_cost", "id"),
}
ALL = sorted(READERS)
NUMERIC = [name for name in ALL if READERS[name][4] is not None]


def rows_of(content):
    return list(csv.reader(content.splitlines()))


def text_of(rows):
    return "".join(",".join(row) + "\n" for row in rows)


def set_cell(content, column, value):
    """``content`` with ``column`` of the first data row set to ``value``."""
    rows = rows_of(content)
    rows[1][rows[0].index(column)] = value
    return text_of(rows)


def load(tmp_path, name, content):
    reader, file_name = READERS[name][:2]
    path = tmp_path / file_name
    if content is not None:
        path.write_text(content, encoding="utf-8")
    return reader(path)


def load_error(tmp_path, name, content) -> str:
    with pytest.raises(LoadError) as err:
        load(tmp_path, name, content)
    return str(err.value)


@pytest.mark.parametrize("name", ALL)
def test_missing_file_is_named(tmp_path, name):
    assert READERS[name][1] in load_error(tmp_path, name, None)


@pytest.mark.parametrize("name", ALL)
def test_directory_in_place_of_a_file_is_named(tmp_path, name):
    (tmp_path / READERS[name][1]).mkdir()
    assert f"{READERS[name][1]}: cannot be read" in load_error(tmp_path, name, None)


@pytest.mark.parametrize("name", ALL)
def test_empty_file_rejected(tmp_path, name):
    assert "missing header row" in load_error(tmp_path, name, "")


@pytest.mark.parametrize("name", ALL)
def test_missing_required_column_is_named(tmp_path, name):
    column = READERS[name][3]
    rows = rows_of(READERS[name][2])
    at = rows[0].index(column)
    message = load_error(tmp_path, name, text_of([row[:at] + row[at + 1:] for row in rows]))
    assert re.search(rf"missing column\(s\) .*\b{column}\b", message)


@pytest.mark.parametrize("name", ALL)
def test_repeated_column_rejected(tmp_path, name):
    column = READERS[name][3]
    lines = READERS[name][2].splitlines(keepends=True)
    lines = [line.rstrip("\n") + ("," + column if i == 0 else ",0") + "\n"
             for i, line in enumerate(lines)]
    message = load_error(tmp_path, name, "".join(lines))
    assert "line 1" in message
    assert f"repeated column(s) {column}" in message


@pytest.mark.parametrize("name", ALL)
def test_row_wider_than_header_names_the_line(tmp_path, name):
    lines = READERS[name][2].splitlines(keepends=True)
    lines[1] = lines[1].rstrip("\n") + ",extra\n"
    message = load_error(tmp_path, name, "".join(lines))
    assert "line 2" in message
    assert "more fields than the header" in message


@pytest.mark.parametrize("name", ALL)
def test_blank_lines_are_skipped(tmp_path, name):
    content = READERS[name][2]
    expected = load(tmp_path, name, content)
    header, body = content.split("\n", 1)
    assert load(tmp_path, name, header + "\n\n" + body.replace("\n", "\n\n")) == expected


@pytest.mark.parametrize("name", ALL)
def test_whitespace_around_cells_is_stripped(tmp_path, name):
    content = READERS[name][2]
    expected = load(tmp_path, name, content)
    padded = text_of([[f"  {cell}\t" for cell in row] for row in rows_of(content)])
    assert load(tmp_path, name, padded) == expected


@pytest.mark.parametrize("name", NUMERIC)
def test_non_numeric_cell_names_the_column(tmp_path, name):
    column = READERS[name][4]
    message = load_error(tmp_path, name, set_cell(READERS[name][2], column, "abc"))
    assert "line 2" in message
    assert f"column '{column}'" in message
    assert "'abc'" in message


@pytest.mark.parametrize("name", ALL)
def test_empty_key_cell_rejected(tmp_path, name):
    column = READERS[name][5]
    message = load_error(tmp_path, name, set_cell(READERS[name][2], column, ""))
    assert "line 2" in message
    assert f"column '{column}'" in message


# ---------------------------------------------------------------------------
# read_table and write_table themselves
# ---------------------------------------------------------------------------

def test_write_then_read_round_trips_commas_and_quotes(tmp_path):
    unit = 'U,1 "north"'
    path = write_table(tmp_path / "t.csv", ("id", "value", "note"), [(unit, 1.5, None)])
    assert list(read_table(path, ("id", "value", "note"))) == [(2, (unit, "1.5", ""))]


def test_short_rows_and_absent_optional_columns_read_empty(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n1\n1,2,3\n")
    assert list(read_table(path, ("a", "c"), ("b", "d"))) == [
        (2, ("1", "", "", "")),
        (3, ("1", "3", "2", "")),
    ]


def test_columns_may_depend_on_the_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x_1,y,x_2\n1,2,3\n")
    picked = read_table(path, lambda header: [c for c in header if c.startswith("x_")])
    assert list(picked) == [(2, ("1", "3"))]


@pytest.mark.parametrize("content, message", [
    (b"id,v\n\xe9t\xe9,1\n", "not UTF-8"),
    (b"id,v\nA," + b"9" * 200_000 + b"\n", "field larger than field limit"),
])
def test_unreadable_file_is_a_load_error(tmp_path, content, message):
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    with pytest.raises(LoadError, match=message) as err:
        list(read_table(path, ("id", "v")))
    assert "t.csv" in str(err.value)


def test_one_module_reads_and_writes_csv():
    """The CSV format lives in corpus.py; every other module goes through it."""
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name == "corpus.py":
            assert text.count("csv.reader(") == 1
            assert text.count("csv.writer(") == 1
            assert "csv.DictReader" not in text
        else:
            for pattern in ("csv.DictReader", "csv.reader(", "csv.writer("):
                assert pattern not in text, f"{path.name} uses {pattern}"

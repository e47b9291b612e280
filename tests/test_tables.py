"""The one CSV contract every fsskit reader shares.

Each reader entry point goes through corpus.read_table, so each must treat
a missing file, a missing header or column, an over-wide row, a blank line,
padded cells, a non-numeric cell and an empty key cell the same way: skip
what is harmless, and otherwise raise a LoadError that names the file, the
line and the column.

read_table passes the cells of a plain file (corpus._plain) through
unstripped; the tests at the end check that it reads such a file exactly as
it reads one that takes the stripping path.
"""

import csv
import json
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from fsskit import cli
from fsskit.config import RunConfig
from fsskit.corpus import (_plain, export_corpus, load_corpus, load_salary_schedule,
                           load_taxonomy, read_table, write_table)
from fsskit.dea import read_dmus
from fsskit.errors import LoadError
from fsskit.normalize import load_baselines
from fsskit.rankings import read_rankings

from conftest import TINY_FILES, child_env, euro_dmu_table, write_tiny_files

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


# ---------------------------------------------------------------------------
# The plain path reads what the stripping path reads
# ---------------------------------------------------------------------------

def is_plain(path) -> bool:
    with open(path, "rb") as fh:
        return _plain(fh.fileno())


def seeded_table(seed) -> str:
    """A plain table of ids, integers, floats and empty cells, with short
    rows and blank lines among its full ones."""
    rng = random.Random(seed)
    lines = ["id,count,share,note,code"]
    for i in range(300):
        cells = [f"X{i:05d}", str(rng.randrange(-9, 10 ** rng.randrange(1, 9))),
                 rng.choice([repr(rng.uniform(-1e3, 1e3)), f"{rng.lognormvariate(0, 9):.6e}", "0.5"]),
                 rng.choice(["", "", "a;b", "n/a", "x_y"]),
                 rng.choice(["", str(rng.randrange(100))])]
        kind = rng.random()
        if kind < 0.05:
            lines.append("")
        elif kind < 0.2:
            lines.append(",".join(cells[:rng.randrange(1, 5)]))
        else:
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# Each writes the table again with one byte that is not plain, in a last row
# that the comparison leaves out (or, for the BOM, before the header).
NOT_PLAIN = {
    "space": lambda text: text + "Z, 1,,,\n",
    "crlf": lambda text: (text + "Z,1,,,\n").replace("\n", "\r\n"),
    "quote": lambda text: text + '"Z",1,,,\n',
    "non-ascii": lambda text: text + "Z\u00e9,1,,,\n",
    "bom": lambda text: "\ufeff" + text + "Z,1,,,\n",
}
SELECTIONS = {
    "header-in-order": (("id", "count", "share", "note", "code"), ()),
    "picked": (("share", "id"), ("code", "absent")),
    "one-column": (("note",), ()),
}


@pytest.mark.parametrize("selection", sorted(SELECTIONS))
@pytest.mark.parametrize("variant", sorted(NOT_PLAIN))
@pytest.mark.parametrize("seed", range(3))
def test_plain_file_reads_as_the_stripped_one(tmp_path, seed, variant, selection):
    text = seeded_table(seed)
    plain, other = tmp_path / "plain.csv", tmp_path / "other.csv"
    plain.write_bytes(text.encode())
    other.write_bytes(NOT_PLAIN[variant](text).encode())
    assert is_plain(plain)
    assert not is_plain(other)
    columns, optional = SELECTIONS[selection]
    expected = list(read_table(other, columns, optional))[:-1]
    # A csv list would not equal the stripped path's tuple.
    assert list(read_table(plain, columns, optional)) == expected


def test_quoted_cell_ending_in_a_line_break_is_stripped(tmp_path):
    # A quoted cell may hold a line break, which strip removes; so a quote
    # disqualifies a file from the plain path.
    path = tmp_path / "t.csv"
    path.write_bytes(b'id,v\nA,"a\n"\n')
    assert not is_plain(path)
    assert list(read_table(path, ("id", "v"))) == [(3, ("A", "a"))]


def test_bad_cell_is_blamed_before_a_late_undecodable_byte(tmp_path):
    # The plain check reads bytes without decoding them, so a byte that is not
    # UTF-8, beyond csv's first reads, still comes after an earlier row's fault.
    path = tmp_path / "bylines.csv"
    path.write_bytes(b"publication_id,position,researcher_id,institution_id\n"
                     b"p1,1,r1,UA\np2,x,r1,UA\n" + b"p3,1,r2,UA\n" * 7000 + b"p4,1,\xff,UB\n")
    assert path.stat().st_size > 64 * 1024
    with pytest.raises(LoadError) as err:
        load_census_file(path)
    message = str(err.value)
    assert "line 3" in message
    assert "column 'position'" in message


def test_synth_census_takes_the_plain_path(tmp_path, synth_corpus):
    # researchers.csv holds names with spaces; the other four are plain. A
    # change to the export, or to the rule, that turns the plain path off for
    # them fails here.
    paths = export_corpus(synth_corpus, tmp_path)
    assert {name: is_plain(path) for name, path in paths.items()} == {
        "researchers.csv": False, "publications.csv": True, "bylines.csv": True,
        "taxonomy.csv": True, "salaries.csv": True,
    }


def run_fed_through_a_fifo(path: Path, argv, timeout=120):
    """Run ``argv`` as a child while a writer thread feeds ``path``'s bytes
    through a FIFO put in its place. The bylines are larger than a pipe's
    buffer, so the writer blocks until the child reads; a reader that opened
    or read the pipe twice would load no byline, or wait for a second writer
    until the timeout, which kills the child. The writer is gone on return."""
    content = path.read_bytes()
    assert len(content) > 1 << 16
    path.unlink()
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "wb") as fh:
                fh.write(content)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    finally:
        if writer.is_alive():  # the child never opened the pipe, or stopped reading
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert not writer.is_alive()
    return proc


def test_census_with_a_fifo_loads_as_with_the_file(tmp_path, synth_corpus):
    census = tmp_path / "census"
    paths = export_corpus(synth_corpus, census)
    argv = [sys.executable, "-m", "fsskit.cli", "validate", "--data", str(census)]
    expected = subprocess.run(argv, env=child_env(), capture_output=True, text=True, timeout=120)
    assert expected.returncode == 0, expected.stderr
    proc = run_fed_through_a_fifo(paths["bylines.csv"], argv)
    assert (proc.returncode, proc.stdout) == (0, expected.stdout), proc.stderr


def test_score_on_a_fifo_census_checksums_only_the_files(tmp_path, synth_corpus):
    # A pipe the loader has read cannot be read again to checksum it, so its
    # checksum is null; the scores are those of the file.
    census = tmp_path / "census"
    paths = export_corpus(synth_corpus, census)

    def score(out):
        return [sys.executable, "-m", "fsskit.cli", "score", "--data", str(census),
                "--output-dir", str(tmp_path / out)]

    expected = subprocess.run(score("file"), env=child_env(), capture_output=True, text=True,
                              timeout=120)
    assert expected.returncode == 0, expected.stderr
    proc = run_fed_through_a_fifo(paths["bylines.csv"], score("fifo"), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert ((tmp_path / "fifo" / "scores.csv").read_bytes()
            == (tmp_path / "file" / "scores.csv").read_bytes())
    inputs = {run: json.loads((tmp_path / run / "report.json").read_text())["inputs"]
              for run in ("file", "fifo")}
    assert isinstance(inputs["file"]["bylines.csv"], str)
    assert inputs["fifo"] == {**inputs["file"], "bylines.csv": None}


def with_bom(path):
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())


def artifacts(directory):
    out = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    if "report.json" in out:  # its input checksums are of the files' own bytes
        report = json.loads(out["report.json"])
        del report["inputs"]
        out["report.json"] = report
    return out


def run(argv, out):
    assert cli.main([*argv, str(out)]) == 0
    return artifacts(out)


@pytest.mark.parametrize("name", [f"{name}.csv" for name in CENSUS])
def test_census_file_with_a_bom_scores_alike(tmp_path, name, capsys):
    # Spreadsheet programs start a saved CSV with a byte order mark; it is not
    # part of the first column's name.
    plain, marked = write_tiny_files(tmp_path / "plain"), write_tiny_files(tmp_path / "marked")
    with_bom(marked / name)
    expected = run(["score", "--data", str(plain), "--output-dir"], tmp_path / "out-plain")
    assert run(["score", "--data", str(marked), "--output-dir"], tmp_path / "out-marked") == expected


def test_rankings_and_dmus_with_a_bom_read_alike(tmp_path, capsys):
    ranking, marked_ranking = tmp_path / "rankings.csv", tmp_path / "marked-rankings.csv"
    ranking.write_text("unit_id,score,rank,percentile\nu1,2.0,1,50.0\nu2,1.0,2,0.0\n")
    marked_ranking.write_bytes(ranking.read_bytes())
    with_bom(marked_ranking)
    assert (run(["compare", "--a", str(marked_ranking), "--b", str(marked_ranking), "--out"],
                tmp_path / "cmp-marked")
            == run(["compare", "--a", str(ranking), "--b", str(ranking), "--out"], tmp_path / "cmp"))
    dmus = euro_dmu_table(tmp_path / "dmus.csv", n=20)
    marked_dmus = tmp_path / "marked-dmus.csv"
    marked_dmus.write_bytes(dmus.read_bytes())
    with_bom(marked_dmus)
    assert (run(["dea", "--dmus", str(marked_dmus), "--output-dir"], tmp_path / "dea-marked")
            == run(["dea", "--dmus", str(dmus), "--output-dir"], tmp_path / "dea"))

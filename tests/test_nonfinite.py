"""nan and infinities parse as floats; every loader must refuse them, and
every number that is not an ASCII decimal a float can hold.

Each rejection is a LoadError (CLI exit code 2) that names the file, the
line and, where the loader knows it, the column, so a bad value never flows
silently into a score.
"""

import csv

import pytest

from fsskit.cli import main
from fsskit.config import RunConfig
from fsskit.corpus import load_corpus
from fsskit.dea import read_dmus
from fsskit.errors import LoadError
from fsskit.normalize import load_baselines
from fsskit.rankings import read_rankings

from conftest import TINY_FILES

NON_FINITE = ("nan", "inf", "-inf", "NaN", "Infinity")


def assert_names(err, file, line, column):
    message = str(err.value)
    assert file in message
    assert f"line {line}" in message
    assert f"column '{column}'" in message
    assert "finite" in message


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("file, old, new, line, column", [
    ("researchers.csv", "r1,Ann,MAT01,assistant,,UA,UA-M,5",
     "r1,Ann,MAT01,assistant,,UA,UA-M,{}", 2, "years_in_window"),
    ("researchers.csv", "r3,Cyn,BIO01,full,90000,UB,UB-B,5",
     "r3,Cyn,BIO01,full,{},UB,UB-B,5", 4, "salary"),
    ("salaries.csv", "assistant,,40000", "assistant,,{}", 2, "salary_per_year"),
])
def test_load_corpus_rejects_non_finite(tmp_path, value, file, old, new, line, column):
    for name, content in TINY_FILES.items():
        if name == file:
            assert old in content
            content = content.replace(old, new.format(value))
        (tmp_path / name).write_text(content, encoding="utf-8")
    with pytest.raises(LoadError) as err:
        load_corpus(*(tmp_path / f"{name}.csv" for name in
                      ("researchers", "publications", "bylines", "taxonomy", "salaries")),
                    RunConfig())
    assert_names(err, file, line, column)


@pytest.mark.parametrize("value", NON_FINITE)
def test_load_baselines_rejects_non_finite(tmp_path, value):
    path = tmp_path / "baselines.csv"
    path.write_text(f"year,category,c_bar,n_cited\n2006,alg,7.5,2\n2007,bio,{value},1\n")
    with pytest.raises(LoadError) as err:
        load_baselines(path)
    assert_names(err, "baselines.csv", 3, "c_bar")


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("row, column", [
    ("u2,{},2,0.0", "score"),
    ("u2,1.0,2,{}", "percentile"),
])
def test_read_rankings_rejects_non_finite(tmp_path, value, row, column):
    path = tmp_path / "rankings.csv"
    path.write_text("unit_id,score,rank,percentile\nu1,2.0,1,50.0\n"
                    + row.format(value) + "\n")
    with pytest.raises(LoadError) as err:
        read_rankings(path)
    assert_names(err, "rankings.csv", 3, column)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("row, column", [
    ("B,{},3.0", "input_cost"),
    ("B,1.0,{}", "output_impact"),
])
def test_read_dmus_rejects_non_finite(tmp_path, value, row, column):
    path = tmp_path / "dmus.csv"
    path.write_text("id,input_cost,output_impact\nA,1.0,2.0\n" + row.format(value) + "\n")
    with pytest.raises(LoadError) as err:
        read_dmus(path)
    assert_names(err, "dmus.csv", 3, column)


@pytest.mark.parametrize("salary, years, column", [
    ("nan", "inf", "years_in_window"),
    ("nan", None, "salary"),
])
def test_score_exits_2_on_non_finite_researcher(tmp_path, capsys, salary, years, column):
    data = tmp_path / "census"
    assert main(["synth", "--seed", "1", "--researchers", "200", "--institutions", "3",
                 "--out", str(data)]) == 0
    path = data / "researchers.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    rows[1][header.index("salary")] = salary
    if years is not None:
        rows[1][header.index("years_in_window")] = years
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    capsys.readouterr()

    assert main(["score", "--data", str(data), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "researchers.csv" in err
    assert "line 2" in err
    assert f"column '{column}'" in err


@pytest.mark.parametrize("command, file, old, new, line, column", [
    ("validate", "publications.csv", "p1,2006,10,", "p1,2006,1_0,", 2, "citations"),
    ("validate", "publications.csv", "p1,2006,10,", "p1,\u0662\u0660\u0660\u0666,10,", 2, "year"),
    ("validate", "researchers.csv", "UA-M,4\n", "UA-M,4_0\n", 3, "years_in_window"),
    ("score", "publications.csv", "p1,2006,10,", "p1,2006," + "9" * 400 + ",", 2, "citations"),
    ("validate", "publications.csv", "p1,2006,10,", "p1,2006,1" + "0" * 51 + ",", 2, "citations"),
    ("validate", "researchers.csv", "full,90000,", "full,1e51,", 4, "salary"),
    ("validate", "researchers.csv", "UA-M,4\n", "UA-M,1e-51\n", 3, "years_in_window"),
], ids=["citations-separator", "year-arabic-indic-digits", "years-separator", "citations-400-digits",
        "citations-over-1e50", "salary-over-1e50", "years-under-1e-50"])
def test_numbers_are_ascii_decimals_that_a_float_holds(tmp_path, capsys, command, file, old, new,
                                                       line, column):
    # int() and float() accept "_" separators and non-ASCII digits, and an
    # integer too large for a float fails only where a score divides it.
    # Numbers past 1e50 or under 1e-50 can overflow a score, so they are
    # refused too.
    for name, content in TINY_FILES.items():
        if name == file:
            assert content.count(old) == 1
            content = content.replace(old, new)
        (tmp_path / name).write_text(content, encoding="utf-8")
    argv = [command, "--data", str(tmp_path)]
    if command == "score":
        argv += ["--output-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert file in err
    assert f"line {line}" in err
    assert f"column '{column}'" in err


@pytest.fixture(scope="module")
def census5(tmp_path_factory):
    data = tmp_path_factory.mktemp("census5")
    assert main(["synth", "--seed", "5", "--researchers", "300", "--institutions", "4",
                 "--out", str(data)]) == 0
    return data


def with_cell(source, target, file, column, value):
    """A copy of the census at ``source`` whose ``file`` has ``value`` in
    ``column`` of its first data row (line 2)."""
    target.mkdir()
    for path in source.iterdir():
        (target / path.name).write_bytes(path.read_bytes())
    with open(target / file, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[1][rows[0].index(column)] = value
    with open(target / file, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return target


def assert_exit_2_at(capsys, argv, file, column):
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert file in err
    assert "line 2" in err
    assert f"column '{column}'" in err


# A finite cell can still overflow a quotient or product (a salary times
# 1e-320 years is too small to divide by, 1e308 years is too large to add)
# and then write inf or nan. Every positive quantity must lie within 1e-50
# and 1e50.
@pytest.mark.parametrize("command", [["score"], ["rank", "--level", "researcher"]],
                         ids=["score", "rank"])
def test_tiny_years_in_window_is_refused(census5, tmp_path, capsys, command):
    data = with_cell(census5, tmp_path / "data", "researchers.csv", "years_in_window", "1e-320")
    assert_exit_2_at(capsys, [*command, "--data", str(data), "--min-years", "0",
                              "--output-dir", str(tmp_path / "out")],
                     "researchers.csv", "years_in_window")
    assert not (tmp_path / "out").exists()


def test_huge_years_in_window_is_refused(census5, tmp_path, capsys):
    data = with_cell(census5, tmp_path / "data", "researchers.csv", "years_in_window", "1e308")
    assert_exit_2_at(capsys, ["score", "--data", str(data), "--min-years", "0",
                              "--output-dir", str(tmp_path / "out")],
                     "researchers.csv", "years_in_window")


def test_tiny_baseline_c_bar_is_refused(census5, tmp_path, capsys):
    assert main(["score", "--data", str(census5), "--min-years", "0",
                 "--output-dir", str(tmp_path / "computed")]) == 0
    baselines = with_cell(tmp_path / "computed", tmp_path / "file", "baselines.csv", "c_bar",
                          "1e-320") / "baselines.csv"
    assert_exit_2_at(capsys, ["score", "--data", str(census5), "--min-years", "0",
                              "--baseline-file", str(baselines),
                              "--output-dir", str(tmp_path / "out")],
                     "baselines.csv", "c_bar")


def test_huge_schedule_salary_is_refused(census5, tmp_path, capsys):
    data = with_cell(census5, tmp_path / "data", "salaries.csv", "salary_per_year", "1e308")
    assert_exit_2_at(capsys, ["dea", "--data", str(data), "--min-years", "0",
                              "--output-dir", str(tmp_path / "out")],
                     "salaries.csv", "salary_per_year")


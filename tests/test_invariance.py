"""Relations that follow from the paper's definitions, checked end to end.

FSS is output over cost, a publication's impact is its citations over its
cohort's mean, and every mean is taken over productive units. So, with no
second implementation of any indicator:

- doubling the census (every researcher, publication and byline copied
  under a new id, every institution and department too) leaves every unit's
  score, and its twin's, bit for bit where it was, at every `score` scope;
- multiplying every citation count by 3 moves no score by more than the
  acceptance tolerance (rel 1e-9), and no unit whose score lies further
  than that from every other unit's changes rank;
- multiplying one input and one output column of a `dea --dmus` table
  leaves every expansion factor and peer set where it was (the envelopment
  program does not depend on units of measure): byte for byte under x2,
  which is exact in floating point, and within 1e-9 under x3.
"""

import csv
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from fsskit.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import dmugen  # noqa: E402

REL = 1e-9
TWIN = "~2"
NO_FLOORS = ["--min-years", "0", "--min-staff-uda", "0", "--min-staff-total", "0"]


def run(*argv):
    with redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_rows(path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def transformed(source, target, change):
    """A copy of the census at ``source`` in ``target``, each file's data
    rows (as dicts) passed through ``change(name, rows)``."""
    for path in sorted(source.glob("*.csv")):
        header, *rows = read_rows(path)
        rows = change(path.stem, [dict(zip(header, row)) for row in rows])
        write_rows(target / path.name, [header, *([row[c] for c in header] for row in rows)])
    return target


def twin(value: str) -> str:
    return value + TWIN if value else value


def doubled_rows(name, rows):
    """Each row, then its twin: every id a row holds, the external
    institutions on bylines included, gets the suffix, so the twin census is
    the original one under other names."""
    keys = {"researchers": ("id", "institution", "department"),
            "publications": ("id",),
            "bylines": ("publication_id", "researcher_id", "institution_id")}.get(name, ())
    if not keys:
        return rows
    return rows + [{**row, **{key: twin(row[key]) for key in keys}} for row in rows]


def twin_unit(unit_id: str) -> str | None:
    """The doubled census's twin of one scores.csv unit; a national unit
    has none."""
    if unit_id.startswith("@country"):
        return None
    inst, sep, sds = unit_id.rpartition(":")
    return f"{inst}{TWIN}{sep}{sds}" if sep else twin(unit_id)


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    census = tmp_path_factory.mktemp("invariance") / "census"
    run("synth", "--seed", "5", "--researchers", "300", "--institutions", "4",
        "--out", str(census))
    return census


def scores(census, out, scope):
    run("score", "--data", str(census), "--scope", scope, "--output-dir", str(out))
    _, *rows = read_rows(out / "scores.csv")
    return {(level, unit, indicator): value for level, unit, indicator, value in rows}


@pytest.mark.parametrize("scope", ["sds", "department", "university", "country"])
def test_doubling_the_census_keeps_every_score_bitwise(census, tmp_path, scope):
    double = transformed(census, tmp_path / "double", doubled_rows)
    before = scores(census, tmp_path / "before", scope)
    after = scores(double, tmp_path / "after", scope)
    expected = dict(before)
    for (level, unit, indicator), value in before.items():
        if twin_unit(unit) is not None:
            expected[(level, twin_unit(unit), indicator)] = value
    # Values are compared as written, in shortest round-trip form.
    assert after == expected
    assert {level for level, _, _ in before} == {"researcher", "staff" if scope in (
        "sds", "country") else scope}


def ranking(census, out, level):
    run("rank", "--data", str(census), "--level", level, *NO_FLOORS, "--output-dir", str(out))
    _, *rows = read_rows(out / "rankings.csv")
    return {unit: (float(score), int(rank)) for unit, score, rank, _ in rows}


@pytest.mark.parametrize("level", ["university", "staff", "researcher"])
def test_tripling_citations_keeps_scores_and_separated_ranks(census, tmp_path, level):
    def tripled(name, rows):
        if name == "publications":
            return [{**row, "citations": str(3 * int(row["citations"]))} for row in rows]
        return rows

    before = ranking(census, tmp_path / "before", level)
    after = ranking(transformed(census, tmp_path / "tripled", tripled), tmp_path / "after", level)
    assert sorted(after) == sorted(before)
    for unit, (score, _) in before.items():
        assert after[unit][0] == pytest.approx(score, rel=REL), unit
    # A unit more than REL from both neighbours in score order keeps its rank.
    order = sorted(before, key=lambda unit: before[unit][0])
    values = [before[unit][0] for unit in order]
    separated = 0
    for i, unit in enumerate(order):
        neighbours = values[max(i - 1, 0):i] + values[i + 1:i + 2]
        if all(abs(values[i] - v) > REL * max(abs(values[i]), abs(v)) for v in neighbours):
            separated += 1
            assert after[unit][1] == before[unit][1], unit
    assert separated > len(order) // 2


def dea_results(table, out):
    run("dea", "--dmus", str(table), "--model", "both", "--output-dir", str(out))
    return out / "dea_results.csv"


@pytest.fixture(scope="module")
def dmu_table(tmp_path_factory):
    path, = dmugen.write_tables(7, 120, 1, tmp_path_factory.mktemp("dmus"))
    return path


def scaled_table(table, target, factor):
    """The table with input_cost_full and output_count multiplied by factor."""
    header, *rows = read_rows(table)
    columns = [header.index("input_cost_full"), header.index("output_count")]
    for row in rows:
        for c in columns:
            row[c] = repr(float(row[c]) * factor)
    write_rows(target, [header, *rows])
    return target


def test_doubling_dmu_columns_keeps_results_bytewise(dmu_table, tmp_path):
    before = dea_results(dmu_table, tmp_path / "before")
    after = dea_results(scaled_table(dmu_table, tmp_path / "x2.csv", 2), tmp_path / "after")
    assert after.read_bytes() == before.read_bytes()


def test_tripling_dmu_columns_keeps_phi_and_peers(dmu_table, tmp_path):
    _, *before = read_rows(dea_results(dmu_table, tmp_path / "before"))
    _, *after = read_rows(dea_results(scaled_table(dmu_table, tmp_path / "x3.csv", 3),
                                      tmp_path / "after"))
    assert len(after) == len(before) == 240
    for (uid, model, phi, _, peers), (uid3, model3, phi3, _, peers3) in zip(before, after):
        assert (uid3, model3, peers3) == (uid, model, peers)
        assert float(phi3) == pytest.approx(float(phi), rel=REL), (uid, model)

"""Relations that follow from the paper's definitions, checked end to end.

FSS is output over cost, a publication's impact is its citations over its
cohort's mean, and every mean is taken over productive units. So, with no
second implementation of any indicator:

- doubling the census (every researcher, publication and byline copied
  under a new id, every institution and department too) leaves every unit's
  score, and its twin's, bit for bit where it was, at every `score` scope;
  under corpus-mode `dea` it leaves every institution's expansion factor
  and efficiency, and its twin's, within dea.CERTIFICATE_TOL (relative)
  under both models, peers aside;
- multiplying every citation count by 3 moves no score by more than the
  acceptance tolerance (rel 1e-9), and no unit whose score lies further
  than that from every other unit's changes rank;
- multiplying one input and one output column of a `dea --dmus` table
  leaves every expansion factor and peer set where it was (the envelopment
  program does not depend on units of measure): byte for byte under x2,
  which is exact in floating point, and within 1e-9 under x3.

Each level is also a reduction of the level below it, checked through the
`score --scope sds|country|university|department` artifacts of a census
whose labour costs (salary times years) are read from researchers.csv, each
within the acceptance tolerance, because the sums run in another order:

- a staff unit's fss_s is the cost-weighted mean of its members' fss_r;
- a field's national fss_s is the cost-weighted mean of that field's
  institution staff scores;
- an institution's fss_u is the cost-weighted mean of its staff scores,
  each over its field's cost-weighted mean over productive staff units;
- merging two institutions, by relabelling only researchers.csv, leaves
  every field mean, and so every other institution's and every
  department's scores, bit for bit where they were; the merged fss_u is the
  cost-weighted mean of the two, and its p_u and fp_u the head-count-weighted
  means;
- merging two departments the same way leaves every other department's
  fss_d bit for bit, and the merged fss_d is the head-count-weighted mean of
  the two.
"""

import csv
import io
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from fsskit.cli import main
from fsskit.dea import CERTIFICATE_TOL

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


def test_doubling_the_census_keeps_every_dea_result(tmp_path):
    # Corpus-mode dea on a census where most units lie off both frontiers:
    # each institution and its twin keep the original expansion factor.
    census = tmp_path / "census"
    run("synth", "--seed", "7", "--researchers", "1500", "--institutions", "20",
        "--out", str(census))
    results = {}
    for name, data in (("before", census),
                       ("after", transformed(census, tmp_path / "double", doubled_rows))):
        out = tmp_path / name
        run("dea", "--data", str(data), "--model", "both", "--min-years", "0",
            "--output-dir", str(out))
        _, *rows = read_rows(out / "dea_results.csv")
        results[name] = {(uid, model): (float(phi), float(efficiency))
                         for uid, model, phi, efficiency, _ in rows}
    before, after = results["before"], results["after"]
    assert len(before) == 40
    assert {model: sum(phi > 1 for (_, m), (phi, _) in before.items() if m == model)
            for model in ("crs", "vrs")} == {"crs": 13, "vrs": 11}
    assert sorted(after) == sorted([*before, *((twin(uid), model) for uid, model in before)])
    for (uid, model), (phi, efficiency) in before.items():
        for unit in (uid, twin(uid)):
            assert after[(unit, model)] == (pytest.approx(phi, rel=CERTIFICATE_TOL),
                                            pytest.approx(efficiency, rel=CERTIFICATE_TOL)), unit



# ---------------------------------------------------------------------------
# Cross-level relations: each level reduces the level below it
# ---------------------------------------------------------------------------

MERGED = ("U09", "U10")  # the institutions merged, U10's researchers relabelled U09
MERGED_DEPARTMENTS = ("U10-D1", "U10-D8")  # U10-D8 has an unproductive member


@pytest.fixture(scope="module")
def salaried(tmp_path_factory):
    """The census of test_golden's unproductive staff unit (seed 5: 200
    researchers, 10 institutions, 8 fields; U01:SDS06 scores 0), with an
    explicit salary on every researcher's row, so that each labour cost,
    salary times years, can be read from researchers.csv."""
    source = tmp_path_factory.mktemp("levels") / "source"
    run("synth", "--seed", "5", "--researchers", "200", "--institutions", "10", "--sds", "8",
        "--out", str(source))

    def paid(name, rows):
        if name != "researchers":
            return rows
        return [{**row, "salary": repr(30000.0 + 250.0 * (i * 37 % 101))}
                for i, row in enumerate(rows)]

    return transformed(source, source.parent / "census", paid)


def level_scores(census, out):
    """Every unit's score at the four scopes, by (indicator, unit_id): fss_r
    and fss_s from `--scope sds`, the national fss_s from `--scope country`,
    fss_u, p_u and fp_u from `--scope university` and fss_d from
    `--scope department`."""
    found = {}
    for scope in ("sds", "country", "university", "department"):
        for (_, unit, indicator), value in scores(census, out / scope, scope).items():
            found[(indicator, unit)] = float(value)
    return found


@pytest.fixture(scope="module")
def levels(salaried, tmp_path_factory):
    return level_scores(salaried, tmp_path_factory.mktemp("levels_out"))


def of(found, indicator):
    return {unit: value for (name, unit), value in found.items() if name == indicator}


def grouped(census, found, key):
    """Each scored researcher's (fss_r, labour cost), grouped by
    ``key(institution, department, field)``."""
    header, *rows = read_rows(census / "researchers.csv")
    fss_r = of(found, "fss_r")
    groups = {}
    for row in (dict(zip(header, cells)) for cells in rows):
        if row["id"] in fss_r:
            cost = float(row["salary"]) * float(row["years_in_window"])
            groups.setdefault(key(row["institution"], row["department"], row["sds"]),
                              []).append((fss_r[row["id"]], cost))
    return groups


def staff_unit(inst, _, sds):
    return f"{inst}:{sds}"


def costs_of(groups):
    """Each group's labour cost, its members' summed."""
    return {group: math.fsum(cost for _, cost in pairs) for group, pairs in groups.items()}


def weighted_mean(pairs):
    """The mean of each (value, weight) pair's value, weighted."""
    return math.fsum(v * w for v, w in pairs) / math.fsum(w for _, w in pairs)


def test_staff_score_is_the_cost_weighted_mean_of_its_members(salaried, levels):
    groups = grouped(salaried, levels, staff_unit)
    staff = {unit: value for unit, value in of(levels, "fss_s").items() if "@" not in unit}
    assert sorted(staff) == sorted(groups)
    assert staff["U01:SDS06"] == 0.0
    for unit, pairs in groups.items():
        assert staff[unit] == pytest.approx(weighted_mean(pairs), rel=REL), unit


def field_staff(found, costs):
    """Each field's institution staff units as (fss_s, labour cost) pairs."""
    fields = {}
    for unit, value in of(found, "fss_s").items():
        inst, _, sds = unit.partition(":")
        if not inst.startswith("@"):
            fields.setdefault(sds, []).append((value, costs[unit]))
    return fields


def test_national_staff_score_is_the_cost_weighted_mean_of_its_field(salaried, levels):
    national = {unit: value for unit, value in of(levels, "fss_s").items() if "@" in unit}
    fields = field_staff(levels, costs_of(grouped(salaried, levels, staff_unit)))
    assert sorted(national) == [f"@country:{sds}" for sds in sorted(fields)]
    for sds, pairs in fields.items():
        assert national[f"@country:{sds}"] == pytest.approx(weighted_mean(pairs), rel=REL), sds


def test_institution_score_is_its_cost_weighted_standardized_staff(salaried, levels):
    # A field's national staff mean is cost-weighted over its productive
    # staff units only, so U01:SDS06 takes no part in SDS06's.
    costs = costs_of(grouped(salaried, levels, staff_unit))
    means = {sds: weighted_mean([(v, c) for v, c in pairs if v > 0])
             for sds, pairs in field_staff(levels, costs).items()}
    terms = {}
    for unit, value in of(levels, "fss_s").items():
        inst, _, sds = unit.partition(":")
        if not inst.startswith("@"):
            terms.setdefault(inst, []).append((value / means[sds], costs[unit]))
    fss_u = of(levels, "fss_u")
    assert sorted(fss_u) == sorted(terms)
    for inst, pairs in terms.items():
        assert fss_u[inst] == pytest.approx(weighted_mean(pairs), rel=REL), inst


def relabelled(census, target, column, old, new):
    """The census with each ``old`` in researchers.csv's ``column`` made
    ``new``; bylines.csv keeps its institutions, so every credit share stays."""
    def change(name, rows):
        if name != "researchers":
            return rows
        return [{**row, column: new if row[column] == old else row[column]} for row in rows]

    return transformed(census, target, change)


def test_merging_two_institutions_reduces_their_scores(salaried, levels, tmp_path):
    kept, gone = MERGED
    # A staff unit scoring 0 would join its field's mean once merged.
    assert all(value > 0 for unit, value in of(levels, "fss_s").items()
               if unit.partition(":")[0] in MERGED)
    merged = level_scores(relabelled(salaried, tmp_path / "census", "institution", gone, kept),
                          tmp_path / "out")
    # No field mean moves: every other institution's scores, and every
    # department's (a department keeps its id), stay bitwise where they were.
    for indicator in ("fss_u", "p_u", "fp_u", "fss_d"):
        before, after = of(levels, indicator), of(merged, indicator)
        assert sorted(after) == sorted(set(before) - {gone}), indicator
        for unit, value in before.items():
            if unit not in MERGED:
                assert after[unit] == value, (indicator, unit)
    groups = grouped(salaried, levels, lambda inst, *_: inst)
    costs, heads = costs_of(groups), {inst: len(pairs) for inst, pairs in groups.items()}
    for indicator, weights in (("fss_u", costs), ("p_u", heads), ("fp_u", heads)):
        before = of(levels, indicator)
        expected = weighted_mean([(before[inst], weights[inst]) for inst in MERGED])
        assert of(merged, indicator)[kept] == pytest.approx(expected, rel=REL), indicator


def test_merging_two_departments_reduces_their_scores(salaried, levels, tmp_path):
    kept, gone = MERGED_DEPARTMENTS
    merged = of(level_scores(relabelled(salaried, tmp_path / "census", "department", gone,
                                        kept), tmp_path / "out"), "fss_d")
    before = of(levels, "fss_d")
    assert sorted(merged) == sorted(set(before) - {gone})
    for unit, value in before.items():
        if unit not in MERGED_DEPARTMENTS:
            assert merged[unit] == value, unit
    heads = {dept: len(pairs) for dept, pairs in
             grouped(salaried, levels, lambda _, dept, __: dept).items()}
    expected = weighted_mean([(before[dept], heads[dept]) for dept in MERGED_DEPARTMENTS])
    assert merged[kept] == pytest.approx(expected, rel=REL)

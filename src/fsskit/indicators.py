"""Cost-normalized productivity indicators at four aggregation levels.

All indicators share one structure: sum the field-normalized, fractionally
credited output of a unit, then divide by what the unit cost. Labor cost is
the salary dimension: a researcher's yearly salary for the individual
indicator, total salary over the window for staff aggregates.

Individual (one researcher j, field s, window of t years):

    fss_r = (1 / w_j) * (1 / t_j) * sum_i impact_i * f_ij

where w_j is yearly salary, impact_i the publication's normalized citation
ratio and f_ij the author's fractional credit under field s's convention.

Staff (all researchers of one institution, or the whole census, in field s):

    fss_s = (1 / W) * sum_j sum_i impact_i * f_ij,   W = sum_j w_j * t_j

Department/institution roll-ups divide each member's (or each field
aggregate's) score by the national mean over productive peers of the same
field, so fields with different publication cultures become comparable:

    fss_d = (1 / RS) * sum_j fss_r_j / mean_s(j)
    fss_u = sum_s (fss_s_s / wmean_s) * (W_s / W_total)

Output volume indicators use the same pattern on publication counts per
year: whole counts per head for p_u, fractional counts for fp_u.

"Productive" always means a strictly positive score; national means are
taken over productive units only. Staff means are weighted by each
institution's labor cost in the field.

Every indicator reduces credit-ledger rows: one per researcher, with
credited output, fractional and whole counts and labor cost. The ledger is
built once per corpus. Batch functions group its rows; per-unit functions
select one unit's rows and apply the same reduction, so both paths agree
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .corpus import (Corpus, Researcher, parse_float, read_table, require, resolve_salary,
                     write_table)
from .credit import fractional_contribution
from .errors import ComputationError, InputError, LoadError, MissingFieldMeanError
from .normalize import BaselineTable, normalized_impact

SCORE_COLUMNS = ("level", "unit_id", "indicator", "value")

STAFF_KEY_SEPARATOR = ":"
COUNTRY_UNIT = "@country"


@dataclass
class ScoreSet:
    """One indicator evaluated over the units of one level."""

    level: str
    indicator: str
    entries: dict[str, float]
    window: tuple[int, int]
    metadata: dict = field(default_factory=dict)

    def unit_ids(self) -> list[str]:
        return sorted(self.entries)


@dataclass(frozen=True)
class FieldMeans:
    """National means per field over productive units, for standardization.

    score_R, whole and fractional output rates are plain means over
    productive researchers; the staff mean is weighted by each university's
    labor cost in the field.
    """

    fss_r: dict[str, float]
    fss_s: dict[str, float]
    q: dict[str, float]
    fq: dict[str, float]

    def require(self, table_name: str, sds_code: str) -> float:
        table = getattr(self, table_name)
        if sds_code not in table:
            raise MissingFieldMeanError(
                f"no national {table_name} mean for field {sds_code!r} "
                "(no productive unit in that field)"
            )
        return table[sds_code]


def staff_unit_id(institution_id: str | None, sds_code: str) -> str:
    inst = COUNTRY_UNIT if institution_id is None else institution_id
    return f"{inst}{STAFF_KEY_SEPARATOR}{sds_code}"


def split_staff_unit_id(unit_id: str) -> tuple[str, str]:
    """(institution, field) of a staff unit id; the inverse of staff_unit_id."""
    inst, _, sds = unit_id.rpartition(STAFF_KEY_SEPARATOR)
    return inst, sds


# ---------------------------------------------------------------------------
# Credit ledger
# ---------------------------------------------------------------------------

class CreditRow(NamedTuple):
    """One researcher's ledger row: what every indicator sums."""

    id: str
    sds_code: str
    uda_code: str
    institution_id: str
    department_id: str | None
    rank: str
    output: float      # fsum of normalized impact x fractional credit
    fractional: float  # fsum of fractional credit
    papers: int
    salary: float      # yearly
    years: float
    cost: float        # salary x years


def _credit_row(corpus: Corpus, researcher: Researcher, baselines: BaselineTable) -> CreditRow:
    """Walk one researcher's publications once, crediting each byline under
    the convention the taxonomy gives the researcher's field."""
    authorships = corpus._authorships.get(researcher.id, ())
    convention = corpus.taxonomy.convention(researcher.sds_code)
    outputs = []
    shares = []
    for pub_id, position in authorships:
        pub = corpus.publications[pub_id]
        share = fractional_contribution(pub.byline, position, convention)
        shares.append(share)
        outputs.append(normalized_impact(pub, baselines) * share)
    salary = resolve_salary(researcher, corpus.salaries)
    years = researcher.years_in_window
    if salary <= 0 or years <= 0:
        what = "salary" if salary <= 0 else "years_in_window"
        raise ComputationError(f"researcher {researcher.id!r} has non-positive {what}")
    return CreditRow(researcher.id, researcher.sds_code, corpus.uda_of(researcher),
                     researcher.institution_id, researcher.department_id, researcher.rank,
                     math.fsum(outputs), math.fsum(shares), len(authorships),
                     salary, years, salary * years)


def credit_ledger(corpus: Corpus, baselines: BaselineTable) -> list[CreditRow]:
    """Every census researcher's row, in id order. Built on first use and kept
    on the corpus while the same baseline table (by identity) is asked for,
    so a command walks the bylines once."""
    cached = corpus._ledger
    if cached is None or cached[0] is not baselines:
        rows = [_credit_row(corpus, corpus.researchers[rid], baselines)
                for rid in sorted(corpus.researchers)]
        cached = corpus._ledger = (baselines, rows)
    return cached[1]


def group_rows(rows, key) -> dict:
    """Rows by key, in key order; each group keeps ledger (id) order."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    return dict(sorted(groups.items()))


# ---------------------------------------------------------------------------
# Reductions over ledger rows
# ---------------------------------------------------------------------------

def _fss_r_of(row: CreditRow) -> float:
    return row.output / row.cost


def _rate_of(row: CreditRow) -> float:
    return row.papers / row.years


def _fractional_rate_of(row: CreditRow) -> float:
    return row.fractional / row.years


def _staff_value(rows: list[CreditRow]) -> float:
    """fss_s of a group: credited output per unit of labor cost."""
    return math.fsum(r.output for r in rows) / math.fsum(r.cost for r in rows)


def _rollup(rows: list[CreditRow], means_table: str, means: FieldMeans, value_of) -> float:
    """Head-count average of members' field-standardized values; a member
    whose value is 0 counts in the head count only."""
    terms = []
    for row in rows:
        value = value_of(row)
        if value == 0.0:
            continue
        terms.append(value / means.require(means_table, row.sds_code))
    return math.fsum(terms) / len(rows)


def _fss_u_value(rows: list[CreditRow], means: FieldMeans) -> float:
    by_sds = group_rows(rows, lambda r: r.sds_code)
    costs = {sds: math.fsum(r.cost for r in members) for sds, members in by_sds.items()}
    total_cost = math.fsum(costs.values())
    terms = []
    for sds, members in by_sds.items():
        value = _staff_value(members)
        if value == 0.0:
            continue
        terms.append((value / means.require("fss_s", sds)) * (costs[sds] / total_cost))
    return math.fsum(terms)


UNIVERSITY_INDICATORS = {
    "fss_u": _fss_u_value,
    "p_u": lambda rows, means: _rollup(rows, "q", means, _rate_of),
    "fp_u": lambda rows, means: _rollup(rows, "fq", means, _fractional_rate_of),
}


# ---------------------------------------------------------------------------
# Unit-level indicator values
# ---------------------------------------------------------------------------

def _select(rows: list[CreditRow], **columns) -> list[CreditRow]:
    """Rows matching every given column value (None matches any), in id order."""
    return [row for row in rows
            if all(value is None or getattr(row, name) == value
                   for name, value in columns.items())]


def fss_r(corpus: Corpus, baselines: BaselineTable, researcher_id: str) -> float:
    """Individual productivity: normalized fractional output per salary-year."""
    if researcher_id not in corpus.researchers:
        raise InputError(f"unknown researcher: {researcher_id!r}")
    [row] = _select(credit_ledger(corpus, baselines), id=researcher_id)
    return _fss_r_of(row)


def fss_s(corpus: Corpus, baselines: BaselineTable, sds_code: str,
          institution_id: str | None = None) -> float:
    """Staff productivity of one field at one institution (or nationally when
    institution_id is None): normalized fractional output per unit of total
    labor cost over the window."""
    rows = _select(credit_ledger(corpus, baselines),
                   sds_code=sds_code, institution_id=institution_id)
    if not rows:
        where = institution_id if institution_id is not None else "the census"
        raise ComputationError(f"no staff in field {sds_code!r} at {where}")
    return _staff_value(rows)


def fss_d(corpus: Corpus, baselines: BaselineTable, means: FieldMeans,
          department_id: str) -> float:
    """Department productivity: average of members' field-standardized
    individual scores. Unproductive members pull the average down through
    the head count without contributing output."""
    rows = _select(credit_ledger(corpus, baselines), department_id=department_id)
    if not rows:
        raise ComputationError(f"no staff in department {department_id!r}")
    return _rollup(rows, "fss_r", means, _fss_r_of)


def _university_value(indicator: str, corpus: Corpus, baselines: BaselineTable,
                      means: FieldMeans, institution_id: str, uda_code: str | None) -> float:
    rows = _select(credit_ledger(corpus, baselines),
                   institution_id=institution_id, uda_code=uda_code)
    if not rows:
        raise ComputationError(f"no staff at {institution_id!r}"
                               + (f" in discipline {uda_code!r}" if uda_code else ""))
    return UNIVERSITY_INDICATORS[indicator](rows, means)


def fss_u(corpus: Corpus, baselines: BaselineTable, means: FieldMeans, institution_id: str,
          uda_code: str | None = None) -> float:
    """Institution productivity: cost-share weighted average of the
    institution's field staff scores, each standardized by the national
    cost-weighted mean for that field. Restricting to one discipline ranks
    institutions within it."""
    return _university_value("fss_u", corpus, baselines, means, institution_id, uda_code)


def p_u(corpus: Corpus, baselines: BaselineTable, means: FieldMeans, institution_id: str,
        uda_code: str | None = None) -> float:
    """Output volume per head: average of members' field-standardized
    publication rates (whole counts per year in post)."""
    return _university_value("p_u", corpus, baselines, means, institution_id, uda_code)


def fp_u(corpus: Corpus, baselines: BaselineTable, means: FieldMeans, institution_id: str,
         uda_code: str | None = None) -> float:
    """Like p_u but on fractional publication counts, so multi-authored
    output is not double counted across institutions."""
    return _university_value("fp_u", corpus, baselines, means, institution_id, uda_code)


# ---------------------------------------------------------------------------
# National means
# ---------------------------------------------------------------------------

def compute_field_means(corpus: Corpus, baselines: BaselineTable) -> FieldMeans:
    """National standardization means per field."""
    rows = credit_ledger(corpus, baselines)

    def productive_mean(value_of) -> dict[str, float]:
        by_sds: dict[str, list[float]] = {}
        for row in rows:
            value = value_of(row)
            if value > 0:
                by_sds.setdefault(row.sds_code, []).append(value)
        return {sds: math.fsum(vals) / len(vals) for sds, vals in sorted(by_sds.items())}

    staff_values: dict[str, list[tuple[float, float]]] = {}
    for (_, sds), members in group_rows(rows, lambda r: (r.institution_id, r.sds_code)).items():
        value = _staff_value(members)
        if value <= 0:
            continue
        staff_values.setdefault(sds, []).append((value, math.fsum(r.cost for r in members)))

    return FieldMeans(
        fss_r=productive_mean(_fss_r_of),
        fss_s={
            sds: math.fsum(v * cost for v, cost in pairs) / math.fsum(cost for _, cost in pairs)
            for sds, pairs in sorted(staff_values.items())
        },
        q=productive_mean(_rate_of),
        fq=productive_mean(_fractional_rate_of),
    )


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------

def researcher_scores(corpus: Corpus, baselines: BaselineTable) -> ScoreSet:
    """Individual scores for every census researcher."""
    rows = credit_ledger(corpus, baselines)
    return ScoreSet(
        level="researcher",
        indicator="fss_r",
        entries={row.id: _fss_r_of(row) for row in rows},
        window=corpus.window,
        metadata={"sds_of_unit": {row.id: row.sds_code for row in rows}},
    )


def staff_scores(corpus: Corpus, baselines: BaselineTable) -> ScoreSet:
    """Field staff scores for every (institution, field) pair with staff."""
    groups = group_rows(credit_ledger(corpus, baselines), lambda r: (r.institution_id, r.sds_code))
    entries = {staff_unit_id(inst, sds): _staff_value(members)
               for (inst, sds), members in groups.items()}
    sds_of_unit = {staff_unit_id(inst, sds): sds for inst, sds in groups}
    return ScoreSet(level="staff", indicator="fss_s", entries=entries,
                    window=corpus.window, metadata={"sds_of_unit": sds_of_unit})


def country_staff_scores(corpus: Corpus, baselines: BaselineTable) -> ScoreSet:
    """National staff score of every field with staff."""
    groups = group_rows(credit_ledger(corpus, baselines), lambda r: r.sds_code)
    entries = {staff_unit_id(None, sds): _staff_value(members)
               for sds, members in groups.items()}
    return ScoreSet(level="staff", indicator="fss_s", entries=entries,
                    window=corpus.window, metadata={"scope": "country"})


def department_scores(corpus: Corpus, baselines: BaselineTable, means: FieldMeans) -> ScoreSet:
    rows = [row for row in credit_ledger(corpus, baselines) if row.department_id]
    entries = {dept: _rollup(members, "fss_r", means, _fss_r_of)
               for dept, members in group_rows(rows, lambda r: r.department_id).items()}
    return ScoreSet(level="department", indicator="fss_d", entries=entries,
                    window=corpus.window)


def university_scores(corpus: Corpus, baselines: BaselineTable, means: FieldMeans,
                      indicator: str = "fss_u", uda_code: str | None = None) -> ScoreSet:
    """Institution-level scores; ``indicator`` picks fss_u, p_u or fp_u."""
    value_of = UNIVERSITY_INDICATORS.get(indicator)
    if value_of is None:
        raise InputError(f"unknown university indicator: {indicator!r}")
    rows = credit_ledger(corpus, baselines)
    if uda_code is not None:
        known = sorted(set(corpus.taxonomy.uda_of_sds.values()))
        if uda_code not in known:
            raise InputError(f"unknown discipline {uda_code!r}; the taxonomy has "
                             f"{', '.join(known)}")
        rows = [row for row in rows if row.uda_code == uda_code]
    entries = {inst: value_of(members, means)
               for inst, members in group_rows(rows, lambda r: r.institution_id).items()}
    return ScoreSet(level="university", indicator=indicator, entries=entries,
                    window=corpus.window, metadata={} if uda_code is None else {"uda": uda_code})


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_scores(score_sets, path) -> Path:
    """scores.csv: level,unit_id,indicator,value with full-precision floats."""
    if isinstance(score_sets, ScoreSet):
        score_sets = [score_sets]
    rows = sorted(((scores.level, uid, scores.indicator, scores.entries[uid])
                   for scores in score_sets for uid in scores.unit_ids()),
                  key=lambda row: (row[0], row[2], row[1]))
    return write_table(path, SCORE_COLUMNS, rows)


def read_scores(path, window: tuple[int, int] = (0, 0)) -> list[ScoreSet]:
    path = Path(path)
    grouped: dict[tuple[str, str], dict[str, float]] = {}
    for line, (level, uid, indicator, value) in read_table(path, SCORE_COLUMNS):
        require(level, path, line, "level")
        require(uid, path, line, "unit_id")
        require(indicator, path, line, "indicator")
        bucket = grouped.setdefault((level, indicator), {})
        if uid in bucket:
            raise LoadError(f"duplicate unit {uid!r} for {level}/{indicator}",
                            file=path, line=line, column="unit_id")
        bucket[uid] = parse_float(value, path, line, "value")
    return [
        ScoreSet(level=level, indicator=indicator, entries=entries, window=window)
        for (level, indicator), entries in sorted(grouped.items())
    ]

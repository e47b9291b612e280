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
credited output, fractional and whole counts and labor cost. The caller
builds the ledger once, with credit_ledger, and passes it to every
indicator. Each score-set function groups the rows into its level's units
and reduces each group; a single unit's value is its entry in that set.
staff_table reduces each staff group once, for every staff-based value.
FieldMeans.standardize is the one place a value is divided by its field's
mean.

The ledger is the one place a researcher's discipline is resolved. Every
unit rule reduces it: apply_exclusions drops the rows under the tenure
floor, and small_units counts the rows left to find the units under the
staff floors.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .config import ExclusionThresholds
from .corpus import Corpus, resolve_salary, write_table
from .credit import fractional_contribution
from .errors import ComputationError, InputError
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
    sds_of_unit: dict[str, str] | None = None  # each unit's field, at levels that have one
    uda: str | None = None  # the discipline a university set is restricted to

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

    def standardize(self, table_name: str, sds_code: str, value: float) -> float:
        """``value`` over field ``sds_code``'s national mean in ``table_name``.
        A value of 0 stays 0 and needs no mean, so a field without a
        productive unit standardizes its members to 0."""
        if value == 0.0:
            return 0.0
        table = getattr(self, table_name)
        if sds_code not in table:
            raise ComputationError(
                f"no national {table_name} mean for field {sds_code!r} "
                "(no productive unit in that field)"
            )
        return value / table[sds_code]


# The levels whose units each lie in one field, and the indicator each scores.
STANDARDIZABLE = {"researcher": "fss_r", "staff": "fss_s"}


def standardized_scores(scores: ScoreSet, means: FieldMeans) -> ScoreSet:
    """Divide each unit's raw score by its field's national mean, making
    units from fields with different citation and cost regimes rankable in
    one list. Requires the score set to carry each unit's field."""
    if STANDARDIZABLE.get(scores.level) != scores.indicator:
        raise InputError(f"no field standardization defined for indicator {scores.indicator!r}")
    if not scores.sds_of_unit:
        raise InputError("score set does not record the field of each unit")
    return ScoreSet(
        level=scores.level,
        indicator=f"{scores.indicator}_std",
        entries={uid: means.standardize(scores.indicator, scores.sds_of_unit[uid],
                                        scores.entries[uid])
                 for uid in scores.unit_ids()},
        sds_of_unit=scores.sds_of_unit,
    )


def staff_unit_id(institution_id: str | None, sds_code: str) -> str:
    inst = COUNTRY_UNIT if institution_id is None else institution_id
    return f"{inst}{STAFF_KEY_SEPARATOR}{sds_code}"


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
    years: float
    cost: float        # yearly salary x years


def credit_ledger(corpus: Corpus, baselines: BaselineTable) -> list[CreditRow]:
    """Every census researcher's row, in id order, from one walk over the
    publications: each publication with a census author is normalized once,
    and each census byline entry is credited under the convention the
    taxonomy gives its author's field.

    A share depends only on the byline's length, whether its first and last
    authors share an institution, the position and the convention (see
    credit.byline_weights), so each distinct such key is computed once."""
    researchers = corpus.researchers
    convention = {rid: corpus.taxonomy.convention(r.sds_code) for rid, r in researchers.items()}
    outputs: dict[str, list[float]] = {rid: [] for rid in researchers}
    shares: dict[str, list[float]] = {rid: [] for rid in researchers}
    memo: dict[tuple[int, bool, int, str], float] = {}
    for pub in corpus.publications.values():
        byline = pub.byline
        census = [entry for entry in byline if entry.researcher_id in researchers]
        if not census:
            continue
        impact = normalized_impact(pub, baselines)
        n = len(byline)
        intramural = byline[0].institution_id == byline[-1].institution_id
        for entry in census:
            rid = entry.researcher_id
            key = (n, intramural, entry.position, convention[rid])
            share = memo.get(key)
            if share is None:
                share = memo[key] = fractional_contribution(byline, entry.position, convention[rid])
            shares[rid].append(share)
            outputs[rid].append(impact * share)
    rows = []
    for rid in sorted(researchers):
        researcher = researchers[rid]
        salary = resolve_salary(researcher, corpus.salaries)
        years = researcher.years_in_window
        if salary <= 0 or years <= 0:
            what = "salary" if salary <= 0 else "years_in_window"
            raise ComputationError(f"researcher {rid!r} has non-positive {what}")
        rows.append(CreditRow(rid, researcher.sds_code, corpus.taxonomy.uda(researcher.sds_code),
                              researcher.institution_id, researcher.department_id,
                              researcher.rank, math.fsum(outputs[rid]), math.fsum(shares[rid]),
                              len(shares[rid]), years, salary * years))
    return rows


def group_rows(rows, key) -> dict:
    """Rows by key, in key order; each group keeps ledger (id) order."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    return dict(sorted(groups.items()))


def apply_exclusions(ledger: list[CreditRow], thresholds: ExclusionThresholds
                     ) -> tuple[list[CreditRow], list[tuple[str, str]]]:
    """The ledger rows with at least ``thresholds.min_years`` of work in the
    window, and each dropped researcher's (id, reason), both in ledger (id)
    order. A row does not depend on the others, so dropping one changes none."""
    thresholds.validate()
    min_years = thresholds.min_years
    kept, excluded = [], []
    for row in ledger:
        if row.years < min_years:
            excluded.append((row.id, f"years_in_window {row.years} < {min_years}"))
        else:
            kept.append(row)
    return kept, excluded


def small_units(ledger: list[CreditRow],
                thresholds: ExclusionThresholds) -> tuple[list[tuple[str, str]], list[str]]:
    """The units under the staff floors, each in key order: the (institution,
    discipline) pairs with fewer than ``thresholds.min_staff_uda`` rows and
    the institutions with fewer than ``thresholds.min_staff_total``."""
    pairs = Counter((row.institution_id, row.uda_code) for row in ledger)
    totals = Counter(row.institution_id for row in ledger)
    return (sorted(key for key, n in pairs.items() if n < thresholds.min_staff_uda),
            sorted(inst for inst, n in totals.items() if n < thresholds.min_staff_total))


# ---------------------------------------------------------------------------
# Reductions over ledger rows
# ---------------------------------------------------------------------------

def _fss_r_of(row: CreditRow) -> float:
    return row.output / row.cost


def _rate_of(row: CreditRow) -> float:
    return row.papers / row.years


def _fractional_rate_of(row: CreditRow) -> float:
    return row.fractional / row.years


def staff_table(ledger: list[CreditRow],
                national: bool = False) -> dict[tuple[str | None, str], tuple[float, float]]:
    """(fss_s, labor cost) of each (institution, field) staff group in key
    order, each sum fsummed over the group's rows in ledger order.
    ``national`` pools each field's staff across the census as institution None."""
    table = {}
    for key, members in group_rows(
            ledger, lambda r: (None if national else r.institution_id, r.sds_code)).items():
        cost = math.fsum(r.cost for r in members)
        table[key] = (math.fsum(r.output for r in members) / cost, cost)
    return table


def _rollups(rows: list[CreditRow], unit: str, means_table: str, means: FieldMeans,
             value_of) -> dict[str, float]:
    """Each unit's head-count average of its members' field-standardized
    values; a member whose value is 0 counts in the head count only."""
    return {uid: math.fsum(means.standardize(means_table, row.sds_code, value_of(row))
                           for row in members) / len(members)
            for uid, members in group_rows(rows, attrgetter(unit)).items()}


def _fss_u(rows: list[CreditRow], means: FieldMeans) -> dict[str, float]:
    """fss_u of each institution: its standardized field staff scores, cost-weighted."""
    fields: dict[str, list[tuple[float, float]]] = {}
    for (inst, sds), (value, cost) in staff_table(rows).items():
        fields.setdefault(inst, []).append((means.standardize("fss_s", sds, value), cost))
    entries = {}
    for inst, terms in fields.items():
        total_cost = math.fsum(cost for _, cost in terms)
        entries[inst] = math.fsum(std * (cost / total_cost) for std, cost in terms)
    return entries


UNIVERSITY_INDICATORS = {
    "fss_u": _fss_u,
    "p_u": lambda rows, means: _rollups(rows, "institution_id", "q", means, _rate_of),
    "fp_u": lambda rows, means: _rollups(rows, "institution_id", "fq", means, _fractional_rate_of),
}


# ---------------------------------------------------------------------------
# National means
# ---------------------------------------------------------------------------

def compute_field_means(ledger: list[CreditRow]) -> FieldMeans:
    """National standardization means per field."""

    def productive_mean(value_of) -> dict[str, float]:
        by_sds: dict[str, list[float]] = {}
        for row in ledger:
            value = value_of(row)
            if value > 0:
                by_sds.setdefault(row.sds_code, []).append(value)
        return {sds: math.fsum(vals) / len(vals) for sds, vals in sorted(by_sds.items())}

    staff_values: dict[str, list[tuple[float, float]]] = {}
    for (_, sds), (value, cost) in staff_table(ledger).items():
        if value > 0:
            staff_values.setdefault(sds, []).append((value, cost))

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

def researcher_scores(ledger: list[CreditRow]) -> ScoreSet:
    """Individual scores for every census researcher."""
    return ScoreSet(
        level="researcher",
        indicator="fss_r",
        entries={row.id: _fss_r_of(row) for row in ledger},
        sds_of_unit={row.id: row.sds_code for row in ledger},
    )


def _staff_set(table) -> ScoreSet:
    return ScoreSet(level="staff", indicator="fss_s",
                    entries={staff_unit_id(inst, sds): value
                             for (inst, sds), (value, _) in table.items()},
                    sds_of_unit={staff_unit_id(inst, sds): sds for inst, sds in table})


def staff_scores(ledger: list[CreditRow]) -> ScoreSet:
    """Field staff scores for every (institution, field) pair with staff."""
    return _staff_set(staff_table(ledger))


def country_staff_scores(ledger: list[CreditRow]) -> ScoreSet:
    """National staff score of every field with staff."""
    return _staff_set(staff_table(ledger, national=True))


def department_scores(ledger: list[CreditRow], means: FieldMeans) -> ScoreSet:
    """Each department's head-count average of its members' field-standardized
    individual scores; unproductive members count in the head count only."""
    rows = [row for row in ledger if row.department_id]
    return ScoreSet(level="department", indicator="fss_d",
                    entries=_rollups(rows, "department_id", "fss_r", means, _fss_r_of))


def university_scores(ledger: list[CreditRow], means: FieldMeans, indicator: str = "fss_u",
                      uda_code: str | None = None) -> ScoreSet:
    """Institution-level scores; ``indicator`` picks fss_u, p_u or fp_u."""
    entries_of = UNIVERSITY_INDICATORS.get(indicator)
    if entries_of is None:
        raise InputError(f"unknown university indicator: {indicator!r}")
    rows = [row for row in ledger if uda_code is None or row.uda_code == uda_code]
    return ScoreSet(level="university", indicator=indicator, entries=entries_of(rows, means),
                    uda=uda_code)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_scores(score_sets, path) -> Path:
    """scores.csv: level,unit_id,indicator,value with full-precision floats."""
    rows = sorted(((scores.level, uid, scores.indicator, scores.entries[uid])
                   for scores in score_sets for uid in scores.unit_ids()),
                  key=lambda row: (row[0], row[2], row[1]))
    return write_table(path, SCORE_COLUMNS, rows)

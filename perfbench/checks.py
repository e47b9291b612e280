"""Independent checks of the files fsskit writes.

Nothing here imports fsskit. The checks read the generated CSVs with the
csv module and recompute every checked value with plain loops in one
grouped pass, so a defect would have to be written twice, once in the
program and once here, to go unseen. DEA expansion factors are checked
against scipy's HiGHS solver on envelopment programs built here; scipy is
imported only by these checks.

Every workload runs fsskit with its default configuration, so the checks
use the defaults documented in the README: window 2006-2010, min_years 3,
min_staff_uda 10, min_staff_total 30.

Each check raises CheckFailure naming the first value that is off.
"""

from __future__ import annotations

import bisect
import csv
import json
import random
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WINDOW = (2006, 2010)
MIN_YEARS = 3.0
MIN_STAFF_UDA = 10
MIN_STAFF_TOTAL = 30

REL_TOL = 1e-9        # the project's acceptance tolerance
PHI_REL_TOL = 1e-8    # program simplex vs HiGHS; they agree to ~1e-12 in practice
FRONTIER_TOL = 1e-6   # phi within this of 1 is on the frontier, as in fsskit
EXACT_TOL = 1e-12     # values the program derives by one division


class CheckFailure(Exception):
    """An output value disagrees with the independent recomputation."""


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(got), abs(want))


def _expect_close(what: str, got: float, want: float, rel: float = REL_TOL) -> None:
    if not _close(got, want, rel):
        raise CheckFailure(f"{what}: got {got!r}, expected {want!r} (rel tol {rel:g})")


def _expect_equal(what: str, got, want) -> None:
    if got != want:
        raise CheckFailure(f"{what}: got {got!r}, expected {want!r}")


def _expect_same_units(what: str, got, want) -> None:
    got, want = set(got), set(want)
    if got != want:
        extra = sorted(got - want)[:5]
        missing = sorted(want - got)[:5]
        raise CheckFailure(f"{what}: unexpected units {extra}, missing units {missing}")


def _read(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def byline_weights(institutions: list[str], convention: str) -> list[float]:
    """Credit per byline position: a role table, equal shares of the rest
    for unnamed middle authors, rescaled when the roles overlap."""
    n = len(institutions)
    if n == 1:
        return [1.0]
    if convention == "alphabetical":
        return [1.0 / n] * n
    if institutions[0] == institutions[-1]:
        roles, leftover = [(0, 0.40), (n - 1, 0.40)], 0.20
    else:
        roles, leftover = [(0, 0.30), (n - 1, 0.30), (1, 0.15), (n - 2, 0.15)], 0.10
    weights = [0.0] * n
    for position, share in roles:
        weights[position] += share
    named = {position for position, _ in roles}
    rest = [i for i in range(n) if i not in named]
    if rest:
        for i in rest:
            weights[i] = leftover / len(rest)
    else:
        total = sum(weights)
        weights = [w / total for w in weights]
    return weights


@dataclass(frozen=True)
class Person:
    sds: str
    institution: str
    years: float
    salary: float

    @property
    def cost(self) -> float:
        return self.salary * self.years


class Census:
    """Per-researcher output, credit and cost from one pass over the CSVs,
    for the researchers the min_years exclusion keeps."""

    def __init__(self, directory: Path):
        directory = Path(directory)
        self.uda: dict[str, str] = {}
        self.convention: dict[str, str] = {}
        for row in _read(directory / "taxonomy.csv"):
            self.uda[row["sds"]] = row["uda"]
            self.convention[row["sds"]] = row["convention"]

        schedule = {(row["rank"], row["seniority_band"] or None): float(row["salary_per_year"])
                    for row in _read(directory / "salaries.csv")}

        def scheduled(rank: str) -> float:
            if (rank, None) in schedule:
                return schedule[(rank, None)]
            bands = [v for (r, _), v in schedule.items() if r == rank]
            return sum(bands) / len(bands)

        self.people: dict[str, Person] = {}
        for row in _read(directory / "researchers.csv"):
            years = float(row["years_in_window"])
            if years < MIN_YEARS:
                continue
            salary = float(row["salary"]) if row["salary"] else scheduled(row["rank"])
            self.people[row["id"]] = Person(row["sds"], row["institution"],
                                            years, salary)

        pubs: dict[str, tuple[int, int, list[str]]] = {}
        for row in _read(directory / "publications.csv"):
            year = int(row["year"])
            if WINDOW[0] <= year <= WINDOW[1]:
                categories = sorted({c for c in row["subject_categories"].split(";") if c})
                pubs[row["id"]] = (year, int(row["citations"]), categories)

        cited_sum: dict[tuple[int, str], int] = defaultdict(int)
        cited_n: dict[tuple[int, str], int] = defaultdict(int)
        for year, citations, categories in pubs.values():
            if citations > 0:
                for c in categories:
                    cited_sum[(year, c)] += citations
                    cited_n[(year, c)] += 1

        bylines: dict[str, list[tuple[int, str, str]]] = defaultdict(list)
        for row in _read(directory / "bylines.csv"):
            if row["publication_id"] in pubs:
                bylines[row["publication_id"]].append(
                    (int(row["position"]), row["researcher_id"], row["institution_id"]))

        self.output: dict[str, float] = defaultdict(float)   # sum impact * credit
        self.credit: dict[str, float] = defaultdict(float)   # sum credit
        self.papers: dict[str, int] = defaultdict(int)       # whole count
        for pid, entries in bylines.items():
            entries.sort()
            year, citations, categories = pubs[pid]
            impact = 0.0
            if citations > 0:
                impact = sum(citations * cited_n[(year, c)] / cited_sum[(year, c)]
                             for c in categories) / len(categories)
            institutions = [inst for _, _, inst in entries]
            weights: dict[str, list[float]] = {}
            for position, rid, _ in entries:
                person = self.people.get(rid)
                if person is None:
                    continue
                convention = self.convention[person.sds]
                if convention not in weights:
                    weights[convention] = byline_weights(institutions, convention)
                credit = weights[convention][position - 1]
                self.output[rid] += impact * credit
                self.credit[rid] += credit
                self.papers[rid] += 1

        self.members: dict[str, list[str]] = defaultdict(list)
        for rid in sorted(self.people):
            self.members[self.people[rid].institution].append(rid)

    # -- individual and staff level ------------------------------------------

    def fss_r(self) -> dict[str, float]:
        return {rid: self.output[rid] / p.cost for rid, p in self.people.items()}

    def staff(self) -> dict[tuple[str, str], tuple[float, float]]:
        """(institution, field) -> (output, labor cost)."""
        sums: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0.0])
        for rid, p in self.people.items():
            pair = sums[(p.institution, p.sds)]
            pair[0] += self.output[rid]
            pair[1] += p.cost
        return {key: (out, cost) for key, (out, cost) in sums.items()}

    def staff_means(self, staff) -> dict[str, float]:
        """Cost-weighted national mean of positive staff scores per field."""
        num: dict[str, float] = defaultdict(float)
        den: dict[str, float] = defaultdict(float)
        for (_, sds), (out, cost) in staff.items():
            if out > 0:
                num[sds] += out
                den[sds] += cost
        return {sds: num[sds] / den[sds] for sds in num}

    def standardized_staff(self) -> dict[str, float]:
        staff = self.staff()
        means = self.staff_means(staff)
        return {f"{inst}:{sds}": (out / cost / means[sds] if out > 0 else 0.0)
                for (inst, sds), (out, cost) in staff.items()}

    # -- institution level ------------------------------------------------------

    def fss_u(self) -> dict[str, float]:
        staff = self.staff()
        means = self.staff_means(staff)
        total: dict[str, float] = defaultdict(float)
        for (inst, _), (_, cost) in staff.items():
            total[inst] += cost
        value: dict[str, float] = defaultdict(float)
        for (inst, sds), (out, cost) in staff.items():
            if out > 0:
                value[inst] += (out / cost / means[sds]) * (cost / total[inst])
        return {inst: value[inst] for inst in self.members}

    def _rate_indicator(self, rate: dict[str, float]) -> dict[str, float]:
        productive: dict[str, list[float]] = defaultdict(list)
        for rid, value in rate.items():
            if value > 0:
                productive[self.people[rid].sds].append(value)
        means = {sds: sum(v) / len(v) for sds, v in productive.items()}
        return {
            inst: sum(rate[rid] / means[self.people[rid].sds]
                      for rid in rids if rate[rid] > 0) / len(rids)
            for inst, rids in self.members.items()
        }

    def p_u(self) -> dict[str, float]:
        return self._rate_indicator(
            {rid: self.papers[rid] / p.years for rid, p in self.people.items()})

    def fp_u(self) -> dict[str, float]:
        return self._rate_indicator(
            {rid: self.credit[rid] / p.years for rid, p in self.people.items()})

    # -- eligibility ------------------------------------------------------------

    def excluded(self) -> tuple[set[str], set[tuple[str, str]]]:
        """Institutions under min_staff_total; (institution, discipline)
        pairs under min_staff_uda."""
        by_inst: dict[str, int] = defaultdict(int)
        by_pair: dict[tuple[str, str], int] = defaultdict(int)
        for p in self.people.values():
            by_inst[p.institution] += 1
            by_pair[(p.institution, self.uda[p.sds])] += 1
        return ({i for i, n in by_inst.items() if n < MIN_STAFF_TOTAL},
                {k for k, n in by_pair.items() if n < MIN_STAFF_UDA})


# ---------------------------------------------------------------------------
# Scores and rankings
# ---------------------------------------------------------------------------

def check_scores(path: Path, expected: dict[tuple[str, str], dict[str, float]]) -> None:
    """scores.csv holds exactly the expected (level, indicator) sets and values."""
    got: dict[tuple[str, str], dict[str, float]] = defaultdict(dict)
    for row in _read(path):
        got[(row["level"], row["indicator"])][row["unit_id"]] = float(row["value"])
    _expect_same_units(f"{path.name} score sets", got, expected)
    for key, want in expected.items():
        _expect_same_units(f"{path.name} {key[0]}/{key[1]}", got[key], want)
        for uid, value in want.items():
            _expect_close(f"{path.name} {key[0]}/{key[1]} {uid}", got[key][uid], value)


def check_ranking(path: Path, expected: dict[str, float]) -> list[dict]:
    """Units, scores, order, competition ranks and percentiles of one
    rankings.csv. Returns its rows, parsed, in file order."""
    rows = [{"unit_id": r["unit_id"], "score": float(r["score"]), "rank": int(r["rank"]),
             "percentile": float(r["percentile"])} for r in _read(path)]
    _expect_same_units(f"{path} units", [r["unit_id"] for r in rows], expected)
    for r in rows:
        _expect_close(f"{path} score of {r['unit_id']}", r["score"], expected[r["unit_id"]])
    for before, after in zip(rows, rows[1:]):
        if (-before["score"], before["unit_id"]) > (-after["score"], after["unit_id"]):
            raise CheckFailure(f"{path}: {after['unit_id']} is out of order after {before['unit_id']}")
    ascending = sorted(r["score"] for r in rows)
    n = len(rows)
    for r in rows:
        higher = n - bisect.bisect_right(ascending, r["score"])
        lower = bisect.bisect_left(ascending, r["score"])
        _expect_equal(f"{path} rank of {r['unit_id']}", r["rank"], 1 + higher)
        _expect_close(f"{path} percentile of {r['unit_id']}", r["percentile"],
                      100.0 * lower / n, EXACT_TOL)
    return rows


def check_comparison(path: Path, rows_a: list[dict], rows_b: list[dict]) -> None:
    """comparison.json against shifts recomputed from the two rankings and
    scipy's Spearman correlation of their scores."""
    from scipy.stats import spearmanr

    stats = json.loads(Path(path).read_text(encoding="utf-8"))
    a = {r["unit_id"]: r for r in rows_a}
    b = {r["unit_id"]: r for r in rows_b}
    _expect_same_units(f"{path} units of the two rankings", a, b)
    ids = sorted(a)
    n = len(ids)
    shifts = {uid: abs(a[uid]["rank"] - b[uid]["rank"]) for uid in ids}
    quartile = -(-n // 4)
    top_a = {r["unit_id"] for r in rows_a[:quartile]}
    top_b = {r["unit_id"] for r in rows_b[:quartile]}
    _expect_equal(f"{path} n_units", stats["n_units"], n)
    _expect_equal(f"{path} shifts", stats["shifts"], shifts)
    _expect_equal(f"{path} max_shift", stats["max_shift"], max(shifts.values()))
    _expect_close(f"{path} pct_shifting", stats["pct_shifting"],
                  100.0 * sum(1 for s in shifts.values() if s > 0) / n, EXACT_TOL)
    _expect_close(f"{path} avg_shift", stats["avg_shift"], sum(shifts.values()) / n, EXACT_TOL)
    _expect_close(f"{path} median_shift", stats["median_shift"],
                  float(statistics.median(shifts.values())), EXACT_TOL)
    _expect_close(f"{path} top_quartile_exit_pct", stats["top_quartile_exit_pct"],
                  100.0 * len(top_a - top_b) / quartile, EXACT_TOL)
    rho = spearmanr([a[uid]["score"] for uid in ids], [b[uid]["score"] for uid in ids]).statistic
    _expect_close(f"{path} spearman", stats["spearman"], float(rho), REL_TOL)


# ---------------------------------------------------------------------------
# DEA
# ---------------------------------------------------------------------------

def read_dmu_table(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    rows = _read(path)
    if not rows:
        raise CheckFailure(f"{path} has no DMUs")
    inputs = [c for c in rows[0] if c.startswith("input_")]
    outputs = [c for c in rows[0] if c.startswith("output_")]
    ids = [r["id"] for r in rows]
    x = np.array([[float(r[c]) for c in inputs] for r in rows])
    y = np.array([[float(r[c]) for c in outputs] for r in rows])
    return ids, x, y


def reference_phi(x: np.ndarray, y: np.ndarray, o: int, model: str) -> float:
    """Output expansion factor of unit o, solved by HiGHS on the envelopment
    program: max phi s.t. X'l <= x_o, Y'l >= phi y_o, (sum l = 1), l >= 0."""
    from scipy.optimize import linprog

    n, n_in = x.shape
    n_out = y.shape[1]
    c = np.zeros(1 + n)
    c[0] = -1.0
    a_ub = np.zeros((n_in + n_out, 1 + n))
    a_ub[:n_in, 1:] = x.T
    a_ub[n_in:, 0] = y[o]
    a_ub[n_in:, 1:] = -y.T
    b_ub = np.concatenate([x[o], np.zeros(n_out)])
    a_eq = b_eq = None
    if model == "vrs":
        a_eq = np.concatenate([[0.0], np.ones(n)])[None, :]
        b_eq = np.ones(1)
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                     bounds=(0, None), method="highs")
    if result.status != 0:
        raise CheckFailure(f"HiGHS could not solve the {model} program of unit {o}: "
                           f"{result.message}")
    return -result.fun


def check_dea(dmu_path: Path, out: Path, seed: int, sample: int) -> None:
    """dea_results.csv and scale_efficiency.csv in ``out`` for the table at
    ``dmu_path``. HiGHS re-solves ``sample`` units per model, drawn with
    ``seed``."""
    ids, x, y = read_dmu_table(dmu_path)
    results: dict[str, dict[str, tuple[float, float]]] = {"crs": {}, "vrs": {}}
    for row in _read(out / "dea_results.csv"):
        model = row["model"]
        if model not in results or row["id"] in results[model]:
            raise CheckFailure(f"{out}/dea_results.csv: unexpected row {row['id']}/{model}")
        results[model][row["id"]] = (float(row["phi"]), float(row["efficiency"]))
    rng = random.Random(f"{seed}:{dmu_path.name}")
    for model, scores in results.items():
        _expect_same_units(f"{out}/dea_results.csv {model} units", scores, ids)
        for uid, (phi, efficiency) in scores.items():
            if phi < 1.0:
                raise CheckFailure(f"{out} {uid}/{model}: phi {phi!r} below 1")
            _expect_close(f"{out} {uid}/{model} efficiency", efficiency, 1.0 / phi, EXACT_TOL)
        if not any(abs(phi - 1.0) < FRONTIER_TOL for phi, _ in scores.values()):
            raise CheckFailure(f"{out}: no {model} frontier unit")
        for o in sorted(rng.sample(range(len(ids)), min(sample, len(ids)))):
            want = max(reference_phi(x, y, o, model), 1.0)
            _expect_close(f"{out} {ids[o]}/{model} phi vs HiGHS", scores[ids[o]][0], want,
                          PHI_REL_TOL)
    scale = {row["id"]: float(row["scale_efficiency"])
             for row in _read(out / "scale_efficiency.csv")}
    _expect_same_units(f"{out}/scale_efficiency.csv units", scale, ids)
    for uid in ids:
        crs, vrs = results["crs"][uid][1], results["vrs"][uid][1]
        if crs > vrs * (1.0 + FRONTIER_TOL):
            raise CheckFailure(f"{out} {uid}: CRS efficiency {crs!r} above VRS {vrs!r}")
        if scale[uid] > 1.0:
            raise CheckFailure(f"{out} {uid}: scale efficiency {scale[uid]!r} above 1")
        _expect_close(f"{out} {uid} scale efficiency", scale[uid], min(crs / vrs, 1.0),
                      EXACT_TOL)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

DEA_SAMPLE = 40   # HiGHS re-solves per table and model on dea-dmus


def check_gate_score(inputs: Path, out: Path, seed: int) -> None:
    census = Census(inputs)
    check_scores(out / "score" / "scores.csv", {
        ("researcher", "fss_r"): census.fss_r(),
        ("university", "fss_u"): census.fss_u(),
        ("university", "p_u"): census.p_u(),
        ("university", "fp_u"): census.fp_u(),
    })


def check_wide_rank(inputs: Path, out: Path, seed: int) -> None:
    census = Census(inputs)
    excluded_insts, excluded_pairs = census.excluded()

    def eligible(values: dict[str, float]) -> dict[str, float]:
        return {inst: v for inst, v in values.items() if inst not in excluded_insts}

    rows_a = check_ranking(out / "fss_u" / "rankings.csv", eligible(census.fss_u()))
    rows_b = check_ranking(out / "fp_u" / "rankings.csv", eligible(census.fp_u()))
    check_comparison(out / "compare" / "comparison.json", rows_a, rows_b)
    staff = {}
    for uid, value in census.standardized_staff().items():
        inst, _, sds = uid.rpartition(":")
        if inst not in excluded_insts and (inst, census.uda[sds]) not in excluded_pairs:
            staff[uid] = value
    check_ranking(out / "staff" / "rankings.csv", staff)


def check_dea_dmus(inputs: Path, out: Path, seed: int) -> None:
    for table in sorted(inputs.glob("dmus*.csv")):
        check_dea(table, out / table.stem, seed, sample=DEA_SAMPLE)



"""Naive reference implementations for cross-checking the library.

Everything here is written independently of the package internals: plain
loops, dict lookups and textbook formulas, favoring obvious correctness
over speed. Tests compare library output against these on shared inputs;
the two code paths must never be merged.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np

# Upper 0.001 tail of the chi-square distribution, by degrees of freedom.
CHI2_CRIT_001 = {
    5: 20.515, 6: 22.458, 7: 24.322, 8: 26.124, 9: 27.877,
    10: 29.588, 11: 31.264, 12: 32.909, 13: 34.528, 14: 36.123,
    15: 37.697, 16: 39.252, 17: 40.790, 18: 42.312, 19: 43.820,
    20: 45.315, 21: 46.797, 22: 48.268, 23: 49.728, 24: 51.179,
    25: 52.620, 26: 54.052, 27: 55.476, 28: 56.892, 29: 58.301,
    30: 59.703,
}


# ---------------------------------------------------------------------------
# Fractional authorship credit
# ---------------------------------------------------------------------------

def reference_byline_weights(institutions: list[str], convention: str) -> list[float]:
    """Role table formulation: write down each named position's weight, give
    the unnamed middles an equal share of what is left, rescale if nothing
    is left to give."""
    n = len(institutions)
    if n == 1:
        return [1.0]
    if convention == "alphabetical":
        return [1.0 / n for _ in range(n)]
    roles: dict[int, list[float]] = defaultdict(list)
    if institutions[0] == institutions[-1]:
        roles[0].append(0.40)
        roles[n - 1].append(0.40)
        leftover = 0.20
    else:
        roles[0].append(0.30)
        roles[n - 1].append(0.30)
        roles[1].append(0.15)
        roles[n - 2].append(0.15)
        leftover = 0.10
    middles = [i for i in range(n) if i not in roles]
    weights = [
        sum(roles[i]) if i in roles else leftover / len(middles)
        for i in range(n)
    ]
    if not middles:
        scale = sum(weights)
        weights = [w / scale for w in weights]
    return weights


# ---------------------------------------------------------------------------
# Citation normalization and productivity scores
# ---------------------------------------------------------------------------

def reference_baselines(corpus) -> dict:
    cited = defaultdict(list)
    for pub in corpus.publications.values():
        if pub.citations > 0:
            for cat in pub.subject_categories:
                cited[(pub.year, cat)].append(pub.citations)
    return {key: sum(vals) / len(vals) for key, vals in cited.items()}


def reference_impact(pub, table: dict) -> float:
    if pub.citations == 0:
        return 0.0
    total = 0.0
    for cat in pub.subject_categories:
        total += pub.citations / table[(pub.year, cat)]
    return total / len(pub.subject_categories)


def reference_salary(researcher, schedule_entries: dict) -> float:
    if researcher.salary_per_year is not None:
        return researcher.salary_per_year
    if (researcher.rank, None) in schedule_entries:
        return schedule_entries[(researcher.rank, None)]
    values = [v for (rank, _band), v in schedule_entries.items() if rank == researcher.rank]
    return sum(values) / len(values)


class ReferenceScores:
    """Recomputes every indicator from scratch with plain loops."""

    def __init__(self, corpus):
        self.corpus = corpus
        self.table = reference_baselines(corpus)
        self.impact = {
            pid: reference_impact(pub, self.table)
            for pid, pub in corpus.publications.items()
        }
        self.pubs_of = defaultdict(list)
        for pub in corpus.publications.values():
            for author in pub.byline:
                if author.researcher_id is not None:
                    self.pubs_of[author.researcher_id].append((pub, author.position))

    def credited_output(self, rid: str) -> float:
        researcher = self.corpus.researchers[rid]
        convention = self.corpus.taxonomy.convention_of_sds[researcher.sds_code]
        total = 0.0
        for pub, position in self.pubs_of[rid]:
            weights = reference_byline_weights(
                [a.institution_id for a in pub.byline], convention)
            total += self.impact[pub.id] * weights[position - 1]
        return total

    def fractional_count(self, rid: str) -> float:
        researcher = self.corpus.researchers[rid]
        convention = self.corpus.taxonomy.convention_of_sds[researcher.sds_code]
        total = 0.0
        for pub, position in self.pubs_of[rid]:
            weights = reference_byline_weights(
                [a.institution_id for a in pub.byline], convention)
            total += weights[position - 1]
        return total

    def salary(self, rid: str) -> float:
        return reference_salary(self.corpus.researchers[rid],
                                self.corpus.salaries.entries)

    def fss_r(self, rid: str) -> float:
        r = self.corpus.researchers[rid]
        return self.credited_output(rid) / (self.salary(rid) * r.years_in_window)

    def fss_s(self, sds: str, institution: str | None = None) -> float:
        output = 0.0
        cost = 0.0
        for rid, r in self.corpus.researchers.items():
            if r.sds_code != sds:
                continue
            if institution is not None and r.institution_id != institution:
                continue
            output += self.credited_output(rid)
            cost += self.salary(rid) * r.years_in_window
        return output / cost

    def q(self, rid: str) -> float:
        return len(self.pubs_of[rid]) / self.corpus.researchers[rid].years_in_window

    def fq(self, rid: str) -> float:
        return self.fractional_count(rid) / self.corpus.researchers[rid].years_in_window

    def mean_over_productive(self, value_of) -> dict[str, float]:
        per_sds = defaultdict(list)
        for rid, r in self.corpus.researchers.items():
            value = value_of(rid)
            if value > 0:
                per_sds[r.sds_code].append(value)
        return {sds: sum(vals) / len(vals) for sds, vals in per_sds.items()}

    def fss_r_means(self) -> dict[str, float]:
        return self.mean_over_productive(self.fss_r)

    def fss_s_means(self) -> dict[str, float]:
        """Cost-weighted mean over institutions with positive staff score."""
        sums = defaultdict(float)
        weights = defaultdict(float)
        institutions = {r.institution_id for r in self.corpus.researchers.values()}
        for inst in institutions:
            fields = {r.sds_code for r in self.corpus.researchers.values()
                      if r.institution_id == inst}
            for sds in fields:
                value = self.fss_s(sds, inst)
                if value <= 0:
                    continue
                cost = sum(
                    self.salary(rid) * r.years_in_window
                    for rid, r in self.corpus.researchers.items()
                    if r.institution_id == inst and r.sds_code == sds
                )
                sums[sds] += value * cost
                weights[sds] += cost
        return {sds: sums[sds] / weights[sds] for sds in sums}

    def fss_d(self, department: str) -> float:
        means = self.fss_r_means()
        members = [rid for rid, r in self.corpus.researchers.items()
                   if r.department_id == department]
        total = 0.0
        for rid in members:
            value = self.fss_r(rid)
            if value > 0:
                total += value / means[self.corpus.researchers[rid].sds_code]
        return total / len(members)

    def fss_u(self, institution: str, uda: str | None = None) -> float:
        means = self.fss_s_means()
        members = [
            r for r in self.corpus.researchers.values()
            if r.institution_id == institution
            and (uda is None or self.corpus.taxonomy.uda_of_sds[r.sds_code] == uda)
        ]
        fields = {r.sds_code for r in members}
        cost = {
            sds: sum(self.salary(r.id) * r.years_in_window
                     for r in members if r.sds_code == sds)
            for sds in fields
        }
        total_cost = sum(cost.values())
        value = 0.0
        for sds in fields:
            staff_score = self.fss_s(sds, institution)
            if staff_score > 0:
                value += (staff_score / means[sds]) * (cost[sds] / total_cost)
        return value

    def _rate_indicator(self, institution: str, rate_of, uda: str | None = None) -> float:
        means = self.mean_over_productive(rate_of)
        members = [
            rid for rid, r in self.corpus.researchers.items()
            if r.institution_id == institution
            and (uda is None or self.corpus.taxonomy.uda_of_sds[r.sds_code] == uda)
        ]
        total = 0.0
        for rid in members:
            value = rate_of(rid)
            if value > 0:
                total += value / means[self.corpus.researchers[rid].sds_code]
        return total / len(members)

    def p_u(self, institution: str, uda: str | None = None) -> float:
        return self._rate_indicator(institution, self.q, uda)

    def fp_u(self, institution: str, uda: str | None = None) -> float:
        return self._rate_indicator(institution, self.fq, uda)


# ---------------------------------------------------------------------------
# Rank statistics
# ---------------------------------------------------------------------------

def reference_spearman_distinct(x: list, y: list) -> float:
    """Closed form 1 - 6*sum(d^2)/(n(n^2-1)); valid only without ties."""
    n = len(x)
    rank_x = {v: i + 1 for i, v in enumerate(sorted(x))}
    rank_y = {v: i + 1 for i, v in enumerate(sorted(y))}
    d2 = sum((rank_x[a] - rank_y[b]) ** 2 for a, b in zip(x, y))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def chi_square_statistic(observed: list[float], expected: list[float]) -> float:
    return sum((o - e) ** 2 / e for o, e in zip(observed, expected))


def merge_tail_bins(observed: list[int], expected: list[float],
                    min_expected: float = 5.0) -> tuple[list[float], list[float]]:
    """Collapse trailing bins until every expected count is large enough."""
    obs: list[float] = []
    exp: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs.append(acc_o)
            exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        if obs:
            obs[-1] += acc_o
            exp[-1] += acc_e
        else:
            obs.append(acc_o)
            exp.append(acc_e)
    return obs, exp


# ---------------------------------------------------------------------------
# Linear programming by vertex enumeration
# ---------------------------------------------------------------------------

def reference_lp_maximum(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                         tol: float = 1e-9):
    """Exhaustively intersect constraint planes and keep the best feasible
    vertex. Exponential, so only for tiny programs. Returns (value, x) or
    (None, None) when no feasible vertex exists (works only for problems
    whose optimum is attained at a vertex, which holds for bounded feasible
    LPs in standard form). ``a_eq`` may also be one row with a scalar
    ``b_eq``, as ``simplex.start_tableau`` takes it."""
    c = np.asarray(c, dtype=float)
    n = c.size
    planes = []
    for matrix, rhs in ((a_ub, b_ub), (a_eq, b_eq)):
        if matrix is not None:
            for row, b in zip(np.atleast_2d(np.asarray(matrix, dtype=float)),
                              np.atleast_1d(np.asarray(rhs, dtype=float))):
                planes.append((row, b))
    for i in range(n):
        axis = np.zeros(n)
        axis[i] = 1.0
        planes.append((axis, 0.0))

    def feasible(x):
        if np.any(x < -tol):
            return False
        if a_ub is not None and np.any(np.asarray(a_ub) @ x > np.asarray(b_ub) + tol):
            return False
        if a_eq is not None and np.any(np.abs(np.asarray(a_eq) @ x - np.asarray(b_eq)) > tol):
            return False
        return True

    best_value = None
    best_x = None
    for combo in itertools.combinations(range(len(planes)), n):
        matrix = np.array([planes[i][0] for i in combo])
        rhs = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(matrix)) < 1e-12:
            continue
        x = np.linalg.solve(matrix, rhs)
        if feasible(x):
            value = float(c @ x)
            if best_value is None or value > best_value:
                best_value = value
                best_x = x
    return best_value, best_x

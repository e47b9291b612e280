"""Ranked lists, percentile ranks, and ranking comparison statistics.

Ranks are competition ("min") ranks: tied units share the best position of
the tie block. Percentile rank is the share of units scoring strictly
lower, on a 0..100 scale, so the top unit of n distinct scores gets
100 * (n - 1) / n and the bottom gets 0.

Comparing two rankings of the same units reports how much membership and
order move between indicators: the share of units whose rank changes at
all, shift magnitudes, a tie-corrected rank correlation, and how many of
one list's top-quartile units fall out of the other's top quartile.
"""

from __future__ import annotations

import json
import math
import statistics
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import parse_float, parse_int, read_table, require, write_table
from .errors import ComputationError, InputError, LoadError, UnitMismatchError
from .indicators import FieldMeans, ScoreSet


@dataclass(frozen=True)
class RankedEntry:
    unit_id: str
    score: float
    rank: int
    percentile: float


@dataclass
class RankedList:
    entries: list[RankedEntry]  # score descending, unit_id ascending within ties
    level: str = ""
    indicator: str = ""
    group: str | None = None  # e.g. a discipline code when ranking within one

    def __len__(self) -> int:
        return len(self.entries)

    def rank_of(self) -> dict[str, int]:
        return {e.unit_id: e.rank for e in self.entries}

    def score_of(self) -> dict[str, float]:
        return {e.unit_id: e.score for e in self.entries}

    def unit_ids(self) -> set[str]:
        return {e.unit_id for e in self.entries}

    def top_quartile(self) -> set[str]:
        """First ceil(n/4) units of the sorted order."""
        return {e.unit_id for e in self.entries[:quartile_size(len(self.entries))]}


@dataclass(frozen=True)
class ComparisonStats:
    n_units: int
    pct_shifting: float
    avg_shift: float
    median_shift: float
    max_shift: int
    spearman: float
    top_quartile_exit_pct: float
    shifts: dict[str, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "n_units": self.n_units,
            "pct_shifting": self.pct_shifting,
            "avg_shift": self.avg_shift,
            "median_shift": self.median_shift,
            "max_shift": self.max_shift,
            "spearman": self.spearman,
            "top_quartile_exit_pct": self.top_quartile_exit_pct,
            "shifts": {uid: self.shifts[uid] for uid in sorted(self.shifts)},
        }


def quartile_size(n: int) -> int:
    """ceil(n/4): the top quartile absorbs the remainder."""
    if n < 0:
        raise InputError("n must be >= 0")
    return -(-n // 4)


def percentile_rank(scores, value: float) -> float:
    """Share of scores strictly below ``value``, scaled to 0..100."""
    scores = list(scores)
    if not scores:
        raise InputError("percentile rank of an empty list is undefined")
    below = sum(1 for s in scores if s < value)
    return 100.0 * below / len(scores)


def rank_scores(scores: ScoreSet, exclude=frozenset()) -> RankedList:
    """Order a score set into a ranked list, skipping excluded units."""
    items = [(uid, scores.entries[uid]) for uid in scores.unit_ids() if uid not in exclude]
    items.sort(key=lambda kv: (-kv[1], kv[0]))
    n = len(items)
    entries: list[RankedEntry] = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and items[j + 1][1] == items[i][1]:
            j += 1
        # Tie block [i..j]: every member takes the block's best rank, and
        # only the n-(j+1) units below the block score strictly less.
        pct = 100.0 * (n - j - 1) / n
        for k in range(i, j + 1):
            uid, value = items[k]
            entries.append(RankedEntry(unit_id=uid, score=value, rank=i + 1, percentile=pct))
        i = j + 1
    return RankedList(entries=entries, level=scores.level, indicator=scores.indicator,
                      group=scores.metadata.get("uda"))


def standardized_scores(scores: ScoreSet, means: FieldMeans) -> ScoreSet:
    """Divide each unit's raw score by its field's national mean, making
    units from fields with different citation and cost regimes rankable in
    one list. Requires the score set to carry each unit's field."""
    if scores.indicator not in ("fss_r", "fss_s"):
        raise InputError(f"no field standardization defined for indicator {scores.indicator!r}")
    sds_of_unit = scores.metadata.get("sds_of_unit")
    if not sds_of_unit:
        raise InputError("score set does not record the field of each unit")
    entries = {}
    for uid in scores.unit_ids():
        value = scores.entries[uid]
        if value == 0.0:
            entries[uid] = 0.0
        else:
            entries[uid] = value / means.require(scores.indicator, sds_of_unit[uid])
    return ScoreSet(
        level=scores.level,
        indicator=f"{scores.indicator}_std",
        entries=entries,
        window=scores.window,
        metadata=dict(scores.metadata),
    )


# ---------------------------------------------------------------------------
# Rank correlation
# ---------------------------------------------------------------------------

def average_ranks(values) -> list[float]:
    """Ascending ranks 1..n with ties sharing their block's average rank."""
    values = list(values)
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        block_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = block_rank
        i = j + 1
    return ranks


def spearman_rho(x, y) -> float:
    """Tie-corrected rank correlation: Pearson correlation of average ranks.

    Without ties this reduces to 1 - 6*sum(d^2) / (n*(n^2-1)).
    """
    x, y = list(x), list(y)
    if len(x) != len(y):
        raise InputError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise ComputationError("rank correlation needs at least two observations")
    rx, ry = average_ranks(x), average_ranks(y)
    mx = math.fsum(rx) / n
    my = math.fsum(ry) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(rx, ry))
    var_x = math.fsum((a - mx) ** 2 for a in rx)
    var_y = math.fsum((b - my) ** 2 for b in ry)
    if var_x == 0.0 or var_y == 0.0:
        if rx == ry:
            return 1.0
        raise ComputationError("rank correlation undefined when one input is constant")
    return cov / math.sqrt(var_x * var_y)


# ---------------------------------------------------------------------------
# Ranking comparison
# ---------------------------------------------------------------------------

def compare_rankings(a: RankedList, b: RankedList) -> ComparisonStats:
    """How a unit population reorders between two rankings.

    Both lists must rank exactly the same units. Shift magnitudes are
    absolute differences of competition ranks; the correlation is computed
    from scores (not ranks) so tied blocks are handled by average ranks;
    the quartile exit rate is the share of a's top quartile missing from
    b's top quartile.
    """
    ids_a, ids_b = a.unit_ids(), b.unit_ids()
    if ids_a != ids_b:
        diff = sorted(ids_a.symmetric_difference(ids_b))
        raise UnitMismatchError(f"rankings cover different units: {', '.join(diff)}")
    n = len(a)
    if n < 2:
        raise ComputationError("comparison needs at least two units")

    rank_a, rank_b = a.rank_of(), b.rank_of()
    score_a, score_b = a.score_of(), b.score_of()
    ids = sorted(ids_a)
    shifts = {uid: abs(rank_a[uid] - rank_b[uid]) for uid in ids}
    shift_values = [shifts[uid] for uid in ids]
    moved = sum(1 for s in shift_values if s > 0)

    top_a, top_b = a.top_quartile(), b.top_quartile()
    exits = len(top_a - top_b)

    return ComparisonStats(
        n_units=n,
        pct_shifting=100.0 * moved / n,
        avg_shift=math.fsum(shift_values) / n,
        median_shift=float(statistics.median(shift_values)),
        max_shift=max(shift_values),
        spearman=spearman_rho([score_a[uid] for uid in ids], [score_b[uid] for uid in ids]),
        top_quartile_exit_pct=100.0 * exits / len(top_a),
        shifts=shifts,
    )


def aggregate_percentiles(values) -> float:
    """Mean of percentile ranks, e.g. one researcher over several windows.

    Percentile rank is an ordinal scale, so averaging it is improper in the
    measurement-theory sense (Thompson 1993); the result is still widely
    used as a summary. A warning makes the caveat visible at call sites.
    """
    values = list(values)
    if not values:
        raise InputError("cannot aggregate an empty set of percentiles")
    warnings.warn(
        "averaging percentile ranks treats an ordinal scale as if it were "
        "cardinal (Thompson 1993); interpret aggregated values with care",
        stacklevel=2,
    )
    return math.fsum(values) / len(values)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

RANKING_COLUMNS = ("unit_id", "score", "rank", "percentile")


def write_rankings(ranked: RankedList, path) -> Path:
    """rankings.csv in list order; a group column is prepended when set."""
    if ranked.group is None:
        header, group = RANKING_COLUMNS, ()
    else:
        header, group = ("group", *RANKING_COLUMNS), (ranked.group,)
    return write_table(path, header, (
        (*group, e.unit_id, e.score, e.rank, e.percentile) for e in ranked.entries
    ))


def read_rankings(path) -> RankedList:
    """rankings.csv; an optional group column must hold one value throughout."""
    path = Path(path)
    entries = []
    group = None
    seen = set()
    for line, (uid, score, rank, percentile, row_group) in read_table(path, RANKING_COLUMNS, ("group",)):
        require(uid, path, line, "unit_id")
        if uid in seen:
            raise LoadError(f"duplicate unit {uid!r}", file=path, line=line, column="unit_id")
        seen.add(uid)
        if group is not None and row_group != group:
            raise LoadError("mixed groups in one ranking file", file=path, line=line, column="group")
        entries.append(RankedEntry(
            unit_id=uid,
            score=parse_float(score, path, line, "score"),
            rank=parse_int(rank, path, line, "rank"),
            percentile=parse_float(percentile, path, line, "percentile"),
        ))
        group = row_group
    return RankedList(entries=entries, group=group or None)


def write_comparison(stats: ComparisonStats, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(stats.to_json_dict(), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path

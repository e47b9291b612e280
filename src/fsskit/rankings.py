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
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .corpus import parse_float, parse_int, read_table, require, write_table
from .errors import ComputationError, InputError, LoadError


@dataclass(frozen=True)
class RankedEntry:
    unit_id: str
    score: float
    rank: int
    percentile: float


@dataclass
class RankedList:
    entries: list[RankedEntry]  # score descending, unit_id ascending within ties
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


def quartile_size(n: int) -> int:
    """ceil(n/4): the top quartile absorbs the remainder."""
    if n < 0:
        raise InputError("n must be >= 0")
    return -(-n // 4)


def _tie_blocks(values) -> list[tuple[int, int]]:
    """(start, end) of each run of equal values in ``values``, end exclusive."""
    starts = [i for i in range(len(values)) if i == 0 or values[i] != values[i - 1]]
    return list(zip(starts, starts[1:] + [len(values)]))


def rank_scores(scores: dict[str, float], group=None, exclude=frozenset()) -> RankedList:
    """Rank units by score, given as ``{unit_id: score}``, skipping excluded units."""
    items = sorted(((uid, value) for uid, value in scores.items() if uid not in exclude),
                   key=lambda kv: (-kv[1], kv[0]))
    n = len(items)
    # Tie block [i, j): every member takes the block's best rank, and only
    # the n - j units below the block score strictly less.
    entries = [RankedEntry(unit_id=uid, score=value, rank=i + 1, percentile=100.0 * (n - j) / n)
               for i, j in _tie_blocks([value for _, value in items])
               for uid, value in items[i:j]]
    return RankedList(entries=entries, group=group)


# ---------------------------------------------------------------------------
# Rank correlation
# ---------------------------------------------------------------------------

def average_ranks(values) -> list[float]:
    """Ascending ranks 1..n with ties sharing their block's average rank."""
    values = list(values)
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    for i, j in _tie_blocks([values[k] for k in order]):
        for k in order[i:j]:
            ranks[k] = (i + j - 1) / 2 + 1
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
        raise InputError(f"rankings cover different units: {', '.join(diff)}")
    n = len(a)
    if n < 2:
        raise ComputationError("comparison needs at least two units")

    rank_a, rank_b = a.rank_of(), b.rank_of()
    score_a, score_b = a.score_of(), b.score_of()
    ids = sorted(ids_a)
    shifts = {uid: abs(rank_a[uid] - rank_b[uid]) for uid in ids}
    shift_values = [shifts[uid] for uid in ids]
    moved = sum(1 for s in shift_values if s > 0)
    ordered, mid = sorted(shift_values), n // 2
    median_shift = float(ordered[mid]) if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2

    top_a, top_b = a.top_quartile(), b.top_quartile()
    exits = len(top_a - top_b)

    return ComparisonStats(
        n_units=n,
        pct_shifting=100.0 * moved / n,
        avg_shift=math.fsum(shift_values) / n,
        median_shift=median_shift,
        max_shift=max(shift_values),
        spearman=spearman_rho([score_a[uid] for uid in ids], [score_b[uid] for uid in ids]),
        top_quartile_exit_pct=100.0 * exits / len(top_a),
        shifts=shifts,
    )


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
    """rankings.csv; an optional group column must hold one value throughout.
    The list is ranked again from the scores, so it comes back in the order
    write_rankings writes, whatever the order of the file's rows; a rank or
    percentile cell that differs from the one its score gives is refused,
    at the first such row in file order."""
    path = Path(path)
    scores: dict[str, float] = {}
    written = []  # (line, unit_id, (rank, percentile)) in file order
    group = None
    for line, (uid, score, rank, percentile, row_group) in read_table(path, RANKING_COLUMNS, ("group",)):
        require(uid, path, line, "unit_id")
        if uid in scores:
            raise LoadError(f"duplicate unit {uid!r}", file=path, line=line, column="unit_id")
        if group is not None and row_group != group:
            raise LoadError("mixed groups in one ranking file", file=path, line=line, column="group")
        scores[uid] = parse_float(score, path, line, "score")
        written.append((line, uid, (parse_int(rank, path, line, "rank"),
                                    parse_float(percentile, path, line, "percentile"))))
        group = row_group
    ranked = rank_scores(scores, group or None)
    derived = {e.unit_id: (e.rank, e.percentile) for e in ranked.entries}
    for line, uid, cells in written:
        for column, value, expected in zip(("rank", "percentile"), cells, derived[uid]):
            if value != expected:
                raise LoadError(f"{column} {value!r} differs from {expected!r}, the {column} "
                                "its score gives", file=path, line=line, column=column)
    return ranked


def write_comparison(stats: ComparisonStats, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(asdict(stats), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path

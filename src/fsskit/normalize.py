"""Citation normalization against (year, subject category) baselines.

The baseline for a cohort is the mean citation count of its CITED
publications only (citations >= 1); uncited publications are excluded from
the mean but receive a normalized impact of 0. A publication indexed in
several categories contributes to every one of their baselines, and its own
normalized impact is the unweighted mean of its per-category ratios.

Baselines are accumulated as integer sums and divided once, so the value is
independent of publication order.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .corpus import Publication, parse_int, parse_quantity, read_table, require, write_table
from .errors import ComputationError, LoadError

BASELINE_COLUMNS = ("year", "category", "c_bar", "n_cited")


class BaselineTable(NamedTuple):
    """(year, category) -> (mean citations of cited pubs, cited-pub count)."""

    entries: dict[tuple[int, str], tuple[float, int]]

    def c_bar(self, year: int, category: str) -> float:
        try:
            return self.entries[(year, category)][0]
        except KeyError:
            raise ComputationError(
                f"no citation baseline for year {year}, category {category!r}"
            ) from None

    def cohorts(self) -> list[tuple[int, str]]:
        return sorted(self.entries)


def compute_baselines(publications) -> BaselineTable:
    """Build the baseline table from an iterable of publications."""
    sums: dict[tuple[int, str], int] = {}
    counts: dict[tuple[int, str], int] = {}
    for pub in publications:
        if pub.citations < 1:
            continue
        for category in pub.subject_categories:
            key = (pub.year, category)
            sums[key] = sums.get(key, 0) + pub.citations
            counts[key] = counts.get(key, 0) + 1
    entries = {key: (sums[key] / counts[key], counts[key]) for key in sums}
    return BaselineTable(entries=entries)


def normalized_impact(publication: Publication, baselines: BaselineTable) -> float:
    """Field-normalized citation impact of one publication.

    Uncited publications score 0 without touching the table, so a corpus
    with cohorts that have no cited members still normalizes cleanly.
    """
    if publication.citations < 1:
        return 0.0
    ratios = [
        publication.citations / baselines.c_bar(publication.year, category)
        for category in publication.subject_categories
    ]
    return math.fsum(ratios) / len(ratios)


def write_baselines(table: BaselineTable, path) -> Path:
    return write_table(path, BASELINE_COLUMNS, (
        (year, category, *table.entries[(year, category)]) for year, category in table.cohorts()
    ))


def load_baselines(path) -> BaselineTable:
    path = Path(path)
    entries: dict[tuple[int, str], tuple[float, int]] = {}
    for line, (year, category, c_bar, n_cited) in read_table(path, BASELINE_COLUMNS):
        year = parse_int(year, path, line, "year")
        require(category, path, line, "category")
        c_bar = parse_quantity(c_bar, path, line, "c_bar")
        n_cited = parse_int(n_cited, path, line, "n_cited")
        if n_cited < 1:
            raise LoadError("a baseline needs at least one cited publication",
                            file=path, line=line, column="n_cited")
        if (year, category) in entries:
            raise LoadError(f"duplicate baseline for ({year}, {category!r})",
                            file=path, line=line)
        entries[(year, category)] = (c_bar, n_cited)
    return BaselineTable(entries=entries)

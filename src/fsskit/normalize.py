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

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .corpus import Publication, parse_float
from .errors import BaselineMissingError, LoadError

BASELINE_COLUMNS = ("year", "category", "c_bar", "n_cited")


@dataclass(frozen=True)
class BaselineTable:
    """(year, category) -> (mean citations of cited pubs, cited-pub count)."""

    entries: dict[tuple[int, str], tuple[float, int]]

    def c_bar(self, year: int, category: str) -> float:
        try:
            return self.entries[(year, category)][0]
        except KeyError:
            raise BaselineMissingError(
                f"no citation baseline for year {year}, category {category!r}"
            ) from None

    def n_cited(self, year: int, category: str) -> int:
        try:
            return self.entries[(year, category)][1]
        except KeyError:
            raise BaselineMissingError(
                f"no citation baseline for year {year}, category {category!r}"
            ) from None

    def __contains__(self, key: tuple[int, str]) -> bool:
        return key in self.entries

    def cohorts(self) -> list[tuple[int, str]]:
        return sorted(self.entries)


def compute_baselines(publications) -> BaselineTable:
    """Build the baseline table from an iterable (or dict) of publications."""
    if isinstance(publications, dict):
        publications = publications.values()
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
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(BASELINE_COLUMNS)
        for year, category in table.cohorts():
            c_bar, n_cited = table.entries[(year, category)]
            writer.writerow((year, category, repr(c_bar), n_cited))
    return path


def load_baselines(path) -> BaselineTable:
    path = Path(path)
    if not path.exists():
        raise LoadError("file not found", file=path)
    entries: dict[tuple[int, str], tuple[float, int]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or any(c not in reader.fieldnames for c in BASELINE_COLUMNS):
            raise LoadError(f"expected columns {', '.join(BASELINE_COLUMNS)}", file=path, line=1)
        for row in reader:
            try:
                year = int(row["year"])
                c_bar = parse_float(row["c_bar"], path, reader.line_num, "c_bar")
                n_cited = int(row["n_cited"])
            except (TypeError, ValueError):
                raise LoadError("malformed baseline row", file=path, line=reader.line_num) from None
            category = (row["category"] or "").strip()
            if not category:
                raise LoadError("category is required", file=path, line=reader.line_num, column="category")
            if c_bar <= 0 or n_cited < 1:
                raise LoadError("baseline must come from at least one cited publication",
                                file=path, line=reader.line_num)
            if (year, category) in entries:
                raise LoadError(f"duplicate baseline for ({year}, {category!r})",
                                file=path, line=reader.line_num)
            entries[(year, category)] = (c_bar, n_cited)
    return BaselineTable(entries=entries)

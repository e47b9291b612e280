"""Synthetic census generator for tests and benchmarks.

Paper counts per researcher follow a truncated power law (Lotka-style:
P(k) proportional to k**-alpha), citation counts are zero-inflated with a
per-category intensity, and bylines mix census co-authors with external
ones. Everything is drawn from a single random.Random(seed) stream in a
fixed order, so one seed always yields the same corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .corpus import Authorship, Corpus, FieldTaxonomy, Publication, Researcher, SalarySchedule
from .errors import InputError

RANKS = ("assistant", "associate", "full")
RANK_WEIGHTS = (4, 3, 2)

# "associate" is deliberately banded-only so the rank-mean fallback gets real use.
DEFAULT_SCHEDULE = {
    ("assistant", None): 35000.0,
    ("associate", "junior"): 45000.0,
    ("associate", "senior"): 55000.0,
    ("full", None): 70000.0,
}


@dataclass(frozen=True)
class SynthParams:
    n_researchers: int = 500
    n_institutions: int = 8
    n_sds: int = 5
    categories_per_sds: int = 2
    window: tuple[int, int] = (2006, 2010)
    lotka_alpha: float = 1.3
    max_papers: int = 40
    fraction_inactive: float = 0.08
    fraction_short_tenure: float = 0.06
    explicit_salary_prob: float = 0.1
    coauthor_census_prob: float = 0.35
    max_census_coauthors: int = 2
    max_external_authors: int = 3
    multi_category_prob: float = 0.15
    single_category: bool = False
    citation_zero_prob: float = 0.3
    citation_mean: float = 6.0

    def validate(self):
        for name in ("n_researchers", "n_institutions", "n_sds", "categories_per_sds", "max_papers"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1")
        if self.max_census_coauthors < 0 or self.max_external_authors < 0:
            raise InputError("co-author counts must be >= 0")
        for name in ("fraction_inactive", "fraction_short_tenure", "explicit_salary_prob",
                     "coauthor_census_prob", "multi_category_prob", "citation_zero_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InputError(f"{name} must be in [0, 1], got {value}")
        if self.lotka_alpha <= 0:
            raise InputError("lotka_alpha must be positive")
        if self.citation_mean <= 0:
            raise InputError("citation_mean must be positive")
        if self.window[0] > self.window[1]:
            raise InputError("window start is after window end")


def lotka_pmf(alpha: float, max_papers: int) -> list[float]:
    """P(k papers) for k = 1..max_papers, proportional to k**-alpha."""
    raw = [k ** -alpha for k in range(1, max_papers + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def _sds_categories(sds_index: int, count: int) -> list[str]:
    return [f"CAT{sds_index + 1:02d}{chr(ord('a') + j)}" for j in range(count)]


def generate_synthetic_corpus(seed: int, params: SynthParams | None = None) -> Corpus:
    params = params or SynthParams()
    params.validate()
    rng = random.Random(seed)
    start, end = params.window
    window_years = end - start + 1

    sds_codes = [f"SDS{i + 1:02d}" for i in range(params.n_sds)]
    taxonomy = FieldTaxonomy(
        uda_of_sds={sds: f"UDA{1 + i * 2 // params.n_sds}" for i, sds in enumerate(sds_codes)},
        convention_of_sds={
            sds: ("alphabetical" if i % 2 == 0 else "position_weighted")
            for i, sds in enumerate(sds_codes)
        },
    )
    categories = {sds: _sds_categories(i, params.categories_per_sds)
                  for i, sds in enumerate(sds_codes)}
    all_categories = sorted(c for cats in categories.values() for c in cats)
    intensity = {cat: 0.5 + 1.5 * i / max(1, len(all_categories) - 1)
                 for i, cat in enumerate(all_categories)}

    institutions = [f"U{j + 1:02d}" for j in range(params.n_institutions)]
    inst_weights = list(range(1, params.n_institutions + 1))  # uneven sizes on purpose

    schedule = SalarySchedule(entries=dict(DEFAULT_SCHEDULE))

    researchers: dict[str, Researcher] = {}
    for i in range(params.n_researchers):
        rid = f"R{i + 1:05d}"
        sds = rng.choice(sds_codes)
        inst = rng.choices(institutions, weights=inst_weights, k=1)[0]
        rank = rng.choices(RANKS, weights=RANK_WEIGHTS, k=1)[0]
        if rng.random() < params.fraction_short_tenure:
            years = float(rng.randint(1, 2))
        elif rng.random() < 0.1:
            years = float(rng.randint(3, window_years)) if window_years >= 3 else float(window_years)
        else:
            years = float(window_years)
        salary = None
        if rng.random() < params.explicit_salary_prob:
            salary = round(schedule.lookup(rank) * rng.uniform(0.8, 1.2), 2)
        researchers[rid] = Researcher(
            id=rid,
            name=f"Researcher {i + 1}",
            sds_code=sds,
            rank=rank,
            salary_per_year=salary,
            institution_id=inst,
            department_id=f"{inst}-D{sds_codes.index(sds) + 1}",
            years_in_window=years,
        )

    pmf = lotka_pmf(params.lotka_alpha, params.max_papers)
    counts = {}
    for rid in sorted(researchers):
        if rng.random() < params.fraction_inactive:
            counts[rid] = 0
        else:
            counts[rid] = rng.choices(range(1, params.max_papers + 1), weights=pmf, k=1)[0]

    all_ids = sorted(researchers)
    external_pool = [f"X{j + 1:02d}" for j in range(10)]
    publications: dict[str, Publication] = {}
    pub_counter = 0

    for rid in all_ids:
        anchor = researchers[rid]
        for _ in range(counts[rid]):
            pub_counter += 1
            pid = f"P{pub_counter:06d}"
            year = rng.randint(start, end)

            cats = [rng.choice(categories[anchor.sds_code])]
            if not params.single_category and rng.random() < params.multi_category_prob:
                extra = rng.choice(all_categories)
                if extra not in cats:
                    cats.append(extra)

            authors: list[tuple[str | None, str]] = [(rid, anchor.institution_id)]
            if params.max_census_coauthors and rng.random() < params.coauthor_census_prob:
                k = rng.randint(1, params.max_census_coauthors)
                picks = rng.sample(all_ids, k + 1)
                for co in picks:
                    if co != rid and len(authors) <= k:
                        authors.append((co, researchers[co].institution_id))
            for _ in range(rng.randint(0, params.max_external_authors)):
                # External authors occasionally share the anchor's institution so
                # intramural first/last bylines occur in weighted fields.
                inst = anchor.institution_id if rng.random() < 0.25 else rng.choice(external_pool)
                authors.append((None, inst))
            rng.shuffle(authors)

            mean = params.citation_mean * sum(intensity[c] for c in cats) / len(cats)
            if rng.random() < params.citation_zero_prob:
                citations = 0
            else:
                citations = min(200, 1 + int(rng.expovariate(1.0 / mean)))

            publications[pid] = Publication(
                id=pid,
                year=year,
                citations=citations,
                subject_categories=tuple(sorted(set(cats))),
                byline=tuple(
                    Authorship(position=p + 1, researcher_id=a_rid, institution_id=a_inst)
                    for p, (a_rid, a_inst) in enumerate(authors)
                ),
            )

    return Corpus(
        researchers=researchers,
        publications=publications,
        taxonomy=taxonomy,
        salaries=schedule,
        window=params.window,
    )

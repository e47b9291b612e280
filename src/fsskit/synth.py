"""Synthetic census generator for tests and benchmarks.

Paper counts per researcher follow a truncated power law (Lotka-style:
P(k) proportional to k**-alpha), citation counts are zero-inflated with a
per-category intensity, and bylines mix census co-authors with external
ones. Everything is drawn from a single random.Random(seed) stream in a
fixed order, so one seed always yields the same corpus.

``config.SynthParams`` holds what the ``synth`` command's flags set: the
census size and the most papers one researcher draws. The module constants
fix the rest: the power law's exponent is 1.3; the window is RunConfig's
default; each field has two subject categories; 8% of researchers publish
nothing, 6% have one or two years in post and 10% carry an explicit salary;
35% of papers add one or two census co-authors and each adds up to three
external ones; 15% gain a second category; 30% are uncited, and the rest
draw citations with mean 6 times a category intensity between 0.5 and 2
(capped at 200).
"""

from __future__ import annotations

import random

from .config import RunConfig, SynthParams
from .corpus import Authorship, Corpus, FieldTaxonomy, Publication, Researcher, SalarySchedule

RANKS = ("assistant", "associate", "full")
RANK_WEIGHTS = (4, 3, 2)

# "associate" is deliberately banded-only so the rank-mean fallback gets real use.
DEFAULT_SCHEDULE = {
    ("assistant", None): 35000.0,
    ("associate", "junior"): 45000.0,
    ("associate", "senior"): 55000.0,
    ("full", None): 70000.0,
}

LOTKA_ALPHA = 1.3
CATEGORIES_PER_SDS = 2
FRACTION_INACTIVE = 0.08
FRACTION_SHORT_TENURE = 0.06
EXPLICIT_SALARY_PROB = 0.1
COAUTHOR_CENSUS_PROB = 0.35
MAX_CENSUS_COAUTHORS = 2
MAX_EXTERNAL_AUTHORS = 3
MULTI_CATEGORY_PROB = 0.15
CITATION_ZERO_PROB = 0.3
CITATION_MEAN = 6.0


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
    start, end = RunConfig().window
    window_years = end - start + 1

    sds_codes = [f"SDS{i + 1:02d}" for i in range(params.n_sds)]
    taxonomy = FieldTaxonomy(
        uda_of_sds={sds: f"UDA{1 + i * 2 // params.n_sds}" for i, sds in enumerate(sds_codes)},
        convention_of_sds={
            sds: ("alphabetical" if i % 2 == 0 else "position_weighted")
            for i, sds in enumerate(sds_codes)
        },
    )
    categories = {sds: _sds_categories(i, CATEGORIES_PER_SDS)
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
        if rng.random() < FRACTION_SHORT_TENURE:
            years = float(rng.randint(1, 2))
        elif rng.random() < 0.1:
            years = float(rng.randint(3, window_years))
        else:
            years = float(window_years)
        salary = None
        if rng.random() < EXPLICIT_SALARY_PROB:
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

    pmf = lotka_pmf(LOTKA_ALPHA, params.max_papers)
    counts = {}
    for rid in sorted(researchers):
        if rng.random() < FRACTION_INACTIVE:
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
            if rng.random() < MULTI_CATEGORY_PROB:
                extra = rng.choice(all_categories)
                if extra not in cats:
                    cats.append(extra)

            authors: list[tuple[str | None, str]] = [(rid, anchor.institution_id)]
            if rng.random() < COAUTHOR_CENSUS_PROB:
                k = rng.randint(1, MAX_CENSUS_COAUTHORS)
                picks = rng.sample(all_ids, min(k + 1, len(all_ids)))
                for co in picks:
                    if co != rid and len(authors) <= k:
                        authors.append((co, researchers[co].institution_id))
            for _ in range(rng.randint(0, MAX_EXTERNAL_AUTHORS)):
                # External authors occasionally share the anchor's institution so
                # intramural first/last bylines occur in weighted fields.
                inst = anchor.institution_id if rng.random() < 0.25 else rng.choice(external_pool)
                authors.append((None, inst))
            rng.shuffle(authors)

            mean = CITATION_MEAN * sum(intensity[c] for c in cats) / len(cats)
            if rng.random() < CITATION_ZERO_PROB:
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
    )

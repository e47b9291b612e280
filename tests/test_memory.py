"""load_corpus holds each repeated value once, and little more while loading.

A census names few institutions, researchers, categories and years in
many rows. The loaded corpus shares one object per distinct value, which
keeps its size per byline row, and so the peak memory of every census
command, low. While loading, each byline is a list in file order, so the
peak stays close to what is kept.
"""

import gc
import tracemalloc

import pytest

from fsskit.cli import main
from fsskit.config import RunConfig
from fsskit.corpus import load_corpus

FILES = ("researchers", "publications", "bylines", "taxonomy", "salaries")

# Bytes the loaded corpus may hold per byline row. Sharing repeated values
# brings this census to about 125; holding every cell on its own takes 321.
MAX_BYTES_PER_BYLINE_ROW = 220

# Bytes load_corpus may hold at its peak per byline row. Building each byline
# as a list in file order brings this census to about 175; a {position:
# Authorship} map per publication took 254.
MAX_PEAK_BYTES_PER_BYLINE_ROW = 210


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    data = tmp_path_factory.mktemp("census7")
    assert main(["synth", "--seed", "7", "--researchers", "1000", "--institutions", "8",
                 "--out", str(data)]) == 0
    return [data / f"{name}.csv" for name in FILES]


@pytest.fixture(scope="module")
def corpus(census):
    return load_corpus(*census, RunConfig())[0]


def entries(corpus):
    return [entry for pub in corpus.publications.values() for entry in pub.byline]


def test_one_object_per_institution_id(corpus):
    ids = [entry.institution_id for entry in entries(corpus)]
    ids += [r.institution_id for r in corpus.researchers.values()]
    assert len({id(value) for value in ids}) == len(set(ids))


def test_census_entries_hold_the_researchers_own_id(corpus):
    census = [entry for entry in entries(corpus) if entry.researcher_id is not None]
    assert census
    assert all(entry.researcher_id is corpus.researchers[entry.researcher_id].id
               for entry in census)


def test_one_authorship_per_distinct_entry(corpus):
    # Authorship is an immutable NamedTuple, so bylines may share one.
    all_entries = entries(corpus)
    assert len({id(entry) for entry in all_entries}) == len(set(all_entries)) < len(all_entries)


def test_category_tuples_and_years_are_shared(corpus):
    pubs = list(corpus.publications.values())
    tuples = [pub.subject_categories for pub in pubs]
    assert len({id(t) for t in tuples}) == len(set(tuples)) < len(pubs)
    categories = [c for t in tuples for c in t]
    assert len({id(c) for c in categories}) == len(set(categories))
    years = [pub.year for pub in pubs]
    assert len({id(y) for y in years}) == len(set(years))


def test_load_retains_little_per_byline_row(census):
    gc.collect()
    tracemalloc.start()
    try:
        corpus, report = load_corpus(*census, RunConfig())
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = report.row_counts["bylines"]
    assert rows > 10_000
    assert retained / rows <= MAX_BYTES_PER_BYLINE_ROW, f"{retained / rows:.0f} B per byline row"
    assert len(corpus.publications) > 0


def test_load_peaks_little_per_byline_row(census):
    gc.collect()
    tracemalloc.start()
    try:
        _, report = load_corpus(*census, RunConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = report.row_counts["bylines"]
    assert rows > 10_000
    assert peak / rows <= MAX_PEAK_BYTES_PER_BYLINE_ROW, f"{peak / rows:.0f} B per byline row at the peak"

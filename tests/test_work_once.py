"""Each distinct census cell is parsed once, each distinct credit share and
citation cohort computed once, and each rank's schedule salary looked up once.

load_corpus remembers every year, citations, position and institution_id
cell it has checked, and credit_ledger every share and normalized impact it
has computed, keyed by what decides it, and every rank's salary it has
looked up. These tests count the calls behind those memos on a synthetic
census, so an edit that drops one fails here, with no timing involved.
"""

from collections import Counter

import pytest

from fsskit import corpus as corpus_module
from fsskit import indicators
from fsskit.cli import main
from fsskit.config import RunConfig
from fsskit.corpus import load_corpus
from fsskit.normalize import compute_baselines

FILES = ("researchers", "publications", "bylines", "taxonomy", "salaries")


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    data = tmp_path_factory.mktemp("census7")
    assert main(["synth", "--seed", "7", "--researchers", "1000", "--institutions", "8",
                 "--out", str(data)]) == 0
    return [data / f"{name}.csv" for name in FILES]


def counted(monkeypatch, owner, name, key):
    """Replace ``owner.name`` with a wrapper that counts its calls by ``key(*args)``."""
    calls = Counter()
    fn = getattr(owner, name)

    def wrapper(*args):
        calls[key(*args)] += 1
        return fn(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_each_distinct_cell_is_checked_once(census, monkeypatch):
    parsed = counted(monkeypatch, corpus_module, "parse_int",
                     lambda value, path, line, column: (column, value))
    required = counted(monkeypatch, corpus_module, "require",
                       lambda value, path, line, column: (column, value))
    _, report = load_corpus(*census, RunConfig())
    assert {column for column, _ in parsed} == {"year", "citations", "position"}
    assert max(parsed.values()) == 1
    institutions = {key: n for key, n in required.items() if key[0] == "institution_id"}
    assert institutions and max(institutions.values()) == 1
    assert sum(parsed.values()) + len(institutions) < report.row_counts["bylines"]


def test_each_distinct_share_is_computed_once(census, monkeypatch):
    corpus, _ = load_corpus(*census, RunConfig())
    shares = counted(monkeypatch, indicators, "fractional_contribution",
                     lambda byline, position, convention: (
                         len(byline), byline[0].institution_id == byline[-1].institution_id,
                         position, convention))
    ledger = indicators.credit_ledger(corpus, compute_baselines(corpus.publications.values()))
    assert shares and max(shares.values()) == 1
    assert sum(shares.values()) < sum(row.papers for row in ledger)


def test_each_distinct_cohort_is_normalized_once(census, monkeypatch):
    corpus, _ = load_corpus(*census, RunConfig())
    impacts = counted(monkeypatch, indicators, "normalized_impact",
                      lambda pub, baselines: (pub.year, pub.citations, pub.subject_categories))
    indicators.credit_ledger(corpus, compute_baselines(corpus.publications.values()))
    credited = sum(any(entry.researcher_id is not None for entry in pub.byline)
                   for pub in corpus.publications.values())
    assert impacts and max(impacts.values()) == 1
    assert sum(impacts.values()) < credited


def test_each_rank_is_looked_up_once(census, monkeypatch):
    corpus, _ = load_corpus(*census, RunConfig())
    lookups = counted(monkeypatch, corpus_module.SalarySchedule, "lookup",
                      lambda schedule, rank: rank)
    indicators.credit_ledger(corpus, compute_baselines(corpus.publications.values()))
    scheduled = [r.rank for r in corpus.researchers.values() if r.salary_per_year is None]
    assert set(lookups) == set(scheduled)
    assert max(lookups.values()) == 1
    assert sum(lookups.values()) < len(scheduled)

"""Citation baselines and normalized impact."""

import pytest

from fsskit.corpus import Publication
from fsskit.errors import BaselineMissingError, LoadError
from fsskit.normalize import (compute_baselines, load_baselines, normalized_impact,
                              write_baselines)


def pub(pid, year, citations, *categories):
    return Publication(id=pid, year=year, citations=citations,
                       subject_categories=tuple(categories), byline=())


def test_baselines_from_tiny_corpus(tiny):
    table = compute_baselines(tiny.corpus.publications.values())
    # (2006, alg): p1=10 and p2=5 cited, p3 uncited -> mean 7.5 over 2.
    assert table.entries[(2006, "alg")] == (7.5, 2)
    # p4 is indexed in both categories and contributes to both cohorts.
    assert table.entries[(2007, "alg")] == (8.0, 1)
    assert table.entries[(2007, "bio")] == (6.0, 2)
    assert table.entries[(2008, "alg")] == (6.0, 1)
    assert table.cohorts() == [(2006, "alg"), (2007, "alg"), (2007, "bio"), (2008, "alg")]


def test_normalized_impact_values(tiny):
    table = compute_baselines(tiny.corpus.publications.values())
    pubs = tiny.corpus.publications
    assert normalized_impact(pubs["p1"], table) == pytest.approx(10 / 7.5, rel=1e-12)
    assert normalized_impact(pubs["p3"], table) == 0.0
    # Multi-category: unweighted mean of the per-category ratios.
    assert normalized_impact(pubs["p4"], table) == pytest.approx((8 / 6 + 8 / 8) / 2, rel=1e-12)


def test_uncited_never_touches_the_table():
    table = compute_baselines([pub("a", 2006, 3, "x")])
    orphan = pub("b", 1999, 0, "nowhere")
    assert normalized_impact(orphan, table) == 0.0


def test_missing_baseline_names_the_cohort():
    table = compute_baselines([pub("a", 2006, 3, "x")])
    stranger = pub("b", 2007, 5, "x")
    with pytest.raises(BaselineMissingError) as err:
        normalized_impact(stranger, table)
    assert "2007" in str(err.value)
    assert "x" in str(err.value)


def test_order_independence():
    pubs = [pub(f"p{i}", 2006 + i % 3, (i * 7) % 11, "c1", "c2") for i in range(40)]
    forward = compute_baselines(pubs)
    backward = compute_baselines(list(reversed(pubs)))
    assert forward.entries == backward.entries


def test_cited_cohort_mean_is_one():
    pubs = [pub(f"p{i}", 2006, c, "solo") for i, c in enumerate((1, 3, 3, 8, 0, 14))]
    table = compute_baselines(pubs)
    impacts = [normalized_impact(p, table) for p in pubs if p.citations > 0]
    assert sum(impacts) / len(impacts) == pytest.approx(1.0, abs=1e-12)


def test_round_trip(tiny, tmp_path):
    table = compute_baselines(tiny.corpus.publications.values())
    path = write_baselines(table, tmp_path / "baselines.csv")
    assert load_baselines(path).entries == table.entries


def test_load_rejects_bad_rows(tmp_path):
    path = tmp_path / "baselines.csv"
    path.write_text("year,category,c_bar,n_cited\n2006,alg,not_a_number,2\n")
    with pytest.raises(LoadError):
        load_baselines(path)
    path.write_text("year,category,c_bar,n_cited\n2006,alg,7.5,0\n")
    with pytest.raises(LoadError):
        load_baselines(path)
    path.write_text("year,category,c_bar,n_cited\n2006,alg,7.5,2\n2006,alg,7.5,2\n")
    with pytest.raises(LoadError) as err:
        load_baselines(path)
    assert "duplicate" in str(err.value)


def test_load_rejects_missing_columns(tmp_path):
    path = tmp_path / "baselines.csv"
    path.write_text("year,category\n2006,alg\n")
    with pytest.raises(LoadError):
        load_baselines(path)

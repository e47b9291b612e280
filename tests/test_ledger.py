"""The credit ledger behind every indicator.

Each score-set function groups the ledger the caller built once into its
level's units, so every unit a level should have must appear, and every
value must match the naive recomputation in oracles.py at the acceptance
tolerance. The tenure floor drops rows of that ledger, and the staff
floors count the rows it keeps.
"""

import pytest

from fsskit import indicators
from fsskit.config import ExclusionThresholds
from fsskit.errors import InputError
from fsskit.indicators import (apply_exclusions, compute_field_means, credit_ledger,
                               department_scores, researcher_scores, small_units,
                               staff_scores, staff_unit_id, university_scores)
from fsskit.normalize import compute_baselines

from oracles import ReferenceScores

REL = 1e-9


@pytest.fixture(scope="module")
def oracle(synth):
    return ReferenceScores(synth.corpus)


def check(batch, reference):
    """Batch entries match the oracle at REL."""
    for uid, value in batch.entries.items():
        assert value == pytest.approx(reference(uid), rel=REL), uid


def test_researcher_batch_matches_oracle(synth, oracle):
    corpus, ledger = synth.corpus, synth.ledger
    batch = researcher_scores(ledger)
    assert sorted(batch.entries) == sorted(corpus.researchers)
    check(batch, oracle.fss_r)


def test_staff_batch_matches_oracle(synth, oracle):
    corpus, ledger = synth.corpus, synth.ledger
    batch = staff_scores(ledger)
    units = {}
    for uid in batch.entries:
        inst, _, sds = uid.rpartition(":")
        units[uid] = (sds, inst)
    assert len(units) == len({(r.institution_id, r.sds_code)
                              for r in corpus.researchers.values()})
    check(batch, lambda uid: oracle.fss_s(*units[uid]))


def test_country_batch_matches_oracle(synth, oracle):
    corpus, ledger = synth.corpus, synth.ledger
    batch = staff_scores(ledger, national=True)
    sds_of = {staff_unit_id(None, sds): sds for sds in corpus.taxonomy.uda_of_sds}
    assert set(batch.entries) == set(sds_of)
    check(batch, lambda uid: oracle.fss_s(sds_of[uid], None))


def test_department_batch_matches_oracle(synth, oracle):
    ledger, means = synth.ledger, synth.means
    batch = department_scores(ledger, means)
    assert sorted(batch.entries) == sorted({r.department_id for r in ledger if r.department_id})
    check(batch, oracle.fss_d)


@pytest.mark.parametrize("uda", [None, "first"])
def test_university_batch_matches_oracle(synth, oracle, uda):
    corpus, ledger, means = synth.corpus, synth.ledger, synth.means
    if uda == "first":
        uda = sorted(set(corpus.taxonomy.uda_of_sds.values()))[0]
    references = {"fss_u": oracle.fss_u, "p_u": oracle.p_u, "fp_u": oracle.fp_u}
    expected_units = sorted({r.institution_id for r in corpus.researchers.values()
                             if uda is None or corpus.taxonomy.uda_of_sds[r.sds_code] == uda})
    for indicator, reference in references.items():
        batch = university_scores(ledger, means, indicator, uda)
        assert sorted(batch.entries) == expected_units
        check(batch, lambda inst: reference(inst, uda))


def test_field_means_match_oracle(synth, oracle):
    means = synth.means
    for ours, theirs in ((means["fss_r"], oracle.fss_r_means()),
                         (means["fss_s"], oracle.fss_s_means()),
                         (means["q"], oracle.mean_over_productive(oracle.q)),
                         (means["fq"], oracle.mean_over_productive(oracle.fq))):
        assert set(ours) == set(theirs)
        for sds, value in ours.items():
            assert value == pytest.approx(theirs[sds], rel=REL), sds


def test_ledger_normalizes_each_publication_once(tiny, monkeypatch):
    corpus = tiny.corpus
    baselines = compute_baselines(corpus.publications.values())
    calls = []
    real = indicators.normalized_impact
    monkeypatch.setattr(indicators, "normalized_impact",
                        lambda pub, table: calls.append(pub.id) or real(pub, table))

    ledger = credit_ledger(corpus, baselines)
    means = compute_field_means(ledger)
    researcher_scores(ledger)
    staff_scores(ledger)
    staff_scores(ledger, national=True)
    department_scores(ledger, means)
    for indicator in ("fss_u", "p_u", "fp_u"):
        university_scores(ledger, means, indicator)
    # One impact evaluation per publication with a census author, however
    # many census authors it has and whatever the number of levels.
    with_census_author = [pid for pid, pub in corpus.publications.items()
                          if any(a.researcher_id in corpus.researchers for a in pub.byline)]
    assert sorted(calls) == sorted(with_census_author)
    assert sum(1 for pub in corpus.publications.values() for a in pub.byline
               if a.researcher_id in corpus.researchers) > len(calls)

    # The ledger is a plain value: building it again gives equal rows.
    assert credit_ledger(corpus, compute_baselines(corpus.publications.values())) == ledger


def test_replaced_corpus_starts_without_ledger(tiny):
    corpus = tiny.corpus
    baselines = compute_baselines(corpus.publications.values())
    before = researcher_scores(credit_ledger(corpus, baselines))
    r1 = corpus.researchers["r1"]._replace(salary_per_year=2 * 40000.0)
    scaled = corpus._replace(researchers={**corpus.researchers, "r1": r1})
    after = researcher_scores(credit_ledger(scaled, baselines))
    assert after.entries["r1"] * 2 == pytest.approx(before.entries["r1"], rel=1e-12)
    assert after.entries["r2"] == before.entries["r2"]


def test_first_rank_missing_from_the_schedule_in_id_order_is_named(tiny):
    # Each rank is looked up once, at the first researcher who holds it, so
    # the rank named is still that of the first such researcher by id,
    # whatever the order of the researcher table.
    corpus = tiny.corpus
    researchers = {**corpus.researchers,
                   "r2": corpus.researchers["r2"]._replace(rank="emeritus"),
                   "r4": corpus.researchers["r4"]._replace(rank="dean")}
    reversed_table = corpus._replace(researchers=dict(reversed(researchers.items())))
    with pytest.raises(InputError, match="rank 'emeritus' not present in the salary schedule"):
        credit_ledger(reversed_table, compute_baselines(corpus.publications.values()))


def thresholds(min_years=0.0, min_staff_uda=0, min_staff_total=0):
    """Exclusion thresholds with every floor not named switched off."""
    return ExclusionThresholds(min_years, min_staff_uda, min_staff_total)


def ledger_of(corpus):
    return credit_ledger(corpus, compute_baselines(corpus.publications.values()))


def test_exclusions_drop_short_tenure(tiny):
    corpus = tiny.corpus
    ledger = ledger_of(corpus)
    kept, excluded = apply_exclusions(ledger, thresholds(min_years=3))
    assert [row.id for row in kept] == ["r1", "r2", "r3", "r5"]
    assert excluded == [("r4", "years_in_window 2.0 < 3")]
    # Publications stay; the excluded researcher's byline rows untouched.
    assert corpus.publications["p4"].byline[2].researcher_id == "r4"
    assert "r4" not in {row.id for row in kept}
    # Row for row, the kept rows are the ledger of the census without r4:
    # its byline entries still count toward every share, and impact is per
    # publication, so no other row moves.
    filtered = corpus._replace(researchers={
        rid: r for rid, r in corpus.researchers.items() if rid != "r4"})
    assert kept == ledger_of(filtered)


def test_exclusions_idempotent(tiny):
    floors = thresholds(min_years=3)
    once, _ = apply_exclusions(ledger_of(tiny.corpus), floors)
    twice, excluded = apply_exclusions(once, floors)
    assert twice == once
    assert excluded == []


def test_negative_thresholds_rejected(tiny):
    with pytest.raises(InputError):
        apply_exclusions(ledger_of(tiny.corpus), thresholds(min_years=-1))


def floored(ledger, min_years=0.0, min_staff_uda=0, min_staff_total=0):
    """The ledger rows left by the tenure floor, and the units among them
    under the staff floors; every floor not named is switched off."""
    floors = thresholds(min_years, min_staff_uda, min_staff_total)
    kept, _ = apply_exclusions(ledger, floors)
    return kept, small_units(kept, floors)


def test_exclusions_flag_small_units(tiny):
    kept, (pairs, institutions) = floored(ledger_of(tiny.corpus), min_staff_uda=2,
                                          min_staff_total=3)
    # UB has 3 staff but only 1 in MATH; UA has 2 total.
    assert ("UB", "MATH") in pairs
    assert ("UA", "MATH") not in pairs
    assert institutions == ["UA"]
    # The floors gate rankings only: all researchers are still present.
    assert [row.id for row in kept] == sorted(tiny.corpus.researchers)


def test_staff_counted_after_tenure_filter(tiny):
    # r4 is dropped by min_years first, leaving UB-BIO with one researcher.
    _, (pairs, _) = floored(ledger_of(tiny.corpus), min_years=3, min_staff_uda=2)
    assert ("UB", "BIO") in pairs


def test_staff_floors_idempotent(tiny):
    floors = {"min_years": 3, "min_staff_uda": 2, "min_staff_total": 3}
    once, first = floored(ledger_of(tiny.corpus), **floors)
    _, second = floored(once, **floors)
    assert second == first

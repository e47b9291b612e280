"""The credit ledger behind every batch indicator.

Batch functions reduce one ledger per corpus; the per-unit functions build
their members' rows on their own. Both sum the same terms with math.fsum,
so every batch value must equal the per-unit value exactly, and both must
match the naive recomputation in oracles.py at the acceptance tolerance.
"""

import dataclasses

import pytest

from fsskit import indicators
from fsskit.config import build_schemes
from fsskit.indicators import (compute_field_means, country_staff_scores, credit_ledger,
                               department_scores, fp_u, fss_d, fss_r, fss_s, fss_u, p_u,
                               researcher_scores, staff_scores, staff_unit_id,
                               university_scores)
from fsskit.normalize import compute_baselines

from oracles import ReferenceScores

REL = 1e-9


@pytest.fixture(scope="module")
def oracle(synth):
    return ReferenceScores(synth.corpus)


def check(batch, per_unit, reference):
    """Batch entries equal the per-unit values exactly and the oracle at REL."""
    assert batch.entries == {uid: per_unit(uid) for uid in batch.entries}
    for uid, value in batch.entries.items():
        assert value == pytest.approx(reference(uid), rel=REL), uid


def test_researcher_batch_matches_per_unit_and_oracle(synth, oracle):
    corpus, baselines, schemes = synth.corpus, synth.baselines, synth.schemes
    batch = researcher_scores(corpus, baselines, schemes)
    assert sorted(batch.entries) == sorted(corpus.researchers)
    check(batch, lambda rid: fss_r(corpus, baselines, schemes, rid), oracle.fss_r)


def test_staff_batch_matches_per_unit_and_oracle(synth, oracle):
    corpus, baselines, schemes = synth.corpus, synth.baselines, synth.schemes
    batch = staff_scores(corpus, baselines, schemes)
    units = {}
    for uid in batch.entries:
        inst, _, sds = uid.rpartition(":")
        units[uid] = (sds, inst)
    assert len(units) == len({(r.institution_id, r.sds_code)
                              for r in corpus.researchers.values()})
    check(batch, lambda uid: fss_s(corpus, baselines, schemes, *units[uid]),
          lambda uid: oracle.fss_s(*units[uid]))


def test_country_batch_matches_per_unit_and_oracle(synth, oracle):
    corpus, baselines, schemes = synth.corpus, synth.baselines, synth.schemes
    batch = country_staff_scores(corpus, baselines, schemes)
    sds_of = {staff_unit_id(None, sds): sds for sds in corpus.taxonomy.sds_codes()}
    assert set(batch.entries) == set(sds_of)
    assert batch.metadata == {"scope": "country"}
    check(batch, lambda uid: fss_s(corpus, baselines, schemes, sds_of[uid], None),
          lambda uid: oracle.fss_s(sds_of[uid], None))


def test_department_batch_matches_per_unit_and_oracle(synth, oracle):
    corpus, baselines, schemes, means = synth.corpus, synth.baselines, synth.schemes, synth.means
    batch = department_scores(corpus, baselines, schemes, means)
    assert sorted(batch.entries) == corpus.departments()
    check(batch, lambda dept: fss_d(corpus, baselines, schemes, means, dept), oracle.fss_d)


@pytest.mark.parametrize("uda", [None, "first"])
def test_university_batch_matches_per_unit_and_oracle(synth, oracle, uda):
    corpus, baselines, schemes, means = synth.corpus, synth.baselines, synth.schemes, synth.means
    if uda == "first":
        uda = sorted(set(corpus.taxonomy.uda_of_sds.values()))[0]
    per_unit = {
        "fss_u": (lambda inst: fss_u(corpus, baselines, schemes, means, inst, uda),
                  lambda inst: oracle.fss_u(inst, uda)),
        "p_u": (lambda inst: p_u(corpus, means, inst, uda),
                lambda inst: oracle.p_u(inst, uda)),
        "fp_u": (lambda inst: fp_u(corpus, schemes, means, inst, uda),
                 lambda inst: oracle.fp_u(inst, uda)),
    }
    expected_units = sorted({r.institution_id for r in corpus.researchers.values()
                             if uda is None or corpus.uda_of(r) == uda})
    for indicator, (unit_value, reference) in per_unit.items():
        batch = university_scores(corpus, baselines, schemes, means, indicator, uda)
        assert sorted(batch.entries) == expected_units
        check(batch, unit_value, reference)


def test_field_means_match_oracle(synth, oracle):
    means = synth.means
    for ours, theirs in ((means.fss_r, oracle.fss_r_means()),
                         (means.fss_s, oracle.fss_s_means()),
                         (means.q, oracle.mean_over_productive(oracle.q)),
                         (means.fq, oracle.mean_over_productive(oracle.fq))):
        assert set(ours) == set(theirs)
        for sds, value in ours.items():
            assert value == pytest.approx(theirs[sds], rel=REL), sds


def test_ledger_built_once_per_corpus(tiny, monkeypatch):
    corpus = tiny.corpus
    baselines = compute_baselines(corpus.publications)
    schemes = build_schemes(corpus.taxonomy)
    calls = []
    real = indicators.normalized_impact
    monkeypatch.setattr(indicators, "normalized_impact",
                        lambda pub, table: calls.append(pub.id) or real(pub, table))

    means = compute_field_means(corpus, baselines, schemes)
    researcher_scores(corpus, baselines, schemes)
    staff_scores(corpus, baselines, schemes)
    country_staff_scores(corpus, baselines, schemes)
    department_scores(corpus, baselines, schemes, means)
    for indicator in ("fss_u", "p_u", "fp_u"):
        university_scores(corpus, baselines, schemes, means, indicator)
    # One impact evaluation per census byline row, whatever the number of levels.
    census_rows = sum(1 for pub in corpus.publications.values() for a in pub.byline
                      if a.researcher_id in corpus.researchers)
    assert len(calls) == census_rows

    # An equal scheme set reuses the ledger; another baseline table rebuilds it.
    assert credit_ledger(corpus, baselines, dict(schemes)) is credit_ledger(
        corpus, baselines, schemes)
    other = compute_baselines(corpus.publications)
    rows = credit_ledger(corpus, other, schemes)
    assert len(calls) == 2 * census_rows
    assert rows == credit_ledger(corpus, baselines, schemes)


def test_replaced_corpus_starts_without_ledger(tiny):
    corpus = tiny.corpus
    baselines = compute_baselines(corpus.publications)
    schemes = build_schemes(corpus.taxonomy)
    before = researcher_scores(corpus, baselines, schemes)
    r1 = dataclasses.replace(corpus.researchers["r1"],
                             salary_per_year=2 * 40000.0)
    scaled = dataclasses.replace(corpus, researchers={**corpus.researchers, "r1": r1})
    after = researcher_scores(scaled, baselines, schemes)
    assert after.entries["r1"] * 2 == pytest.approx(before.entries["r1"], rel=1e-12)
    assert after.entries["r2"] == before.entries["r2"]

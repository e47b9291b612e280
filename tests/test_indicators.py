"""Indicator values on the hand-checked tiny corpus, plus batch behavior.

Expected values are frozen here as exact fractions, derived by hand from
the fixture rows before the implementation ran (see the derivation
comments). The library computes in floats, so comparisons allow 1e-12
relative error.

Tiny-corpus ground truth used below:

  baselines   (2006,alg)=7.5  (2007,alg)=8  (2007,bio)=6  (2008,alg)=6
  impacts     p1=4/3  p2=2/3  p3=0  p4=(8/6+1)/2=7/6  p5=2/3  p7=1
  credit      p1: r1=1          p2 (alphabetical, n=3): r1=r2=1/3
              p3: r2=1          p4 (weighted intramural, n=3): r3=r4=0.4
              p5 (weighted extramural, n=3): r3=1/3
              p7 (alphabetical, n=2): r5=r1=1/2
  salaries    r1=40000  r2=70000 (band mean)  r3=90000 (explicit)
              r4=40000  r5=40000
  outputs     r1=4/3+2/9+1/2=37/18   r2=2/9   r3=7/15+2/9=31/45
              r4=7/15                r5=1/2
"""

import dataclasses
from fractions import Fraction as F

import pytest

from fsskit.corpus import Corpus
from fsskit.errors import ComputationError
from fsskit.indicators import (FieldMeans, compute_field_means, country_staff_scores,
                               credit_ledger, department_scores, researcher_scores,
                               staff_scores, staff_unit_id, standardized_scores,
                               university_scores)
from fsskit.normalize import compute_baselines

# fss_r = output / (salary * years)
FSS_R = {
    "r1": F(37, 18) / 200000,
    "r2": F(2, 9) / 280000,
    "r3": F(31, 45) / 450000,
    "r4": F(7, 15) / 80000,
    "r5": F(1, 2) / 200000,
}
# fss_s = sum of member outputs / sum of member salary*years
FSS_S = {
    ("UA", "MAT01"): F(41, 18) / 480000,   # (37/18 + 2/9) / (200000 + 280000)
    ("UB", "MAT01"): F(1, 2) / 200000,
    ("UB", "BIO01"): F(52, 45) / 530000,   # (31/45 + 7/15) / (450000 + 80000)
}
MEAN_R_MAT = (FSS_R["r1"] + FSS_R["r2"] + FSS_R["r5"]) / 3
MEAN_R_BIO = (FSS_R["r3"] + FSS_R["r4"]) / 2
# Cost-weighted national staff means: MAT = (41/18 + 1/2) / 680000 = (25/9)/680000.
MEAN_S_MAT = F(25, 9) / 680000
MEAN_S_BIO = FSS_S[("UB", "BIO01")]

FSS_D = {
    "UA-M": (FSS_R["r1"] / MEAN_R_MAT + FSS_R["r2"] / MEAN_R_MAT) / 2,  # = 279/228
    "UB-M": FSS_R["r5"] / MEAN_R_MAT,                                   # = 63/114
    "UB-B": F(1),  # both field members in one department standardize to 1
}
FSS_U = {
    # UA has only MAT staff: its staff score over the national mean.
    "UA": FSS_S[("UA", "MAT01")] / MEAN_S_MAT,                          # = 25092/21600
    # UB: MAT share 200000/730000 at ratio 0.612, BIO share 530000/730000 at ratio 1.
    "UB": (FSS_S[("UB", "MAT01")] / MEAN_S_MAT) * F(20, 73) + F(53, 73),
}
# Publication rates: r1=3/5 r2=1/2 r3=2/5 r4=1/2 r5=1/5; field means 13/30 and 9/20.
P_U = {"UA": F(33, 26), "UB": F(32, 39)}
# Fractional rates: r1=11/30 r2=1/3 r3=11/75 r4=1/5 r5=1/10; means 4/15 and 13/75.
FP_U = {"UA": F(21, 16), "UB": F(19, 24)}


@pytest.fixture
def ledger(tiny):
    return credit_ledger(tiny.corpus, compute_baselines(tiny.corpus.publications.values()))


def test_fss_r_matches_hand_derivation(ledger):
    entries = researcher_scores(ledger).entries
    for rid, expected in FSS_R.items():
        assert entries[rid] == pytest.approx(float(expected), rel=1e-12), rid


def test_fss_s_matches_hand_derivation(ledger):
    entries = staff_scores(ledger).entries
    for (inst, sds), expected in FSS_S.items():
        assert entries[staff_unit_id(inst, sds)] == pytest.approx(
            float(expected), rel=1e-12), (inst, sds)


def test_country_staff_score_is_cost_weighted_mean(ledger):
    # National output over national cost equals the cost-weighted mean of
    # the university staff scores when every university is productive.
    assert country_staff_scores(ledger).entries[staff_unit_id(None, "MAT01")] == pytest.approx(
        float(MEAN_S_MAT), rel=1e-12)


def test_field_means(ledger):
    means = compute_field_means(ledger)
    assert means.fss_r["MAT01"] == pytest.approx(float(MEAN_R_MAT), rel=1e-12)
    assert means.fss_r["BIO01"] == pytest.approx(float(MEAN_R_BIO), rel=1e-12)
    assert means.fss_s["MAT01"] == pytest.approx(float(MEAN_S_MAT), rel=1e-12)
    assert means.fss_s["BIO01"] == pytest.approx(float(MEAN_S_BIO), rel=1e-12)
    assert means.q["MAT01"] == pytest.approx(13 / 30, rel=1e-12)
    assert means.q["BIO01"] == pytest.approx(9 / 20, rel=1e-12)
    assert means.fq["MAT01"] == pytest.approx(4 / 15, rel=1e-12)
    assert means.fq["BIO01"] == pytest.approx(13 / 75, rel=1e-12)


def test_fss_d_matches_hand_derivation(ledger):
    entries = department_scores(ledger, compute_field_means(ledger)).entries
    for dept, expected in FSS_D.items():
        assert entries[dept] == pytest.approx(float(expected), rel=1e-12), dept


def test_fss_u_matches_hand_derivation(ledger):
    entries = university_scores(ledger, compute_field_means(ledger)).entries
    for inst, expected in FSS_U.items():
        assert entries[inst] == pytest.approx(float(expected), rel=1e-12), inst


def test_fss_u_restricted_to_one_discipline(ledger):
    means = compute_field_means(ledger)
    # Within MATH only, UB's single field takes the whole cost share.
    expected = FSS_S[("UB", "MAT01")] / MEAN_S_MAT
    assert university_scores(ledger, means, "fss_u", "MATH").entries["UB"] == pytest.approx(
        float(expected), rel=1e-12)


def test_rate_indicators_match_hand_derivation(ledger):
    means = compute_field_means(ledger)
    p_u = university_scores(ledger, means, "p_u").entries
    fp_u = university_scores(ledger, means, "fp_u").entries
    for inst in ("UA", "UB"):
        assert p_u[inst] == pytest.approx(float(P_U[inst]), rel=1e-12)
        assert fp_u[inst] == pytest.approx(float(FP_U[inst]), rel=1e-12)


def test_batch_sets_cover_all_units(ledger):
    means = compute_field_means(ledger)
    individual = researcher_scores(ledger)
    assert sorted(individual.entries) == ["r1", "r2", "r3", "r4", "r5"]
    assert individual.sds_of_unit["r3"] == "BIO01"
    staff = staff_scores(ledger)
    assert sorted(staff.entries) == [
        staff_unit_id("UA", "MAT01"), staff_unit_id("UB", "BIO01"),
        staff_unit_id("UB", "MAT01"),
    ]
    depts = department_scores(ledger, means)
    assert sorted(depts.entries) == ["UA-M", "UB-B", "UB-M"]
    unis = university_scores(ledger, means)
    assert sorted(unis.entries) == ["UA", "UB"]


def test_missing_field_mean_is_named(ledger):
    empty = FieldMeans(fss_r={}, fss_s={}, q={}, fq={})
    with pytest.raises(ComputationError, match="no national fss_r mean for field 'MAT01'") as err:
        department_scores(ledger, empty)
    assert "MAT01" in str(err.value)


@pytest.fixture
def idle_field(tiny):
    """The tiny census plus field IDL01 (discipline MATH), whose one member,
    z1 at UA in department UA-M, has no publication: no productive unit, so
    no national mean, in that field."""
    corpus = tiny.corpus
    taxonomy = dataclasses.replace(
        corpus.taxonomy,
        uda_of_sds={**corpus.taxonomy.uda_of_sds, "IDL01": "MATH"},
        convention_of_sds={**corpus.taxonomy.convention_of_sds, "IDL01": "alphabetical"})
    z1 = dataclasses.replace(corpus.researchers["r1"], id="z1", name="Zed", sds_code="IDL01")
    idle = dataclasses.replace(corpus, taxonomy=taxonomy,
                               researchers={**corpus.researchers, "z1": z1})
    return credit_ledger(idle, compute_baselines(idle.publications.values()))


def test_unproductive_field_has_no_mean(ledger, idle_field):
    means = compute_field_means(idle_field)
    assert "IDL01" not in means.fss_r and "IDL01" not in means.fss_s
    assert means == compute_field_means(ledger)


# z1 adds a zero term to UA and UA-M, one head to each, and 200000 to UA's cost.
def test_unproductive_field_adds_zero_to_department(idle_field):
    depts = department_scores(idle_field, compute_field_means(idle_field)).entries
    assert depts["UA-M"] == pytest.approx(float(FSS_D["UA-M"] * F(2, 3)), rel=1e-12)
    assert depts["UB-M"] == pytest.approx(float(FSS_D["UB-M"]), rel=1e-12)


@pytest.mark.parametrize("indicator, expected", [
    ("fss_u", FSS_U["UA"] * F(480, 680)),
    ("p_u", P_U["UA"] * F(2, 3)),
    ("fp_u", FP_U["UA"] * F(2, 3)),
])
def test_unproductive_field_adds_zero_to_university(idle_field, indicator, expected):
    means = compute_field_means(idle_field)
    scores = university_scores(idle_field, means, indicator).entries
    assert scores["UA"] == pytest.approx(float(expected), rel=1e-12)
    restricted = university_scores(idle_field, means, indicator, "MATH").entries
    assert restricted["UA"] == scores["UA"]


def test_unproductive_field_standardizes_to_zero(idle_field):
    means = compute_field_means(idle_field)
    researchers = standardized_scores(researcher_scores(idle_field), means)
    assert researchers.entries["z1"] == 0.0
    assert researchers.entries["r1"] == pytest.approx(float(FSS_R["r1"] / MEAN_R_MAT), rel=1e-12)
    staff = standardized_scores(staff_scores(idle_field), means)
    assert staff.entries[staff_unit_id("UA", "IDL01")] == 0.0


def test_nonzero_value_without_field_mean_is_named(idle_field):
    means = compute_field_means(idle_field)
    assert means.standardize("fss_r", "IDL01", 0.0) == 0.0
    with pytest.raises(ComputationError, match="no national fss_r mean for field 'IDL01'") as err:
        means.standardize("fss_r", "IDL01", 1e-6)
    assert "IDL01" in str(err.value)
    scores = researcher_scores(idle_field)
    scores.entries["z1"] = 1e-6
    with pytest.raises(ComputationError, match="no national fss_r mean for field 'IDL01'") as err:
        standardized_scores(scores, means)
    assert "IDL01" in str(err.value)


def test_nonpositive_years_rejected_at_scoring(tiny):
    corpus = tiny.corpus
    broken = dataclasses.replace(corpus.researchers["r1"], years_in_window=0.0)
    patched = Corpus(
        researchers={**corpus.researchers, "r1": broken},
        publications=corpus.publications,
        taxonomy=corpus.taxonomy,
        salaries=corpus.salaries,
    )
    with pytest.raises(ComputationError):
        credit_ledger(patched, compute_baselines(corpus.publications.values()))

"""Fractional authorship credit: named fixtures and random properties."""

import dataclasses
import random

import pytest

from fsskit.corpus import Authorship, FieldTaxonomy
from fsskit.credit import ALPHABETICAL, POSITION_WEIGHTED, byline_weights, fractional_contribution
from fsskit.indicators import researcher_scores
from fsskit.normalize import compute_baselines

from oracles import reference_byline_weights

PW = POSITION_WEIGHTED
ALPHA = ALPHABETICAL


def byline(*institutions):
    return tuple(Authorship(position=i + 1, institution_id=inst)
                 for i, inst in enumerate(institutions))


def test_single_author_gets_everything():
    assert byline_weights(byline("U"), PW) == [1.0]
    assert byline_weights(byline("U"), ALPHA) == [1.0]


def test_alphabetical_is_uniform():
    for n in range(1, 9):
        weights = byline_weights(byline(*["U"] * n), ALPHA)
        assert weights == [pytest.approx(1.0 / n)] * n


def test_two_authors_always_split_evenly():
    assert byline_weights(byline("U", "U"), PW) == pytest.approx([0.5, 0.5], abs=1e-12)
    assert byline_weights(byline("U", "V"), PW) == pytest.approx([0.5, 0.5], abs=1e-12)


def test_three_authors_intramural():
    weights = byline_weights(byline("U", "V", "U"), PW)
    assert weights == pytest.approx([0.40, 0.20, 0.40], abs=1e-12)


def test_three_authors_extramural_collapses_to_thirds():
    # The single middle author holds both the second and the second-to-last
    # role, so all named weights renormalize to an even split.
    weights = byline_weights(byline("U", "V", "W"), PW)
    assert weights == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-12)


def test_four_authors_extramural():
    weights = byline_weights(byline("U", "V", "W", "X"), PW)
    assert weights == pytest.approx([1 / 3, 1 / 6, 1 / 6, 1 / 3], abs=1e-12)


def test_five_authors_intramural():
    weights = byline_weights(byline("U", "A", "B", "C", "U"), PW)
    assert weights == pytest.approx([0.40, 0.2 / 3, 0.2 / 3, 0.2 / 3, 0.40], abs=1e-12)


def test_six_authors_extramural():
    weights = byline_weights(byline("U", "A", "B", "C", "D", "E"), PW)
    assert weights == pytest.approx([0.30, 0.15, 0.05, 0.05, 0.15, 0.30], abs=1e-12)


def test_weights_sum_to_one_and_match_reference():
    rng = random.Random(4712)
    pool = ["U1", "U2", "U3"]
    for _ in range(2000):
        n = rng.randint(1, 12)
        institutions = [rng.choice(pool) for _ in range(n)]
        convention = rng.choice((PW, ALPHA))
        weights = byline_weights(byline(*institutions), convention)
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        assert all(w >= 0 for w in weights)
        expected = reference_byline_weights(institutions, convention)
        assert weights == pytest.approx(expected, abs=1e-12)


def test_fractional_contribution_indexes_one_based():
    bl = byline("U", "V", "W", "X")
    weights = byline_weights(bl, PW)
    for position in range(1, 5):
        assert fractional_contribution(bl, position, PW) == weights[position - 1]


def test_fractional_contribution_rejects_bad_position():
    bl = byline("U", "V")
    with pytest.raises(ValueError):
        fractional_contribution(bl, 0, PW)
    with pytest.raises(ValueError):
        fractional_contribution(bl, 3, PW)


def test_empty_byline_rejected():
    with pytest.raises(ValueError):
        byline_weights((), PW)


def test_unknown_convention_is_refused(tiny):
    for institutions in (("U",), ("U", "V"), ("U", "A", "B", "C", "V")):
        bl = byline(*institutions)
        with pytest.raises(ValueError, match="nonsense"):
            byline_weights(bl, "nonsense")
        for position in range(1, len(bl) + 1):
            with pytest.raises(ValueError, match="nonsense"):
                fractional_contribution(bl, position, "nonsense")

    # A taxonomy built in code skips the loader's check; scoring must still
    # refuse the field rather than credit it under some other convention.
    corpus = tiny.corpus
    taxonomy = FieldTaxonomy(uda_of_sds=corpus.taxonomy.uda_of_sds,
                             convention_of_sds={**corpus.taxonomy.convention_of_sds,
                                                "BIO01": "life_sciences"})
    broken = dataclasses.replace(corpus, taxonomy=taxonomy)
    with pytest.raises(ValueError, match="life_sciences"):
        researcher_scores(broken, compute_baselines(corpus.publications))

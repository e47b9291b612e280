"""Synthetic census generator: determinism, shape, and count distribution."""

from collections import Counter

import pytest

from fsskit import synth
from fsskit.cli import build_parser, main
from fsskit.config import RunConfig
from fsskit.errors import InputError
from fsskit.synth import SynthParams, generate_synthetic_corpus, lotka_pmf

from oracles import CHI2_CRIT_001, chi_square_statistic, merge_tail_bins


def test_same_seed_same_corpus():
    a = generate_synthetic_corpus(99)
    b = generate_synthetic_corpus(99)
    assert a.researchers == b.researchers
    assert a.publications == b.publications


def test_different_seed_different_corpus():
    a = generate_synthetic_corpus(1)
    b = generate_synthetic_corpus(2)
    assert a.publications != b.publications


def test_default_shape(synth_corpus):
    assert len(synth_corpus.researchers) == 500
    assert len({r.sds_code for r in synth_corpus.researchers.values()}) == 5
    assert len(synth_corpus.institutions()) == 8
    assert 2000 < len(synth_corpus.publications) < 4500


def test_publications_well_formed(synth_corpus):
    start, end = RunConfig().window
    for pub in synth_corpus.publications.values():
        assert start <= pub.year <= end
        assert pub.citations >= 0
        assert pub.subject_categories
        positions = [a.position for a in pub.byline]
        assert positions == list(range(1, len(positions) + 1))
        census = [a.researcher_id for a in pub.byline if a.researcher_id]
        assert census, "every publication is anchored on a census researcher"
        assert len(census) == len(set(census))
        for rid in census:
            assert rid in synth_corpus.researchers


def test_both_conventions_present(synth_corpus):
    kinds = set(synth_corpus.taxonomy.convention_of_sds.values())
    assert kinds == {"alphabetical", "position_weighted"}


def test_banded_rank_occurs(synth_corpus):
    # The schedule's banded-only rank must appear so the mean fallback runs.
    assert any(r.rank == "associate" and r.salary_per_year is None
               for r in synth_corpus.researchers.values())


def test_paper_counts_follow_power_law(monkeypatch):
    # With census co-authorship off, each researcher's publication count is
    # exactly their own draw from the truncated power law.
    monkeypatch.setattr(synth, "COAUTHOR_CENSUS_PROB", 0.0)
    monkeypatch.setattr(synth, "FRACTION_INACTIVE", 0.0)
    params = SynthParams(n_researchers=2000, max_papers=30)
    corpus = generate_synthetic_corpus(314, params)
    counts = Counter()
    for pub in corpus.publications.values():
        anchors = [a.researcher_id for a in pub.byline if a.researcher_id]
        assert len(anchors) == 1
        counts[anchors[0]] += 1
    observed_by_k = Counter(counts[rid] for rid in corpus.researchers)
    assert observed_by_k[0] == 0

    pmf = lotka_pmf(synth.LOTKA_ALPHA, params.max_papers)
    n = len(corpus.researchers)
    observed = [observed_by_k.get(k, 0) for k in range(1, params.max_papers + 1)]
    expected = [n * p for p in pmf]
    merged_obs, merged_exp = merge_tail_bins(observed, expected)
    statistic = chi_square_statistic(merged_obs, merged_exp)
    df = len(merged_obs) - 1
    assert df in CHI2_CRIT_001, f"no critical value tabulated for df={df}"
    assert statistic < CHI2_CRIT_001[df], (
        f"chi-square {statistic:.2f} exceeds the 0.001 critical value "
        f"{CHI2_CRIT_001[df]} at df={df}"
    )


def test_degenerate_params_rejected():
    with pytest.raises(InputError):
        generate_synthetic_corpus(0, SynthParams(n_researchers=0))
    with pytest.raises(InputError):
        generate_synthetic_corpus(0, SynthParams(max_papers=0))


def test_synth_flags_set_every_param():
    # SynthParams holds exactly the settings `fsskit synth` takes, each with
    # the flag's default; everything else in the generator is a constant.
    args = vars(build_parser().parse_args(["synth", "--out", "census"]))
    flags = {dest: value for dest, value in args.items()
             if dest not in ("command", "func", "seed", "out")}
    assert flags == SynthParams()._asdict()
    assert SynthParams._fields == ("n_researchers", "n_institutions", "n_sds", "max_papers")


@pytest.mark.parametrize("flag", ["--alpha=2", "--single-category"])
def test_fixed_settings_have_no_flag(tmp_path, capsys, flag):
    # The power law's exponent and the second-category draw are constants.
    with pytest.raises(SystemExit) as exit_:
        main(["synth", flag, "--out", str(tmp_path / "census")])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("n", [1, 2])
def test_census_smaller_than_a_byline(n):
    # A census co-author draw asks for up to three researchers.
    for seed in range(20):
        corpus = generate_synthetic_corpus(seed, SynthParams(n_researchers=n))
        assert len(corpus.researchers) == n


def test_pmf_normalized():
    pmf = lotka_pmf(2.0, 25)
    assert sum(pmf) == pytest.approx(1.0, abs=1e-12)
    assert all(a > b for a, b in zip(pmf, pmf[1:]))

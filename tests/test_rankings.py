"""Ranking mechanics: percentiles, ties, correlation, comparison stats."""

import math
import random

import pytest

from fsskit.errors import ComputationError, InputError, LoadError
from fsskit.indicators import CreditRow, standardized_scores
from fsskit.rankings import (RankedEntry, RankedList, average_ranks, compare_rankings,
                             quartile_size, rank_scores, read_rankings,
                             spearman_rho, write_comparison, write_rankings)
from oracles import reference_spearman_distinct

def ranked(scores_desc):
    """Build a RankedList from distinct scores already in rank order."""
    n = len(scores_desc)
    return RankedList(entries=[
        RankedEntry(unit_id=uid, score=s, rank=i + 1, percentile=100.0 * (n - i - 1) / n)
        for i, (uid, s) in enumerate(scores_desc)
    ])


# ---------------------------------------------------------------------------
# Percentile rank and quartiles
# ---------------------------------------------------------------------------

def percentile_of(scores, value):
    """The percentile rank_scores gives the unit scoring ``value``."""
    rl = rank_scores({f"u{i}": s for i, s in enumerate(scores)})
    return next(e.percentile for e in rl.entries if e.score == value)


def test_percentile_anchor_third_of_ten():
    scores = list(range(10, 0, -1))  # 10..1, third best is 8
    assert percentile_of(scores, 8) == 70.0


def test_percentile_anchor_third_of_hundred():
    scores = list(range(100, 0, -1))
    assert percentile_of(scores, 98) == 97.0


def test_percentile_bottom_and_top():
    scores = [5.0, 3.0, 1.0]
    assert percentile_of(scores, 1.0) == 0.0
    assert percentile_of(scores, 5.0) == pytest.approx(200 / 3)


def test_quartile_sizes():
    assert [quartile_size(n) for n in (42, 43, 50, 61)] == [11, 11, 13, 16]
    assert quartile_size(0) == 0
    assert quartile_size(1) == 1
    with pytest.raises(InputError):
        quartile_size(-1)


# ---------------------------------------------------------------------------
# rank_scores
# ---------------------------------------------------------------------------

def test_rank_scores_with_ties():
    rl = rank_scores({"a": 3.0, "b": 5.0, "c": 3.0, "d": 1.0})
    assert [e.unit_id for e in rl.entries] == ["b", "a", "c", "d"]
    assert {e.unit_id: e.rank for e in rl.entries} == {"b": 1, "a": 2, "c": 2, "d": 4}
    by_id = {e.unit_id: e.percentile for e in rl.entries}
    assert by_id == {"b": 75.0, "a": 25.0, "c": 25.0, "d": 0.0}


def test_rank_scores_excludes_units():
    rl = rank_scores({"a": 3.0, "b": 5.0, "c": 1.0}, exclude={"b"})
    assert [(e.unit_id, e.rank) for e in rl.entries] == [("a", 1), ("c", 2)]


def test_rank_scores_group_from_uda():
    assert rank_scores({"a": 1.0, "b": 2.0}, "MATH").group == "MATH"
    assert rank_scores({"a": 1.0}).group is None


def test_top_quartile_is_positional():
    # b ties u1 and u2 at rank 2. Its top quartile is its first two entries,
    # u0 and u1, so a's u2 exits although b ranks it 2nd too.
    a = ranked([("u0", 8.0), ("u2", 7.0), ("u1", 6.0), *((f"u{i}", 8.0 - i) for i in range(3, 8))])
    b = rank_scores({"u0": 9.0, "u1": 8.0, "u2": 8.0, **{f"u{i}": 8.0 - i for i in range(3, 8)}})
    assert compare_rankings(a, b).top_quartile_exit_pct == 50.0


# ---------------------------------------------------------------------------
# Field standardization
# ---------------------------------------------------------------------------

def ledger_row(rid, sds, output, cost):
    """A ledger row at institution I1 (discipline D) with ``output`` and ``cost``."""
    return CreditRow(rid, sds, "D", "I1", None, "PO", output, 0.0, 0, 1.0, cost)


STD_LEDGER = [ledger_row("a", "S1", 1.0, 1.0), ledger_row("b", "S2", 1.0, 1.0),
              ledger_row("z", "S1", 0.0, 1.0)]


def test_standardized_scores_divide_by_field_mean():
    means = {"fss_r": {"S1": 2.0, "S2": 4.0}, "fss_s": {"S1": 0.25, "S2": 4.0}, "q": {}, "fq": {}}
    std = standardized_scores(STD_LEDGER, means, "researcher")
    assert std.level == "researcher" and std.indicator == "fss_r_std"
    assert std.entries == {"a": 0.5, "b": 0.25, "z": 0.0}
    # Staff I1:S1 pools a and z (output 1 over cost 2), I1:S2 is b alone.
    std = standardized_scores(STD_LEDGER, means, "staff")
    assert std.level == "staff" and std.indicator == "fss_s_std"
    assert std.entries == {"I1:S1": 2.0, "I1:S2": 0.25}


@pytest.mark.parametrize("level", ["department", "university", "country"])
def test_standardized_scores_refuse_other_levels(level):
    means = {"fss_r": {"S1": 2.0}, "fss_s": {"S1": 2.0}, "q": {}, "fq": {}}
    with pytest.raises(InputError, match=f"no field standardization defined for level '{level}'"):
        standardized_scores(STD_LEDGER, means, level)


# ---------------------------------------------------------------------------
# Spearman correlation
# ---------------------------------------------------------------------------

def test_average_ranks_with_ties():
    assert average_ranks([10.0, 20.0, 20.0, 30.0]) == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([3.0, 1.0, 2.0]) == [3.0, 1.0, 2.0]


def test_spearman_identity_and_reversal():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert spearman_rho(x, x) == pytest.approx(1.0)
    assert spearman_rho(x, list(reversed(x))) == pytest.approx(-1.0)


def test_spearman_tie_correction():
    # x ranks (1, 2.5, 2.5, 4), y ranks (1, 2, 3, 4):
    # cov = 4.5, var_x = 4.5, var_y = 5 -> rho = 4.5 / sqrt(22.5) = 3/sqrt(10).
    assert spearman_rho([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]) == pytest.approx(
        3 / math.sqrt(10), rel=1e-12)


def test_spearman_constant_inputs():
    assert spearman_rho([2.0, 2.0, 2.0], [2.0, 2.0, 2.0]) == 1.0
    with pytest.raises(ComputationError):
        spearman_rho([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_spearman_input_validation():
    with pytest.raises(InputError):
        spearman_rho([1.0, 2.0], [1.0])
    with pytest.raises(ComputationError):
        spearman_rho([1.0], [1.0])


def test_spearman_matches_closed_form_without_ties():
    # With distinct values the tie-corrected formula must reduce to
    # 1 - 6*sum(d^2)/(n*(n^2-1)).
    rng = random.Random(90125)
    for _ in range(200):
        n = rng.randint(2, 30)
        x = rng.sample(range(1000), n)
        y = rng.sample(range(1000), n)
        expected = reference_spearman_distinct(x, y)
        assert spearman_rho(x, y) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Ranking comparison
# ---------------------------------------------------------------------------

def comparison_fixture():
    a = ranked([(f"u{i}", float(9 - i)) for i in range(1, 9)])  # u1 best .. u8 worst
    b_scores = [("u2", 8.0), ("u5", 7.0), ("u3", 6.0), ("u4", 5.0),
                ("u1", 4.0), ("u6", 3.0), ("u7", 2.0), ("u8", 1.0)]
    return a, ranked(b_scores)


def test_compare_rankings_stats():
    a, b = comparison_fixture()
    stats = compare_rankings(a, b)
    assert stats.n_units == 8
    # u1 moves 1->5, u2 moves 2->1, u5 moves 5->2; the rest hold.
    assert stats.shifts == {"u1": 4, "u2": 1, "u3": 0, "u4": 0,
                            "u5": 3, "u6": 0, "u7": 0, "u8": 0}
    assert stats.pct_shifting == 37.5
    assert stats.avg_shift == 1.0
    assert stats.median_shift == 0.0
    assert stats.max_shift == 4
    # distinct scores: rho = 1 - 6*26/(8*63) = 29/42
    assert stats.spearman == pytest.approx(29 / 42, rel=1e-12)
    # top quartile {u1,u2} vs {u2,u5}: one of two exits
    assert stats.top_quartile_exit_pct == 50.0


def test_compare_rankings_identity():
    a, _ = comparison_fixture()
    stats = compare_rankings(a, a)
    assert stats.pct_shifting == 0.0
    assert stats.max_shift == 0
    assert stats.spearman == pytest.approx(1.0)
    assert stats.top_quartile_exit_pct == 0.0


def test_compare_rankings_unit_mismatch():
    a, _ = comparison_fixture()
    other = ranked([("u1", 2.0), ("u9", 1.0)])
    with pytest.raises(InputError, match="rankings cover different units: u2, .*u9") as err:
        compare_rankings(a, other)
    assert "u9" in str(err.value)


def test_compare_rankings_too_small():
    one = ranked([("u1", 1.0)])
    with pytest.raises(ComputationError):
        compare_rankings(one, one)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_rankings_round_trip(tmp_path):
    rl = rank_scores({"a": 3.0, "b": 5.0, "c": 3.0, "d": 1.0})
    path = write_rankings(rl, tmp_path / "rankings.csv")
    loaded = read_rankings(path)
    assert loaded.entries == rl.entries
    assert loaded.group is None


def test_rankings_round_trip_with_group(tmp_path):
    rl = rank_scores({"a": 1.0, "b": 2.0}, "MATH")
    path = write_rankings(rl, tmp_path / "rankings.csv")
    assert (tmp_path / "rankings.csv").read_text().splitlines()[0] == \
        "group,unit_id,score,rank,percentile"
    loaded = read_rankings(path)
    assert loaded.group == "MATH"
    assert loaded.entries == rl.entries


def test_read_rankings_rejects_bad_files(tmp_path):
    path = tmp_path / "rankings.csv"
    path.write_text("unit_id,score\nu1,2.0\n")
    with pytest.raises(LoadError):
        read_rankings(path)
    path.write_text("unit_id,score,rank,percentile\nu1,abc,1,50.0\n")
    with pytest.raises(LoadError):
        read_rankings(path)
    path.write_text("unit_id,score,rank,percentile\nu1,2.0,1,50.0\nu1,1.0,2,0.0\n")
    with pytest.raises(LoadError, match="duplicate"):
        read_rankings(path)
    path.write_text("group,unit_id,score,rank,percentile\n"
                    "MATH,u1,2.0,1,50.0\nBIO,u2,1.0,2,0.0\n")
    with pytest.raises(LoadError, match="mixed groups"):
        read_rankings(path)
    with pytest.raises(LoadError, match="not found"):
        read_rankings(tmp_path / "absent.csv")


@pytest.mark.parametrize("value", ["0", "-1", "99999999999999999999999999"])
def test_read_rankings_refuses_a_rank_its_score_does_not_give(tmp_path, value):
    path = write_rankings(rank_scores({"a": 3.0, "b": 2.0, "c": 1.0}), tmp_path / "rankings.csv")
    lines = path.read_text().splitlines()
    assert lines[2] == "b,2.0,2,33.333333333333336"
    lines[2] = f"b,2.0,{value},33.333333333333336"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LoadError, match=f"line 3, column 'rank': rank {value} differs from 2, "
                                        "the rank its score gives"):
        read_rankings(path)


def test_read_rankings_refuses_a_percentile_its_score_does_not_give(tmp_path):
    path = tmp_path / "rankings.csv"
    path.write_text("unit_id,score,rank,percentile\na,2.0,1,50.0\nb,1.0,2,10.0\n")
    with pytest.raises(LoadError, match="line 3, column 'percentile': percentile 10.0 differs "
                                        "from 0.0, the percentile its score gives"):
        read_rankings(path)


@pytest.mark.parametrize("row", ["c,1e-400,3,0.0", "c,1.0,3,1e-400"])
def test_read_rankings_refuses_a_nonzero_cell_that_reads_as_0(tmp_path, row):
    path = tmp_path / "rankings.csv"
    path.write_text("unit_id,score,rank,percentile\n"
                    f"a,3.0,1,66.66666666666667\nb,2.0,2,33.333333333333336\n{row}\n")
    column = "score" if "e-400," in row else "percentile"
    with pytest.raises(LoadError, match=f"line 4, column '{column}': nonzero but too small"):
        read_rankings(path)


def test_read_rankings_blames_the_first_row_a_changed_score_moves(tmp_path):
    # Raising c's score moves a and b down one place each; a's row comes
    # first in the file, so a is named, not c.
    path = tmp_path / "rankings.csv"
    path.write_text("unit_id,score,rank,percentile\n"
                    "a,3.0,1,66.66666666666667\nb,2.0,2,33.333333333333336\nc,9.0,3,0.0\n")
    with pytest.raises(LoadError, match="line 2, column 'rank': rank 1 differs from 2"):
        read_rankings(path)


def test_write_comparison_json(tmp_path):
    import json
    a, b = comparison_fixture()
    path = write_comparison(compare_rankings(a, b), tmp_path / "comparison.json")
    doc = json.loads(path.read_text())
    assert doc["n_units"] == 8
    assert doc["pct_shifting"] == 37.5
    assert doc["shifts"]["u1"] == 4
    assert list(doc["shifts"]) == sorted(doc["shifts"])

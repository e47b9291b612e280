"""Output-oriented DEA: a hand-solved fixture, randomized agreement with a
vertex-enumeration oracle, model inequalities, and the corpus bridge."""

import dataclasses
import random

import numpy as np
import pytest

from fsskit import dea
from fsskit.cli import main
from fsskit.config import RunConfig
from fsskit.corpus import load_corpus
from fsskit.dea import (DMU, corpus_input_ranks, dea_output_oriented,
                        dmus_from_corpus, read_dmus, scale_efficiency,
                        validate_dmus, write_dmus, write_results,
                        _envelopment_lp)
from fsskit.errors import ComputationError, InputError, LoadError
from fsskit.normalize import compute_baselines
from fsskit.simplex import solve_lp
from conftest import write_tiny_files
from oracles import reference_lp_maximum

# One input, one output. A and B sit on the ray y = 2x (the CRS frontier);
# C converts 4 into 4 (half the frontier output); D converts 1 into 1 but
# is the only unit small enough to be its own VRS reference.
HAND_DMUS = [
    DMU(id="A", inputs=(2.0,), outputs=(4.0,)),
    DMU(id="B", inputs=(4.0,), outputs=(8.0,)),
    DMU(id="C", inputs=(4.0,), outputs=(4.0,)),
    DMU(id="D", inputs=(1.0,), outputs=(1.0,)),
]
HAND_CRS = {"A": 1.0, "B": 1.0, "C": 0.5, "D": 0.5}
HAND_VRS = {"A": 1.0, "B": 1.0, "C": 0.5, "D": 1.0}
HAND_SE = {"A": 1.0, "B": 1.0, "C": 1.0, "D": 0.5}


def test_hand_fixture_crs():
    scores = {s.id: s for s in dea_output_oriented(HAND_DMUS, "crs")}
    for uid, expected in HAND_CRS.items():
        assert scores[uid].efficiency == pytest.approx(expected, abs=1e-9), uid
    assert scores["A"].on_frontier
    assert not scores["C"].on_frontier


def test_hand_fixture_vrs_and_scale():
    crs = dea_output_oriented(HAND_DMUS, "crs")
    vrs = dea_output_oriented(HAND_DMUS, "vrs")
    by_id = {s.id: s for s in vrs}
    for uid, expected in HAND_VRS.items():
        assert by_id[uid].efficiency == pytest.approx(expected, abs=1e-9), uid
    se = scale_efficiency(crs, vrs)
    for uid, expected in HAND_SE.items():
        assert se[uid] == pytest.approx(expected, abs=1e-9), uid


def test_peers_lie_on_the_frontier():
    for model in ("crs", "vrs"):
        scores = dea_output_oriented(HAND_DMUS, model)
        frontier = {s.id for s in scores if s.on_frontier}
        for s in scores:
            assert s.peers, s.id
            assert set(s.peers) <= frontier, (model, s.id)


def test_invalid_model_rejected():
    with pytest.raises(InputError):
        dea_output_oriented(HAND_DMUS, "nirs")


def test_validate_dmus_rejections():
    with pytest.raises(InputError):
        validate_dmus([])
    with pytest.raises(InputError):
        validate_dmus([DMU("A", (1.0,), (1.0,)), DMU("A", (2.0,), (1.0,))])
    with pytest.raises(InputError):
        validate_dmus([DMU("A", (1.0,), (1.0,)), DMU("B", (1.0, 2.0), (1.0,))])
    with pytest.raises(InputError):
        validate_dmus([DMU("A", (-1.0,), (1.0,))])
    with pytest.raises(InputError):
        validate_dmus([DMU("A", (0.0,), (1.0,))])  # no positive input
    with pytest.raises(InputError):
        validate_dmus([DMU("A", (1.0,), (0.0,))])  # no positive output
    with pytest.raises(InputError):
        validate_dmus([DMU("A", (1.0,), ())])


def test_scale_efficiency_unit_mismatch():
    crs = dea_output_oriented(HAND_DMUS, "crs")
    vrs = dea_output_oriented(HAND_DMUS[:3], "vrs")
    with pytest.raises(InputError):
        scale_efficiency(crs, vrs)


def random_dmus(rng, n):
    return [
        DMU(
            id=f"d{i}",
            inputs=tuple(float(rng.randint(1, 9)) for _ in range(2)),
            outputs=tuple(float(rng.randint(1, 9)) for _ in range(2)),
        )
        for i in range(n)
    ]


def test_random_sets_match_vertex_enumeration():
    rng = random.Random(61740)
    for _ in range(30):
        dmus = random_dmus(rng, rng.randint(3, 6))
        for model in ("crs", "vrs"):
            scores = {s.id: s for s in dea_output_oriented(dmus, model)}
            for index, dmu in enumerate(dmus):
                lp = _envelopment_lp(np.array([d.inputs for d in dmus]),
                                     np.array([d.outputs for d in dmus]), index, model)
                expected, _ = reference_lp_maximum(
                    lp.c, lp.a_ub, lp.b_ub, lp.a_eq, lp.b_eq)
                assert expected is not None
                assert scores[dmu.id].phi == pytest.approx(
                    max(expected, 1.0), abs=1e-6), (model, dmu.id)


def test_model_inequalities_hold():
    rng = random.Random(977)
    for _ in range(20):
        dmus = random_dmus(rng, rng.randint(3, 8))
        crs = dea_output_oriented(dmus, "crs")
        vrs = dea_output_oriented(dmus, "vrs")
        eff_crs = {s.id: s.efficiency for s in crs}
        eff_vrs = {s.id: s.efficiency for s in vrs}
        assert any(s.on_frontier for s in crs)
        assert any(s.on_frontier for s in vrs)
        for uid in eff_crs:
            # The variable-returns frontier hugs the data more closely.
            assert eff_vrs[uid] >= eff_crs[uid] - 1e-9, uid
            assert 0.0 < eff_crs[uid] <= 1.0 + 1e-9
        se = scale_efficiency(crs, vrs)
        assert all(v <= 1.0 for v in se.values())


def test_envelopment_lp_self_reference_is_feasible():
    # lambda = unit vector on the target with phi = 1 satisfies every row.
    lp = _envelopment_lp(np.array([d.inputs for d in HAND_DMUS]),
                         np.array([d.outputs for d in HAND_DMUS]), 2, "vrs")
    solution = solve_lp(lp)
    assert solution.objective >= 1.0 - 1e-9


def test_duplicate_units_terminate_on_the_frontier():
    # Three frontier units, twenty copies each: every vertex is degenerate.
    dmus = [DMU(id=f"{name}{k:02d}", inputs=(1.0, 2.0), outputs=outputs)
            for name, outputs in (("a", (3.0, 1.0)), ("b", (1.0, 3.0)), ("c", (2.0, 2.0)))
            for k in range(20)]
    for model in ("crs", "vrs"):
        assert all(s.on_frontier for s in dea_output_oriented(dmus, model)), model


def test_all_zero_input_column_changes_nothing(tmp_path):
    rng = random.Random(4113)
    rows = [(f"d{i:02d}", [float(rng.randint(1, 9)) for _ in range(4)]) for i in range(25)]
    without, with_zero = tmp_path / "without.csv", tmp_path / "with_zero.csv"
    without.write_text("id,input_a,input_b,output_c,output_d\n" + "".join(
        f"{uid},{a},{b},{c},{d}\n" for uid, (a, b, c, d) in rows))
    with_zero.write_text("id,input_a,input_z,input_b,output_c,output_d\n" + "".join(
        f"{uid},{a},0.0,{b},{c},{d}\n" for uid, (a, b, c, d) in rows))
    for table in (without, with_zero):
        assert main(["dea", "--dmus", str(table), "--output-dir", str(tmp_path / table.stem)]) == 0
    for name in ("dea_results.csv", "scale_efficiency.csv"):
        assert ((tmp_path / "with_zero" / name).read_text()
                == (tmp_path / "without" / name).read_text()), name


def perturbed_solver(delta):
    """solve_lp with phi moved by delta and lambda and the duals kept."""
    def solve(lp):
        solution = solve_lp(lp)
        x = solution.x.copy()
        x[0] += delta
        return dataclasses.replace(solution, x=x, objective=float(x[0]))
    return solve


@pytest.mark.parametrize("delta, failure", [
    (1e-3, "primal residual"),   # phi beyond what lambda produces
    (-1e-3, "duality gap"),      # feasible, but the weights prove more
    (float("nan"), "primal residual"),
])
def test_certificate_rejects_a_perturbed_solution(monkeypatch, delta, failure):
    monkeypatch.setattr(dea, "solve_lp", perturbed_solver(delta))
    for model in ("crs", "vrs"):
        with pytest.raises(ComputationError, match=failure) as err:
            dea_output_oriented(HAND_DMUS, model)
        assert model in str(err.value)
        if failure == "duality gap":
            assert "primal residual" not in str(err.value)


def test_uncertified_solution_writes_no_results(monkeypatch, tmp_path):
    table = tmp_path / "dmus.csv"
    table.write_text("id,input_x,output_y\nA,2.0,4.0\nB,4.0,8.0\nC,4.0,4.0\n")
    monkeypatch.setattr(dea, "solve_lp", perturbed_solver(1e-3))
    out = tmp_path / "out"
    assert main(["dea", "--dmus", str(table), "--output-dir", str(out)]) == 1
    assert not (out / "dea_results.csv").exists()


def test_dmus_round_trip(tmp_path):
    path = write_dmus(HAND_DMUS, tmp_path / "dmus.csv",
                      input_names=["cost"], output_names=["impact"])
    assert read_dmus(path) == sorted(HAND_DMUS, key=lambda d: d.id)
    header = path.read_text().splitlines()[0]
    assert header == "id,input_cost,output_impact"


def test_read_dmus_rejects_bad_files(tmp_path):
    path = tmp_path / "dmus.csv"
    path.write_text("id,input_a,output_b,bogus\nA,1.0,2.0,3.0\n")
    with pytest.raises(LoadError, match="unrecognized"):
        read_dmus(path)
    path.write_text("id,input_a\nA,1.0\n")
    with pytest.raises(LoadError):
        read_dmus(path)
    path.write_text("id,input_a,output_b\nA,xyz,2.0\n")
    with pytest.raises(LoadError, match="not a number") as err:
        read_dmus(path)
    assert "column 'input_a'" in str(err.value)
    with pytest.raises(LoadError, match="not found"):
        read_dmus(tmp_path / "absent.csv")


def test_write_results_format(tmp_path):
    scores = dea_output_oriented(HAND_DMUS, "crs")
    path = write_results(scores, tmp_path / "dea_results.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "id,model,phi,efficiency,peers"
    assert len(lines) == 5
    assert lines[1].startswith("A,crs,")


def test_dmus_from_tiny_corpus(tiny):
    baselines = compute_baselines(tiny.corpus.publications)
    assert corpus_input_ranks(tiny.corpus) == ["assistant", "full"]
    dmus, skipped = dmus_from_corpus(tiny.corpus, baselines)
    assert skipped == []
    by_id = {d.id: d for d in dmus}
    # UA: assistant cost 40000*5, full cost 70000*4;
    #     impact 37/18 + 2/9 = 41/18, fractional count 11/6 + 4/3 = 19/6.
    assert by_id["UA"].inputs == pytest.approx([200000.0, 280000.0])
    assert by_id["UA"].outputs == pytest.approx([41 / 18, 19 / 6], rel=1e-12)
    # UB: assistant cost 40000*2 + 40000*5, full cost 90000*5;
    #     impact 31/45 + 7/15 + 1/2 = 149/90, count 11/15 + 2/5 + 1/2 = 49/30.
    assert by_id["UB"].inputs == pytest.approx([280000.0, 450000.0])
    assert by_id["UB"].outputs == pytest.approx([149 / 90, 49 / 30], rel=1e-12)


def test_dmus_from_corpus_skips_outputless_institution(tmp_path):
    directory = write_tiny_files(tmp_path / "tiny")
    researchers = directory / "researchers.csv"
    researchers.write_text(researchers.read_text()
                           + "r6,Fay,MAT01,assistant,,UC,UC-M,5\n")
    corpus, _ = load_corpus(
        researchers, directory / "publications.csv", directory / "bylines.csv",
        directory / "taxonomy.csv", directory / "salaries.csv", RunConfig(),
    )
    baselines = compute_baselines(corpus.publications)
    dmus, skipped = dmus_from_corpus(corpus, baselines)
    assert {d.id for d in dmus} == {"UA", "UB"}
    assert len(skipped) == 1 and "UC" in skipped[0]

"""Output-oriented DEA: a hand-solved fixture, randomized agreement with a
vertex-enumeration oracle, model inequalities, and the corpus bridge."""

import math
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from fsskit import dea
from fsskit.cli import main
from fsskit.config import RunConfig
from fsskit.corpus import load_corpus
from fsskit.dea import (DMU, dea_output_oriented, dmus_from_corpus, read_dmus,
                        scale_efficiency, validate_dmus, write_dmus, write_results,
                        _envelopment_lp)
from fsskit.errors import ComputationError, InputError, LoadError
from fsskit.indicators import credit_ledger
from fsskit.normalize import compute_baselines
from fsskit.simplex import solve_lp, start_tableau
from conftest import child_env, euro_dmu_table, write_tiny_files
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["inputs", "outputs"])
def test_non_finite_dmu_is_refused_by_name(value, where):
    # NaN passes every sign check, and an inf would reach numpy; both must
    # stop at validation, naming the unit, with no numpy warning.
    cell = {"inputs": (2.0, 1.0), "outputs": (3.0,)}
    cell[where] = (value, *cell[where][1:])
    dmus = [DMU("A", (1.0, 1.0), (1.0,)), DMU("B", cell["inputs"], cell["outputs"])]
    with pytest.raises(InputError, match="DMU 'B' has a non-finite value"):
        dea_output_oriented(dmus, "crs")


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
                expected, _ = reference_lp_maximum(*_envelopment_lp(
                    np.array([d.inputs for d in dmus]), np.array([d.outputs for d in dmus]),
                    index, model))
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
    program = _envelopment_lp(np.array([d.inputs for d in HAND_DMUS]),
                              np.array([d.outputs for d in HAND_DMUS]), 2, "vrs")
    solution = solve_lp(start_tableau(*program))
    assert solution.objective >= 1.0 - 1e-9


@pytest.mark.parametrize("model", dea.MODELS)
def test_a_units_entries_in_the_shared_tableau_make_its_own(model):
    # dea_output_oriented lays out unit 0's program once and writes each
    # unit's outputs (phi's column) and inputs (the bounds) into it; that
    # must be, bit for bit, the starting tableau of the unit's own program.
    rng = np.random.default_rng(8)
    for n, n_in, n_out in ((40, 3, 2), (7, 1, 1), (12, 2, 3)):
        inputs, outputs = rng.uniform(0.0, 1.0, (n, n_in)), rng.uniform(0.0, 1.0, (n, n_out))
        shared = start_tableau(*_envelopment_lp(inputs, outputs, 0, model))
        for index in range(n):
            shared.table[n_in:n_in + n_out, 0] = outputs[index]
            shared.table[:n_in, -1] = inputs[index]
            own = start_tableau(*_envelopment_lp(inputs, outputs, index, model))
            assert np.array_equal(shared.table, own.table), (n, index)
            assert np.array_equal(shared.c, own.c) and shared.n_ub == own.n_ub


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


def unit_certificate(inputs, outputs, input_scale, output_scale, index, model, solution):
    """The certificate of one unit, computed on its own: the reference for
    the block form in dea._certificate."""
    n_in, n_out = input_scale.size, output_scale.size
    phi, lam, duals = solution.objective, solution.x[1:], solution.duals
    u = np.maximum(duals[:n_in], 0.0) / input_scale
    v = np.maximum(duals[n_in:n_in + n_out], 0.0) / output_scale
    w = duals[-1] if model == "vrs" else 0.0
    x_o, y_o = inputs[index], outputs[index]
    total = lam.sum()

    def worst(excess, size):
        return np.max(np.maximum(excess, 0.0) / np.maximum(size, np.finfo(float).tiny))

    primal = [worst(lam @ inputs - x_o, input_scale * total + x_o),
              worst(phi * y_o - lam @ outputs, output_scale * (phi + total)),
              worst(-lam, 1.0)]
    if model == "vrs":
        primal.append(abs(total - 1.0))
    weight = u @ input_scale + v @ output_scale + abs(w)
    dual = [worst(outputs @ v - inputs @ u - w, weight),
            worst(1.0 - v @ y_o, 1.0 + v @ y_o)]
    gap = worst(abs(u @ x_o + w - phi), abs(u @ x_o) + abs(w) + phi)
    return [max(primal), max(dual), gap]


def test_block_certificate_matches_the_per_unit_one(monkeypatch):
    # The block form sums in another order, so it may differ in the last
    # digits; residuals are relative, so a few ulps of 1 bound the change.
    tol = 64 * np.finfo(float).eps
    calls = []
    certificate = dea._certificate

    def recording(*args):
        result = certificate(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(dea, "_certificate", recording)
    rng = random.Random(5150)
    for dmus in (random_dmus(rng, 150), HAND_DMUS):
        for model in ("crs", "vrs"):
            calls.clear()
            dea_output_oriented(dmus, model)
            covered = []
            for (inputs, outputs, in_scale, out_scale, rows, _, solutions), result in calls:
                assert len(solutions) <= dea.CERTIFY_BLOCK
                units = range(rows.start, rows.stop)
                covered.extend(units)
                for index, solution, residuals in zip(units, solutions, result):
                    expected = unit_certificate(inputs, outputs, in_scale, out_scale,
                                                index, model, solution)
                    assert residuals == pytest.approx(expected, abs=tol), (model, index)
            assert covered == list(range(len(dmus)))


def perturbed_solver(delta):
    """solve_lp with phi moved by delta and lambda and the duals kept."""
    def solve(lp):
        solution = solve_lp(lp)
        x = solution.x.copy()
        x[0] += delta
        return solution._replace(x=x, objective=float(x[0]))
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


@pytest.mark.parametrize("column", [2, 5])  # input_cost_associate, output_count
def test_certificate_cannot_pass_by_overflow(tmp_path, column):
    # With a cell of 1e308, the certificate's row sizes overflow to inf, so
    # its relative residuals would read 0 whatever the excess.
    table = euro_dmu_table(tmp_path / "dmus.csv", n=300, seed=308)
    lines = table.read_text().splitlines()
    cells = lines[17].split(",")
    cells[column] = "1e308"
    lines[17] = ",".join(cells)
    table.write_text("\n".join(lines) + "\n")
    proc = subprocess.run([sys.executable, "-m", "fsskit.cli", "dea", "--dmus", str(table),
                           "--output-dir", str(tmp_path / "out")],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    # One line, naming the unit and the model; no numpy warning.
    assert re.fullmatch(r"error: DMU 'D\d{3}', (crs|vrs): the simplex solution is not a "
                        r"certified optimum \(.*\)\n", proc.stderr), proc.stderr
    assert not (tmp_path / "out" / "dea_results.csv").exists()


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


@pytest.mark.parametrize("rows, where, message", [
    ("A,1.0,1.0,2.0\nA,2.0,1.0,1.0\n", "line 3, column 'id'", "duplicate DMU id: 'A'"),
    ("A,1.0,-1.0,-2.0\n", "line 2, column 'input_b'", "DMU 'A' has negative values"),
    ("A,1.0,1.0,2.0\nB,0.0,0.0,1.0\n", "line 3", "DMU 'B' has no positive input"),
    ("A,1.0,1.0,0.0\n", "line 2", "DMU 'A' has no positive output"),
    ("A,1e-400,2,1\n", "line 2, column 'input_a'", "nonzero but too small for a float: '1e-400'"),
    ("A,1.0,1.0,2.0\nB,1.0,1.0,-0.5E-999\n", "line 3, column 'output_c'",
     "nonzero but too small for a float: '-0.5E-999'"),
])
def test_dea_dmus_names_the_line_of_a_bad_unit(tmp_path, capsys, rows, where, message):
    path = tmp_path / "dmus.csv"
    path.write_text("id,input_a,input_b,output_c\n" + rows)
    assert main(["dea", "--dmus", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}, {where}: {message}\n"


def test_dea_dmus_reads_every_spelling_of_zero_as_zero(tmp_path):
    path = tmp_path / "dmus.csv"
    path.write_text("id,input_a,input_b,output_c\nA,1.0,0e400,2.0\nB,2.0,-0.000,1.0\n"
                    "C,3.0,00.0E-5,1.5\nD,4.0,5e-324,1.0\n")
    assert [dmu.inputs[1] for dmu in read_dmus(path)] == [0.0, 0.0, 0.0, 5e-324]


@pytest.mark.parametrize("text", ["id,input_a,output_b\n", "id,input_a,output_b\n\n\n"])
def test_dea_dmus_names_the_file_of_a_table_without_units(tmp_path, capsys, text):
    path = tmp_path / "dmus.csv"
    path.write_text(text)
    assert main(["dea", "--dmus", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}: need at least one DMU\n"


def test_write_results_format(tmp_path):
    scores = dea_output_oriented(HAND_DMUS, "crs")
    path = write_results(scores, tmp_path / "dea_results.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "id,model,phi,efficiency,peers"
    assert len(lines) == 5
    assert lines[1].startswith("A,crs,")


def test_dmus_from_tiny_corpus(tiny):
    baselines = compute_baselines(tiny.corpus.publications.values())
    dmus, ranks, skipped = dmus_from_corpus(tiny.corpus, credit_ledger(tiny.corpus, baselines))
    assert ranks == ["assistant", "full"]
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


def test_corpus_dea_with_no_institution_left_exits_1(tiny_dir, tmp_path, capsys):
    # Valid input that leaves nothing to score is a computation that cannot
    # produce a number, as it is for rank.
    for argv in (["dea"], ["rank", "--level", "university"]):
        out = tmp_path / argv[0]
        assert main([*argv, "--data", str(tiny_dir), "--min-years", "99",
                     "--output-dir", str(out)]) == 1
        assert "left" in capsys.readouterr().err
    assert not (tmp_path / "dea" / "dmus.csv").exists()


def test_dmus_from_corpus_skips_outputless_institution(tmp_path):
    directory = write_tiny_files(tmp_path / "tiny")
    researchers = directory / "researchers.csv"
    researchers.write_text(researchers.read_text()
                           + "r6,Fay,MAT01,assistant,,UC,UC-M,5\n")
    corpus, _ = load_corpus(
        researchers, directory / "publications.csv", directory / "bylines.csv",
        directory / "taxonomy.csv", directory / "salaries.csv", RunConfig(),
    )
    baselines = compute_baselines(corpus.publications.values())
    dmus, _, skipped = dmus_from_corpus(corpus, credit_ledger(corpus, baselines))
    assert {d.id for d in dmus} == {"UA", "UB"}
    assert len(skipped) == 1 and "UC" in skipped[0]

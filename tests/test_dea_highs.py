"""DEA expansion factors against HiGHS at rel 1e-9 on euro-scale data:
labour costs near 1e6 against outputs near 1e1, the shape the corpus bridge
writes. scipy is a test-only dependency; without it these tests skip."""

import csv

import numpy as np
import pytest

from fsskit.cli import main
from fsskit.dea import DMU, dea_output_oriented, read_dmus

pytest.importorskip("scipy")

REL = 1e-9


def reference_phi(inputs, outputs, index, model):
    """max phi s.t. X'l <= x_o, Y'l >= phi y_o, (sum l = 1), l >= 0, by HiGHS."""
    from scipy.optimize import linprog

    n, n_in = inputs.shape
    n_out = outputs.shape[1]
    c = np.zeros(1 + n)
    c[0] = -1.0
    a_ub = np.zeros((n_in + n_out, 1 + n))
    a_ub[:n_in, 1:] = inputs.T
    a_ub[n_in:, 0] = outputs[index]
    a_ub[n_in:, 1:] = -outputs.T
    b_ub = np.concatenate([inputs[index], np.zeros(n_out)])
    a_eq = b_eq = None
    if model == "vrs":
        a_eq = np.concatenate([[0.0], np.ones(n)])[None, :]
        b_eq = np.ones(1)
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                     bounds=(0, None), method="highs")
    assert result.status == 0, result.message
    return max(-result.fun, 1.0)  # the unit itself bounds phi below by 1


def mismatches(dmus, phis):
    """(model, id, phi, HiGHS phi) for every phi off by more than REL."""
    inputs = np.array([d.inputs for d in dmus])
    outputs = np.array([d.outputs for d in dmus])
    wrong = []
    for index, dmu in enumerate(dmus):
        for model in ("crs", "vrs"):
            expected = reference_phi(inputs, outputs, index, model)
            phi = phis[model, dmu.id]
            if not abs(phi - expected) <= REL * expected:
                wrong.append((model, dmu.id, phi, expected))
    return wrong


# Each of these censuses gave at least one wrong phi (or an exit 1 on scale
# efficiency) while the programs were solved on the unscaled data.
@pytest.mark.parametrize("seed", [9, 10, 21, 31, 32, 37, 44, 54])
def test_corpus_mode_phi_matches_highs(tmp_path, seed):
    data, out = tmp_path / "census", tmp_path / "out"
    assert main(["synth", "--seed", str(seed), "--researchers", "2000",
                 "--institutions", "60", "--sds", "16", "--max-papers", "6",
                 "--out", str(data)]) == 0
    assert main(["dea", "--data", str(data), "--output-dir", str(out)]) == 0
    dmus = read_dmus(out / "dmus.csv")
    with open(out / "dea_results.csv", newline="") as fh:
        phis = {(row["model"], row["id"]): float(row["phi"]) for row in csv.DictReader(fh)}
    assert len(phis) == 2 * len(dmus)
    assert mismatches(dmus, phis) == []


def euro_table(seed, n):
    """n units shaped like the corpus bridge's: three labour costs by rank in
    euros over a five-year window, fractional impact and publication count."""
    rng = np.random.default_rng(seed)
    heads = np.exp(rng.normal(3.0, 0.8, size=n))
    inputs = heads[:, None] * rng.dirichlet((4.0, 3.0, 2.0), size=n) * [175e3, 250e3, 350e3]
    impact = 0.014 * (inputs.sum(axis=1) / 1e3) ** 0.95 * np.exp(-rng.exponential(0.3, size=n))
    count = 1.5 * heads ** 0.9 * np.exp(-rng.exponential(0.2, size=n))
    return [DMU(id=f"D{i:03d}", inputs=tuple(inputs[i].tolist()),
                outputs=(float(impact[i]), float(count[i])))
            for i in range(n)]


@pytest.mark.parametrize("seed, n", [(1, 50), (2, 100), (3, 150), (4, 200)])
def test_euro_scale_tables_match_highs(seed, n):
    dmus = euro_table(seed, n)
    phis = {(model, s.id): s.phi for model in ("crs", "vrs")
            for s in dea_output_oriented(dmus, model)}
    assert mismatches(dmus, phis) == []

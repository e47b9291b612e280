"""Output-oriented data envelopment analysis over homogeneous units.

Each decision-making unit (DMU) converts the same input dimensions into the
same output dimensions. For unit o the envelopment program asks how far all
outputs could be expanded inside the technology spanned by the observed
units:

    maximize   phi
    subject to sum_j lambda_j * x_j  <=  x_o        (every input)
               sum_j lambda_j * y_j  >=  phi * y_o  (every output)
               sum_j lambda_j = 1 under variable returns to scale
               lambda >= 0

Technical efficiency is 1/phi, so frontier units score 1. Scale efficiency
is the ratio of constant-returns to variable-returns efficiency; it can
never exceed 1 because the constant-returns technology contains the
variable-returns one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, parse_float, read_table, require, write_table
# perfbench/tracing.py wraps fractional_contribution and normalized_impact on
# this module; the bridge itself takes its credit from indicators.credit_ledger.
from .credit import fractional_contribution  # noqa: F401
from .errors import ComputationError, InputError, LoadError
from .indicators import credit_ledger, group_rows
from .normalize import BaselineTable, normalized_impact  # noqa: F401
from .simplex import LinearProgram, solve_lp

MODELS = ("crs", "vrs")
FRONTIER_TOL = 1e-6
PEER_TOL = 1e-7
CERTIFICATE_TOL = 1e-9  # relative; see _certificate


@dataclass(frozen=True)
class DMU:
    id: str
    inputs: tuple[float, ...]
    outputs: tuple[float, ...]


@dataclass(frozen=True)
class DMUScore:
    id: str
    model: str
    phi: float
    efficiency: float
    peers: tuple[str, ...]

    @property
    def on_frontier(self) -> bool:
        return abs(self.phi - 1.0) < FRONTIER_TOL


def validate_dmus(dmus) -> list[DMU]:
    dmus = list(dmus)
    if not dmus:
        raise InputError("need at least one DMU")
    n_in = len(dmus[0].inputs)
    n_out = len(dmus[0].outputs)
    if n_in == 0 or n_out == 0:
        raise InputError("DMUs need at least one input and one output dimension")
    seen = set()
    for dmu in dmus:
        if dmu.id in seen:
            raise InputError(f"duplicate DMU id: {dmu.id!r}")
        seen.add(dmu.id)
        if len(dmu.inputs) != n_in or len(dmu.outputs) != n_out:
            raise InputError(f"DMU {dmu.id!r} has inconsistent dimensions")
        if any(v < 0 for v in dmu.inputs) or any(v < 0 for v in dmu.outputs):
            raise InputError(f"DMU {dmu.id!r} has negative values")
        # A unit with no positive input (or output) makes the expansion
        # program unbounded, so reject it up front with a useful message.
        if not any(v > 0 for v in dmu.inputs):
            raise InputError(f"DMU {dmu.id!r} has no positive input")
        if not any(v > 0 for v in dmu.outputs):
            raise InputError(f"DMU {dmu.id!r} has no positive output")
    return dmus


def _envelopment_lp(inputs: np.ndarray, outputs: np.ndarray, index: int,
                    model: str) -> LinearProgram:
    """Variables are (phi, lambda_1..lambda_n); ``inputs`` and ``outputs``
    hold one row per DMU."""
    n, n_in = inputs.shape
    n_out = outputs.shape[1]
    a_ub = np.zeros((n_in + n_out, 1 + n))
    a_ub[:n_in, 1:] = inputs.T
    a_ub[n_in:, 0] = outputs[index]
    a_ub[n_in:, 1:] = -outputs.T
    b_ub = np.zeros(n_in + n_out)
    b_ub[:n_in] = inputs[index]

    c = np.zeros(1 + n)
    c[0] = 1.0
    a_eq = b_eq = None
    if model == "vrs":
        a_eq = np.zeros((1, 1 + n))
        a_eq[0, 1:] = 1.0
        b_eq = np.ones(1)
    return LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


def _column_scale(values: np.ndarray) -> np.ndarray:
    """Each column's maximum, or 1 for an all-zero column, which is left as
    it is (validate_dmus allows one; dividing by 0 would give NaN)."""
    scale = values.max(axis=0)
    scale[scale == 0.0] = 1.0
    return scale


def _relative_excess(excess, size):
    """excess / size, floored at 0; NaN stays NaN."""
    return np.maximum(excess, 0.0) / np.maximum(size, np.finfo(float).tiny)


def _certificate(inputs, outputs, input_scale, output_scale, index, model,
                 solution) -> dict[str, float]:
    """Worst residuals showing that ``solution``, an optimum of unit
    ``index``'s program on the data divided by the scales, is optimal on the
    unscaled data. Its duals give the multiplier weights: input prices u,
    output prices v and, under VRS, the convexity dual w. Weak duality
    bounds phi by u.x_o + w for any dual-feasible (u, v, w), so primal and
    dual feasibility with a zero gap prove the optimum.

    Each row's excess is relative to its size, the scale of its column (at
    least its largest coefficient) times the 1-norm of the variables, plus
    its bound. No residual then depends on the units of a column, and a row
    with bound 0 is not judged by roundoff alone."""
    n_in = input_scale.size
    phi, lam, duals = solution.objective, solution.x[1:], solution.duals
    u = np.maximum(duals[:n_in], 0.0) / input_scale
    v = np.maximum(duals[n_in:n_in + output_scale.size], 0.0) / output_scale
    w = duals[-1] if model == "vrs" else 0.0
    x_o, y_o = inputs[index], outputs[index]
    total = lam.sum()
    primal = [_relative_excess(lam @ inputs - x_o, input_scale * total + x_o),
              _relative_excess(phi * y_o - lam @ outputs, output_scale * (phi + total)),
              _relative_excess(-lam, 1.0)]
    if model == "vrs":
        primal.append(np.array([abs(total - 1.0)]))
    weight = u @ input_scale + v @ output_scale + abs(w)
    dual = [_relative_excess(outputs @ v - inputs @ u - w, weight),
            _relative_excess(np.array([1.0 - v @ y_o]), 1.0 + v @ y_o)]
    gap = _relative_excess(abs(u @ x_o + w - phi), abs(u @ x_o) + abs(w) + phi)
    return {"primal residual": float(np.concatenate(primal).max()),
            "dual residual": float(np.concatenate(dual).max()),
            "duality gap": float(gap)}


def dea_output_oriented(dmus, model: str = "crs") -> list[DMUScore]:
    """Score every DMU against the frontier of the whole set.

    Each input and output column is divided by its maximum before the
    programs are built: phi and lambda do not depend on the units of a
    column (Charnes, Cooper & Rhodes 1978), and the simplex's absolute
    tolerances suit data near 1. Every solution is then certified against
    the unscaled data (primal and dual feasibility, zero duality gap)."""
    if model not in MODELS:
        raise InputError(f"model must be one of {'/'.join(MODELS)}")
    dmus = validate_dmus(dmus)
    inputs = np.array([d.inputs for d in dmus], dtype=float)
    outputs = np.array([d.outputs for d in dmus], dtype=float)
    input_scale, output_scale = _column_scale(inputs), _column_scale(outputs)
    scaled_inputs, scaled_outputs = inputs / input_scale, outputs / output_scale
    ids = [dmu.id for dmu in dmus]
    scores = []
    for index, dmu_id in enumerate(ids):
        solution = solve_lp(_envelopment_lp(scaled_inputs, scaled_outputs, index, model))
        residuals = _certificate(inputs, outputs, input_scale, output_scale, index,
                                 model, solution)
        failed = [f"{name} {value:.3g}" for name, value in residuals.items()
                  if not value <= CERTIFICATE_TOL]  # a NaN fails too
        if failed:
            raise ComputationError(
                f"DMU {dmu_id!r}, {model}: the simplex solution is not a "
                f"certified optimum ({', '.join(failed)})"
            )
        phi = solution.objective
        if phi < 1.0 - FRONTIER_TOL:
            raise ComputationError(
                f"DMU {dmu_id!r}: expansion factor {phi} below 1; the unit "
                "itself should always be a feasible reference"
            )
        phi = max(phi, 1.0)
        on_peers = np.flatnonzero(solution.x[1:] > PEER_TOL).tolist()
        peers = tuple(sorted(ids[j] for j in on_peers))
        scores.append(DMUScore(id=dmu_id, model=model, phi=phi,
                               efficiency=1.0 / phi, peers=peers))
    return sorted(scores, key=lambda s: s.id)


def scale_efficiency(crs_scores, vrs_scores) -> dict[str, float]:
    """Per unit: constant-returns efficiency over variable-returns efficiency."""
    crs = {s.id: s for s in crs_scores}
    vrs = {s.id: s for s in vrs_scores}
    if set(crs) != set(vrs):
        diff = sorted(set(crs).symmetric_difference(vrs))
        raise InputError(f"score sets cover different DMUs: {', '.join(diff)}")
    out = {}
    for uid in sorted(crs):
        se = crs[uid].efficiency / vrs[uid].efficiency
        if se > 1.0 + FRONTIER_TOL:
            raise ComputationError(
                f"DMU {uid!r}: scale efficiency {se} exceeds 1; the "
                "constant-returns frontier must dominate"
            )
        out[uid] = min(se, 1.0)
    return out


# ---------------------------------------------------------------------------
# Corpus bridge
# ---------------------------------------------------------------------------

def corpus_input_ranks(corpus: Corpus) -> list[str]:
    """Rank names in the input-dimension order dmus_from_corpus uses."""
    ranks = corpus.salaries.ranks()
    extra = sorted({r.rank for r in corpus.researchers.values()} - set(ranks))
    return ranks + extra


def dmus_from_corpus(corpus: Corpus, baselines: BaselineTable) -> tuple[list[DMU], list[str]]:
    """One DMU per institution.

    Inputs are labor cost split by rank (salary times years in post, summed
    over the institution's staff of that rank); outputs are total fractional
    normalized impact and total fractional publication count. Institutions
    with no output at all cannot be scored and are skipped with a warning.
    """
    ranks = corpus_input_ranks(corpus)
    staff = group_rows(credit_ledger(corpus, baselines), lambda r: r.institution_id)
    dmus = []
    skipped = []
    for inst, members in staff.items():
        impact_total = math.fsum(r.output for r in members)
        count_total = math.fsum(r.fractional for r in members)
        if impact_total <= 0 and count_total <= 0:
            skipped.append(f"institution {inst!r} has no research output; skipped")
            continue
        dmus.append(DMU(
            id=inst,
            inputs=tuple(math.fsum(r.cost for r in members if r.rank == rank) for rank in ranks),
            outputs=(impact_total, count_total),
        ))
    return dmus, skipped


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def read_dmus(path) -> list[DMU]:
    """dmus.csv: id column plus input_*/output_* columns, order preserved."""
    path = Path(path)
    inputs: list[str] = []
    outputs: list[str] = []

    def dmu_columns(header):
        inputs.extend(c for c in header if c.startswith("input_"))
        outputs.extend(c for c in header if c.startswith("output_"))
        if not inputs or not outputs:
            raise LoadError("need at least one input_* and one output_* column",
                            file=path, line=1)
        stray = [c for c in header if c != "id" and c not in inputs + outputs]
        if stray:
            raise LoadError(f"unrecognized column(s): {', '.join(stray)}", file=path, line=1)
        return ["id", *inputs, *outputs]

    dmus = []
    for line, (dmu_id, *cells) in read_table(path, dmu_columns):
        values = [parse_float(cell, path, line, column)
                  for cell, column in zip(cells, inputs + outputs)]
        dmus.append(DMU(
            id=require(dmu_id, path, line, "id"),
            inputs=tuple(values[:len(inputs)]),
            outputs=tuple(values[len(inputs):]),
        ))
    return dmus


def write_dmus(dmus, path, input_names=None, output_names=None) -> Path:
    dmus = validate_dmus(dmus)
    n_in = len(dmus[0].inputs)
    n_out = len(dmus[0].outputs)
    input_names = input_names or [str(i + 1) for i in range(n_in)]
    output_names = output_names or [str(i + 1) for i in range(n_out)]
    if len(input_names) != n_in or len(output_names) != n_out:
        raise InputError("dimension name counts do not match the DMUs")
    header = ["id"] + [f"input_{n}" for n in input_names] + [f"output_{n}" for n in output_names]
    return write_table(path, header, (
        (dmu.id, *dmu.inputs, *dmu.outputs) for dmu in sorted(dmus, key=lambda d: d.id)
    ))


def write_results(scores, path) -> Path:
    """dea_results.csv: id,model,phi,efficiency,peers (peers ';'-joined)."""
    return write_table(path, ("id", "model", "phi", "efficiency", "peers"), (
        (s.id, s.model, s.phi, s.efficiency, ";".join(s.peers))
        for s in sorted(scores, key=lambda s: (s.id, s.model))
    ))

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


def _envelopment_lp(dmus: list[DMU], index: int, model: str) -> LinearProgram:
    """Variables are (phi, lambda_1..lambda_n)."""
    inputs = np.array([d.inputs for d in dmus], dtype=float)
    outputs = np.array([d.outputs for d in dmus], dtype=float)
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


def dea_output_oriented(dmus, model: str = "crs") -> list[DMUScore]:
    """Score every DMU against the frontier of the whole set."""
    if model not in MODELS:
        raise InputError(f"model must be one of {'/'.join(MODELS)}")
    dmus = validate_dmus(dmus)
    scores = []
    for index, dmu in enumerate(dmus):
        solution = solve_lp(_envelopment_lp(dmus, index, model))
        phi = solution.objective
        if phi < 1.0 - FRONTIER_TOL:
            raise ComputationError(
                f"DMU {dmu.id!r}: expansion factor {phi} below 1; the unit "
                "itself should always be a feasible reference"
            )
        phi = max(phi, 1.0)
        peers = tuple(sorted(
            dmus[j].id for j in range(len(dmus)) if solution.x[1 + j] > PEER_TOL
        ))
        scores.append(DMUScore(id=dmu.id, model=model, phi=phi,
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


def dmus_from_corpus(corpus: Corpus, baselines: BaselineTable,
                     schemes: dict) -> tuple[list[DMU], list[str]]:
    """One DMU per institution.

    Inputs are labor cost split by rank (salary times years in post, summed
    over the institution's staff of that rank); outputs are total fractional
    normalized impact and total fractional publication count. Institutions
    with no output at all cannot be scored and are skipped with a warning.
    """
    ranks = corpus_input_ranks(corpus)
    staff = group_rows(credit_ledger(corpus, baselines, schemes), lambda r: r.institution_id)
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

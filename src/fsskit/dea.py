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

The programs of one table differ only in the unit's outputs (phi's column)
and inputs (the bounds). So the table is checked once (``validate_dmus``)
and laid out once (``simplex.start_tableau``), each unit writes its own
entries into that tableau, and every solution is certified, CERTIFY_BLOCK
units at a time.

numpy is imported inside the functions that compute on arrays, not at the
top, so that importing this module for its table and bridge functions does
not load numpy; of the commands, only ``dea`` imports this module at all.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .corpus import Corpus, parse_value, read_table, require, write_table
# perfbench/tracing.py wraps fractional_contribution and normalized_impact on
# this module; the bridge itself takes its credit from the ledger it is given.
from .credit import fractional_contribution  # noqa: F401
from .errors import ComputationError, InputError, LoadError
from .normalize import normalized_impact  # noqa: F401
from .simplex import solve_lp, start_tableau

if TYPE_CHECKING:
    import numpy as np

    from .indicators import CreditRow

MODELS = ("crs", "vrs")
FRONTIER_TOL = 1e-6
PEER_TOL = 1e-7
CERTIFICATE_TOL = 1e-9  # relative; see _certificate
RESIDUALS = ("primal residual", "dual residual", "duality gap")
CERTIFY_BLOCK = 64  # units certified at once; the certificate's arrays are this many by n


class DMU(NamedTuple):
    id: str
    inputs: tuple[float, ...]
    outputs: tuple[float, ...]


class DMUScore(NamedTuple):
    id: str
    model: str
    phi: float
    efficiency: float
    peers: tuple[str, ...]

    @property
    def on_frontier(self) -> bool:
        return abs(self.phi - 1.0) < FRONTIER_TOL


def _fault(dmu: DMU, seen: set[str], n_in: int, n_out: int) -> tuple[str, int | None] | None:
    """The first rule ``dmu`` breaks, or None: its message and the position of the one
    cell at fault in its row (id, *inputs, *outputs), if one is. Adds its id to ``seen``."""
    if dmu.id in seen:
        return f"duplicate DMU id: {dmu.id!r}", 0
    seen.add(dmu.id)
    if len(dmu.inputs) != n_in or len(dmu.outputs) != n_out:
        return f"DMU {dmu.id!r} has inconsistent dimensions", None
    values = (*dmu.inputs, *dmu.outputs)
    if not all(map(math.isfinite, values)):
        return f"DMU {dmu.id!r} has a non-finite value", None
    negative = [cell for cell, v in enumerate(values, 1) if v < 0]
    if negative:
        return f"DMU {dmu.id!r} has negative values", negative[0]
    # A unit with no positive input (or output) makes the expansion
    # program unbounded, so reject it up front with a useful message.
    if not any(v > 0 for v in dmu.inputs):
        return f"DMU {dmu.id!r} has no positive input", None
    if not any(v > 0 for v in dmu.outputs):
        return f"DMU {dmu.id!r} has no positive output", None
    return None


def validate_dmus(dmus) -> list[DMU]:
    dmus = list(dmus)
    if not dmus:
        raise InputError("need at least one DMU")
    n_in, n_out = len(dmus[0].inputs), len(dmus[0].outputs)
    if n_in == 0 or n_out == 0:
        raise InputError("DMUs need at least one input and one output dimension")
    seen: set[str] = set()
    for dmu in dmus:
        fault = _fault(dmu, seen, n_in, n_out)
        if fault:
            raise InputError(fault[0])
    return dmus


def _envelopment_lp(inputs: np.ndarray, outputs: np.ndarray, index: int, model: str):
    """(c, a_ub, b_ub, a_eq, b_eq) of unit ``index``'s program, as
    ``start_tableau`` takes them. Variables are (phi, lambda_1..lambda_n);
    ``inputs`` and ``outputs`` hold one row per DMU."""
    import numpy as np

    n, n_in = inputs.shape
    n_out = outputs.shape[1]
    a_ub = np.zeros((n_in + n_out, 1 + n))
    a_ub[:n_in, 1:] = inputs.T
    a_ub[n_in:, 0] = outputs[index]
    a_ub[n_in:, 1:] = -outputs.T
    b_ub = np.concatenate([inputs[index], np.zeros(n_out)])

    c = np.zeros(1 + n)
    c[0] = 1.0
    a_eq = b_eq = None
    if model == "vrs":
        a_eq, b_eq = np.concatenate([[0.0], np.ones(n)]), 1.0
    return c, a_ub, b_ub, a_eq, b_eq


def _certificate(inputs, outputs, input_scale, output_scale, rows: slice, model,
                 solutions) -> np.ndarray:
    """One row per solution: the worst primal residual, dual residual and
    duality gap (RESIDUALS) showing that ``solutions``, the optima of units
    ``rows`` on the data divided by the scales, are optimal on the unscaled
    data. The duals give the multiplier weights: input prices u, output
    prices v and, under VRS, the convexity dual w. Weak duality bounds phi
    by u.x_o + w for any dual-feasible (u, v, w), so primal and dual
    feasibility with a zero gap prove the optimum.

    Each row's excess is relative to its size, the scale of its column (at
    least its largest coefficient) times the 1-norm of the variables, plus
    its bound. No residual then depends on the units of a column, and a row
    with bound 0 is not judged by roundoff alone. A size that overflows
    gives an inf residual and a NaN stays NaN, so neither passes."""
    import numpy as np

    def worst_excess(excess, size):
        """Each row's largest excess / size, floored at 0."""
        ratio = np.maximum(excess, 0.0) / np.maximum(size, np.finfo(float).tiny)
        return np.where(np.isfinite(size), ratio, np.inf).max(axis=1)

    n_in, n_out = input_scale.size, output_scale.size
    phi = np.array([solution.objective for solution in solutions])
    lam = np.array([solution.x[1:] for solution in solutions])
    duals = np.array([solution.duals for solution in solutions])
    u = np.maximum(duals[:, :n_in], 0.0) / input_scale
    v = np.maximum(duals[:, n_in:n_in + n_out], 0.0) / output_scale
    w = duals[:, -1] if model == "vrs" else np.zeros(len(solutions))
    x_o, y_o = inputs[rows], outputs[rows]
    with np.errstate(over="ignore", invalid="ignore"):
        total = lam.sum(axis=1)
        primal = [worst_excess(lam @ inputs - x_o, input_scale * total[:, None] + x_o),
                  worst_excess(phi[:, None] * y_o - lam @ outputs,
                               output_scale * (phi + total)[:, None]),
                  worst_excess(-lam, 1.0)]
        if model == "vrs":
            primal.append(abs(total - 1.0))
        weight = u @ input_scale + v @ output_scale + abs(w)
        v_y, u_x = (v * y_o).sum(axis=1), (u * x_o).sum(axis=1)
        dual = [worst_excess(v @ outputs.T - u @ inputs.T - w[:, None], weight[:, None]),
                worst_excess((1.0 - v_y)[:, None], (1.0 + v_y)[:, None])]
        gap = worst_excess(abs(u_x + w - phi)[:, None], (abs(u_x) + abs(w) + phi)[:, None])
    return np.column_stack([np.max(primal, axis=0), np.max(dual, axis=0), gap])


def dea_output_oriented(dmus, model: str = "crs") -> list[DMUScore]:
    """Score every DMU against the frontier of the whole set.

    Each input and output column is divided by its maximum before the
    programs are built: phi and lambda do not depend on the units of a
    column (Charnes, Cooper & Rhodes 1978), and the simplex's absolute
    tolerances suit data near 1. Every solution is then certified against
    the unscaled data (primal and dual feasibility, zero duality gap).

    The units are laid out in id order, so the pivots, and with them every
    rounding, do not depend on the order ``dmus`` comes in."""
    import numpy as np

    if model not in MODELS:
        raise InputError(f"model must be one of {'/'.join(MODELS)}")
    dmus = sorted(validate_dmus(dmus), key=lambda d: d.id)
    inputs = np.array([d.inputs for d in dmus], dtype=float)
    outputs = np.array([d.outputs for d in dmus], dtype=float)
    # Each column's maximum; an all-zero column (validate_dmus allows one) is
    # left as it is, since dividing it by 0 would give NaN.
    input_scale, output_scale = (np.where(a.max(axis=0) == 0.0, 1.0, a.max(axis=0))
                                 for a in (inputs, outputs))
    scaled_inputs, scaled_outputs = inputs / input_scale, outputs / output_scale
    n_in, n_out = input_scale.size, output_scale.size
    start = start_tableau(*_envelopment_lp(scaled_inputs, scaled_outputs, 0, model))
    ids = [dmu.id for dmu in dmus]
    scores = []
    for first in range(0, len(ids), CERTIFY_BLOCK):
        rows = slice(first, min(first + CERTIFY_BLOCK, len(ids)))
        solutions = []
        for index in range(rows.start, rows.stop):
            start.table[n_in:n_in + n_out, 0] = scaled_outputs[index]
            start.table[:n_in, -1] = scaled_inputs[index]
            solutions.append(solve_lp(start))
        residuals = _certificate(inputs, outputs, input_scale, output_scale, rows, model,
                                 solutions)
        for dmu_id, solution, unit_residuals in zip(ids[rows], solutions, residuals.tolist()):
            failed = [f"{name} {value:.3g}" for name, value in zip(RESIDUALS, unit_residuals)
                      if not value <= CERTIFICATE_TOL]  # a NaN fails too
            if failed:
                raise ComputationError(f"DMU {dmu_id!r}, {model}: the simplex solution is not "
                                       f"a certified optimum ({', '.join(failed)})")
            phi = solution.objective
            if phi < 1.0 - FRONTIER_TOL:
                raise ComputationError(f"DMU {dmu_id!r}: expansion factor {phi} below 1; the "
                                       "unit itself should always be a feasible reference")
            phi = max(phi, 1.0)
            on_peers = np.flatnonzero(solution.x[1:] > PEER_TOL).tolist()
            peers = tuple(sorted(ids[j] for j in on_peers))
            scores.append(DMUScore(id=dmu_id, model=model, phi=phi,
                                   efficiency=1.0 / phi, peers=peers))
    return scores


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

def dmus_from_corpus(corpus: Corpus,
                     ledger: list[CreditRow]) -> tuple[list[DMU], list[str], list[str]]:
    """One DMU per institution, the rank of each input dimension, and a
    warning per institution skipped.

    Inputs are labor cost split by rank (salary times years in post, summed
    over the institution's staff of that rank): the salary schedule's ranks,
    then the ledger's other ranks, each in name order. Outputs are total
    fractional normalized impact and total fractional publication count.
    Institutions with no output at all cannot be scored and are skipped.
    """
    from .indicators import group_rows  # imported here: dea --dmus never runs indicators

    ranks = corpus.salaries.ranks()
    ranks += sorted({r.rank for r in ledger} - set(ranks))
    staff = group_rows(ledger, lambda r: r.institution_id)
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
    return dmus, ranks, skipped


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def read_dmus(path) -> list[DMU]:
    """dmus.csv: id column plus input_*/output_* columns, order preserved.
    A row that breaks a rule of ``validate_dmus``, or holds a nonzero value
    that reads as 0.0, is a LoadError naming its line, and its column where
    one cell is at fault; a table with no row is a LoadError naming the file."""
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
    seen: set[str] = set()
    for line, (dmu_id, *cells) in read_table(path, dmu_columns):
        values = [parse_value(cell, path, line, column)
                  for cell, column in zip(cells, inputs + outputs)]
        dmu = DMU(require(dmu_id, path, line, "id"), tuple(values[:len(inputs)]),
                  tuple(values[len(inputs):]))
        fault = _fault(dmu, seen, len(inputs), len(outputs))
        if fault:
            message, cell = fault
            raise LoadError(message, file=path, line=line,
                            column=None if cell is None else ["id", *inputs, *outputs][cell])
        dmus.append(dmu)
    if not dmus:
        raise LoadError("need at least one DMU", file=path)
    return dmus


def write_dmus(dmus, path, input_names, output_names) -> Path:
    """dmus.csv for a table ``validate_dmus`` accepts, one name per dimension."""
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

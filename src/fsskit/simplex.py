"""Dense two-phase simplex for DEA's envelopment programs.

Solves  maximize c.x  subject to  A_ub x <= b_ub,  a_eq.x = b_eq,  x >= 0,
with nonnegative bounds and at most one equality row, as in an envelopment
program: the bounds are a unit's inputs and the equality is the convexity
row under variable returns. Every <= row starts on its slack. The equality
row starts on an artificial, which phase 1 drives to zero before phase 2
optimizes c.x. ``start_tableau`` lays out a program's starting tableau and
checks nothing: its one caller, ``dea``, builds the programs from a table
``dea.validate_dmus`` has checked, and certifies every solution.
``solve_lp`` pivots on a copy, so programs that differ only in entries of
the <= rows can share one ``Tableau``.

Pricing is Dantzig's rule (the most negative reduced cost enters). After
DEGENERATE_LIMIT consecutive degenerate pivots, the rest of that phase uses
Bland's rule (lowest eligible index enters), which cannot cycle. On ratio
ties the lowest-index basic variable leaves, so the pivot sequence is a pure
function of the input. The final tableau also gives the row duals, which
callers can use to certify an optimum.

numpy is imported inside the functions that build arrays, not at the top,
so that importing ``dea`` loads numpy only when a program is solved; of the
commands, only ``dea`` imports this module. The pivot loop works on the
tableau's own methods.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import ComputationError

if TYPE_CHECKING:
    import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
DEGENERATE_LIMIT = 8  # consecutive degenerate pivots before Bland's rule takes over
MAX_PIVOTS = 100_000  # per phase; more means the program cycles or is far too large


class Tableau(NamedTuple):
    """Rows: the <= rows, the equality, the objective (phase 1's, minus the
    equality). Columns: x, the slacks, the artificial (the starting basis),
    the bounds. Between solves a caller may overwrite the <= rows' entries
    and (nonnegative) bounds, but not the equality row."""

    table: np.ndarray
    c: np.ndarray
    n_ub: int


def start_tableau(c, a_ub, b_ub, a_eq=None, b_eq=None) -> Tableau:
    """The starting tableau of  maximize c.x  s.t.  a_ub x <= b_ub,
    a_eq.x = b_eq,  x >= 0. ``a_eq`` is one row and ``b_eq`` its scalar
    bound. Every bound must be nonnegative; nothing here checks it."""
    import numpy as np

    c = np.asarray(c, dtype=float)
    n, n_ub = c.size, len(b_ub)
    m = n_ub + (a_eq is not None)
    table = np.zeros((m + 1, n + m + 1))
    table[:n_ub, :n] = a_ub
    table[:n_ub, -1] = b_ub
    table[np.arange(m), n + np.arange(m)] = 1.0
    if a_eq is not None:
        table[n_ub, :n] = a_eq
        table[n_ub, -1] = b_eq
        table[m] -= table[n_ub]
        table[m, n + n_ub:-1] = 0.0  # keep the artificial's reduced cost at zero exactly
    return Tableau(table=table, c=c, n_ub=n_ub)


class LPSolution(NamedTuple):
    """``duals`` holds one value per constraint row, <= rows first, then the
    equality: the optimal multipliers of the dual program (>= 0 on <= rows,
    free on the equality), so that ``objective == duals @ b`` at the
    optimum."""

    x: np.ndarray
    objective: float
    iterations: int
    duals: np.ndarray


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int):
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]
    basis[row] = col


def _run(tableau: np.ndarray, basis: list[int], n_cols: int) -> int:
    """Minimize the tableau's objective row in place. Returns iteration count."""
    m = tableau.shape[0] - 1
    reduced = tableau[m, :n_cols]
    bland = False
    degenerate = 0
    for iteration in range(MAX_PIVOTS):
        if bland:
            col = int((reduced < -PIVOT_TOL).argmax())
        else:
            col = int(reduced.argmin())
        if not reduced[col] < -PIVOT_TOL:
            return iteration
        row, best = -1, math.inf
        for i, (a, b) in enumerate(zip(tableau[:m, col].tolist(), tableau[:m, -1].tolist())):
            if a > PIVOT_TOL:
                ratio = b / a
                if ratio < best - PIVOT_TOL or (abs(ratio - best) <= PIVOT_TOL
                                                and (row < 0 or basis[i] < basis[row])):
                    row, best = i, ratio
        if row < 0:
            raise ComputationError("objective is unbounded above")
        # Dantzig's rule can cycle on a degenerate vertex; Bland's cannot.
        degenerate = degenerate + 1 if best <= PIVOT_TOL else 0
        bland = bland or degenerate >= DEGENERATE_LIMIT
        _pivot(tableau, basis, row, col)
    raise ComputationError(f"simplex did not converge within {MAX_PIVOTS} pivots")


def solve_lp(start: Tableau) -> LPSolution:
    import numpy as np

    tableau = start.table.copy()
    m = tableau.shape[0] - 1
    n = start.c.size
    n_real = n + start.n_ub  # x and the slacks; the artificial never enters
    basis = list(range(n, n + m))

    iters = 0
    if m > start.n_ub:
        iters = _run(tableau, basis, n_real)
        if -tableau[m, -1] > FEAS_TOL:
            raise ComputationError(
                f"constraints are infeasible (phase-1 residual {-tableau[m, -1]:.3g})"
            )
        # A basic artificial is at zero and in its own row; pivot it out. If
        # no real column can pivot there, the equality row is 0 = 0.
        if basis[m - 1] >= n_real:
            for j in range(n_real):
                if abs(tableau[m - 1, j]) > PIVOT_TOL:
                    _pivot(tableau, basis, m - 1, j)
                    break
        tableau[m, :] = 0.0

    # Phase 2 on the real columns only. The artificial column stays in the
    # tableau, priced out of entering, so that every row keeps its identity
    # column for reading the duals.
    tableau[m, :n] = -start.c  # minimize -c.x
    for i in range(m):
        if basis[i] < n_real and tableau[m, basis[i]] != 0.0:
            tableau[m] -= tableau[m, basis[i]] * tableau[i]
    iters += _run(tableau, basis, n_real)

    x = np.zeros(n + m)
    x[basis] = tableau[:m, -1]
    solution = x[:n]
    # An identity column's reduced cost is its row's dual.
    return LPSolution(x=solution, objective=float(start.c @ solution), iterations=iters,
                      duals=tableau[m, n:n + m].copy())

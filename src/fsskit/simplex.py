"""Dense two-phase simplex for small linear programs.

Solves  maximize c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

A <= row whose bound is nonnegative starts with its slack in the basis; every
other row (a flipped <= row or an equality) gets an artificial variable, and
phase 1 minimizes their sum to find a basic feasible point. Phase 2 optimizes
the real objective from there. Without artificials, phase 1 is skipped.

Pricing is Dantzig's rule (the most negative reduced cost enters). After
DEGENERATE_LIMIT consecutive degenerate pivots, the rest of that phase uses
Bland's rule (lowest eligible index enters), which cannot cycle. On ratio
ties the lowest-index basic variable leaves, so the pivot sequence is a pure
function of the input. The final tableau also gives the row duals, which
callers can use to certify an optimum.

numpy is imported inside the two functions that build arrays (``validated``
and ``solve_lp``), not at the top: the census commands import this module
through ``dea`` but never solve a program, and importing numpy would cost
each of them about as much CPU as its own computation on a small census.
The pivot loop works on the tableau's own methods and imports nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ComputationError, InfeasibleProgramError, InputError, UnboundedProgramError

if TYPE_CHECKING:
    import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
DEGENERATE_LIMIT = 8  # consecutive degenerate pivots before Bland's rule takes over


@dataclass(frozen=True)
class LinearProgram:
    """maximize c.x with nonnegative x; either constraint block may be absent."""

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def validated(self) -> "LinearProgram":
        import numpy as np

        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise InputError("objective must be a non-empty vector")
        blocks = []
        for a, b, kind in ((self.a_ub, self.b_ub, "ub"), (self.a_eq, self.b_eq, "eq")):
            if (a is None) != (b is None):
                raise InputError(f"{kind} constraints need both matrix and bounds")
            if a is None:
                blocks.append((None, None))
                continue
            a = np.asarray(a, dtype=float)
            b = np.asarray(b, dtype=float)
            if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.size or a.shape[1] != c.size:
                raise InputError(f"{kind} constraint shapes are inconsistent")
            blocks.append((a, b))
        if not np.all(np.isfinite(c)):
            raise InputError("objective has non-finite entries")
        for a, b in blocks:
            if a is not None and not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
                raise InputError("constraints have non-finite entries")
        return LinearProgram(c=c, a_ub=blocks[0][0], b_ub=blocks[0][1],
                             a_eq=blocks[1][0], b_eq=blocks[1][1])


@dataclass(frozen=True)
class LPSolution:
    """``duals`` holds one value per constraint row, <= rows first, then
    equalities: the optimal multipliers of the dual program (>= 0 on <= rows,
    free on equalities), so that ``objective == duals @ b`` at the optimum."""

    x: np.ndarray
    objective: float
    iterations: int
    duals: np.ndarray | None = None


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int):
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]
    basis[row] = col


def _run(tableau: np.ndarray, basis: list[int], n_cols: int, max_iter: int) -> int:
    """Minimize the tableau's objective row in place. Returns iteration count."""
    m = tableau.shape[0] - 1
    reduced = tableau[m, :n_cols]
    bland = False
    degenerate = 0
    for iteration in range(max_iter):
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
            raise UnboundedProgramError("objective is unbounded above")
        # Dantzig's rule can cycle on a degenerate vertex; Bland's cannot.
        degenerate = degenerate + 1 if best <= PIVOT_TOL else 0
        bland = bland or degenerate >= DEGENERATE_LIMIT
        _pivot(tableau, basis, row, col)
    raise ComputationError(f"simplex did not converge within {max_iter} pivots")


def solve_lp(lp: LinearProgram, max_iter: int = 100_000) -> LPSolution:
    import numpy as np

    lp = lp.validated()
    n = lp.c.size
    n_ub = 0 if lp.a_ub is None else lp.a_ub.shape[0]
    n_eq = 0 if lp.a_eq is None else lp.a_eq.shape[0]
    m = n_ub + n_eq
    if m == 0:
        # Only x >= 0 constrains the problem: bounded iff no positive cost.
        if np.any(lp.c > 0):
            raise UnboundedProgramError("objective is unbounded above")
        return LPSolution(x=np.zeros(n), objective=0.0, iterations=0, duals=np.zeros(0))

    # Equality form: slacks on the <= rows, then flip rows to make b >= 0.
    # Each row's identity column is its slack if the row is an unflipped <=
    # row, else a new artificial; together they are the starting basis.
    n_real = n + n_ub
    flipped = np.zeros(m, dtype=bool)
    if n_ub:
        flipped[:n_ub] = lp.b_ub < 0
    artificial_rows = np.flatnonzero(flipped | (np.arange(m) >= n_ub))
    n_art = artificial_rows.size
    identity = np.arange(n, n + m)
    identity[artificial_rows] = n_real + np.arange(n_art)

    tableau = np.zeros((m + 1, n_real + n_art + 1))
    if n_ub:
        tableau[:n_ub, :n] = lp.a_ub
        tableau[np.arange(n_ub), n + np.arange(n_ub)] = 1.0
        tableau[:n_ub, -1] = lp.b_ub
    if n_eq:
        tableau[n_ub:m, :n] = lp.a_eq
        tableau[n_ub:m, -1] = lp.b_eq
    tableau[np.flatnonzero(flipped)] *= -1.0
    tableau[artificial_rows, identity[artificial_rows]] = 1.0
    basis = identity.tolist()

    iters = 0
    if n_art:
        # Phase 1 objective: sum of artificials, expressed in the current basis.
        for i in artificial_rows.tolist():
            tableau[m] -= tableau[i]
        tableau[m, n_real:-1] = 0.0  # keep artificial reduced costs at zero exactly
        iters = _run(tableau, basis, n_real, max_iter)
        if -tableau[m, -1] > FEAS_TOL:
            raise InfeasibleProgramError(
                f"constraints are infeasible (phase-1 residual {-tableau[m, -1]:.3g})"
            )
        # Drive leftover artificials out of the basis; rows that cannot pivot
        # on any real column are redundant constraints and carry a zero artificial.
        for i in range(m):
            if basis[i] >= n_real:
                for j in range(n_real):
                    if abs(tableau[i, j]) > PIVOT_TOL:
                        _pivot(tableau, basis, i, j)
                        break
        tableau[m, :] = 0.0

    # Phase 2 on the real columns only. The artificial columns stay in the
    # tableau, priced out of entering, so that every row keeps its identity
    # column for reading the duals.
    tableau[m, :n] = -lp.c  # minimize -c.x
    for i in range(m):
        if basis[i] < n_real and tableau[m, basis[i]] != 0.0:
            tableau[m] -= tableau[m, basis[i]] * tableau[i]
    iters += _run(tableau, basis, n_real, max_iter)

    x = np.zeros(n_real + n_art)
    x[basis] = tableau[:m, -1]
    solution = x[:n]
    # An identity column's reduced cost is its row's dual; a flipped row's
    # dual changes sign with the row.
    duals = tableau[m, identity]
    duals[flipped] *= -1.0
    return LPSolution(x=solution, objective=float(lp.c @ solution), iterations=iters,
                      duals=duals)

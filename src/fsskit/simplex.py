"""Dense two-phase simplex for DEA's envelopment programs.

Solves  maximize c.x  subject to  A_ub x <= b_ub,  a_eq.x = b_eq,  x >= 0,
with nonnegative bounds and at most one equality row, as in an envelopment
program: the bounds are a unit's inputs and the equality is the convexity
row under variable returns. Every <= row starts on its slack. The equality
row starts on an artificial, which phase 1 drives to zero before phase 2
optimizes c.x. ``LinearProgram.tableau`` validates a program and lays out
its starting tableau once; ``solve_lp`` pivots on a copy, so programs that
differ only in entries of the <= rows can share one ``Tableau``.

Pricing is Dantzig's rule (the most negative reduced cost enters). After
DEGENERATE_LIMIT consecutive degenerate pivots, the rest of that phase uses
Bland's rule (lowest eligible index enters), which cannot cycle. On ratio
ties the lowest-index basic variable leaves, so the pivot sequence is a pure
function of the input. The final tableau also gives the row duals, which
callers can use to certify an optimum.

numpy is imported inside the functions that build arrays, not at the top:
the census commands import this module through ``dea`` but never solve a
program. The pivot loop works on the tableau's own methods.
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
MAX_PIVOTS = 100_000  # per phase; more means the program cycles or is far too large


@dataclass(frozen=True)
class Tableau:
    """Rows: the <= rows, the equality, the objective (phase 1's, minus the
    equality). Columns: x, the slacks, the artificial (the starting basis),
    the bounds. Between solves a caller may overwrite the <= rows' entries
    and (nonnegative) bounds, but not the equality row."""

    table: np.ndarray
    c: np.ndarray
    n_ub: int


@dataclass(frozen=True)
class LinearProgram:
    """maximize c.x with nonnegative x; either constraint block may be absent."""

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def validated(self) -> LinearProgram:
        """The program as float arrays, an absent block as zero rows."""
        import numpy as np

        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise InputError("objective must be a non-empty vector")
        if not np.all(np.isfinite(c)):
            raise InputError("objective has non-finite entries")
        blocks = []
        for a, b, kind in ((self.a_ub, self.b_ub, "ub"), (self.a_eq, self.b_eq, "eq")):
            if (a is None) != (b is None):
                raise InputError(f"{kind} constraints need both matrix and bounds")
            a = np.zeros((0, c.size)) if a is None else np.asarray(a, dtype=float)
            b = np.zeros(0) if b is None else np.asarray(b, dtype=float)
            if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.size or a.shape[1] != c.size:
                raise InputError(f"{kind} constraint shapes are inconsistent")
            if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
                raise InputError("constraints have non-finite entries")
            if np.any(b < 0):
                raise InputError(f"{kind} constraint bounds must be nonnegative")
            blocks.append((a, b))
        if blocks[1][1].size > 1:
            raise InputError("at most one equality constraint is supported")
        return LinearProgram(c=c, a_ub=blocks[0][0], b_ub=blocks[0][1],
                             a_eq=blocks[1][0], b_eq=blocks[1][1])

    def tableau(self) -> Tableau:
        import numpy as np

        lp = self.validated()
        n, n_ub = lp.c.size, lp.b_ub.size
        m = n_ub + lp.b_eq.size
        table = np.zeros((m + 1, n + m + 1))
        table[:n_ub, :n] = lp.a_ub
        table[n_ub:m, :n] = lp.a_eq
        table[:n_ub, -1] = lp.b_ub
        table[n_ub:m, -1] = lp.b_eq
        table[np.arange(m), n + np.arange(m)] = 1.0
        if m > n_ub:
            table[m] -= table[m - 1]
            table[m, n + n_ub:-1] = 0.0  # keep the artificial's reduced cost at zero exactly
        return Tableau(table=table, c=lp.c, n_ub=n_ub)


@dataclass(frozen=True)
class LPSolution:
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
            raise UnboundedProgramError("objective is unbounded above")
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
            raise InfeasibleProgramError(
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

"""Two-phase simplex on programs shaped like DEA's (nonnegative bounds, at
most one equality row): known optima, failure modes, and randomized
agreement with an exhaustive vertex-enumeration oracle."""

import random

import numpy as np
import pytest

from fsskit import simplex
from fsskit.errors import ComputationError, InfeasibleProgramError, UnboundedProgramError
from fsskit.simplex import solve_lp, start_tableau
from oracles import reference_lp_maximum

NO_ROWS = (np.zeros((0, 2)), [])  # an empty <= block over two variables


def solve(*program):
    return solve_lp(start_tableau(*program))


def test_known_two_variable_optimum():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6: optimum 12 at (4, 0).
    sol = solve([3.0, 2.0], [[1.0, 1.0], [1.0, 3.0]], [4.0, 6.0])
    assert sol.objective == pytest.approx(12.0, abs=1e-9)
    assert sol.x == pytest.approx([4.0, 0.0], abs=1e-9)


def test_known_optimum_with_equality():
    # max 2x + y s.t. x + y = 1, x <= 0.5: optimum 1.5 at (0.5, 0.5).
    sol = solve([2.0, 1.0], [[1.0, 0.0]], [0.5], [1.0, 1.0], 1.0)
    assert sol.objective == pytest.approx(1.5, abs=1e-9)
    assert sol.x == pytest.approx([0.5, 0.5], abs=1e-9)


def test_unconstrained_cases():
    sol = solve([-1.0, 0.0], *NO_ROWS)
    assert sol.objective == 0.0
    assert sol.x == pytest.approx([0.0, 0.0])
    with pytest.raises(UnboundedProgramError):
        solve([1.0, -1.0], *NO_ROWS)


def test_unbounded_with_constraints():
    # x - y <= 1 leaves max x + y unbounded along the ray x = y.
    with pytest.raises(UnboundedProgramError):
        solve([1.0, 1.0], [[1.0, -1.0]], [1.0])


def test_infeasible_case():
    # x + y <= 1 cannot meet x + y = 2.
    with pytest.raises(InfeasibleProgramError):
        solve([1.0, 1.0], [[1.0, 1.0]], [1.0], [1.0, 1.0], 2.0)


def test_degenerate_vertex_terminates():
    # Three constraints meet at (1, 0); the Bland fallback must keep
    # Dantzig pricing from cycling.
    sol = solve([1.0, 0.0], [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]], [1.0, 1.0, 1.0])
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


# Beale (1955): Dantzig pricing with lowest-index ratio ties cycles here.
BEALE = ([0.75, -150.0, 0.02, -6.0],
         [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
         [0.0, 0.0, 1.0])


def test_beale_cycling_example_terminates():
    sol = solve(*BEALE)
    assert sol.objective == pytest.approx(0.05, abs=1e-12)
    assert sol.x == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-12)


def test_beale_cycles_without_the_bland_fallback(monkeypatch):
    monkeypatch.setattr(simplex, "DEGENERATE_LIMIT", 10**9)
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 1000)
    with pytest.raises(ComputationError, match="did not converge within 1000 pivots"):
        solve(*BEALE)


@pytest.mark.parametrize("program, bounds, duals", [
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6: only the first row binds.
    (([3.0, 2.0], [[1.0, 1.0], [1.0, 3.0]], [4.0, 6.0]), [4.0, 6.0], [3.0, 0.0]),
    # max 2x + y s.t. x <= 0.5, x + y = 1: the equality's dual is free.
    (([2.0, 1.0], [[1.0, 0.0]], [0.5], [1.0, 1.0], 1.0), [0.5, 1.0], [1.0, 1.0]),
])
def test_duals_certify_the_optimum(program, bounds, duals):
    sol = solve(*program)
    assert sol.duals == pytest.approx(duals, abs=1e-12)
    assert sol.duals @ bounds == pytest.approx(sol.objective, abs=1e-12)


def test_a_tableau_is_not_changed_by_solving():
    start = start_tableau([3.0, 2.0], [[1.0, 1.0], [1.0, 3.0]], [4.0, 6.0], [1.0, 1.0], 3.0)
    table = start.table.copy()
    solve_lp(start)
    assert np.array_equal(start.table, table)


def test_deterministic_pivoting():
    program = ([3.0, 2.0, 1.0], [[1.0, 1.0, 1.0], [2.0, 0.5, 1.0], [0.0, 1.0, 3.0]],
               [5.0, 4.0, 6.0])
    first = solve(*program)
    second = solve(*program)
    assert np.array_equal(first.x, second.x)
    assert first.iterations == second.iterations
    assert first.objective == second.objective


def test_random_programs_match_vertex_enumeration():
    # Random small programs shaped like DEA's: nonnegative bounds, a bounding
    # row sum(x) <= 10, so every feasible program is bounded and the
    # oracle's (None, None) means infeasible, and at most one all-ones
    # equality, which alone can make a program infeasible.
    rng = random.Random(20240)
    checked_feasible = checked_infeasible = 0
    for _ in range(200):
        n = rng.randint(2, 4)
        rows = rng.randint(1, 4)
        a_ub = [[float(rng.randint(-3, 4)) for _ in range(n)] for _ in range(rows)]
        b_ub = [float(rng.randint(0, 8)) for _ in range(rows)]
        a_ub.append([1.0] * n)
        b_ub.append(10.0)
        a_eq = b_eq = None
        if rng.random() < 0.5:
            a_eq = [1.0] * n
            b_eq = float(rng.randint(0, 12))
        program = ([float(rng.randint(-4, 5)) for _ in range(n)], a_ub, b_ub, a_eq, b_eq)
        expected, _ = reference_lp_maximum(*program)
        if expected is None:
            with pytest.raises(InfeasibleProgramError):
                solve(*program)
            checked_infeasible += 1
        else:
            sol = solve(*program)
            assert sol.objective == pytest.approx(expected, abs=1e-7)
            checked_feasible += 1
    # The generator must exercise both branches to mean anything.
    assert checked_feasible >= 50
    assert checked_infeasible >= 10

"""Best social welfare over obedient correlated advice, by an exact LP.

The mediator samples a full profile of local functions and tells each player
theirs.  Obedience: for every player, recommended function f and alternative
g, switching from f to g must not raise that player's expected utility.  The
maximum social welfare over such distributions is a linear program over the
4^n profile weights, n <= 8 as ``PayoffTable`` allows.

The program is built as an integer matrix.  A dense float64 simplex that
enters the column of largest reduced cost (Dantzig's rule), started from a
pure Nash vertex, only proposes an optimal basis.  That basis is then
proved feasible and optimal in exact arithmetic (Applegate, Cook, Dash &
Espinoza, Oper. Res. Lett. 2007): the basic solution and the dual prices
are solved for in Fractions and every reduced cost is checked in integers.
A basis that fails the proof, or a float run that ends without one, is a
``LinearProgramError``; no float ever decides the returned value.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .classical import _SWITCHES, PayoffTable, _nash_mask, _player_axis, _welfare
from .errors import EmptyEquilibriumSetError, LinearProgramError
from .games import GameSpec, PayoffParams

_FLOAT_TOL = 1e-9


def _obedience_matrix(grid: np.ndarray, n: int) -> np.ndarray:
    """Integer obedience rows, one per (player j, recommended f, alternative
    g != f) in that order: at every profile where j plays f, the utility j
    keeps by not switching to g.  Obedience is ``rows @ x >= 0``."""
    rows = np.zeros((n * len(_SWITCHES), grid.shape[0]), dtype=grid.dtype)
    for j in range(n):
        own = _player_axis(grid[:, j], n, j)
        for r, (f, g) in enumerate(_SWITCHES, start=j * len(_SWITCHES)):
            _player_axis(rows[r], n, j)[:, f] = own[:, f] - own[:, g]
    return rows


def _float_basis(objective, ge_rows: np.ndarray, start_col: int) -> list[int] | None:
    """Candidate optimal basis of max objective . x over
    {x >= 0 : sum x = 1, ge_rows @ x >= 0}.

    A float64 tableau with tolerances, on ``nx`` profile columns then one
    slack per row of ``ge_rows``, started from the vertex ``start_col``.
    The entering column is the one with the largest reduced cost (Dantzig's
    rule); ties in the ratio test leave by the smallest basic column.
    Returns the basic column of every tableau row, or None when the float
    run stops without one (unbounded ray or pivot limit).
    """
    m, nx = ge_rows.shape
    a = ge_rows.astype(float)
    norms = np.abs(a).max(axis=1, keepdims=True)
    norms[norms == 0] = 1
    cost = np.asarray(objective).astype(float)
    # rows: [eq | 0 | 1], [-ge | I | 0], then reduced costs [c | 0 | 0]
    tableau = np.zeros((m + 2, nx + m + 1))
    tableau[0, :nx] = 1
    tableau[0, -1] = 1
    tableau[1 : m + 1, :nx] = -a / norms
    tableau[1 : m + 1, nx : nx + m] = np.eye(m)
    tableau[-1, :nx] = cost / max(np.abs(cost).max(), 1.0)

    def pivot(row: int, col: int) -> None:
        tableau[row] /= tableau[row, col]
        factors = tableau[:, col].copy()
        factors[row] = 0
        tableau[:] -= np.outer(factors, tableau[row])

    basis = [start_col] + [nx + i for i in range(m)]
    pivot(0, start_col)
    # Dantzig's rule can cycle on a degenerate program; the cap bounds the
    # float run, and a miss is reported, never guessed at
    for _ in range(50 * (m + 1)):
        enter = int(np.argmax(tableau[-1, :-1]))
        if tableau[-1, enter] <= _FLOAT_TOL:
            return basis
        column = tableau[: m + 1, enter]
        candidates = np.flatnonzero(column > _FLOAT_TOL)
        if candidates.size == 0:
            return None
        ratios = tableau[candidates, -1] / column[candidates]
        ties = candidates[ratios <= ratios.min() + _FLOAT_TOL]
        leave = min(ties.tolist(), key=lambda r: basis[r])
        pivot(leave, enter)
        basis[leave] = enter
    return None


def _solve(matrix, rhs) -> list[Fraction] | None:
    """Exact solution of ``matrix @ x = rhs`` by Gauss-Jordan elimination on
    Fractions, or None if the square matrix is singular."""
    size = len(matrix)
    rows = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        pivot_row = [v * inv for v in rows[col]]
        rows[col] = pivot_row
        support = [c for c in range(col, size + 1) if pivot_row[c] != 0]
        for r in range(size):
            factor = rows[r][col]
            if r != col and factor != 0:
                row = rows[r]
                for c in support:
                    row[c] -= factor * pivot_row[c]
    return [row[size] for row in rows]


def _certify(objective, ge_rows: np.ndarray, basis: list[int]):
    """Exact (value, solution) of ``basis`` if it is feasible and optimal.

    Columns index the program of ``_float_basis``: ``nx`` profile columns,
    then one slack per row of ``ge_rows``; its equality rows are the
    normalisation ``sum x = 1`` and ``-ge_rows @ x + s = 0``.  Solves
    ``B x_B = e_0`` and ``B^T y = c_B`` in Fractions, then requires
    ``x_B >= 0`` and a nonpositive reduced cost on every column, checked in
    integers over the common denominator of ``y``.  Returns None otherwise.
    """
    m, nx = ge_rows.shape
    cost = np.asarray(objective).astype(object)
    columns = []
    for b in basis:
        if b < nx:
            columns.append([1] + [-v for v in ge_rows[:, b].tolist()])
        else:
            unit = [0] * (m + 1)
            unit[b - nx + 1] = 1
            columns.append(unit)
    x = _solve([list(row) for row in zip(*columns)], [1] + [0] * m)
    if x is None or any(v < 0 for v in x):
        return None
    y = _solve(columns, [cost[b] if b < nx else 0 for b in basis])
    denom = math.lcm(*(v.denominator for v in y))
    prices = [int(v * denom) for v in y]
    # a slack column is the unit vector of its row: reduced cost -y_i
    if any(p < 0 for p in prices[1:]):
        return None
    # a profile column is (1, -ge_rows[:, j]): reduced cost times denom is
    # denom*c_j - y_0 + sum_i y_i ge_rows[i, j]
    priced = [i for i in range(m) if prices[i + 1]]
    reduced = denom * cost - prices[0]
    if priced:
        weights = np.array([prices[i + 1] for i in priced], dtype=object)
        reduced = reduced + ge_rows[priced].astype(object).T @ weights
    if any(v > 0 for v in reduced.tolist()):
        return None
    value = sum((cost[b] * v for b, v in zip(basis, x) if b < nx), Fraction(0))
    solution = {b: v for b, v in zip(basis, x) if b < nx and v != 0}
    return value, solution


def _exact_max(objective, ge_rows: np.ndarray, start_col: int):
    """Maximize objective . x over {x >= 0 : sum x = 1, ge_rows @ x >= 0}.

    Integer data; ``start_col`` must index a feasible vertex.  Returns the
    exact optimum and its nonzero weights by column, as ``_certify`` has
    proved them.  Raises ``LinearProgramError`` when the float pass yields
    no basis or its basis fails the proof.
    """
    basis = _float_basis(objective, ge_rows, start_col)
    if basis is None:
        raise LinearProgramError("the float simplex stopped without an optimal basis")
    certified = _certify(objective, ge_rows, basis)
    if certified is None:
        raise LinearProgramError("the float simplex basis failed its exact optimality certificate")
    return certified


def best_correlated_sw(
    game: GameSpec,
    params: PayoffParams,
    *,
    return_distribution: bool = False,
    table: PayoffTable | None = None,
):
    """Maximum social welfare over obedient profile distributions.

    Point masses on pure Nash profiles are feasible, so the program always
    has a solution; that Nash vertex seeds the simplex.  The value returned
    is certified exactly; ``LinearProgramError`` is raised otherwise.
    """
    table = table or PayoffTable(game)
    grid, scale = table.utility_grid(params)
    nash = np.flatnonzero(_nash_mask(grid, table.n))
    if nash.size == 0:
        raise EmptyEquilibriumSetError("no pure Nash profile to start the correlated LP from")
    value, dist = _exact_max(_welfare(grid), _obedience_matrix(grid, table.n), int(nash[0]))
    value /= scale * table.n
    if return_distribution:
        return value, dist
    return value

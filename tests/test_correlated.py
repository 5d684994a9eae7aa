"""Obedient correlated advice: exact LP value and feasibility of the optimum."""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grapheq import (
    BUILTIN_NAMES,
    EmptyEquilibriumSetError,
    LinearProgramError,
    PayoffParams,
    best_correlated_sw,
    best_csw,
    builtin_game,
    qsw,
)
from grapheq import correlated
from grapheq.classical import (
    LOCAL_FN_COUNT,
    PayoffTable,
    _welfare,
    code_to_profile,
    enumerate_nash,
    evaluate,
    profile_to_code,
)
from grapheq.correlated import _certify, _exact_max, _float_basis, _obedience_matrix
from helpers import (
    _simplex_max,
    cycle_game,
    obedience_violations,
    profile_evaluations,
    run_cli,
    toy_two_player_game,
)

PARAMS = PayoffParams(Fraction(2, 3), Fraction(1))


def scored_welfare(game, params, dist):
    """Social welfare of a profile distribution, each profile rescored by
    ``evaluate`` in Fractions."""
    return sum(w * evaluate(game, code_to_profile(code, game.n)).social_welfare(params) for code, w in dist.items())


def test_correlated_value_regression_nc00():
    # frozen certified optimum; sits strictly between the best
    # pure Nash SW and the advice SW at these payoffs
    value, dist = best_correlated_sw(builtin_game("NC00_C5"), PARAMS, return_distribution=True)
    assert value == Fraction(97, 126)
    assert value > Fraction(23, 30)
    assert value < qsw(PARAMS)
    assert sum(dist.values()) == 1
    assert all(w > 0 for w in dist.values())


def test_correlated_optimum_is_obedient_and_scores_its_value():
    game = builtin_game("NC00_C5")
    value, dist = best_correlated_sw(game, PARAMS, return_distribution=True)
    assert obedience_violations(game, PARAMS, dist) == []
    assert scored_welfare(game, PARAMS, dist) == value


def test_correlated_bounds():
    game = builtin_game("NC00_C5")
    value = best_correlated_sw(game, PARAMS)
    nash_value, _ = best_csw(game, PARAMS)
    assert value >= nash_value
    peak = max(ev.social_welfare(PARAMS) for ev in profile_evaluations(game).values())
    assert value <= peak


def test_simplex_against_scipy_on_random_programs():
    # same shape as the obedience program: maximize c.x over the simplex
    # intersected with A.x >= 0, where column 0 is a feasible vertex
    import random

    from scipy.optimize import linprog

    rng = random.Random(2718)
    for _ in range(20):
        nvars = rng.randint(3, 12)
        nrows = rng.randint(1, 8)
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(nvars)] for _ in range(nrows)]
        for row in rows:
            row[0] = abs(row[0])  # keep the point mass on variable 0 feasible
        objective = [Fraction(rng.randint(-5, 5)) for _ in range(nvars)]
        value, solution = _simplex_max(objective, [Fraction(1)] * nvars, rows, 0)
        assert sum(solution) == 1 and all(s >= 0 for s in solution)
        assert all(sum(r * s for r, s in zip(row, solution)) >= 0 for row in rows)
        assert sum(c * s for c, s in zip(objective, solution)) == value
        certified, _ = _exact_max([int(v) for v in objective], np.array([[int(v) for v in row] for row in rows]), 0)
        assert certified == value
        res = linprog(
            c=[-float(v) for v in objective],
            A_ub=(-np.array(rows, dtype=float)),
            b_ub=np.zeros(nrows),
            A_eq=np.ones((1, nvars)),
            b_eq=[1.0],
            bounds=[(0, None)] * nvars,
            method="highs",
        )
        assert res.status == 0
        assert abs(float(value) + res.fun) < 1e-9


def test_correlated_on_tiny_game():
    # two players, two questions; the unique equilibrium is also the best
    # obedient distribution
    game = toy_two_player_game()
    params = PayoffParams(Fraction(1, 2), Fraction(1))
    value, dist = best_correlated_sw(game, params, return_distribution=True)
    nash_value, argmax = best_csw(game, params)
    assert value >= nash_value
    assert obedience_violations(game, params, dist) == []
    # the lone Nash profile (3, 3) already wins both rounds at value v1/2 +
    # v0/2 per player; nothing obedient can beat always-winning with the
    # richer answer
    assert value == Fraction(3, 4)
    assert profile_to_code((3, 3), 2) in dist


def obedience_rows_reference(table, params):
    """The obedience rows by a direct loop over profiles, in integer units."""
    grid, _ = table.utility_grid(params)
    n = table.n
    rows = []
    for j in range(n):
        step = 4 ** (n - 1 - j)
        for f in range(LOCAL_FN_COUNT):
            for g in range(LOCAL_FN_COUNT):
                if g == f:
                    continue
                row = [0] * table.ncodes
                for code in range(table.ncodes):
                    if (code >> (2 * (n - 1 - j))) & 3 == f:
                        row[code] = int(grid[code, j]) - int(grid[code + (g - f) * step, j])
                rows.append(row)
    return rows


def float_optimum(game, params):
    """The same LP in floats, solved by HiGHS as an outside reference."""
    from scipy.optimize import linprog

    table = PayoffTable(game)
    rows = np.array(obedience_rows_reference(table, params), dtype=float)
    grid, scale = table.utility_grid(params)
    sw = [float(Fraction(sum(map(int, row)), scale * game.n)) for row in grid]
    res = linprog(
        c=[-v for v in sw],
        A_ub=-rows,
        b_ub=np.zeros(len(rows)),
        A_eq=np.ones((1, table.ncodes)),
        b_eq=[1.0],
        bounds=[(0, None)] * table.ncodes,
        method="highs",
    )
    assert res.status == 0
    return -res.fun


def lp_data(game, params):
    """Integer objective, obedience rows, Nash start column and value unit."""
    table = PayoffTable(game)
    grid, scale = table.utility_grid(params)
    start = profile_to_code(enumerate_nash(game, params, table=table)[0], game.n)
    return _welfare(grid), _obedience_matrix(grid, game.n), start, scale * game.n


def certified_value(game, params):
    """``best_correlated_sw``, whose value is certified or raises.  The
    optimum is checked for obedience and for its own score, and against
    HiGHS up to n = 6 (the reference rows are built by a Python loop)."""
    value, dist = best_correlated_sw(game, params, return_distribution=True)
    assert sum(dist.values()) == 1 and all(w > 0 for w in dist.values())
    assert obedience_violations(game, params, dist) == []
    assert scored_welfare(game, params, dist) == value
    if game.n <= 6:
        assert abs(float(value) - float_optimum(game, params)) < 1e-9
    return value


@pytest.mark.parametrize(
    "game, ratio, expected",
    [
        (builtin_game("NC00_C5"), Fraction(1, 6), Fraction(125, 198)),
        (builtin_game("NC00_C5"), Fraction(1, 4), Fraction(91, 138)),
        (builtin_game("NC00_C5"), Fraction(17, 60), Fraction(1411, 2106)),
        (builtin_game("NC01_C5"), Fraction(1, 6), Fraction(11, 18)),
        (builtin_game("NC01_C5"), Fraction(2, 3), Fraction(7, 9)),
        (cycle_game(6), Fraction(1, 6), Fraction(16, 21)),
        (cycle_game(6), Fraction(2, 3), Fraction(19, 21)),
        (cycle_game(7), Fraction(1, 6), Fraction(269, 376)),
        (cycle_game(7), Fraction(1, 2), Fraction(121, 152)),
        (cycle_game(7), Fraction(2, 3), Fraction(205, 248)),
        (cycle_game(8), Fraction(1, 6), Fraction(22, 27)),
        (cycle_game(8), Fraction(1, 2), Fraction(8, 9)),
        (cycle_game(8), Fraction(2, 3), Fraction(25, 27)),
    ],
    ids=[
        "NC00-1/6", "NC00-1/4", "NC00-17/60", "NC01-1/6", "NC01-2/3", "C6-1/6", "C6-2/3",
        "C7-1/6", "C7-1/2", "C7-2/3", "C8-1/6", "C8-1/2", "C8-2/3",
    ],
)
def test_correlated_value_regressions(game, ratio, expected):
    assert certified_value(game, PayoffParams(ratio, Fraction(1))) == expected


LP_GAMES = {name: builtin_game(name) for name in BUILTIN_NAMES} | {
    f"C{n}": cycle_game(n) for n in (4, 5, 6)
}


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(LP_GAMES)),
    ratio=st.integers(1, 60).flatmap(lambda q: st.integers(0, q).map(lambda p: Fraction(p, q))),
)
def test_correlated_certifies_at_random_ratios(name, ratio):
    game, params = LP_GAMES[name], PayoffParams(ratio, Fraction(1))
    assert certified_value(game, params) >= best_csw(game, params)[0]


# ratios p/60 where a float pass entering by Bland's rule stalled and the
# exact tableau did not finish
STALLED_RATIOS = {
    "NC00_C5": (15, 17, 57),
    "NC01_C5": (13, 16, 58),
    "NC000_C5": (26, 33, 56),
    "NC00010_C5": (32, 35, 59),
}


@pytest.mark.parametrize(
    "name, p", [(name, p) for name, ps in STALLED_RATIOS.items() for p in ps], ids=str
)
def test_float_basis_certifies_where_bland_stalled(name, p):
    game = builtin_game(name)
    params = PayoffParams(Fraction(p, 60), Fraction(1))
    assert certified_value(game, params) >= best_csw(game, params)[0]


def test_obedience_matrix_matches_loop_reference():
    for game, ratio in [(builtin_game("NC00_C5"), Fraction(2, 3)), (cycle_game(4), Fraction(1, 6))]:
        params = PayoffParams(ratio, Fraction(1))
        table = PayoffTable(game)
        grid, _ = table.utility_grid(params)
        assert _obedience_matrix(grid, game.n).tolist() == obedience_rows_reference(table, params)


def test_certifier_rejects_feasible_nonoptimal_basis():
    objective, rows, start, unit = lp_data(builtin_game("NC00_C5"), PARAMS)
    m, nx = rows.shape
    nash_basis = [start] + [nx + i for i in range(m)]
    assert _certify(objective, rows, nash_basis) is None
    value, dist = _certify(objective, rows, _float_basis(objective, rows, start))
    assert value / unit == Fraction(97, 126)
    assert sum(dist.values()) == 1


def test_certified_optimum_matches_exact_tableau_on_c4():
    # on C4 the Nash-start basis is feasible but not optimal, and the exact
    # tableau is quick enough to serve as the oracle
    game, params = cycle_game(4), PARAMS
    objective, rows, start, _ = lp_data(game, params)
    m, nx = rows.shape
    assert _certify(objective, rows, [start] + [nx + i for i in range(m)]) is None
    table = PayoffTable(game)
    ref_value, _ = _simplex_max(
        [ev.social_welfare(params) for ev in profile_evaluations(game).values()],
        [Fraction(1)] * table.ncodes,
        [[Fraction(v) for v in row] for row in obedience_rows_reference(table, params)],
        start,
    )
    assert best_correlated_sw(game, params) == ref_value == Fraction(9, 10)


@pytest.mark.parametrize("float_result", ["nash-start", "none"])
def test_failed_certificate_raises_typed_error(monkeypatch, float_result):
    # NC00_C5 at 1/6: the exact tableau took 58-160 s from the Nash vertex,
    # so a failed certificate must end at once, as an input error
    game, params = builtin_game("NC00_C5"), PayoffParams(Fraction(1, 6), Fraction(1))
    objective, rows, start, _ = lp_data(game, params)
    m, nx = rows.shape
    nash_basis = [start] + [nx + i for i in range(m)]
    assert _certify(objective, rows, nash_basis) is None
    monkeypatch.setattr(
        correlated, "_float_basis", lambda *_: nash_basis if float_result == "nash-start" else None
    )
    began = time.perf_counter()
    with pytest.raises(LinearProgramError):
        best_correlated_sw(game, params)
    assert time.perf_counter() - began < 1
    code, out, err = run_cli("corr-lp", "--game", "NC00_C5", "--v0", "1/6", "--v1", "1")
    assert (code, out) == (3, "")
    assert err.startswith("error:")


def test_simplex_raises_typed_errors():
    one = [Fraction(1)] * 2
    # the point mass on column 1 violates the only row
    with pytest.raises(LinearProgramError, match="infeasible"):
        _simplex_max([Fraction(0), Fraction(1)], one, [[Fraction(1), Fraction(-1)]], 1)
    # column 1 is free of the normalisation, so its weight can grow forever
    with pytest.raises(LinearProgramError, match="unbounded"):
        _simplex_max([Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)], [], 0)


def test_missing_nash_start_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(correlated, "_nash_mask", lambda grid, n: np.zeros(grid.shape[0], dtype=bool))
    with pytest.raises(EmptyEquilibriumSetError):
        best_correlated_sw(builtin_game("NC00_C5"), PARAMS)

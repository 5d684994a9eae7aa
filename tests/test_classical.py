"""Classical enumeration: evaluation rows, counts, symmetries, regimes."""

import functools
import random
from fractions import Fraction

import pytest

from grapheq import (
    BUILTIN_NAMES,
    GameSpec,
    Graph,
    PayoffParams,
    QuestionSpec,
    advice_correlation,
    best_csw,
    builtin_game,
    derive_question,
    enumerate_nash,
    enumerate_pareto,
    evaluate,
    game_automorphisms,
    game_from_document,
    partition_orbits,
    profile_to_code,
    ratio_regimes,
    reporting_symmetries,
)
import numpy as np
from hypothesis import given, settings, strategies as st

from grapheq._reference import NC00_NASH_INTERVALS
from grapheq.classical import PayoffTable, _player_axis, build_report, code_to_profile
from helpers import (
    brute_force_sets,
    cycle_game,
    oracle_payoff_table,
    oracle_profile_interval,
    oracle_reporting_symmetries,
    profile_evaluations,
    scaled_document,
    toy_two_player_game,
)

PARAMS = PayoffParams(Fraction(2, 3), Fraction(1))
THIRD, HALF = Fraction(1, 3), Fraction(1, 2)


def times6(payoff):
    return payoff.win_v0 * 6, payoff.win_v1 * 6


def test_evaluate_reference_rows():
    game = builtin_game("NC00_C5")
    ev = evaluate(game, (2, 1, 1, 1, 1))
    assert [times6(p) for p in ev.payoffs] == [(2, 1), (0, 3), (0, 3), (0, 3), (0, 3)]
    ev = evaluate(game, (3, 3, 3, 3, 1))
    assert [times6(p) for p in ev.payoffs] == [(2, 3)] * 4 + [(0, 5)]
    # everyone answering 0 wins the five single-generator questions and
    # loses the all-ones one
    ev = evaluate(game, (0, 0, 0, 0, 0))
    assert ev.p_win == Fraction(5, 6)
    assert ev.win_bits == (0, 1, 1, 1, 1, 1)
    assert all(u == Fraction(5, 9) for u in ev.utilities(PARAMS))


def test_payoff_table_agrees_with_evaluate():
    rng = random.Random(42)
    for name in ("NC00_C5", "NC01_C5", "NC000_C5", "NC00010_C5"):
        game = builtin_game(name)
        table = PayoffTable(game)
        for _ in range(40):
            profile = tuple(rng.randrange(4) for _ in range(5))
            ev = evaluate(game, profile)
            code = profile_to_code(profile, 5)
            assert tuple(table.payoff(code, j) for j in range(5)) == ev.payoffs
            assert table.p_win(code) == ev.p_win


def test_linear_payoff_total_weight():
    game = builtin_game("NC00010_C5")
    ev = evaluate(game, (2, 0, 3, 1, 2))
    for p in ev.payoffs:
        assert p.win_v0 + p.win_v1 + p.lose_v0 + p.lose_v1 == 1
        assert min(p.win_v0, p.win_v1, p.lose_v0, p.lose_v1) >= 0


def test_nash_counts_nc00():
    game = builtin_game("NC00_C5")
    regimes = ratio_regimes(game)
    assert regimes.breakpoints == (THIRD, HALF)
    group = reporting_symmetries(game)
    expected = {(0, THIRD): (20, 4), (THIRD, HALF): (25, 4), (HALF, 1): (40, 6)}
    for (lo, hi), (nprof, norb) in expected.items():
        codes = regimes.codes_on(Fraction(lo), Fraction(hi))
        profiles = [code_to_profile(c, 5) for c in codes]
        orbits = partition_orbits(profiles, group)
        assert (len(profiles), len(orbits)) == (nprof, norb)


def test_nash_fixed_params_matches_interval_membership():
    game = builtin_game("NC00_C5")
    table = PayoffTable(game)
    regimes = ratio_regimes(game, table=table)
    for r in (Fraction(1, 6), THIRD, Fraction(2, 5), HALF, Fraction(2, 3), Fraction(1)):
        profiles = enumerate_nash(game, PayoffParams(r, Fraction(1)), table=table)
        codes = {profile_to_code(p, 5) for p in profiles}
        want = {
            c for c, (lo, hi) in regimes.intervals.items() if lo <= r <= hi
        }
        assert codes == want


def test_regime_interval_reference_rows():
    game = builtin_game("NC00_C5")
    intervals = ratio_regimes(game).intervals
    for profile, (lo, hi) in NC00_NASH_INTERVALS.items():
        assert intervals[profile_to_code(profile, 5)] == (lo, hi)
    # a profile listed in no regime must be Nash nowhere or on a sub-interval
    assert profile_to_code((2, 2, 2, 2, 2), 5) not in intervals


def test_breakpoint_sets_are_unions_of_neighbors():
    for name in ("NC00_C5", "NC01_C5"):
        game = builtin_game(name)
        regimes = ratio_regimes(game)
        for r in regimes.breakpoints:
            left = next(s for s in regimes.segments if s.upper == r)
            right = next(s for s in regimes.segments if s.lower == r)
            assert set(regimes.at_breakpoints[r]) == set(left.codes) | set(right.codes)


def test_nc01_breakpoints_only_at_one_third():
    game = builtin_game("NC01_C5")
    regimes = ratio_regimes(game)
    assert regimes.breakpoints == (THIRD,)


def test_always_winning_game_has_no_breakpoints():
    # an empty generator set imposes no parity condition, so every profile
    # wins and the only deviations left chase the higher answer value
    from grapheq import GameSpec, Graph, QuestionSpec

    pair = Graph.edgeless(2)
    q = QuestionSpec("free", (0, 0), frozenset(), 0, Fraction(1), frozenset())
    game = GameSpec("all-win", pair, (q,))
    regimes = ratio_regimes(game)
    assert regimes.breakpoints == ()
    # profiles answering 1 everywhere are equilibria for every ratio
    always_one = profile_to_code((1, 1), 2)
    assert regimes.intervals[always_one] == (Fraction(0), Fraction(1))
    # an answer of 0 survives only where v0 = v1
    mixed = profile_to_code((0, 1), 2)
    assert regimes.intervals[mixed] == (Fraction(1), Fraction(1))


def test_all_none_profile_never_nash_in_nc01():
    """All-negation admits the constant-1 improving deviation below r = 1.

    Hand check: the deviator keeps the four previously-won questions where
    they answered 1, turns the all-ones question into a win, loses one
    question, and converts two value-v0 wins into value-v1 wins.
    """
    intervals = ratio_regimes(builtin_game("NC01_C5")).intervals
    assert intervals[profile_to_code((3,) * 5, 5)] == (Fraction(1), Fraction(1))


def test_automorphism_orders():
    assert game_automorphisms(builtin_game("NC00_C5")).order == 10
    assert game_automorphisms(builtin_game("NC000_C5")).order == 10
    # the offset type patterns pair each involved set with a rotated type,
    # which reflections cannot preserve
    assert game_automorphisms(builtin_game("NC01_C5")).order == 5
    assert game_automorphisms(builtin_game("NC00010_C5")).order == 5
    for name in ("NC00_C5", "NC01_C5", "NC000_C5", "NC00010_C5"):
        assert reporting_symmetries(builtin_game(name)).order == 10


def test_automorphisms_form_group_and_preserve_nash():
    for name in ("NC00_C5", "NC01_C5"):
        game = builtin_game(name)
        group = game_automorphisms(game)
        perms = set(group.permutations)
        assert tuple(range(5)) in perms
        for a in perms:
            inv = tuple(sorted(range(5), key=lambda j: a[j]))
            assert inv in perms
            for b in perms:
                composed = tuple(a[b[j]] for j in range(5))
                assert composed in perms
        nash = set(enumerate_nash(game, PARAMS))
        for perm in perms:
            assert {group.apply(perm, p) for p in nash} == nash


def test_symmetry_toy_games():
    symmetric = toy_two_player_game()
    assert game_automorphisms(symmetric).order == 2
    lopsided = toy_two_player_game(Fraction(1, 3), Fraction(2, 3), name="toy2")
    assert game_automorphisms(lopsided).order == 1


def path_game(n):
    """The path 0-1-...-(n-1) with one single-generator question per
    player, of weight 1/n: its only symmetries are the identity and the
    reversal."""
    graph = Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))
    questions = []
    for i in range(n):
        der = derive_question(graph, {i})
        bits = tuple(int(j == i) for j in range(n))
        questions.append(QuestionSpec(f"T{i}", bits, der.involved, der.parity, Fraction(1, n), frozenset({i})))
    return GameSpec(f"P{n}", graph, tuple(questions))


def skewed_c5():
    """NC00_C5 with T0 reweighted: the graph keeps all ten automorphisms,
    but only those fixing player 0 keep the weighted type multiset."""
    base = builtin_game("NC00_C5")
    weights = {"Ta": Fraction(1, 6), "T0": Fraction(1, 4)}
    questions = tuple(
        QuestionSpec(q.qid, q.type_bits, q.involved, q.parity, weights.get(q.qid, Fraction(7, 48)), q.generator_set)
        for q in base.questions
    )
    return GameSpec("skewed_C5", base.graph, questions)


SYMMETRY_GAMES = (
    [builtin_game(name) for name in BUILTIN_NAMES]
    + [cycle_game(n) for n in range(4, 9)]
    + [path_game(5), path_game(6), skewed_c5(), toy_two_player_game()]
)


@pytest.mark.parametrize("game", SYMMETRY_GAMES, ids=lambda g: g.name)
def test_reporting_symmetries_match_permutation_scan(game):
    # same permutations in the same lexicographic order
    assert reporting_symmetries(game) == oracle_reporting_symmetries(game)


def test_type_multiset_rejects_graph_automorphisms():
    group = reporting_symmetries(skewed_c5())
    assert group.permutations == ((0, 1, 2, 3, 4), (0, 4, 3, 2, 1))
    assert reporting_symmetries(path_game(6)).permutations == ((0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0))


def test_two_player_game_nash_by_hand():
    """Independent oracle: a two-question game whose equilibria are derivable
    by inspection.

    Winning q0 needs player 0 to answer 0 on type 1; q1 likewise for player
    1.  Both players therefore pin their type-1 answer to 0 and max out the
    free type-0 answer at 1, giving negation as the unique equilibrium when
    v0 < v1, with ties adding constant-0 at v0 = v1.
    """
    game = toy_two_player_game()
    nash = enumerate_nash(game, PayoffParams(Fraction(1, 2), Fraction(1)))
    assert nash == [(3, 3)]
    nash_tied = enumerate_nash(game, PayoffParams(Fraction(1), Fraction(1)))
    assert nash_tied == [(0, 0), (0, 3), (3, 0), (3, 3)]


def test_nash_subset_of_pareto():
    for name in ("NC00_C5", "NC01_C5", "NC000_C5"):
        game = builtin_game(name)
        table = PayoffTable(game)
        for r in (Fraction(1, 6), Fraction(2, 5), Fraction(4, 5)):
            params = PayoffParams(r, Fraction(1))
            nash = set(enumerate_nash(game, params, table=table))
            pareto = set(enumerate_pareto(game, params, table=table))
            assert nash <= pareto


def test_pareto_sets_constant_inside_regimes():
    # two interior sample points per ratio interval give identical sets
    game = builtin_game("NC00_C5")
    table = PayoffTable(game)
    pairs = [
        (Fraction(1, 6), Fraction(1, 4)),
        (Fraction(2, 5), Fraction(5, 12)),
        (Fraction(2, 3), Fraction(9, 10)),
    ]
    for r1, r2 in pairs:
        first = enumerate_pareto(game, PayoffParams(r1, Fraction(1)), table=table)
        second = enumerate_pareto(game, PayoffParams(r2, Fraction(1)), table=table)
        assert first == second


def test_enumeration_order_is_lexicographic():
    game = builtin_game("NC01_C5")
    nash = enumerate_nash(game, PARAMS)
    assert nash == sorted(nash)
    pareto = enumerate_pareto(game, PARAMS)
    assert pareto == sorted(pareto)


def test_best_csw_values_and_argmax():
    game = builtin_game("NC00_C5")
    value, argmax = best_csw(game, PARAMS)
    assert value == Fraction(23, 30)
    assert (2, 2, 1, 1, 1) in argmax
    value, _ = best_csw(builtin_game("NC01_C5"), PARAMS)
    assert value == Fraction(7, 9)


def test_best_csw_pareto_criterion_no_smaller():
    game = builtin_game("NC00_C5")
    nash_value, _ = best_csw(game, PARAMS, "nash")
    pareto_value, _ = best_csw(game, PARAMS, "pareto")
    assert pareto_value >= nash_value


def test_win_bits_match_law_support_for_single_constraint_games():
    # cross-module oracle on the game whose advice laws are all rank 1
    game = builtin_game("NC00_C5")
    advice = advice_correlation(game)
    table = PayoffTable(game)
    for qi, q in enumerate(game.questions):
        law = advice.law(q.qid)
        assert law.rank == 1
        for code in range(0, 1024, 7):
            profile = code_to_profile(code, 5)
            answers = [
                ((0, 0), (1, 1), (0, 1), (1, 0))[profile[j]][q.type_bits[j]] for j in range(5)
            ]
            member = law.probability_of(answers) > 0
            assert member == bool(table.win_bits[code, qi])


def test_report_orbit_ids_cover_entries():
    game = builtin_game("NC00_C5")
    table = PayoffTable(game)
    profiles = enumerate_nash(game, PARAMS, table=table)
    report = build_report(game, profiles, "nash", params=PARAMS, table=table)
    assert report.profile_count == 40 and report.orbit_count == 6
    assert sum(len(o.members) for o in report.orbits) == 40
    for entry in report.entries:
        assert entry.profile in report.orbits[entry.orbit_id].members


def test_player_axis_is_a_view_with_the_player_digit_on_axis_1():
    n = 4
    codes = np.arange(4**n)
    grid = np.stack([codes * 10 + j for j in range(n)], axis=1)
    for j in range(n):
        view = _player_axis(grid[:, j], n, j)
        assert np.shares_memory(view, grid)
        digits = _player_axis(codes, n, j)
        assert all(((digits[:, f] >> (2 * (n - 1 - j))) & 3 == f).all() for f in range(4))
        assert np.array_equal(view, digits * 10 + j)


@functools.lru_cache(maxsize=None)
def _table(name):
    game = builtin_game(name) if name.startswith("NC") else cycle_game(int(name[1:]))
    return game, PayoffTable(game)


def _assert_kernel_matches_oracles(game, table, params):
    sets = brute_force_sets(game, params)
    assert enumerate_nash(game, params, table=table) == sets["nash"]
    assert enumerate_pareto(game, params, table=table) == sets["pareto"]
    regimes = ratio_regimes(game, params.penalty, table)
    oracle = {
        c: span
        for c in range(table.ncodes)
        if (span := oracle_profile_interval(table, c, params.penalty)) is not None
    }
    assert regimes.intervals == oracle
    on = sorted(code_to_profile(c, game.n) for c, (lo, hi) in oracle.items() if lo <= params.ratio <= hi)
    assert on == sets["nash"]


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(["NC00_C5", "NC01_C5", "NC000_C5", "NC00010_C5", "C4", "C5", "C6"]),
    ratio=st.integers(1, 12).flatmap(lambda q: st.integers(1, q).map(lambda p: Fraction(p, q))),
    penalty=st.fractions(min_value=0, max_value=6, max_denominator=7),
)
def test_kernel_matches_brute_force_and_interval_oracle(name, ratio, penalty):
    game, table = _table(name)
    _assert_kernel_matches_oracles(game, table, PayoffParams(ratio, Fraction(1), penalty))


def test_overflow_scale_matches_brute_force_and_interval_oracle():
    # denominators near 2^41 and 7^19 push the utility grid and the regime
    # keys past int64, so both scans must run on Python integers
    game, table = _table("NC00_C5")
    params = PayoffParams(Fraction(2**40 - 1, 2**41 + 1), Fraction(1), Fraction(3**20, 7**19))
    grid, _ = table.utility_grid(params)
    assert grid.dtype == object
    _assert_kernel_matches_oracles(game, table, params)


TABLE_ARRAYS = ("win0", "win1", "lose0", "lose1", "win_bits", "pwin_num")


def _assert_table_matches_oracle(table, game):
    oracle = oracle_payoff_table(game)
    for name in TABLE_ARRAYS:
        got = getattr(table, name)
        assert got.shape == oracle[name].shape, name
        assert np.array_equal(got, oracle[name]), name
    # stored player-major: each player's column is contiguous
    for c in (table.win0, table.win1, table.lose0, table.lose1):
        assert all(c[:, j].flags.c_contiguous for j in range(table.n))


@pytest.mark.parametrize(
    "game",
    [builtin_game(name) for name in BUILTIN_NAMES] + [cycle_game(n) for n in range(4, 9)] + [path_game(5)],
    ids=lambda g: g.name,
)
def test_payoff_table_matches_loop_oracle(game):
    table = PayoffTable(game)
    assert table.win0.dtype == np.int8 and table.pwin_num.dtype == np.int64
    _assert_table_matches_oracle(table, game)


@pytest.mark.parametrize(
    "scale, dtype",
    [
        (127, np.int8),
        (128, np.int64),
        (2**62 - 1, np.int64),
        (2**62, object),
        (2**70, object),
    ],
)
def test_payoff_table_dtype_boundaries(scale, dtype):
    # int8 while it holds the scale, then int64; Python ints from 2^62
    game, _ = game_from_document(scaled_document(scale))
    table = PayoffTable(game)
    assert table.scale == scale
    for c in (table.win0, table.win1, table.lose0, table.lose1):
        assert c.dtype == dtype
    assert table.pwin_num.dtype == (object if dtype is object else np.int64)
    _assert_table_matches_oracle(table, game)
    for code in (0, 341, 682, 1023):
        ev = evaluate(game, code_to_profile(code, 5))
        assert tuple(table.payoff(code, j) for j in range(5)) == ev.payoffs
        assert table.p_win(code) == ev.p_win


def test_int8_entries_at_the_limit_match_evaluate():
    # entries of 126 sit next to the int8 limit, so every product the
    # grid, the welfare sums and the regime keys take from them must cast
    game, params = game_from_document(scaled_document(127))
    table = PayoffTable(game)
    coefficients = (table.win0, table.win1, table.lose0, table.lose1)
    assert all(c.dtype == np.int8 for c in coefficients)
    assert max(int(c.max()) for c in coefficients) == 126
    evals = profile_evaluations(game)
    codes = np.arange(table.ncodes)
    for p in (params, PayoffParams(Fraction(5, 7), Fraction(3), Fraction(11, 2))):
        grid, den = table.utility_grid(p)
        nums, wden = table.welfare_nums(codes, p)
        for code in codes:
            utils = evals[code_to_profile(int(code), game.n)].utilities(p)
            assert tuple(Fraction(int(u), den) for u in grid[code]) == utils
            assert Fraction(int(nums[code]), wden) == sum(utils)
        _assert_kernel_matches_oracles(game, table, p)

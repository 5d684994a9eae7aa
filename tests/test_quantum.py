"""Advice correlation guarantees and the quantum equilibrium decision."""

import itertools
import json
from fractions import Fraction

import pytest
from helpers import cycle_game, edgeless, oracle_deviation_payoff_coefficients, p_involved_given_advice, run_cli
from hypothesis import given, settings, strategies as st

from grapheq import (
    DEVIATION_POLICIES,
    GameSpec,
    Graph,
    PayoffParams,
    QuestionSpec,
    UnsupportedGameError,
    advice_correlation,
    builtin_game,
    derive_question,
    deviation_payoff_coefficients,
    deviation_table,
    game_from_document,
    is_quantum_nash,
    outcome_law,
    quantum_player_utilities,
    quantum_threshold,
    qsw,
    verify_perfect_win,
    verify_uniform_and_belief_invariant,
)

BUILTINS = ("NC00_C5", "NC01_C5", "NC000_C5", "NC00010_C5")
PARAMS = PayoffParams(Fraction(2, 3), Fraction(1))


def test_advice_law_examples():
    nc00 = builtin_game("NC00_C5")
    advice = advice_correlation(nc00)
    law = advice["Ta"]
    assert law.rank == 1
    assert law.parity_distribution(range(5)) == {1: Fraction(1)}
    law = advice["T0"]
    assert law.parity_distribution([0, 1, 4]) == {0: Fraction(1)}

    nc01 = builtin_game("NC01_C5")
    advice01 = advice_correlation(nc01)
    law = advice01["T0"]
    # the involved-set constraint holds surely, a second generator adds one
    # more, and the uninvolved player's advice stays uniform
    assert law.parity_distribution([4, 0, 1]) == {0: Fraction(1)}
    assert law.rank == 2
    assert law.marginal([2]) == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}


def test_advice_requires_generator_sets():
    pair = edgeless(2)
    q = QuestionSpec("q", (1, 1), frozenset({0, 1}), 0, Fraction(1), None)
    game = GameSpec("toy", pair, (q,))
    with pytest.raises(UnsupportedGameError):
        advice_correlation(game)


def test_perfect_win_all_builtins():
    for name in BUILTINS:
        report = verify_perfect_win(builtin_game(name))
        assert report.all_perfect
        assert all(p == 1 for p in report.win_probability.values())


def test_flipped_parity_target_loses_surely():
    # the advice law concentrates on one parity; pointing the target at the
    # other one is lost with certainty
    game = builtin_game("NC00_C5")
    law = outcome_law(game.graph, ("X", "Z", "Z", "Z", "Z"))
    dist = law.parity_distribution([0, 1, 4])
    assert dist.get(0, Fraction(0)) == 1
    assert dist.get(1, Fraction(0)) == 0


def test_uniformity_and_belief_invariance():
    for name in BUILTINS:
        report = verify_uniform_and_belief_invariant(builtin_game(name))
        assert report.ok


def test_deterministic_advice_flagged():
    # an edgeless pair measured in X answers (0, 0) deterministically, so
    # the uniformity check must reject it
    pair = edgeless(2)
    d = derive_question(pair, {0, 1})
    q = QuestionSpec("q", (1, 1), d.involved, d.parity, Fraction(1), frozenset({0, 1}))
    game = GameSpec("toy", pair, (q,))
    assert verify_perfect_win(game).all_perfect
    report = verify_uniform_and_belief_invariant(game)
    assert report.uniform_violations


def test_p_involved_given_advice_is_advice_independent():
    game = builtin_game("NC01_C5")
    assert p_involved_given_advice(game, 0, 0, 0) == Fraction(2, 3)
    assert p_involved_given_advice(game, 0, 0, 1) == Fraction(2, 3)
    pair = edgeless(2)
    d = derive_question(pair, {0, 1})
    q = QuestionSpec("q", (1, 1), d.involved, d.parity, Fraction(1), frozenset({0, 1}))
    toy = GameSpec("toy", pair, (q,))
    with pytest.raises(UnsupportedGameError):
        p_involved_given_advice(toy, 0, 1, 0)


def test_threshold_values():
    assert quantum_threshold(builtin_game("NC00_C5")).p == Fraction(1, 2)
    assert quantum_threshold(builtin_game("NC01_C5")).p == Fraction(2, 3)
    assert quantum_threshold(builtin_game("NC00010_C5")).p == Fraction(8, 13)
    thr = quantum_threshold(builtin_game("NC01_C5"))
    assert thr.bound == Fraction(1, 3)


def test_is_quantum_nash_examples():
    nc00 = builtin_game("NC00_C5")
    assert is_quantum_nash(nc00, PayoffParams(Fraction(2, 3), Fraction(1)))
    assert not is_quantum_nash(nc00, PayoffParams(Fraction(1, 3), Fraction(1)))
    # boundary holds with the weak inequality
    nc01 = builtin_game("NC01_C5")
    assert is_quantum_nash(nc01, PayoffParams(Fraction(1, 3), Fraction(1)))
    with pytest.raises(ValueError):
        is_quantum_nash(nc00, PayoffParams(Fraction(1, 2), Fraction(1), Fraction(1)))


# vertex 0 is isolated, so its X-measured advice bit is always 0: the
# advice is not uniform, and the involvement bound does not decide the game
ISOLATED_VERTEX_DOC = {
    "name": "iso3",
    "n": 3,
    "edges": [[1, 2]],
    "questions": [
        {"id": "q0", "t": "110", "K": [0], "w": "1/4"},
        {"id": "q1", "t": "110", "K": [0, 1], "w": "1/4"},
        {"id": "q2", "t": "101", "K": [2], "w": "1/4"},
        {"id": "q3", "t": "010", "K": [1], "w": "1/4"},
    ],
}


def oracle_is_quantum_nash(game, params):
    """No player gains by any of the 16 policies, in Fractions.

    Each policy is measured against the player's utility for following the
    advice, read from the advice marginals by ``quantum_player_utilities``.
    """
    advice = advice_correlation(game)
    follow = quantum_player_utilities(game, params)
    return all(
        c0 * params.v0 + c1 * params.v1 <= follow[player]
        for player in range(game.n)
        for c0, c1 in (
            oracle_deviation_payoff_coefficients(game, advice, player, policy) for policy in DEVIATION_POLICIES
        )
    )


def test_non_uniform_advice_is_measured_against_following():
    # player 0's advice is always 0 on its isolated vertex, so following is
    # worth 7/8 v0 + 1/8 v1 to them, not (v0+v1)/2; answering 1 on the
    # type-0 round q3, where they are not involved, earns 3/4 v0 + 1/4 v1
    game, _ = game_from_document(ISOLATED_VERTEX_DOC)
    advice = advice_correlation(game)
    params = PayoffParams(Fraction(1, 2), Fraction(1))
    assert quantum_player_utilities(game, params)[0] == Fraction(9, 16)
    assert deviation_payoff_coefficients(game, advice, 0, (0, 1, 0, 1)) == (Fraction(7, 8), Fraction(1, 8))
    assert deviation_payoff_coefficients(game, advice, 0, (1, 1, 0, 1)) == (Fraction(3, 4), Fraction(1, 4))
    assert not is_quantum_nash(game, params)


def test_quantum_decides_non_uniform_advice_by_the_scan(tmp_path):
    game, _ = game_from_document(ISOLATED_VERTEX_DOC)
    assert verify_uniform_and_belief_invariant(game).uniform_violations[0] == ("q0", 0)
    path = tmp_path / "iso3.json"
    path.write_text(json.dumps(ISOLATED_VERTEX_DOC), encoding="utf-8")
    for v0, want in (("1/4", False), ("1/3", False), ("1/2", False), ("1", True)):
        assert oracle_is_quantum_nash(game, PayoffParams(Fraction(v0), Fraction(1))) == want
        code, out, err = run_cli("quantum", "--game", str(path), "--v0", v0, "--v1", "1")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["uniformAdvice"], doc["bound"], doc["isNash"]) == (False, "v0/v1 >= 1", want), v0


def test_is_quantum_nash_matches_bound_on_uniform_corpus():
    # every builtin and cycle has uniform, belief-invariant advice, where
    # the bound is the closed form of the scan
    games = [builtin_game(name) for name in BUILTINS] + [cycle_game(n) for n in range(3, 9)]
    for game in games:
        bound = quantum_threshold(game).bound
        for i in range(61):
            r = Fraction(i, 60)
            assert is_quantum_nash(game, PayoffParams(r, Fraction(1))) == (r >= bound), (game.name, r)


@st.composite
def stabilizer_games(draw):
    """A random graph on 2..5 vertices with distinct valid generator sets;
    the type bits of uninvolved players are free."""
    n = draw(st.integers(2, 5))
    graph = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if draw(st.booleans())])
    valid = []
    for bits in range(1, 2**n):
        der = derive_question(graph, {j for j in range(n) if (bits >> j) & 1})
        if der.valid:
            valid.append(der)
    chosen = draw(st.lists(st.sampled_from(valid), min_size=1, max_size=6, unique_by=lambda d: d.generator_set))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(chosen), max_size=len(chosen)))
    questions = []
    for i, (der, w) in enumerate(zip(chosen, weights)):
        free = draw(st.integers(0, 2**n - 1))
        bits = tuple(
            1 if j in der.generator_set else 0 if j in der.involved else (free >> j) & 1 for j in range(n)
        )
        questions.append(
            QuestionSpec(f"q{i}", bits, der.involved, der.parity, Fraction(w, sum(weights)), der.generator_set)
        )
    return GameSpec("random", graph, tuple(questions))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    game=stabilizer_games(),
    ratio=st.integers(1, 12).flatmap(lambda q: st.integers(0, q).map(lambda p: Fraction(p, q))),
    v1=st.sampled_from([Fraction(1), Fraction(7, 3)]),
)
def test_is_quantum_nash_equals_policy_oracle(game, ratio, v1):
    params = PayoffParams(ratio * v1, v1)
    assert is_quantum_nash(game, params) == oracle_is_quantum_nash(game, params)


def test_methods_agree_on_grid():
    # spot grid here; the full 101-point sweep runs in the acceptance suite
    for name in ("NC00_C5", "NC01_C5"):
        game = builtin_game(name)
        threshold, table = quantum_threshold(game), deviation_table(game)
        for i in range(0, 101, 10):
            r = Fraction(i, 100)
            assert (r >= threshold.bound) == table.advice_is_nash(r, Fraction(1))


def test_deviation_witness_below_threshold():
    """Answering 1 on every type-0 round gains (v1 - 2*v0)/6 on NC00_C5."""
    game = builtin_game("NC00_C5")
    advice = advice_correlation(game)
    policy = (1, 1, 0, 1)  # type 0 -> always 1; type 1 -> follow advice
    c0, c1 = deviation_payoff_coefficients(game, advice, 0, policy)
    assert (c0, c1) == (Fraction(1, 6), Fraction(2, 3))
    params = PayoffParams(Fraction(1, 3), Fraction(1))
    gain = c0 * params.v0 + c1 * params.v1 - qsw(params)
    assert gain == Fraction(1, 18)


def test_follow_advice_policy_recovers_baseline():
    follow = (0, 1, 0, 1)
    for name in BUILTINS:
        game = builtin_game(name)
        advice = advice_correlation(game)
        for player in range(game.n):
            c0, c1 = deviation_payoff_coefficients(game, advice, player, follow)
            assert (c0, c1) == (Fraction(1, 2), Fraction(1, 2))
    assert len(DEVIATION_POLICIES) == 16


def test_qsw_values_and_direct_utilities():
    assert qsw(PARAMS) == Fraction(5, 6)
    assert qsw(PayoffParams(Fraction(1), Fraction(1))) == 1
    assert qsw(PayoffParams(Fraction(0), Fraction(1))) == Fraction(1, 2)
    for name in BUILTINS:
        utils = quantum_player_utilities(builtin_game(name), PARAMS)
        assert all(u == Fraction(5, 6) for u in utils)


def test_deviation_table_matches_per_policy_oracle():
    for game in [builtin_game(name) for name in BUILTINS] + [cycle_game(4)]:
        advice = advice_correlation(game)
        table = deviation_table(game, advice)
        for player in range(game.n):
            for (c0, c1), policy in zip(table.rows[player], DEVIATION_POLICIES):
                want = oracle_deviation_payoff_coefficients(game, advice, player, policy)
                assert (Fraction(c0, table.scale), Fraction(c1, table.scale)) == want, (game.name, player, policy)
                assert deviation_payoff_coefficients(game, advice, player, policy) == want


def test_integer_deviation_scan_matches_fraction_comparison():
    # every ratio i/60, including each game's threshold and the ties at 1
    for name in BUILTINS:
        game = builtin_game(name)
        advice = advice_correlation(game)
        table = deviation_table(game, advice)
        coeff = [
            oracle_deviation_payoff_coefficients(game, advice, player, policy)
            for player in range(game.n)
            for policy in DEVIATION_POLICIES
        ]
        for i in range(61):
            for v1 in (Fraction(1), Fraction(7, 3)):
                v0 = Fraction(i, 60) * v1
                want = all(c0 * v0 + c1 * v1 <= (v0 + v1) / 2 for c0, c1 in coeff)
                assert table.advice_is_nash(v0, v1) == want, (name, v0, v1)
                params = PayoffParams(v0, v1)
                assert is_quantum_nash(game, params) == want


def test_deviation_policy_must_be_four_bits():
    game = builtin_game("NC00_C5")
    advice = advice_correlation(game)
    for policy in ((0, 1, 0), (0, 1, 0, 2)):
        with pytest.raises(ValueError):
            deviation_payoff_coefficients(game, advice, 0, policy)

"""Penalty pruning, k-fold repetition, and the separation calculator."""

import itertools
import json
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from grapheq import (
    BUILTIN_NAMES,
    EmptyEquilibriumSetError,
    GameSpec,
    Graph,
    GroupTable,
    LinearProgramError,
    PayoffParams,
    ProductGameSpec,
    SizeLimitError,
    UnsupportedGameError,
    best_correlated_sw,
    best_csw,
    builtin_game,
    enumerate_nash,
    enumerate_pareto,
    evaluate,
    evaluate_product,
    kfold,
    kfold_best_csw,
    kfold_bruteforce_csw,
    penalty_report,
    players_needed,
    profile_to_code,
    qsw,
    verify_product_perfect_win,
)
from grapheq.amplification import (
    _kfold_csws,
    _product_perfect_win_enumerated,
    product_nash_matrix_bruteforce,
    product_nash_matrix_decomposition,
)
from grapheq.classical import PayoffTable, code_to_profile
from helpers import (
    sum_win_util,
    cycle_game,
    obedience_violations,
    oracle_kfold_csw,
    oracle_product_best_csw,
    oracle_product_nash_matrix,
    p_win,
    run_cli,
    toy_two_player_game,
)

PARAMS = PayoffParams(Fraction(2, 3), Fraction(1))


# ---------------------------------------------------------------------------
# penalty


def test_penalty_examples():
    game = builtin_game("NC01_C5")
    v0, v1, ng = Fraction(2, 3), Fraction(1), Fraction(4)
    rep = penalty_report(game, PayoffParams(v0, v1, ng))
    assert [e.profile for e in rep.equilibria.entries] == [(0,) * 5, (3,) * 5]
    assert rep.social_welfares[0] == (-ng * v0 + 5 * v0) / 6
    assert rep.social_welfares[1] == (-ng * v0 + 2 * v0 + 3 * v1) / 6
    assert rep.quantum_sw == Fraction(5, 6)


def test_penalty_zero_reduces_to_base_game():
    game = builtin_game("NC01_C5")
    rep = penalty_report(game, PARAMS)
    base = enumerate_nash(game, PARAMS)
    assert [e.profile for e in rep.equilibria.entries] == base


def test_penalty_sweep_keeps_two_equilibria():
    game = builtin_game("NC01_C5")
    for ng in (Fraction(301, 100), Fraction(4), Fraction(10), Fraction(100)):
        rep = penalty_report(game, PayoffParams(Fraction(2, 3), Fraction(1), ng))
        assert len(rep.equilibria.entries) == 2
        assert rep.quantum_sw == Fraction(5, 6)


def test_penalty_best_sw_decreases_linearly():
    # on the two surviving equilibria the best SW is an exact linear
    # function of the penalty, while the advice SW never moves
    game = builtin_game("NC01_C5")
    v0 = Fraction(2, 3)
    values = {}
    for ng in (Fraction(4), Fraction(10), Fraction(100)):
        rep = penalty_report(game, PayoffParams(v0, Fraction(1), ng))
        values[ng] = max(rep.social_welfares)
    for ng, value in values.items():
        assert value == (-ng * v0 + 2 * v0 + 3) / 6
    best = None
    for ng in (Fraction(0), Fraction(1), Fraction(4), Fraction(10)):
        rep = penalty_report(game, PayoffParams(v0, Fraction(1), ng))
        current = max(rep.social_welfares)
        if best is not None:
            assert current <= best
        best = current


def assert_welfares_match_evaluate(game, params, table):
    """``best_csw`` and the ``penalty_report`` welfares against every Nash
    profile rescored by ``evaluate`` in Fractions."""
    profiles = enumerate_nash(game, params, table=table)
    rescored = [evaluate(game, p).social_welfare(params) for p in profiles]
    assert penalty_report(game, params, table=table).social_welfares == tuple(rescored)
    if not profiles:
        with pytest.raises(EmptyEquilibriumSetError):
            best_csw(game, params, table=table)
        return
    best = max(rescored)
    assert best_csw(game, params, table=table) == (
        best,
        [p for p, sw in zip(profiles, rescored) if sw == best],
    )


WELFARE_GAMES = [builtin_game(name) for name in BUILTIN_NAMES] + [cycle_game(n) for n in (4, 5, 6)]


@pytest.mark.parametrize("game", WELFARE_GAMES, ids=lambda g: g.name)
def test_integer_welfare_matches_evaluate(game):
    table = PayoffTable(game)
    for ratio in (Fraction(1, 6), Fraction(1, 3), Fraction(37, 60), Fraction(2, 3)):
        for ng in (0, 4):
            assert_welfares_match_evaluate(game, PayoffParams(ratio, 1, ng), table)


def test_integer_welfare_pareto_matches_evaluate():
    for name in BUILTIN_NAMES:
        game = builtin_game(name)
        params = PayoffParams(Fraction(37, 60), 1, 4)
        profiles = enumerate_pareto(game, params)
        rescored = {p: evaluate(game, p).social_welfare(params) for p in profiles}
        best = max(rescored.values())
        assert best_csw(game, params, "pareto") == (best, [p for p in profiles if rescored[p] == best])


def test_integer_welfare_exact_past_int64():
    # at v1/v0 = 2^59 every utility fits int64, but a Nash row sum does not
    game = builtin_game("NC00_C5")
    table = PayoffTable(game)
    params = PayoffParams(Fraction(1, 2**59), 1)
    grid, _ = table.utility_grid(params)
    assert grid.dtype == np.int64
    nash = [profile_to_code(p, 5) for p in enumerate_nash(game, params, table=table)]
    assert max(sum(int(u) for u in grid[code]) for code in nash) >= 2**63
    for ng in (0, 4):
        assert_welfares_match_evaluate(game, PayoffParams(params.v0, 1, ng), table)
    # the correlated LP's objective is the same row sum: certified or refused
    for name in BUILTIN_NAMES:
        game = builtin_game(name)
        for e in range(55, 63):
            params = PayoffParams(Fraction(1, 2**e), 1)
            try:
                value, dist = best_correlated_sw(game, params, return_distribution=True)
            except LinearProgramError:
                continue
            assert value >= best_csw(game, params)[0]
            assert obedience_violations(game, params, dist) == []
    code, out, _ = run_cli("corr-lp", "--game", "NC00010_C5", "--v0", f"1/{2**57}", "--v1", "1", "--format", "json")
    assert code == 0 and json.loads(out)["bestCorrelatedSW"] == "8/13"
    assert run_cli("corr-lp", "--game", "NC000_C5", "--v0", f"1/{2**58}", "--v1", "1")[:2] == (3, "")


# ---------------------------------------------------------------------------
# k-fold structure


def test_kfold_shapes():
    game = builtin_game("NC00_C5")
    one = kfold(game, 1)
    assert one.players == 5 and len(one.joint_questions()) == 6
    two = kfold(game, 2)
    assert two.players == 10
    joints = two.joint_questions()
    assert len(joints) == 36
    assert all(j.weight == Fraction(1, 36) for j in joints)
    assert two.graph.n == 10 and len(two.graph.edges) == 10
    with pytest.raises(ValueError):
        kfold(game, 0)


def test_factorization_identity_random_profiles():
    """Direct product evaluation equals own-group utility times the other
    group's win probability, for both groups."""
    game = builtin_game("NC00_C5")
    gt = GroupTable(game, PARAMS)
    product = kfold(game, 2)
    rng = random.Random(314)
    for _ in range(1000):
        a = rng.randrange(1024)
        b = rng.randrange(1024)
        direct = evaluate_product(
            product, code_to_profile(a, 5) + code_to_profile(b, 5), PARAMS
        )
        pa, pb = p_win(gt, a), p_win(gt, b)
        for j in range(5):
            assert direct[j] == Fraction(int(gt.win_util_num[a, j]), gt.util_scale) * pb
            assert direct[5 + j] == Fraction(int(gt.win_util_num[b, j]), gt.util_scale) * pa


def test_factorization_identity_exhaustive_one_group():
    game = builtin_game("NC00_C5")
    gt = GroupTable(game, PARAMS)
    product = kfold(game, 2)
    a = profile_to_code((2, 2, 1, 1, 1), 5)
    pa = p_win(gt, a)
    own = [Fraction(int(gt.win_util_num[a, j]), gt.util_scale) for j in range(5)]
    for b in range(1024):
        direct = evaluate_product(product, (2, 2, 1, 1, 1) + code_to_profile(b, 5), PARAMS)
        pb = p_win(gt, b)
        for j in range(5):
            assert direct[j] == own[j] * pb
            assert direct[5 + j] == Fraction(int(gt.win_util_num[b, j]), gt.util_scale) * pa


def test_kfold_one_group_matches_base():
    game = builtin_game("NC00_C5")
    dec = kfold_best_csw(game, 1, PARAMS)
    bf = kfold_bruteforce_csw(game, 1, PARAMS)
    assert dec.csw == bf.csw == Fraction(23, 30)


def test_kfold_two_groups_decomposition_equals_bruteforce():
    game = builtin_game("NC00_C5")
    gt = GroupTable(game, PARAMS)
    rule = product_nash_matrix_decomposition(gt)
    brute = product_nash_matrix_bruteforce(game, PARAMS, gt)
    assert np.array_equal(rule, brute)
    dec = kfold_best_csw(game, 2, PARAMS, gt=gt)
    bf = kfold_bruteforce_csw(game, 2, PARAMS, gt=gt)
    assert dec.csw == bf.csw == Fraction(23, 36)
    assert bf.nash_count == int(rule.sum())


def test_kfold_zero_factor_verification_mode():
    """Pairs with a zero-win-probability side have social welfare 0, which
    is why the decomposition search may skip them."""
    for game in (builtin_game("NC00_C5"), toy_two_player_game()):
        gt = GroupTable(game, PARAMS)
        rule = product_nash_matrix_decomposition(gt)
        zero_side = gt.zero_pwin[:, None] | gt.zero_pwin[None, :]
        cross = np.outer(gt.sum_util_num, gt.pwin_num)
        sw_scaled = cross + cross.T
        assert not np.any(sw_scaled[rule & zero_side] != 0)
        # no winning round means no winning utility
        assert not np.any(gt.sum_util_num[gt.zero_pwin] != 0)
        dec = kfold_best_csw(game, 2, PARAMS, gt=gt)
        assert dec.csw == kfold_bruteforce_csw(game, 2, PARAMS, gt=gt).csw
    # NC00 has no profile losing every question, the toy game has some
    assert not GroupTable(builtin_game("NC00_C5"), PARAMS).zero_pwin.any()
    assert GroupTable(toy_two_player_game(), PARAMS).zero_pwin.any()
    assert kfold_best_csw(builtin_game("NC00_C5"), 2, PARAMS).csw == Fraction(23, 36)


def test_kfold_decay_factor_constant():
    game = builtin_game("NC00_C5")
    gt = GroupTable(game, PARAMS)
    csw = [kfold_best_csw(game, k, PARAMS, gt=gt).csw for k in (1, 2, 3, 4)]
    decays = [csw[i + 1] / csw[i] for i in range(3)]
    assert decays == [Fraction(5, 6)] * 3
    report = kfold_best_csw(game, 2, PARAMS, gt=gt)
    assert report.decay_factor == Fraction(5, 6)
    assert report.ratio == report.csw / qsw(PARAMS)


def test_kfold_bruteforce_size_limit():
    with pytest.raises(SizeLimitError):
        kfold_bruteforce_csw(builtin_game("NC00_C5"), 3, PARAMS)
    with pytest.raises(SizeLimitError, match="12 players"):
        kfold_bruteforce_csw(cycle_game(7), 2, PARAMS)


def test_kfold_bruteforce_twelve_players():
    # C6 at k=2: 4^12 pairs, the largest product the brute force takes
    game = cycle_game(6)
    gt = GroupTable(game, PARAMS)
    rule = product_nash_matrix_decomposition(gt)
    assert np.array_equal(product_nash_matrix_bruteforce(game, PARAMS, gt), rule)
    bf = kfold_bruteforce_csw(game, 2, PARAMS, gt=gt)
    assert bf.csw == kfold_best_csw(game, 2, PARAMS, gt=gt).csw == oracle_kfold_csw(gt, 2)
    assert bf.nash_count == int(rule.sum()) == 10000


def test_kfold_bruteforce_memory_stays_bounded():
    # with dense 4^5 x 4^5 integer pair matrices this call peaked at 17 MiB
    game = builtin_game("NC00_C5")
    tracemalloc.start()
    try:
        kfold_bruteforce_csw(game, 2, PARAMS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


STREAM_CASES = [
    (builtin_game(name), PayoffParams(ratio, Fraction(1)))
    for name in BUILTIN_NAMES
    for ratio in (Fraction(1, 6), Fraction(37, 60), Fraction(2, 3))
] + [
    # a deviation gain times a win probability overflows int64 here
    (builtin_game("NC00_C5"), PayoffParams(Fraction(1, 2**59), Fraction(1))),
    (builtin_game("NC000_C5"), PayoffParams(Fraction(1, 2**58), Fraction(1))),
    # profiles that never win: against them every profile of the other
    # group is unimprovable
    (toy_two_player_game(), PARAMS),
]


@pytest.mark.parametrize(
    "game, params", STREAM_CASES, ids=[f"{g.name}-{p.ratio}" for g, p in STREAM_CASES]
)
def test_streamed_bruteforce_equals_dense_formula(game, params):
    gt = GroupTable(game, params)
    dense = oracle_product_nash_matrix(gt)
    assert np.array_equal(product_nash_matrix_bruteforce(game, params, gt), dense)
    bf = kfold_bruteforce_csw(game, 2, params, gt=gt)
    assert bf.csw == oracle_product_best_csw(gt, dense)
    assert bf.nash_count == int(dense.sum())


def test_product_perfect_win():
    game = builtin_game("NC00_C5")
    for k in (1, 2, 3):
        assert verify_product_perfect_win(kfold(game, k))
    for name in ("NC01_C5", "NC000_C5", "NC00010_C5"):
        assert verify_product_perfect_win(kfold(builtin_game(name), 2))


def test_product_perfect_win_four_groups():
    assert verify_product_perfect_win(kfold(builtin_game("NC00_C5"), 4))


def _with_question(game, index, **changes):
    """``game`` with one question replaced, its generator set dropped so the
    stated involved set and parity are taken as given."""
    questions = list(game.questions)
    questions[index] = replace(questions[index], generator_set=None, **changes)
    return GameSpec(game.name + "-changed", game.graph, tuple(questions))


def _losing_games():
    nc00 = builtin_game("NC00_C5")
    flipped = _with_question(nc00, 1, parity=1 - nc00.questions[1].parity)
    # an all-Z round on a graph state gives a fair coin for player 0 alone
    coin = _with_question(nc00, 1, type_bits=(0,) * 5, involved=frozenset({0}))
    return [flipped, coin]


def test_factorised_product_win_equals_enumeration():
    cases = [(builtin_game(name), k) for name in BUILTIN_NAMES for k in (1, 2)]
    cases += [(builtin_game("NC00_C5"), 3), (cycle_game(4), 2)]
    cases += [(game, k) for game in _losing_games() for k in (1, 2)]
    answers = []
    for game, k in cases:
        product = kfold(game, k)
        got = verify_product_perfect_win(product)
        assert got == _product_perfect_win_enumerated(product), (game.name, k)
        answers.append(got)
    assert answers.count(False) == 4


def test_product_perfect_win_at_players_needed_k():
    # players-needed reports k=26 for eps=1/100; the claim is checked there
    assert verify_product_perfect_win(kfold(builtin_game("NC00_C5"), 26))
    for game in _losing_games():
        assert not verify_product_perfect_win(kfold(game, 26))
    with pytest.raises(SizeLimitError):
        _product_perfect_win_enumerated(kfold(builtin_game("NC00_C5"), 5))


def test_product_perfect_win_checks_group_structure():
    class Bridged(ProductGameSpec):
        @property
        def graph(self):
            g = super().graph
            return Graph.from_edges(g.n, set(g.edges) | {(4, 5)})

    class Trimmed(ProductGameSpec):
        @property
        def graph(self):
            g = super().graph
            return Graph.from_edges(g.n, set(g.edges) - {(5, 6)})

    game = builtin_game("NC00_C5")
    for cls in (Bridged, Trimmed):
        with pytest.raises(UnsupportedGameError):
            verify_product_perfect_win(cls(game, 2))


def test_product_advice_marginals_stay_uniform():
    # advice on the doubled graph still hands every player a fair bit, so
    # the advice SW of the product game is (v0+v1)/2 as well
    from grapheq import outcome_law
    from grapheq.quantum import bases_for_types

    product = kfold(builtin_game("NC01_C5"), 2)
    joint = product.joint_questions()[7]
    bases = []
    for q in joint.parts:
        bases.extend(bases_for_types(q.type_bits))
    law = outcome_law(product.graph, bases)
    for j in range(10):
        assert law.marginal([j]) == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}


def test_product_evaluation_with_penalty():
    # losing rounds charge -Ng * v_answer; the direct summation matches the
    # win/lose split computed from base-game tables
    game = builtin_game("NC00_C5")
    ng = Fraction(3)
    params = PayoffParams(Fraction(2, 3), Fraction(1), ng)
    gt = GroupTable(game, PARAMS)  # penalty-free winning utilities
    product = kfold(game, 2)
    a, b = (2, 2, 1, 1, 1), (0, 0, 0, 0, 0)
    direct = evaluate_product(product, a + b, params)
    ca, cb = profile_to_code(a, 5), profile_to_code(b, 5)
    pa, pb = p_win(gt, ca), p_win(gt, cb)
    for j, code, own_pwin, other_pwin in ((0, ca, pa, pb), (5, cb, pb, pa)):
        for i in range(5):
            payoff = gt.table.payoff(code, i)
            win_u = payoff.win_v0 * params.v0 + payoff.win_v1 * params.v1
            avg = (payoff.win_v0 + payoff.lose_v0) * params.v0 + (
                payoff.win_v1 + payoff.lose_v1
            ) * params.v1
            assert direct[j + i] == (1 + ng) * win_u * other_pwin - ng * avg


def test_players_needed_examples():
    game = builtin_game("NC00_C5")
    res = players_needed(game, PARAMS, Fraction(92, 100))
    assert (res.k, res.player_count, res.achieved_ratio) == (1, 5, Fraction(23, 25))
    res = players_needed(game, PARAMS, Fraction(1, 100))
    assert (res.k, res.player_count) == (26, 130)
    assert res.achieved_ratio <= Fraction(1, 100)
    assert res.decay_factor == Fraction(5, 6) and res.geometric
    res = players_needed(game, PARAMS, Fraction(1))
    assert res.k == 1
    with pytest.raises(ValueError):
        players_needed(game, PARAMS, Fraction(0))


def test_players_needed_monotone_in_eps():
    game = builtin_game("NC00_C5")
    ks = [players_needed(game, PARAMS, Fraction(1, 10**m)).k for m in range(1, 5)]
    assert ks == sorted(ks)


def _multiset_walk(pairs, zero_pwin, k):
    """Best sum_g u_g * prod_{h != g} w_h over every multiset of k groups
    from ``pairs``; a group of zero win probability makes the welfare 0."""
    best = max(
        sum(u * math.prod(w for h, (w, _) in enumerate(combo) if h != g) for g, (_, u) in enumerate(combo))
        for combo in itertools.combinations_with_replacement(pairs, k)
    )
    return max(best, 0) if k >= 2 and zero_pwin else best


def test_kfold_csws_match_multiset_walk():
    # random integer tables with ties in w and in u, u = 0, and profiles of
    # zero win probability present or absent; at most 6 distinct w values
    # keep the frontier at F <= 6
    rng = random.Random(18)
    for _ in range(120):
        size = rng.randint(1, 8)
        pwin = [rng.randint(1, 6) for _ in range(size)]
        util = [rng.choice((0, rng.randint(0, 6))) for _ in range(size)]
        nash = [True] + [rng.random() < 0.7 for _ in range(size - 1)]
        if rng.random() < 0.5:
            pwin.append(0)
            util.append(0)
            nash.append(rng.random() < 0.5)
        gt = SimpleNamespace(
            nash=np.array(nash),
            zero_pwin=np.array(pwin) == 0,
            pwin_num=np.array(pwin),
            sum_util_num=np.array(util),
            util_scale=rng.randint(1, 5),
            pwin_scale=7,
            game=SimpleNamespace(n=rng.randint(1, 3)),
        )
        pairs = sorted({(w, u) for w, u, ok in zip(pwin, util, nash) if ok and w})
        csws = _kfold_csws(gt)
        for k in range(1, 7):
            num, den = next(csws)
            want = _multiset_walk(pairs, gt.zero_pwin.any(), k)
            scale = gt.util_scale * gt.pwin_scale ** (k - 1) * k * gt.game.n
            assert Fraction(num, den) == Fraction(want, scale), (pairs, k)
    # the only positive-win profile is not Nash
    lost = SimpleNamespace(
        nash=np.array([True, False]),
        zero_pwin=np.array([True, False]),
        pwin_num=np.array([0, 3]),
        sum_util_num=np.array([0, 2]),
    )
    with pytest.raises(EmptyEquilibriumSetError):
        next(_kfold_csws(lost))


def test_players_needed_exact_and_minimal_on_builtins():
    # the printed k is checked against the Fraction oracle at k and k - 1
    eps = Fraction(1, 100)
    for name in BUILTIN_NAMES:
        game = builtin_game(name)
        for p in range(61):
            params = PayoffParams(Fraction(p, 60), Fraction(1))
            res = players_needed(game, params, eps)
            gt = GroupTable(game, params)
            q = qsw(params)
            assert res.achieved_ratio == oracle_kfold_csw(gt, res.k) / q <= eps, (name, p)
            assert res.k == 1 or oracle_kfold_csw(gt, res.k - 1) / q > eps, (name, p)


def test_integer_frontier_matches_fraction_search():
    for name in BUILTIN_NAMES:
        game = builtin_game(name)
        for r in (Fraction(1, 6), Fraction(1, 3), Fraction(37, 60), Fraction(2, 3)):
            params = PayoffParams(r, Fraction(1))
            gt = GroupTable(game, params)
            oracle = [oracle_kfold_csw(gt, k) for k in (1, 2, 3, 4)]
            for k in (1, 2, 3, 4):
                rep = kfold_best_csw(game, k, params, gt=gt)
                assert rep.csw == oracle[k - 1], (name, r, k)
                if k >= 2 and oracle[k - 2] != 0:
                    assert rep.decay_factor == oracle[k - 1] / oracle[k - 2]


TINY_V0 = (Fraction(1, 2**61), Fraction(1, 2**70))


def test_group_table_exact_past_int64():
    # v1/v0 = 2^61 or 2^70 puts the scaled utilities past int64; at 2^59
    # every utility fits, but a player sum does not
    game = builtin_game("NC00_C5")
    for v0, dtype in [(Fraction(1, 2**59), np.int64)] + [(v0, object) for v0 in TINY_V0]:
        params = PayoffParams(v0, Fraction(1))
        gt = GroupTable(game, params)
        assert gt.win_util_num.dtype == dtype
        value, _ = best_csw(game, params)
        assert kfold_best_csw(game, 1, params, gt=gt).csw == value
        for code in (0, 341, 1023):
            ev = evaluate(game, code_to_profile(code, 5))
            assert sum_win_util(gt, code) == sum(
                p.win_v0 * params.v0 + p.win_v1 * params.v1 for p in ev.payoffs
            )
        assert kfold_best_csw(game, 3, params, gt=gt).csw == oracle_kfold_csw(gt, 3)


def test_players_needed_exact_past_int64():
    game = builtin_game("NC00_C5")
    params = PayoffParams(TINY_V0[0], Fraction(1))
    res = players_needed(game, params, Fraction(1, 100))
    csw = [kfold_best_csw(game, k, params).csw for k in (1, 2, res.k)]
    assert res.base_ratio == csw[0] / qsw(params) == best_csw(game, params)[0] / qsw(params)
    assert res.decay_factor == csw[1] / csw[0]
    assert res.achieved_ratio == csw[2] / qsw(params) <= Fraction(1, 100)


def test_kfold_bruteforce_exact_near_int64():
    # at v1/v0 = 2^57 the utilities fit int64 but the pair welfare does not
    game = builtin_game("NC00_C5")
    params = PayoffParams(Fraction(1, 2**57), Fraction(1))
    gt = GroupTable(game, params)
    assert gt.sum_util_num.dtype == np.int64
    bf = kfold_bruteforce_csw(game, 2, params, gt=gt)
    assert bf.csw == kfold_best_csw(game, 2, params, gt=gt).csw == oracle_kfold_csw(gt, 2)
    # here the utilities fit int64, but a deviation gain times a win
    # probability does not: the pair scan runs on Python integers
    for name, exponent in (("NC00_C5", 59), ("NC000_C5", 58)):
        game = builtin_game(name)
        params = PayoffParams(Fraction(1, 2**exponent), Fraction(1))
        gt = GroupTable(game, params)
        assert gt.win_util_num.dtype == np.int64
        brute = product_nash_matrix_bruteforce(game, params, gt)
        assert np.array_equal(brute, product_nash_matrix_decomposition(gt))

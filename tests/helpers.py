"""Shared fixtures for the test suite."""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from grapheq import (
    GameSpec,
    Graph,
    PayoffParams,
    QuestionSpec,
    SizeLimitError,
    builtin_game,
    derive_question,
    evaluate,
    game_to_document,
)
from grapheq.classical import SymmetryGroup


def toy_two_player_game(w0=Fraction(1, 2), w1=Fraction(1, 2), name="toy"):
    """Two players on an edgeless pair; each question pins one player's
    type-1 answer to 0.  Equilibria are derivable by inspection."""
    pair = Graph.edgeless(2)
    d0, d1 = derive_question(pair, {0}), derive_question(pair, {1})
    return GameSpec(
        name,
        pair,
        (
            QuestionSpec("q0", (1, 0), d0.involved, d0.parity, w0, frozenset({0})),
            QuestionSpec("q1", (0, 1), d1.involved, d1.parity, w1, frozenset({1})),
        ),
    )


def cycle_game(n):
    """C_n built as the builtins are: the all-ones question plus one
    single-generator question per player, each of weight 1/(n+1)."""
    graph = Graph.cycle(n)
    weight = Fraction(1, n + 1)
    questions = []
    for qid, gen in [("Ta", frozenset(range(n)))] + [(f"T{i}", frozenset({i})) for i in range(n)]:
        der = derive_question(graph, gen)
        bits = tuple(1 if j in gen else 0 for j in range(n))
        questions.append(QuestionSpec(qid, bits, der.involved, der.parity, weight, gen))
    return GameSpec(f"C{n}", graph, tuple(questions))


def scaled_document(scale):
    """NC00_C5 as a game document (v0/v1 = 2/3) whose weights have lowest
    common denominator ``scale`` >= 6: Ta and T1..T4 weigh 1/scale each and
    T0 takes the rest."""
    doc = game_to_document(builtin_game("NC00_C5"), PayoffParams(Fraction(2, 3), Fraction(1)))
    for q in doc["questions"]:
        q["w"] = f"{scale - 5}/{scale}" if q["id"] == "T0" else f"1/{scale}"
    return doc


def oracle_reporting_symmetries(game):
    """Permutations preserving the graph and the weighted type multiset.

    The scan over all n! permutations that the backtracking
    ``reporting_symmetries`` replaced, kept as its independent oracle.
    """
    n = game.n
    if n > 8:
        raise SizeLimitError("symmetry search is factorial; limited to n <= 8")
    type_target = Counter((q.type_bits, q.weight) for q in game.questions)
    edges = game.graph.edges
    perms = []
    for perm in itertools.permutations(range(n)):
        mapped = frozenset(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
        )
        if mapped != edges:
            continue
        counted = Counter()
        for q in game.questions:
            tbits = [0] * n
            for j, b in enumerate(q.type_bits):
                tbits[perm[j]] = b
            counted[(tuple(tbits), q.weight)] += 1
        if counted == type_target:
            perms.append(perm)
    return SymmetryGroup(tuple(perms))


def oracle_payoff_table(game):
    """``win0``, ``win1``, ``lose0``, ``lose1``, ``win_bits`` and
    ``pwin_num`` of ``PayoffTable(game)``, as int64 (Python ints from a
    scale of 2^62) and bool arrays.

    The per-question, per-player loop of full-length passes that the
    contraction kernel replaced, kept as its independent oracle.  Only
    the masked weight changed: ``mask * w`` in place of
    ``np.where(mask, w, 0)``, so that Python integers hold the values when
    the scale reaches 2^62.
    """
    n = game.n
    ncodes = 4**n
    scale = math.lcm(*(q.weight.denominator for q in game.questions))
    weight_nums = [q.weight.numerator * (scale // q.weight.denominator) for q in game.questions]
    dtype = np.int64 if scale < 2**62 else object
    codes = np.arange(ncodes, dtype=np.int64)
    answer_lut = np.array(((0, 0), (1, 1), (0, 1), (1, 0)), dtype=np.uint8)
    digits = [((codes >> (2 * (n - 1 - j))) & 3).astype(np.uint8) for j in range(n)]
    win0 = np.zeros((ncodes, n), dtype=dtype)
    win1 = np.zeros((ncodes, n), dtype=dtype)
    lose0 = np.zeros((ncodes, n), dtype=dtype)
    lose1 = np.zeros((ncodes, n), dtype=dtype)
    win_bits = np.zeros((ncodes, len(game.questions)), dtype=bool)
    pwin_num = np.zeros(ncodes, dtype=dtype)
    for qi, q in enumerate(game.questions):
        answers = [answer_lut[digits[j], q.type_bits[j]] for j in range(n)]
        parity = np.zeros(ncodes, dtype=np.uint8)
        for j in q.involved:
            parity ^= answers[j]
        win = parity == q.parity
        w = weight_nums[qi]
        win_bits[:, qi] = win
        pwin_num += win.astype(dtype) * w
        for j in range(n):
            one = answers[j].astype(bool)
            win0[:, j] += (win & ~one).astype(dtype) * w
            win1[:, j] += (win & one).astype(dtype) * w
            lose0[:, j] += (~win & ~one).astype(dtype) * w
            lose1[:, j] += (~win & one).astype(dtype) * w
    return {
        "win0": win0, "win1": win1, "lose0": lose0, "lose1": lose1,
        "win_bits": win_bits, "pwin_num": pwin_num,
    }


def oracle_profile_interval(table, code, penalty=Fraction(0)):
    """Closed interval of r = v0/v1 in [0, 1] on which ``code`` is Nash.

    The per-profile Fraction loop the vectorised ``ratio_regimes`` replaced,
    kept as its independent oracle.
    """
    n = table.n
    d = table.scale
    lo, hi = Fraction(0), Fraction(1)
    for j in range(n):
        f = (code >> (2 * (n - 1 - j))) & 3
        step = 4 ** (n - 1 - j)
        anchor = code - f * step
        for g in range(4):
            if g == f:
                continue
            dev = anchor + g * step
            # utility difference (dev - base) = a*r + b must stay <= 0
            a = Fraction(int(table.win0[dev, j]) - int(table.win0[code, j]), d) - penalty * Fraction(
                int(table.lose0[dev, j]) - int(table.lose0[code, j]), d
            )
            b = Fraction(int(table.win1[dev, j]) - int(table.win1[code, j]), d) - penalty * Fraction(
                int(table.lose1[dev, j]) - int(table.lose1[code, j]), d
            )
            if a > 0:
                hi = min(hi, -b / a)
            elif a < 0:
                lo = max(lo, -b / a)
            elif b > 0:
                return None
            if lo > hi:
                return None
    return lo, hi


@functools.lru_cache(maxsize=None)
def profile_evaluations(game):
    """``evaluate`` of every profile of ``game``, by profile tuple."""
    return {p: evaluate(game, p) for p in itertools.product(range(4), repeat=game.n)}


def brute_force_sets(game, params):
    """Nash and unilateral-Pareto profiles from ``evaluate``.

    Every profile is scored in Fractions and every unilateral deviation is
    built by replacing one entry of the profile tuple, so nothing here
    shares code with the vectorised scans.  Lists are in lexicographic order.
    """
    n = game.n
    utils = {p: ev.utilities(params) for p, ev in profile_evaluations(game).items()}
    sets = {"nash": [], "pareto": []}
    for p, base in utils.items():
        gains = [
            (j, utils[p[:j] + (g,) + p[j + 1 :]])
            for j in range(n)
            for g in range(4)
            if g != p[j]
        ]
        if all(dev[j] <= base[j] for j, dev in gains):
            sets["nash"].append(p)
        if all(
            dev[j] <= base[j] or any(dev[k] < base[k] for k in range(n) if k != j)
            for j, dev in gains
        ):
            sets["pareto"].append(p)
    return sets


def oracle_deviation_payoff_coefficients(game, advice, player, policy):
    """Expected utility (c0, c1) with u = c0*v0 + c1*v1 for one deviator.

    The per-policy Fraction loop the deviation table replaced, kept as its
    independent oracle: one law query per question and policy.
    """
    c0 = Fraction(0)
    c1 = Fraction(0)
    for q in game.questions:
        law = advice.law(q.qid)
        t = q.type_bits[player]
        rest = q.involved - {player}
        rows = np.zeros((2, game.n), dtype=np.uint8)
        rows[0, player] = 1
        for r in rest:
            rows[1, r] = 1
        joint = law.linear_image_distribution(rows)
        for (advice_bit, rest_parity), prob in joint.items():
            answer = policy[(t << 1) | advice_bit]
            own_term = answer if player in q.involved else 0
            win = (rest_parity + own_term) % 2 == q.parity
            if win:
                if answer:
                    c1 += q.weight * prob
                else:
                    c0 += q.weight * prob
    return c0, c1


def oracle_kfold_csw(gt, k):
    """Best product-Nash social welfare of k groups, in Fractions.

    The Fraction frontier and per-combination ``math.prod`` the integer
    k-fold search replaced, kept as its oracle.
    """
    n = gt.game.n
    values = {
        (gt.p_win(int(c)), gt.sum_win_util(int(c)))
        for c in np.nonzero(gt.nash & ~gt.zero_pwin)[0]
    }
    frontier = [
        v
        for v in values
        if not any(o != v and o[0] >= v[0] and o[1] >= v[1] for o in values)
    ]
    best = None
    for combo in itertools.combinations_with_replacement(sorted(frontier), k):
        pwins = [c[0] for c in combo]
        total = Fraction(0)
        for g in range(k):
            others = math.prod((pwins[h] for h in range(k) if h != g), start=Fraction(1))
            total += combo[g][1] * others
        sw = total / (k * n)
        if best is None or sw > best:
            best = sw
    if k >= 2 and gt.zero_pwin.any():
        best = max(best, Fraction(0)) if best is not None else Fraction(0)
    return best

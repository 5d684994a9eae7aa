"""Shared fixtures for the test suite."""

import functools
import io
import itertools
import math
from contextlib import redirect_stderr, redirect_stdout
from collections import Counter
from fractions import Fraction

import numpy as np

from grapheq import (
    GameSpec,
    Graph,
    LinearProgramError,
    PayoffParams,
    QuestionSpec,
    SizeLimitError,
    UnsupportedGameError,
    builtin_game,
    derive_question,
    evaluate,
    game_to_document,
    p_involved,
    verify_uniform_and_belief_invariant,
)
from grapheq import gf2
from grapheq.cli import main
from grapheq.classical import (
    LOCAL_FN_COUNT,
    LinearPayoff,
    PayoffTable,
    ProfileEvaluation,
    SymmetryGroup,
    _deviation_gains,
    apply_local,
)


def edgeless(n):
    """The graph on n vertices with no edges."""
    return Graph(n, frozenset())


def oracle_neighbors(graph, v):
    """The neighbours of ``v``, by a scan of the edge list."""
    return {b if a == v else a for a, b in graph.edges if v in (a, b)}


def toy_two_player_game(w0=Fraction(1, 2), w1=Fraction(1, 2), name="toy"):
    """Two players on an edgeless pair; each question pins one player's
    type-1 answer to 0.  Equilibria are derivable by inspection."""
    pair = edgeless(2)
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


def _permuted_question_key(q, perm):
    tbits = [0] * len(q.type_bits)
    for j, b in enumerate(q.type_bits):
        tbits[perm[j]] = b
    return tuple(tbits), frozenset(perm[j] for j in q.involved), q.parity, q.weight


def oracle_game_automorphisms(game):
    """Player permutations mapping the weighted question multiset to itself.

    The strict game automorphism group by a scan over all n! permutations;
    no library path needs it, so it lives here as a test oracle.
    """
    n = game.n
    if n > 8:
        raise SizeLimitError("automorphism search is factorial; limited to n <= 8")
    target = Counter(
        (q.type_bits, q.involved, q.parity, q.weight) for q in game.questions
    )
    perms = []
    for perm in itertools.permutations(range(n)):
        if Counter(_permuted_question_key(q, perm) for q in game.questions) == target:
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


def oracle_evaluate(game, profile):
    """``evaluate(game, profile)`` by the Fraction loop the integer
    accumulation replaced, kept as its oracle."""
    profile = tuple(profile)
    n = game.n
    if len(profile) != n:
        raise ValueError(f"profile must have length {n}")
    acc = [[Fraction(0)] * 4 for _ in range(n)]  # win0, win1, lose0, lose1
    win_bits = []
    p_win = Fraction(0)
    for q in game.questions:
        answers = [apply_local(profile[j], q.type_bits[j]) for j in range(n)]
        win = sum(answers[j] for j in q.involved) % 2 == q.parity
        win_bits.append(int(win))
        if win:
            p_win += q.weight
        for j in range(n):
            slot = (0 if win else 2) + answers[j]
            acc[j][slot] += q.weight
    payoffs = tuple(LinearPayoff(a[0], a[1], a[2], a[3]) for a in acc)
    return ProfileEvaluation(profile, payoffs, tuple(win_bits), p_win)


def oracle_payoff_value(payoff, params):
    """``LinearPayoff.value`` with the loss part computed at every penalty."""
    win = payoff.win_v0 * params.v0 + payoff.win_v1 * params.v1
    lose = payoff.lose_v0 * params.v0 + payoff.lose_v1 * params.v1
    return win - params.penalty * lose


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
        law = advice[q.qid]
        t = q.type_bits[player]
        rest = q.involved - {player}
        rows = np.zeros((2, game.n), dtype=np.uint8)
        rows[0, player] = 1
        for r in rest:
            rows[1, r] = 1
        joint = linear_image_distribution(law, rows)
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
        (p_win(gt, int(c)), sum_win_util(gt, int(c)))
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


def oracle_product_nash_matrix(gt):
    """Nash pairs (k=2) of the product game by the dense outer products the
    row-blocked brute force replaced, kept as its oracle."""
    n = gt.game.n
    ncodes = gt.table.ncodes
    win_u = gt.win_util_num
    pw = gt.pwin_num
    if int(np.abs(win_u).max(initial=0)) * int(pw.max(initial=0)) >= 2**62:
        win_u, pw = win_u.astype(object), pw.astype(object)
    viol = np.zeros((ncodes, ncodes), dtype=bool)
    for j in range(n):
        for diff in _deviation_gains(win_u, n, j):
            viol |= np.outer(diff, pw) > 0
    return ~viol & ~viol.T


def oracle_product_best_csw(gt, nash):
    """Best social welfare over the Nash pairs ``nash`` (k=2) from the dense
    pair-welfare matrix ``sumU[a]*pwin[b] + sumU[b]*pwin[a]``."""
    sum_u, pw = gt.sum_util_num, gt.pwin_num
    if 2 * int(np.abs(sum_u).max(initial=0)) * int(pw.max(initial=0)) >= 2**62:
        sum_u, pw = sum_u.astype(object), pw.astype(object)
    cross = np.outer(sum_u, pw)
    sw_scaled = cross + cross.T
    best = int(sw_scaled[nash].max())
    return Fraction(best, gt.util_scale * gt.pwin_scale * 2 * gt.game.n)


def probability_of(law, answer):
    """Exact probability of a full answer vector under ``law``, read off
    its parity constraints."""
    answer = np.array(list(answer), dtype=np.int64)
    if answer.shape != (law.n,):
        raise ValueError(f"answer must have length {law.n}")
    if np.array_equal((law.matrix.astype(np.int64) @ answer) % 2, law.rhs):
        return Fraction(1, law.support_size)
    return Fraction(0)


def linear_image_distribution(law, functional_rows):
    """Distribution of L @ a for answers a drawn from ``law``.

    ``functional_rows`` is an (m, n) 0/1 matrix; the result is uniform over
    the coset that ``law.image_coset`` returns, enumerated exactly.
    """
    masks = [gf2.pack(row) for row in np.asarray(functional_rows).tolist()]
    offset, span = law.image_coset(masks)
    prob = Fraction(1, 2 ** len(span))
    return {gf2.unpack(point, len(masks)): prob for point in gf2.coset(offset, span)}


def p_involved_given_advice(game, player, type_bit, advice_bit):
    """Involvement probability given own type and advice bit.

    The advice marginal is uniform for every question (checked here), so
    conditioning on the advice bit cannot reweight questions and the result
    equals the type-only involvement probability.
    """
    if advice_bit not in (0, 1):
        raise ValueError("advice bit must be 0 or 1")
    report = verify_uniform_and_belief_invariant(game)
    if report.uniform_violations:
        raise UnsupportedGameError(f"advice marginals not uniform: {report.uniform_violations[:3]}")
    return p_involved(game, player, type_bit)


def sum_win_util(gt, code):
    """Summed winning-part utility of base profile ``code`` in a
    ``GroupTable``, as a Fraction."""
    return Fraction(int(gt.sum_util_num[code]), gt.util_scale)


def p_win(gt, code):
    """Win probability of base profile ``code`` in a ``GroupTable``, as a
    Fraction."""
    return Fraction(int(gt.pwin_num[code]), gt.pwin_scale)


def _simplex_max(objective, eq_row, ge_rows, start_col):
    """Maximize objective over {x >= 0 : eq_row . x = 1, ge_rows . x >= 0}.

    An exact Fraction tableau with no pivot cap, kept as the oracle for the
    certified float basis of ``grapheq.correlated``.

    ``start_col`` must index a feasible vertex (all ge_rows nonnegative
    there), which supplies the initial basis without a phase-1 pass.
    Entering and leaving variables follow Bland's rule throughout.
    """
    nx = len(objective)
    m = len(ge_rows)
    width = nx + m + 1
    # tableau rows: [eq | 0 slacks | rhs], then [-ge | I | 0]
    tableau = [list(eq_row) + [Fraction(0)] * m + [Fraction(1)]]
    for i, row in enumerate(ge_rows):
        trow = [-v for v in row] + [Fraction(0)] * m + [Fraction(0)]
        trow[nx + i] = Fraction(1)
        tableau.append(trow)
    basis = [start_col] + [nx + i for i in range(m)]
    # price column start_col into the identity position of row 0
    pivot_val = tableau[0][start_col]
    if pivot_val == 0:
        raise LinearProgramError(f"start column {start_col} is not a vertex of the program")
    tableau[0] = [v / pivot_val for v in tableau[0]]
    for r in range(1, m + 1):
        factor = tableau[r][start_col]
        if factor != 0:
            tableau[r] = [v - factor * p for v, p in zip(tableau[r], tableau[0])]
    if any(tableau[r][-1] < 0 for r in range(m + 1)):
        raise LinearProgramError(f"start vertex {start_col} is infeasible")
    # reduced costs for maximization: c - c_B . B^{-1} A
    cost = list(objective) + [Fraction(0)] * m + [Fraction(0)]
    cb = [cost[b] for b in basis]
    reduced = [
        cost[c] - sum(cb[r] * tableau[r][c] for r in range(m + 1)) for c in range(width)
    ]
    while True:
        enter = next((c for c in range(width - 1) if reduced[c] > 0), None)
        if enter is None:
            break
        best_ratio = None
        leave = None
        for r in range(m + 1):
            coeff = tableau[r][enter]
            if coeff > 0:
                ratio = tableau[r][-1] / coeff
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[r] < basis[leave]
                ):
                    best_ratio = ratio
                    leave = r
        if leave is None:
            raise LinearProgramError("program is unbounded; its feasible set must be a polytope")
        piv = tableau[leave][enter]
        tableau[leave] = [v / piv for v in tableau[leave]]
        for r in range(m + 1):
            if r != leave and tableau[r][enter] != 0:
                factor = tableau[r][enter]
                tableau[r] = [v - factor * p for v, p in zip(tableau[r], tableau[leave])]
        factor = reduced[enter]
        reduced = [v - factor * p for v, p in zip(reduced, tableau[leave])]
        basis[leave] = enter
    value = sum(cost[b] * tableau[r][-1] for r, b in enumerate(basis))
    solution = [Fraction(0)] * nx
    for r, b in enumerate(basis):
        if b < nx:
            solution[b] = tableau[r][-1]
    return value, solution


def obedience_violations(game, params, dist):
    """Exact slack of every obedience constraint for a profile distribution."""
    table = PayoffTable(game)
    grid, scale = table.utility_grid(params)
    n = game.n
    bad = []
    for j in range(n):
        step = 4 ** (n - 1 - j)
        for f in range(LOCAL_FN_COUNT):
            for g in range(LOCAL_FN_COUNT):
                if g == f:
                    continue
                slack = Fraction(0)
                for code, weight in dist.items():
                    if (code >> (2 * (n - 1 - j))) & 3 != f:
                        continue
                    dev = code + (g - f) * step
                    slack += weight * Fraction(int(grid[code, j]) - int(grid[dev, j]), scale)
                if slack < 0:
                    bad.append((j, f, g, slack))
    return bad


def run_cli(*argv):
    """``grapheq`` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()

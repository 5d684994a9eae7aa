"""Separation amplifiers: wrong-answer penalties and k-fold repetition.

Penalties multiply a losing player's value by -Ng, which prunes the
classical equilibrium set while the advice strategy never loses.  k-fold
repetition runs k groups in parallel on disjoint copies of the graph and
pays only when every group wins; product-profile utilities factor exactly as
(own-group winning utility) times (other groups' win probabilities), which
drives both the fast decomposition search and the brute-force oracle it is
checked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classical import (
    EquilibriumReport,
    PayoffTable,
    _deviation_gains,
    _nash_mask,
    apply_local,
    build_report,
    enumerate_nash,
    profile_to_code,
)
from .errors import EmptyEquilibriumSetError, SizeLimitError
from .games import GameSpec, PayoffParams
from .quantum import bases_for_types, qsw
from .stabilizer import Graph, outcome_law


# ---------------------------------------------------------------------------
# penalty games


@dataclass(frozen=True)
class PenaltyReport:
    equilibria: EquilibriumReport
    social_welfares: tuple[Fraction, ...]
    quantum_sw: Fraction


def penalty_report(game: GameSpec, params: PayoffParams, *, table: PayoffTable | None = None) -> PenaltyReport:
    """Nash equilibria under the losing payoff -Ng * v_answer.

    Ng = 0 reproduces the base game.  The advice strategy never loses, so
    its social welfare stays (v0+v1)/2 for every Ng.
    """
    table = table or PayoffTable(game)
    profiles = enumerate_nash(game, params, table=table)
    report = build_report(game, profiles, "nash", params=params, table=table)
    sws = tuple(
        table.social_welfare(profile_to_code(p, game.n), params) for p in profiles
    )
    return PenaltyReport(report, sws, qsw(params))


# ---------------------------------------------------------------------------
# k-fold repetition


@dataclass(frozen=True)
class JointQuestion:
    ids: tuple[str, ...]
    weight: Fraction
    parts: tuple  # one base QuestionSpec per group

    @property
    def label(self) -> str:
        return "|".join(self.ids)


@dataclass(frozen=True, eq=False)
class ProductGameSpec:
    """k groups playing the base game at once; winning is collective.

    Player j belongs to group j // n.  Joint types are k-tuples of base
    questions drawn independently with product weights; a player earns
    v_answer when all groups win, else -Ng * v_answer.
    """

    base: GameSpec
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")

    @property
    def players(self) -> int:
        return self.k * self.base.n

    @property
    def graph(self) -> Graph:
        g = self.base.graph
        for _ in range(self.k - 1):
            g = g.disjoint_union(self.base.graph)
        return g

    def joint_questions(self) -> tuple[JointQuestion, ...]:
        out = []
        for combo in itertools.product(self.base.questions, repeat=self.k):
            weight = math.prod((q.weight for q in combo), start=Fraction(1))
            out.append(JointQuestion(tuple(q.qid for q in combo), weight, combo))
        return tuple(out)


def kfold(game: GameSpec, k: int) -> ProductGameSpec:
    return ProductGameSpec(game, k)


def evaluate_product(
    product: ProductGameSpec, profile, params: PayoffParams
) -> tuple[Fraction, ...]:
    """Expected utilities on the product game by direct summation.

    No factorization shortcuts: every joint question is scored on its own.
    Used as the identity oracle for the group-wise decomposition.
    """
    n = product.base.n
    profile = tuple(profile)
    if len(profile) != product.players:
        raise ValueError(f"profile must have length {product.players}")
    totals = [Fraction(0)] * product.players
    for joint in product.joint_questions():
        answers = []
        all_win = True
        for g, q in enumerate(joint.parts):
            group_answers = [
                apply_local(profile[g * n + j], q.type_bits[j]) for j in range(n)
            ]
            answers.append(group_answers)
            if sum(group_answers[j] for j in q.involved) % 2 != q.parity:
                all_win = False
        for g, q in enumerate(joint.parts):
            for j in range(n):
                value = params.v1 if answers[g][j] else params.v0
                if all_win:
                    totals[g * n + j] += joint.weight * value
                else:
                    totals[g * n + j] -= joint.weight * params.penalty * value
    return tuple(totals)


class GroupTable:
    """Per-base-profile data the product analysis runs on.

    For every base profile: the winning-part utility of each player, their
    sum, the win probability, and whether the profile is Nash in the base
    game.  All values exact.
    """

    def __init__(self, game: GameSpec, params: PayoffParams, table: PayoffTable | None = None):
        if params.penalty != 0:
            raise ValueError("product-game search requires penalty 0")
        self.game = game
        self.params = params
        self.table = table or PayoffTable(game)
        tbl = self.table
        lden = math.lcm(params.v0.denominator, params.v1.denominator)
        a0 = int(params.v0 * lden)
        a1 = int(params.v1 * lden)
        self.win_util_num = tbl.win0 * a0 + tbl.win1 * a1  # scale: tbl.scale * lden
        self.util_scale = tbl.scale * lden
        self.pwin_num = tbl.pwin_num  # scale: tbl.scale
        self.pwin_scale = tbl.scale
        self.sum_util_num = self.win_util_num.sum(axis=1)
        self.nash = _nash_mask(tbl.utility_grid(params)[0], tbl.n)
        self.zero_pwin = self.pwin_num == 0

    def p_win(self, code: int) -> Fraction:
        return Fraction(int(self.pwin_num[code]), self.pwin_scale)

    def sum_win_util(self, code: int) -> Fraction:
        return Fraction(int(self.sum_util_num[code]), self.util_scale)


@dataclass(frozen=True)
class KfoldReport:
    k: int
    csw: Fraction
    qsw: Fraction
    ratio: Fraction
    method: str
    decay_factor: Fraction | None = None
    nash_count: int | None = None


def product_nash_matrix_decomposition(gt: GroupTable) -> np.ndarray:
    """Nash pairs (k=2) by the group-wise rule.

    A pair is Nash iff each group either faces a zero win probability on the
    other side (all its utilities vanish, any profile is unimprovable) or is
    itself a base-game Nash profile.
    """
    free_a = gt.zero_pwin[np.newaxis, :]  # other side of group A is column b
    free_b = gt.zero_pwin[:, np.newaxis]
    ok_a = gt.nash[:, np.newaxis] | free_a
    ok_b = gt.nash[np.newaxis, :] | free_b
    return ok_a & ok_b


def product_nash_matrix_bruteforce(game: GameSpec, params: PayoffParams, gt: GroupTable | None = None) -> np.ndarray:
    """Nash pairs (k=2) by explicit deviation checks on the product game.

    For each pair and each player, every alternative local function is
    scored as an actual product of exact integers (own winning utility times
    the other group's win probability); no group-decomposition rule is
    assumed.
    """
    gt = gt or GroupTable(game, params)
    n = game.n
    ncodes = gt.table.ncodes
    win_u = gt.win_util_num
    pw = gt.pwin_num
    peak = int(np.abs(win_u).max(initial=0)) * int(pw.max(initial=0))
    if peak >= 2**62:
        raise SizeLimitError("utility scale too large for the int64 product scan")
    viol = np.zeros((ncodes, ncodes), dtype=bool)
    for j in range(n):
        for diff in _deviation_gains(win_u, n, j):
            # player in the row group deviating against column group's pwin
            viol |= np.outer(diff, pw) > 0
    nash = ~viol & ~viol.T
    return nash


def kfold_bruteforce_csw(
    game: GameSpec, k: int, params: PayoffParams, *, gt: GroupTable | None = None
) -> KfoldReport:
    """Oracle: exhaustive product-profile search, k <= 2 and k*n <= 10."""
    if k * game.n > 10:
        raise SizeLimitError("brute force limited to 10 players")
    if k > 2:
        raise SizeLimitError("brute force implemented for k <= 2")
    if k == 1:
        gt = gt or GroupTable(game, params)
        codes = np.nonzero(gt.nash)[0]
        if codes.size == 0:
            raise EmptyEquilibriumSetError("no base Nash profile")
        best = int(gt.sum_util_num[codes].max())
        csw = Fraction(best, gt.util_scale * game.n)
        return KfoldReport(1, csw, qsw(params), csw / qsw(params), "bruteforce", None, int(codes.size))
    gt = gt or GroupTable(game, params)
    nash = product_nash_matrix_bruteforce(game, params, gt)
    if not nash.any():
        raise EmptyEquilibriumSetError("no product Nash profile")
    # SW(a,b) = sumU[a]*pwin[b] + sumU[b]*pwin[a], exact integers
    cross = np.outer(gt.sum_util_num, gt.pwin_num)
    sw_scaled = cross + cross.T
    best = int(sw_scaled[nash].max())
    csw = Fraction(best, gt.util_scale * gt.pwin_scale * 2 * game.n)
    return KfoldReport(
        2, csw, qsw(params), csw / qsw(params), "bruteforce", None, int(nash.sum())
    )


def _candidate_frontier(gt: GroupTable) -> list[tuple[Fraction, Fraction]]:
    """Distinct (p_win, summed winning utility) pairs of Nash profiles,
    restricted to positive win probability and pruned to the coordinatewise
    frontier.  The product objective is weakly increasing in both
    coordinates of every group, so dominated pairs never help.
    """
    values = {
        (gt.p_win(int(c)), gt.sum_win_util(int(c)))
        for c in np.nonzero(gt.nash & ~gt.zero_pwin)[0]
    }
    frontier = [
        v
        for v in values
        if not any(o != v and o[0] >= v[0] and o[1] >= v[1] for o in values)
    ]
    return sorted(frontier)


def kfold_best_csw(
    game: GameSpec,
    k: int,
    params: PayoffParams,
    *,
    prune_zero_factor: bool = True,
    gt: GroupTable | None = None,
    _with_decay: bool = True,
) -> KfoldReport:
    """Best product-Nash social welfare via the group decomposition.

    All-positive configurations need every group to be base-Nash; their SW
    is sum over groups of (own summed winning utility) * (product of the
    other groups' win probabilities), divided by k*n.  Configurations with
    any zero-win-probability group have SW exactly 0: that group's own
    winning utility is 0 and its factor kills every other term.
    """
    gt = gt or GroupTable(game, params)
    n = game.n
    frontier = _candidate_frontier(gt)
    zero_exists = k >= 2 and bool(gt.zero_pwin.any())
    best: Fraction | None = None
    for combo in itertools.combinations_with_replacement(frontier, k):
        pwins = [c[0] for c in combo]
        total = Fraction(0)
        for g in range(k):
            others = math.prod((pwins[h] for h in range(k) if h != g), start=Fraction(1))
            total += combo[g][1] * others
        sw = total / (k * n)
        if best is None or sw > best:
            best = sw
    if not prune_zero_factor and k == 2:
        # verification mode: walk the zero-factor pairs and confirm they
        # contribute social welfare 0
        rule = product_nash_matrix_decomposition(gt)
        zero_side = gt.zero_pwin[:, None] | gt.zero_pwin[None, :]
        cross = np.outer(gt.sum_util_num, gt.pwin_num)
        sw_scaled = cross + cross.T
        assert not np.any(sw_scaled[rule & zero_side] != 0)
    if zero_exists:
        best = max(best, Fraction(0)) if best is not None else Fraction(0)
    if best is None:
        raise EmptyEquilibriumSetError("no product Nash configuration")
    decay = None
    if k >= 2 and _with_decay:
        prev = kfold_best_csw(game, k - 1, params, gt=gt, _with_decay=False)
        if prev.csw != 0:
            decay = best / prev.csw
    return KfoldReport(k, best, qsw(params), best / qsw(params), "decomposition", decay)


def verify_product_perfect_win(product: ProductGameSpec) -> bool:
    """Advice on the disjoint-union graph wins every joint question surely.

    Builds the exact measurement law per joint question on the union graph
    and checks each group's parity constraint holds with probability 1.
    """
    if product.k > 4:
        raise SizeLimitError("product perfect-win check limited to k <= 4")
    n = product.base.n
    graph = product.graph
    for joint in product.joint_questions():
        bases = []
        for q in joint.parts:
            bases.extend(bases_for_types(q.type_bits))
        law = outcome_law(graph, bases)
        for g, q in enumerate(joint.parts):
            shifted = [g * n + j for j in q.involved]
            if law.parity_distribution(shifted).get(q.parity, Fraction(0)) != 1:
                return False
    return True


@dataclass(frozen=True)
class PlayersNeeded:
    k: int
    player_count: int
    achieved_ratio: Fraction
    base_ratio: Fraction
    decay_factor: Fraction
    geometric: bool


def players_needed(game: GameSpec, params: PayoffParams, eps) -> PlayersNeeded:
    """Smallest k with best-classical over quantum SW ratio at most eps.

    The decay factor is measured from the decomposition at k = 1, 2 and
    verified at k = 3; when constant, the ratio extrapolates geometrically,
    giving k = O(log(1/eps)).  If the decay were not constant the search
    would fall back to computing each k directly.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    gt = GroupTable(game, params)
    c1 = kfold_best_csw(game, 1, params, gt=gt).csw
    if c1 <= 0:
        raise EmptyEquilibriumSetError("base classical social welfare must be positive")
    c2 = kfold_best_csw(game, 2, params, gt=gt, _with_decay=False).csw
    c3 = kfold_best_csw(game, 3, params, gt=gt, _with_decay=False).csw
    decay = c2 / c1
    geometric = c3 * c1 == c2 * c2
    q = qsw(params)
    ratio = c1 / q
    k = 1
    if geometric:
        if ratio > eps and decay >= 1:
            raise ValueError("ratio does not decay; separation unreachable")
        while ratio > eps:
            k += 1
            ratio *= decay
    else:
        while ratio > eps:
            k += 1
            if k > 200:
                raise SizeLimitError("no k <= 200 reaches the requested ratio")
            ratio = kfold_best_csw(game, k, params, gt=gt, _with_decay=False).csw / q
    return PlayersNeeded(k, k * game.n, ratio, c1 / q, decay, geometric)

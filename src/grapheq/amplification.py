"""Separation amplifiers: wrong-answer penalties and k-fold repetition.

Penalties multiply a losing player's value by -Ng, which prunes the
classical equilibrium set while the advice strategy never loses.  k-fold
repetition runs k groups in parallel on disjoint copies of the graph and
pays only when every group wins; product-profile utilities factor exactly as
(own-group winning utility) times (other groups' win probabilities), which
drives both the fast decomposition search and the brute-force oracle it is
checked against.  The decomposition grows k one group at a time over the
undominated (win probability, summed utility) pairs of the base Nash
profiles, in integers over the ``GroupTable`` scales, so one pass yields the
best welfare at every k; ``players_needed`` walks that pass until the ratio
falls to eps, and one Fraction is built per answer.
The k=2 brute force checks every pair and every deviation with actual
integer products, scored in row blocks of at most ``_PAIR_BLOCK`` pairs, so
no 4^n x 4^n integer matrix is built and it reaches 12 players.

The quantum side factorises the same way: the graph state on a disjoint
union is the tensor product of the per-group states (stabilizers are local
to connected components), so the advice wins every joint question surely iff
it wins every base question surely.  That check costs one outcome law per
base question at any k; the walk over all questions^k joint questions on the
union graph is kept, for k <= 4, as its oracle.
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
    _exact_dtype,
    _nash_mask,
    _profiles,
    _welfare,
    apply_local,
    build_report,
)
from .errors import EmptyEquilibriumSetError, SizeLimitError, UnsupportedGameError
from .games import GameSpec, PayoffParams
from .quantum import bases_for_types, qsw
from .stabilizer import Graph, outcome_law

# pairs per row block of the k=2 brute force: its integer temporaries stay
# near half a megabyte at any game size
_PAIR_BLOCK = 2**16


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
    grid, den = table.utility_grid(params)
    nash = _nash_mask(grid, game.n)
    report = build_report(game, _profiles(nash, game.n), "nash", params=params, table=table)
    sws = tuple(Fraction(num, den * game.n) for num in _welfare(grid[nash]).tolist())
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
    game.  At penalty 0 a utility is its winning part, so ``win_util_num``
    is the ``utility_grid`` of ``params``, and the sums are its ``_welfare``.
    """

    def __init__(self, game: GameSpec, params: PayoffParams, table: PayoffTable | None = None):
        if params.penalty != 0:
            raise ValueError("product-game search requires penalty 0")
        self.game = game
        self.params = params
        self.table = table or PayoffTable(game)
        tbl = self.table
        self.win_util_num, self.util_scale = tbl.utility_grid(params)
        self.pwin_num = tbl.pwin_num  # scale: tbl.scale
        self.pwin_scale = tbl.scale
        self.nash = _nash_mask(self.win_util_num, tbl.n)
        self.zero_pwin = self.pwin_num == 0
        self.sum_util_num = _welfare(self.win_util_num)


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
    assumed.  Python integers replace int64 when a product could overflow.
    The products are scored in row blocks of at most ``_PAIR_BLOCK``
    pairs, so only boolean pair matrices are ever whole.
    """
    gt = gt or GroupTable(game, params)
    n = game.n
    ncodes = gt.table.ncodes
    dtype = _exact_dtype(int(np.abs(gt.win_util_num).max(initial=0)) * int(gt.pwin_num.max(initial=0)))
    win_u, pw = gt.win_util_num.astype(dtype, copy=False), gt.pwin_num.astype(dtype, copy=False)
    gains = np.concatenate([_deviation_gains(win_u, n, j) for j in range(n)])
    viol = np.zeros((ncodes, ncodes), dtype=bool)
    for rows in _row_blocks(ncodes):
        # a player in the row group deviating against the column group's pwin
        for diff in gains[:, rows]:
            viol[rows] |= np.multiply.outer(diff, pw) > 0
    # a pair is Nash when neither group's players can improve
    viol |= viol.T
    return np.logical_not(viol, out=viol)


def _row_blocks(ncodes: int):
    """Slices of consecutive rows of an ``ncodes`` x ``ncodes`` pair
    matrix, each covering at most ``_PAIR_BLOCK`` pairs."""
    step = max(1, _PAIR_BLOCK // ncodes)
    return [slice(start, start + step) for start in range(0, ncodes, step)]


def kfold_bruteforce_csw(
    game: GameSpec, k: int, params: PayoffParams, *, gt: GroupTable | None = None
) -> KfoldReport:
    """Oracle: exhaustive product-profile search, k <= 2 and k*n <= 12."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k * game.n > 12:
        raise SizeLimitError("brute force limited to 12 players")
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
    return _pair_bruteforce_csw(gt, product_nash_matrix_bruteforce(game, params, gt))


def _pair_bruteforce_csw(gt: GroupTable, nash: np.ndarray) -> KfoldReport:
    """Best social welfare (k=2) over the Nash pairs ``nash`` of the
    brute force, scored as actual integer products."""
    # SW(a,b) = sumU[a]*pwin[b] + sumU[b]*pwin[a], exact integers, scored
    # on the Nash pairs of one row block at a time
    dtype = _exact_dtype(2 * int(np.abs(gt.sum_util_num).max(initial=0)) * int(gt.pwin_num.max(initial=0)))
    sum_u, pw = gt.sum_util_num.astype(dtype, copy=False), gt.pwin_num.astype(dtype, copy=False)
    best = None
    for rows in _row_blocks(gt.table.ncodes):
        a, b = np.nonzero(nash[rows])
        if a.size:
            a += rows.start
            top = int((sum_u[a] * pw[b] + sum_u[b] * pw[a]).max())
            best = top if best is None else max(best, top)
    if best is None:
        raise EmptyEquilibriumSetError("no product Nash profile")
    csw = Fraction(best, gt.util_scale * gt.pwin_scale * 2 * gt.game.n)
    return KfoldReport(
        2, csw, qsw(gt.params), csw / qsw(gt.params), "bruteforce", None, int(np.count_nonzero(nash))
    )


def _undominated(pairs) -> list[tuple[int, int]]:
    """The pairs no other pair matches or beats in both coordinates, in
    descending order of the first: sorted that way, a pair stays iff its
    second coordinate beats every pair kept before it."""
    kept: list[tuple[int, int]] = []
    for a, b in sorted(set(pairs), reverse=True):
        if not kept or b > kept[-1][1]:
            kept.append((a, b))
    return kept


def _kfold_csws(gt: GroupTable):
    """Best product-Nash social welfare at k = 1, 2, ... as integer
    ``(num, den)`` pairs, from one recursion over the base frontier.

    A running pair (p, t) = (prod w, sum_g u_g prod_{h != g} w_h) becomes
    (p*w, t*w + u*p) when a positive-win base-Nash group (w, u) joins.  At
    penalty 0 every w, u >= 0 (PayoffParams keeps 0 <= v0 <= v1), so that
    map is non-decreasing and keeping only undominated pairs is exact.
    Configurations with a zero-win-probability group have SW 0 and never
    do better.
    """
    positive = gt.nash & ~gt.zero_pwin
    frontier = _undominated(zip(gt.pwin_num[positive].tolist(), gt.sum_util_num[positive].tolist()))
    if not frontier:
        raise EmptyEquilibriumSetError("no product Nash configuration")
    running, den = frontier, gt.util_scale * gt.game.n
    for k in itertools.count(1):
        yield running[-1][1], den * k
        running = _undominated((p * w, t * w + u * p) for p, t in running for w, u in frontier)
        den *= gt.pwin_scale


def kfold_best_csw(
    game: GameSpec, k: int, params: PayoffParams, *, gt: GroupTable | None = None
) -> KfoldReport:
    """Best product-Nash social welfare via the group decomposition.

    All-positive configurations need every group to be base-Nash; their SW
    is sum over groups of (own summed winning utility) * (product of the
    other groups' win probabilities), divided by k*n.  Configurations with
    any zero-win-probability group have SW exactly 0: that group's own
    winning utility is 0 and its factor kills every other term.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    gt = gt or GroupTable(game, params)
    *head, last = itertools.islice(_kfold_csws(gt), k)
    best = Fraction(*last)
    decay = best / Fraction(*head[-1]) if head and head[-1][0] != 0 else None
    return KfoldReport(k, best, qsw(params), best / qsw(params), "decomposition", decay)


def _groups_are_base_copies(product: ProductGameSpec) -> bool:
    """Every edge of the product graph joins two vertices of one group, and
    each group's edges are those of the base graph."""
    n = product.base.n
    per_group: list[set[tuple[int, int]]] = [set() for _ in range(product.k)]
    for u, v in product.graph.edges:
        if u // n != v // n:
            return False
        per_group[u // n].add((u % n, v % n))
    return all(edges == product.base.graph.edges for edges in per_group)


def verify_product_perfect_win(product: ProductGameSpec) -> bool:
    """Advice on the disjoint-union graph wins every joint question surely.

    With no edge between groups, the graph state is the tensor product of
    the group states, so a joint question's answer law is the product of the
    base laws of its parts and each group's parity depends on its own part
    only.  Every joint question is then won surely iff every base question
    is: one exact outcome law per base question decides it, at any k.
    """
    if not _groups_are_base_copies(product):
        raise UnsupportedGameError("product graph is not a disjoint union of base copies")
    base = product.base
    for q in base.questions:
        law = outcome_law(base.graph, bases_for_types(q.type_bits))
        if law.parity_distribution(q.involved).get(q.parity, Fraction(0)) != 1:
            return False
    return True


def _product_perfect_win_enumerated(product: ProductGameSpec) -> bool:
    """Oracle for ``verify_product_perfect_win``: builds the exact law of
    every joint question on the union graph and checks each group's parity
    constraint holds with probability 1.  No factorisation assumed."""
    if product.k > 4:
        raise SizeLimitError("enumerated product perfect-win check limited to k <= 4")
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
    """``base_ratio`` is the ratio at k = 1 and ``decay_factor`` c2/c1;
    ``geometric`` is observed at k = 3 (c3/c2 == c2/c1), while k and
    ``achieved_ratio`` are computed directly either way."""

    k: int
    player_count: int
    achieved_ratio: Fraction
    base_ratio: Fraction
    decay_factor: Fraction
    geometric: bool


def players_needed(game: GameSpec, params: PayoffParams, eps) -> PlayersNeeded:
    """Smallest k <= 200 with best-classical over quantum SW ratio at most eps.

    The ratio is computed at every k in turn, compared in integers, and
    one Fraction is built for the answer.  The decay factor is c2/c1, and
    the decay is reported geometric when c3/c2 equals it; a geometric decay
    of at least 1 never reaches eps < c1/QSW, so it is refused at once.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    csws = _kfold_csws(GroupTable(game, params))
    head = [next(csws) for _ in range(3)]
    c1, c2, c3 = (Fraction(*c) for c in head)
    if c1 <= 0:
        raise EmptyEquilibriumSetError("base classical social welfare must be positive")
    decay = c2 / c1
    geometric = c3 * c1 == c2 * c2
    q = qsw(params)
    if geometric and decay >= 1 and c1 / q > eps:
        raise ValueError("ratio does not decay; separation unreachable")
    # csw/q <= eps  <=>  num * bound.denominator <= bound.numerator * den
    bound = eps * q
    for k, (num, den) in enumerate(itertools.chain(head, csws), start=1):
        if num * bound.denominator <= bound.numerator * den:
            return PlayersNeeded(k, k * game.n, Fraction(num, den) / q, c1 / q, decay, geometric)
        if k == 200:
            raise SizeLimitError("no k <= 200 reaches the requested ratio")

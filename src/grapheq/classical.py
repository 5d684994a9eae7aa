"""Exact enumeration and classification of deterministic classical strategies.

Each player picks one of four local functions of their type bit (constant 0,
constant 1, identity, negation, encoded 0..3).  A profile is coded in base 4
with player 0 as the most significant digit, and every profile is scanned
exhaustively: Nash sets, Pareto sets in the unilateral reading, symmetry
orbits, best social welfare, and the breakpoint structure of the
equilibrium set as a function of the payoff ratio v0/v1, which includes the
interval of ratios on which each profile is Nash.

Every scan runs on ``_player_axis``, a zero-copy view that puts one player's
local function on an axis, so each unilateral deviation is a slice.  The
``PayoffTable`` is one integer kernel: win bits from n broadcast XORs, then
one contraction per player and answer on the same view.  Its four coefficient
arrays are stored player-major in int8 when the weight scale fits (every
builtin and cycle game), else in ``_exact_dtype`` of the scale, and are cast
before any product.  Values are exact integers: ``_exact_dtype`` is the one
rule that picks int64 or Python integers for a bound, and no float decides
anything.  Social welfare is the integer row sum ``_welfare`` of a utility
grid, turned into a Fraction only for an answer.
Reporting symmetries come from a backtracking search that extends a partial
player map only while it preserves adjacency and degree.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EmptyEquilibriumSetError, SizeLimitError
from .games import GameSpec, PayoffParams

# local function code x own type bit -> answer bit
_ANSWER = ((0, 0), (1, 1), (0, 1), (1, 0))
LOCAL_FN_COUNT = 4
# (played, alternative) pairs of local functions in lexicographic order
_SWITCHES = tuple(itertools.permutations(range(LOCAL_FN_COUNT), 2))


def apply_local(code: int, type_bit: int) -> int:
    return _ANSWER[code][type_bit]


def profile_to_code(profile, n: int) -> int:
    code = 0
    for f in profile:
        code = (code << 2) | f
    return code


def code_to_profile(code: int, n: int) -> tuple[int, ...]:
    return tuple((code >> (2 * (n - 1 - j))) & 3 for j in range(n))


@dataclass(frozen=True)
class LinearPayoff:
    """Expected utility as a rational linear form in (v0, v1).

    value = win_v0*v0 + win_v1*v1 - penalty*(lose_v0*v0 + lose_v1*v1); the
    four coefficients are nonnegative and sum to the total question weight 1.
    """

    win_v0: Fraction
    win_v1: Fraction
    lose_v0: Fraction
    lose_v1: Fraction

    def value(self, params: PayoffParams) -> Fraction:
        win = self.win_v0 * params.v0 + self.win_v1 * params.v1
        if not params.penalty:
            return win
        lose = self.lose_v0 * params.v0 + self.lose_v1 * params.v1
        return win - params.penalty * lose

    def win_coefficients(self) -> tuple[Fraction, Fraction]:
        return self.win_v0, self.win_v1


@dataclass(frozen=True)
class ProfileEvaluation:
    profile: tuple[int, ...]
    payoffs: tuple[LinearPayoff, ...]
    win_bits: tuple[int, ...]  # aligned with game.questions
    p_win: Fraction

    def utilities(self, params: PayoffParams) -> tuple[Fraction, ...]:
        return tuple(p.value(params) for p in self.payoffs)

    def social_welfare(self, params: PayoffParams) -> Fraction:
        utils = self.utilities(params)
        return sum(utils) / len(utils)


def evaluate(game: GameSpec, profile) -> ProfileEvaluation:
    """Score one profile: per-question win bits and per-player payoff forms.

    Weights are summed as integers over the common denominator of the
    question weights; one Fraction is built per distinct coefficient.
    """
    profile = tuple(profile)
    n = game.n
    if len(profile) != n:
        raise ValueError(f"profile must have length {n}")
    scale = math.lcm(*(q.weight.denominator for q in game.questions))
    acc = [[0] * 4 for _ in range(n)]  # win0, win1, lose0, lose1
    win_bits = []
    p_win = 0
    answer_rows = [_ANSWER[f] for f in profile]
    for q in game.questions:
        w = q.weight.numerator * (scale // q.weight.denominator)
        answers = [row[t] for row, t in zip(answer_rows, q.type_bits)]
        win = sum(answers[j] for j in q.involved) % 2 == q.parity
        win_bits.append(int(win))
        if win:
            p_win += w
        base = 0 if win else 2
        for j in range(n):
            acc[j][base + answers[j]] += w
    # one Fraction per distinct coefficient; most of them repeat
    exact = {v: Fraction(v, scale) for v in {p_win, *itertools.chain.from_iterable(acc)}}
    payoffs = tuple(LinearPayoff(*(exact[v] for v in a)) for a in acc)
    return ProfileEvaluation(profile, payoffs, tuple(win_bits), exact[p_win])


def _exact_dtype(bound: int) -> np.dtype:
    """The package's one overflow rule: int64 holds integers of magnitude
    below ``bound``, and the sum or difference of two, when ``bound`` < 2^62;
    past that, Python integers (object)."""
    return np.dtype(np.int64 if bound < 2**62 else object)


def _entry_dtype(scale: int) -> np.dtype:
    """int8 when it holds ``scale``, else ``_exact_dtype(scale)``."""
    if scale <= np.iinfo(np.int8).max:
        return np.dtype(np.int8)
    return _exact_dtype(scale)


def _welfare(rows: np.ndarray) -> np.ndarray:
    """Row sums of a utility grid, exact: Python integers replace int64 when
    n times the largest magnitude could overflow it."""
    bound = rows.shape[1] * int(np.abs(rows).max(initial=0))
    return rows.astype(_exact_dtype(bound), copy=False).sum(axis=1)


class PayoffTable:
    """Integer-scaled payoff coefficients for every profile of a game.

    Weights are brought over the common denominator ``scale`` so the four
    coefficient arrays ``win0``, ``win1``, ``lose0`` and ``lose1`` hold
    exact integers in [0, scale], indexed ``[code, player]``; Fractions are
    reconstructed on access.  Used by every enumeration path.

    The build is one integer kernel.  The win bit of every question and
    profile comes from n broadcast XORs over a ``(Q, 4, ..., 4)`` array,
    one axis per player's local function; ``pwin_num`` is the weight
    vector times those bits.  For player j, the weight won with answer x is
    one contraction of the bits on the ``_player_axis`` view against the
    weights of the questions where each local function answers x, and the
    weight lost with x is the total weight answered x minus that.

    Each coefficient array is stored player-major, as ``(n, 4^n)``, and
    exposed transposed, so each player's column is contiguous.  Entries are
    int8 when ``scale`` <= 127 (every builtin and cycle game), else of
    ``_exact_dtype(scale)``; signed, so the difference of two stays exact.
    Arithmetic on whole int8 arrays wraps without a warning: callers cast
    to int64 or object before they multiply.
    """

    def __init__(self, game: GameSpec):
        n = game.n
        if 4**n > 4**8:
            raise SizeLimitError(f"profile table for n={n} exceeds the exact-search limit")
        self.game = game
        self.n = n
        self.ncodes = 4**n
        self.scale = math.lcm(*(q.weight.denominator for q in game.questions))
        # reported values recur across thousands of entries: build each once
        self._forms: dict[tuple[int, ...], LinearPayoff] = {}
        self._p_wins: dict[int, Fraction] = {}
        self.weight_nums = [
            q.weight.numerator * (self.scale // q.weight.denominator) for q in game.questions
        ]
        nq = len(game.questions)
        dtype = _entry_dtype(self.scale)
        weights = np.array(self.weight_nums, dtype=dtype)
        # answers[q, j, f]: player j's answer to question q under local function f
        answers = np.array(
            [[[_ANSWER[f][t] for f in range(LOCAL_FN_COUNT)] for t in q.type_bits] for q in game.questions],
            dtype=np.uint8,
        )
        involved = np.array([[j in q.involved for j in range(n)] for q in game.questions], dtype=np.uint8)
        played = answers * involved[:, :, None]  # the answers that enter the parity
        # parity of the played answers, with one axis per player's local function
        parity = np.zeros((nq,) + (LOCAL_FN_COUNT,) * n, dtype=np.uint8)
        for j in range(n):
            axes = [nq] + [1] * n
            axes[1 + j] = LOCAL_FN_COUNT
            parity ^= played[:, j].reshape(axes)
        targets = np.array([q.parity for q in game.questions], dtype=np.uint8)
        win = (parity == targets.reshape((nq,) + (1,) * n)).reshape(nq, self.ncodes)
        self.win_bits = win.T
        self.pwin_num = weights.astype(_exact_dtype(self.scale)) @ win
        bits = win.view(np.int8).T
        coefficients = [np.empty((n, self.ncodes), dtype=dtype) for _ in range(4)]
        win0, win1, lose0, lose1 = coefficients
        for j in range(n):
            by_fn = _player_axis(bits, n, j)  # [hi, f, lo, q]
            for won, lost, answer in ((win0, lose0, 0), (win1, lose1, 1)):
                # weight of each question on which local function f answers ``answer``
                answered = weights * (answers[:, j].T == answer)
                own = _player_axis(won[j], n, j)
                np.einsum("hflq,fq->hfl", by_fn, answered, out=own)
                _player_axis(lost[j], n, j)[...] = answered.sum(axis=1, dtype=dtype)[:, None] - own
        self.win0, self.win1, self.lose0, self.lose1 = (c.T for c in coefficients)

    def payoff(self, code: int, player: int) -> LinearPayoff:
        key = tuple(int(c[code, player]) for c in (self.win0, self.win1, self.lose0, self.lose1))
        form = self._forms.get(key)
        if form is None:
            form = self._forms[key] = LinearPayoff(*(Fraction(k, self.scale) for k in key))
        return form

    def p_win(self, code: int) -> Fraction:
        num = int(self.pwin_num[code])
        return self._p_wins.setdefault(num, Fraction(num, self.scale))

    def utility_grid(self, params: PayoffParams) -> tuple[np.ndarray, int]:
        """Utilities of all (profile, player) pairs times ``scale * lcm``.

        Each player's column is contiguous; the dtype is ``_exact_dtype`` of
        the largest magnitude."""
        a0, a1, g0, g1, lden = _payoff_integers(params)
        bound = self.scale * (abs(a0) + abs(a1) + abs(g0) + abs(g1))
        # built player-major, with temporaries of one column only
        grid = np.empty((self.n, self.ncodes), dtype=_exact_dtype(bound))
        for j, row in enumerate(grid):
            w0, w1, l0, l1 = (
                c[:, j].astype(grid.dtype, copy=False)
                for c in (self.win0, self.win1, self.lose0, self.lose1)
            )
            row[...] = w0 * a0 + w1 * a1 - l0 * g0 - l1 * g1
        return grid.T, self.scale * lden


def _payoff_integers(params: PayoffParams) -> tuple[int, int, int, int, int]:
    """v0, v1, penalty*v0 and penalty*v1 times their common denominator,
    followed by that denominator."""
    lden = math.lcm(
        params.v0.denominator,
        params.v1.denominator,
        (params.penalty * params.v0).denominator,
        (params.penalty * params.v1).denominator,
    )
    a0 = int(params.v0 * lden)
    a1 = int(params.v1 * lden)
    g0 = int(params.penalty * params.v0 * lden)
    g1 = int(params.penalty * params.v1 * lden)
    return a0, a1, g0, g1, lden


def _player_axis(arr: np.ndarray, n: int, j: int) -> np.ndarray:
    """View of ``arr`` (profile codes on axis 0) whose axis 1 is player j's
    local function.

    Element ``[hi, f, lo]`` is the profile whose digits before j read ``hi``,
    whose digit j is ``f`` and whose digits after j read ``lo``, so every
    unilateral deviation of j is a move along axis 1.  No data is copied for
    a contiguous array or a column of one, so writes go through.
    """
    return arr.reshape(
        LOCAL_FN_COUNT**j, LOCAL_FN_COUNT, LOCAL_FN_COUNT ** (n - 1 - j), *arr.shape[1:]
    )


def _deviation_gains(values: np.ndarray, n: int, j: int) -> np.ndarray:
    """``gains[g, code]``: the change in ``values[:, j]`` when player j of
    profile ``code`` switches to local function g (zero for its own)."""
    own = _player_axis(values[:, j], n, j)
    return (own.transpose(1, 0, 2)[:, :, None, :] - own).reshape(LOCAL_FN_COUNT, -1)


def _nash_mask(grid: np.ndarray, n: int) -> np.ndarray:
    """Profile codes with no improving unilateral deviation."""
    nash = np.ones(grid.shape[0], dtype=bool)
    for j in range(n):
        own = _player_axis(grid[:, j], n, j)
        _player_axis(nash, n, j)[...] &= own == own.max(axis=1, keepdims=True)
    return nash


def _pareto_mask(grid: np.ndarray, n: int) -> np.ndarray:
    """Profile codes where every improving unilateral deviation strictly
    hurts some other player."""
    columns = np.ascontiguousarray(grid.T)  # a view for a player-major grid
    pareto = np.ones(grid.shape[0], dtype=bool)
    for j in range(n):
        utils = [_player_axis(column, n, j) for column in columns]
        kept = _player_axis(pareto, n, j)
        for f, g in _SWITCHES:
            fine = utils[j][:, g] <= utils[j][:, f]
            for k, util in enumerate(utils):
                if k != j:
                    fine |= util[:, g] < util[:, f]
            kept[:, f] &= fine
    return pareto


# Profiles found by the scans are interned, so repeated scans share their
# tuples; ``PayoffTable`` caps n at 8, which bounds the cache at 4^8 per n.
_interned_profile = functools.cache(code_to_profile)


def _profiles(mask: np.ndarray, n: int) -> list[tuple[int, ...]]:
    return [_interned_profile(c, n) for c in np.flatnonzero(mask).tolist()]


def enumerate_nash(
    game: GameSpec, params: PayoffParams, *, table: PayoffTable | None = None
) -> list[tuple[int, ...]]:
    """All profiles with no improving unilateral deviation, in lex order.

    Deviations that merely tie do not break an equilibrium.
    """
    table = table or PayoffTable(game)
    grid, _ = table.utility_grid(params)
    return _profiles(_nash_mask(grid, table.n), table.n)


def enumerate_pareto(
    game: GameSpec, params: PayoffParams, *, table: PayoffTable | None = None
) -> list[tuple[int, ...]]:
    """Profiles where improving unilateral deviations always hurt someone.

    This unilateral reading, not joint Pareto domination over all profiles,
    is the one that reproduces the reference tables.
    """
    table = table or PayoffTable(game)
    grid, _ = table.utility_grid(params)
    return _profiles(_pareto_mask(grid, table.n), table.n)


# ---------------------------------------------------------------------------
# ratio regimes: the Nash condition of a profile is a finite set of linear
# inequalities in r = v0/v1, so each profile is Nash on a closed interval


@dataclass(frozen=True)
class RegimeSegment:
    lower: Fraction
    upper: Fraction
    codes: tuple[int, ...]


@dataclass(frozen=True)
class RegimeAnalysis:
    breakpoints: tuple[Fraction, ...]
    segments: tuple[RegimeSegment, ...]
    at_breakpoints: dict[Fraction, tuple[int, ...]]
    intervals: dict[int, tuple[Fraction, Fraction]]

    def codes_on(self, lower: Fraction, upper: Fraction) -> tuple[int, ...]:
        """Profiles that are Nash throughout (lower, upper)."""
        return tuple(
            c for c, (lo, hi) in sorted(self.intervals.items()) if lo <= lower and hi >= upper
        )


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of a 1-D array: a sort and a neighbour
    compare, exact for object dtype too (``np.unique`` would import
    ``numpy.ma``)."""
    keys = np.sort(keys)
    keep = np.ones(keys.shape, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def ratio_regimes(
    game: GameSpec, penalty: Fraction = Fraction(0), table: PayoffTable | None = None
) -> RegimeAnalysis:
    """Breakpoints of the Nash set over r = v0/v1 with v1 normalized to 1.

    Profiles are Nash on closed intervals, so the equilibrium set at a
    breakpoint is the union of the sets on the two adjacent open intervals.

    A deviation changes the deviator's utility by (a*r + b) / (pd * scale)
    for integers a, b, where penalty = pn/pd; it bounds r by -b/a.  Each
    bound is reduced to lowest terms, the few distinct ones are sorted once
    as Fractions, and every interval is computed as an integer max/min over
    their ranks.  Python integers replace int64 when a key could overflow.
    """
    table = table or PayoffTable(game)
    n = table.n
    penalty = Fraction(penalty)
    pn, pd = penalty.numerator, penalty.denominator
    # every a, b and reduced numerator or denominator lies in [-cap, cap]
    cap = (pd + abs(pn)) * table.scale
    keyed = cap + 1
    dtype = _exact_dtype((keyed + 1) ** 2)
    slope, offset = (
        pd * won.astype(dtype) - pn * lost.astype(dtype)
        for won, lost in ((table.win0, table.lose0), (table.win1, table.lose1))
    )

    def bounds_of(j):
        """a and b of player j's deviations, where a != 0, and there the key
        num * keyed + den of -b/a in lowest terms (one-to-one, as den < keyed)."""
        a, b = _deviation_gains(slope, n, j), _deviation_gains(offset, n, j)
        sloped = a != 0
        a_s, b_s = a[sloped], b[sloped]
        num, den = np.where(a_s > 0, -b_s, b_s), np.abs(a_s)
        common = np.gcd(num, den)
        return a, b, sloped, num // common * keyed + den // common

    # one player at a time, so memory stays at one player's deviations;
    # keys 1 and keyed + 1 are the ends 0/1 and 1/1 of the ratio range
    ends = np.array([1, keyed + 1], dtype=slope.dtype)
    distinct = _distinct(np.concatenate([_distinct(bounds_of(j)[3]) for j in range(n)] + [ends]))
    values = np.array([Fraction(k // keyed, k % keyed) for k in distinct.tolist()], dtype=object)
    order = np.argsort(values)
    bounds = values[order].tolist()
    rank_of = np.argsort(order)
    zero, one = rank_of[np.searchsorted(distinct, ends)].tolist()
    lo = np.full(table.ncodes, zero)
    hi = np.full(table.ncodes, one)
    blocked = np.zeros(table.ncodes, dtype=bool)
    for j in range(n):
        a, b, sloped, keys = bounds_of(j)
        rank = np.zeros(a.shape, dtype=np.int64)
        rank[sloped] = rank_of[np.searchsorted(distinct, keys)]
        np.maximum(lo, np.where(a < 0, rank, zero).max(axis=0), out=lo)
        np.minimum(hi, np.where(a > 0, rank, one).min(axis=0), out=hi)
        blocked |= (~sloped & (b > 0)).any(axis=0)
    codes = np.flatnonzero(~blocked & (lo <= hi))
    lo, hi = lo[codes], hi[codes]
    spans = {}  # the few distinct intervals are shared between profiles
    intervals = {
        c: spans.setdefault((x, y), (bounds[x], bounds[y]))
        for c, x, y in zip(codes.tolist(), lo.tolist(), hi.tolist())
    }
    inner = sorted((set(lo.tolist()) | set(hi.tolist())) - {zero, one})
    cuts = [zero] + inner + [one]
    segments = tuple(
        RegimeSegment(bounds[x], bounds[y], tuple(codes[(lo <= x) & (hi >= y)].tolist()))
        for x, y in zip(cuts[:-1], cuts[1:])
    )
    at_points = {bounds[x]: tuple(codes[(lo <= x) & (hi >= x)].tolist()) for x in inner}
    return RegimeAnalysis(tuple(bounds[x] for x in inner), segments, at_points, intervals)


# ---------------------------------------------------------------------------
# symmetries and orbits


@dataclass(frozen=True)
class SymmetryGroup:
    """Player permutations; perm maps player j to perm[j]."""

    permutations: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.permutations)

    def apply(self, perm: tuple[int, ...], profile: tuple[int, ...]) -> tuple[int, ...]:
        moved = [0] * len(profile)
        for j, f in enumerate(profile):
            moved[perm[j]] = f
        return tuple(moved)


def reporting_symmetries(game: GameSpec) -> SymmetryGroup:
    """Permutations preserving the graph and the weighted type multiset.

    This is the relabeling group used to fold equilibrium listings into
    orbit classes.  It can be larger than the strict question-preserving
    group when a reflection keeps every type pattern but reroutes involved
    sets; classes are always taken inside the equilibrium set, so members
    of a reported class are equilibria by construction.

    Graph automorphisms are found by backtracking: player j is mapped to a
    free vertex of its degree whose adjacency to the images of players
    0..j-1 matches j's own, so only partial maps that can still preserve
    the graph are extended.  Candidates are tried in increasing order, so
    the permutations come out in lexicographic order.
    """
    n = game.n
    # (players of type 1, weight rank) per question: the multiset to keep
    weights = sorted({q.weight for q in game.questions})
    typed = [
        ([j for j, b in enumerate(q.type_bits) if b], weights.index(q.weight))
        for q in game.questions
    ]
    type_target = Counter((sum(1 << j for j in ones), w) for ones, w in typed)
    nbr = game.graph.neighbor_masks()
    perms = []
    perm: list[int] = []

    def types_preserved() -> bool:
        moved = Counter((sum(1 << perm[j] for j in ones), w) for ones, w in typed)
        return moved == type_target

    def extend(used: int) -> None:
        j = len(perm)
        if j == n:
            if types_preserved():
                perms.append(tuple(perm))
            return
        # images of j's neighbours among the players already mapped
        mapped = sum(1 << perm[i] for i in range(j) if (nbr[j] >> i) & 1)
        for v in range(n):
            if (used >> v) & 1 or nbr[v].bit_count() != nbr[j].bit_count():
                continue
            if nbr[v] & used == mapped:
                perm.append(v)
                extend(used | 1 << v)
                perm.pop()

    extend(0)
    return SymmetryGroup(tuple(perms))


@dataclass(frozen=True)
class Orbit:
    representative: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]


def partition_orbits(profiles, group: SymmetryGroup) -> list[Orbit]:
    """Partition ``profiles`` into classes under the group action."""
    # members are the caller's own tuples, not the permuted copies
    pool = {p: p for p in map(tuple, profiles)}
    orbits = []
    seen: set[tuple[int, ...]] = set()
    for p in sorted(pool):
        if p in seen:
            continue
        members = sorted({pool[g_p] for perm in group.permutations if (g_p := group.apply(perm, p)) in pool})
        seen.update(members)
        orbits.append(Orbit(members[0], tuple(members)))
    return orbits


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True, slots=True)
class EquilibriumEntry:
    profile: tuple[int, ...]
    payoffs: tuple[LinearPayoff, ...]
    p_win: Fraction
    orbit_id: int


@dataclass(frozen=True)
class EquilibriumReport:
    criterion: str
    game_name: str
    params: PayoffParams | None
    regime: tuple[Fraction, Fraction] | None
    entries: tuple[EquilibriumEntry, ...]
    orbits: tuple[Orbit, ...]

    @property
    def profile_count(self) -> int:
        return len(self.entries)

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)


def build_report(
    game: GameSpec,
    profiles,
    criterion: str,
    params: PayoffParams | None = None,
    regime: tuple[Fraction, Fraction] | None = None,
    table: PayoffTable | None = None,
    group: SymmetryGroup | None = None,
) -> EquilibriumReport:
    table = table or PayoffTable(game)
    group = group or reporting_symmetries(game)
    profiles = sorted(tuple(p) for p in profiles)
    orbits = partition_orbits(profiles, group)
    orbit_of = {m: i for i, orb in enumerate(orbits) for m in orb.members}
    entries = []
    for p in profiles:
        code = profile_to_code(p, table.n)
        payoffs = tuple(table.payoff(code, j) for j in range(table.n))
        entries.append(EquilibriumEntry(p, payoffs, table.p_win(code), orbit_of[p]))
    return EquilibriumReport(criterion, game.name, params, regime, tuple(entries), tuple(orbits))


def best_csw(
    game: GameSpec,
    params: PayoffParams,
    criterion: str = "nash",
    *,
    table: PayoffTable | None = None,
) -> tuple[Fraction, list[tuple[int, ...]]]:
    """Best social welfare over the criterion's profiles, with the argmax set."""
    scans = {"nash": _nash_mask, "pareto": _pareto_mask}
    if criterion not in scans:
        raise ValueError(f"unknown criterion {criterion!r}")
    table = table or PayoffTable(game)
    n = table.n
    grid, den = table.utility_grid(params)
    codes = np.flatnonzero(scans[criterion](grid, n))
    if codes.size == 0:
        raise EmptyEquilibriumSetError(f"no {criterion} profile for {game.name}")
    nums = _welfare(grid[codes])
    best = nums.max()
    argmax = [_interned_profile(c, n) for c in codes[nums == best].tolist()]
    return Fraction(int(best), den * n), argmax

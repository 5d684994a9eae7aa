"""Quantum advice from the graph state: guarantees and the equilibrium test.

Each player measures their graph-state qubit in X (type 1) or Z (type 0);
the joint answer law per question comes from the stabilizer algebra.  This
module certifies the win-with-probability-1 property, uniform marginals and
restricted belief invariance, and decides when following the advice is a
Nash equilibrium by an exhaustive scan over local post-processing
deviations.  The involvement threshold v0/v1 >= 1 - p of
``quantum_threshold`` is that scan's closed form only for uniform,
belief-invariant advice; it is reported, and checked against the scan, but
decides nothing.

The exhaustive scan runs on one deviation table per game: for every player
and question, the exact law of (own advice bit, parity of the other involved
players) is read once, as a coset of bitmasks with integer masses, from the
question's factored outcome law.  The payoff coefficients (c0, c1) of all 16
policies follow as integers over one common scale.  Each player's
identity policy among them is what following the advice is worth to that
player, so every comparison is an integer comparison.  Building the table
takes a few milliseconds, so ``is_quantum_nash`` rebuilds it on every call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import gf2
from .errors import UnsupportedGameError
from .games import GameSpec, PayoffParams, p_involved
from .stabilizer import OutcomeLaw, outcome_law


def bases_for_types(type_bits) -> tuple[str, ...]:
    return tuple("X" if b else "Z" for b in type_bits)


Advice = dict[str, OutcomeLaw]


def advice_correlation(game: GameSpec) -> Advice:
    """The exact answer law of the graph-state measurement, per question id."""
    if not game.stabilizer_backed():
        missing = [q.qid for q in game.questions if q.generator_set is None]
        raise UnsupportedGameError(f"questions without generator sets: {missing}")
    return {q.qid: outcome_law(game.graph, bases_for_types(q.type_bits)) for q in game.questions}


@dataclass(frozen=True)
class PerfectWinReport:
    win_probability: dict[str, Fraction]
    all_perfect: bool


def verify_perfect_win(game: GameSpec, advice: Advice | None = None) -> PerfectWinReport:
    """Check that the advice wins every question with probability exactly 1."""
    advice = advice or advice_correlation(game)
    probs = {}
    for q in game.questions:
        dist = advice[q.qid].parity_distribution(q.involved)
        probs[q.qid] = dist.get(q.parity, Fraction(0))
    return PerfectWinReport(probs, all(p == 1 for p in probs.values()))


@dataclass(frozen=True)
class BeliefInvarianceReport:
    uniform_violations: tuple[tuple[str, int], ...]  # (question id, player)
    invariance_violations: tuple[tuple[int, str, str], ...]  # (player, qid, qid)

    @property
    def ok(self) -> bool:
        return not self.uniform_violations and not self.invariance_violations


def verify_uniform_and_belief_invariant(
    game: GameSpec, advice: Advice | None = None
) -> BeliefInvarianceReport:
    """Uniform single-player advice marginals, identical across equal own types.

    The second check is belief invariance restricted to the game's type set:
    what a player sees depends only on their own type bit.
    """
    advice = advice or advice_correlation(game)
    uniform_bad = []
    marginals: dict[tuple[int, str], dict] = {}
    for q in game.questions:
        law = advice[q.qid]
        for j in range(game.n):
            marg = law.marginal([j])
            marginals[(j, q.qid)] = marg
            if marg.get((0,), Fraction(0)) != Fraction(1, 2):
                uniform_bad.append((q.qid, j))
    invariance_bad = []
    for j in range(game.n):
        for qa, qb in itertools.combinations(game.questions, 2):
            if qa.type_bits[j] == qb.type_bits[j]:
                if marginals[(j, qa.qid)] != marginals[(j, qb.qid)]:
                    invariance_bad.append((j, qa.qid, qb.qid))
    return BeliefInvarianceReport(tuple(uniform_bad), tuple(invariance_bad))


@dataclass(frozen=True)
class QuantumThreshold:
    p: Fraction
    bound: Fraction  # 1 - p


def quantum_threshold(game: GameSpec) -> QuantumThreshold:
    """Smallest involvement probability and the ratio bound it induces.

    p is the worst-case probability of being involved over players and
    types.  When every advice marginal is uniform and belief-invariant,
    following the advice is an equilibrium iff v0/v1 >= 1 - p: the closed
    form of the deviation scan, which ``quantum`` prints.  Otherwise the
    bound decides nothing; ``is_quantum_nash`` does.
    """
    p = min(
        p_involved(game, j, t)
        for j in range(game.n)
        for t in (0, 1)
        if any(q.type_bits[j] == t for q in game.questions)
    )
    return QuantumThreshold(p, 1 - p)


# all maps (own type bit, advice bit) -> answer bit
DEVIATION_POLICIES: tuple[tuple[int, int, int, int], ...] = tuple(
    itertools.product((0, 1), repeat=4)
)


def _policy_index(policy) -> int:
    """Position of ``policy`` in ``DEVIATION_POLICIES``."""
    try:
        return DEVIATION_POLICIES.index(tuple(policy))
    except ValueError:
        raise ValueError(f"policy must be four 0/1 answers, got {policy!r}") from None


# the identity policy: answer the advice bit whatever the type
FOLLOW_INDEX = _policy_index((0, 1, 0, 1))


def _deviation_row(
    game: GameSpec, advice: Advice, player: int, weight_scale: int
) -> tuple[tuple[int, int], ...]:
    """(c0, c1) of every policy for one deviator, times 4 * ``weight_scale``.

    Per question, the law's image under (own advice bit, parity of the other
    involved players) is read as a coset of bitmasks.  From it,
    ``won[t][a][x]`` collects the mass of rounds with own type t and advice
    bit a that answer x wins; a policy picks one answer x per (t, a) and
    earns won[t][a][x] towards c_x.  An image of two bits has probabilities
    in {1, 1/2, 1/4}, hence the factor 4.
    """
    won = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    own_mask = 1 << player
    for q in game.questions:
        t = q.type_bits[player]
        own = player in q.involved
        rest_mask = sum(1 << r for r in q.involved) & ~own_mask
        offset, span = advice[q.qid].image_coset((own_mask, rest_mask))
        mass = q.weight.numerator * (weight_scale // q.weight.denominator) * (4 >> len(span))
        for point in gf2.coset(offset, span):
            advice_bit, rest_parity = point & 1, point >> 1
            for answer in (0, 1):
                if (rest_parity + (answer if own else 0)) % 2 == q.parity:
                    won[t][advice_bit][answer] += mass
    row = []
    for policy in DEVIATION_POLICIES:
        c = [0, 0]
        for t in (0, 1):
            for a in (0, 1):
                x = policy[(t << 1) | a]
                c[x] += won[t][a][x]
        row.append((c[0], c[1]))
    return tuple(row)


def _weight_scale(game: GameSpec) -> int:
    return math.lcm(*(q.weight.denominator for q in game.questions))


@dataclass(frozen=True)
class DeviationTable:
    """Payoff coefficients of all 16 post-processing policies per player.

    ``rows[player][i]`` is (c0, c1) of ``DEVIATION_POLICIES[i]`` times
    ``scale``: a deviator who rewrites their advice bit through the policy,
    while everyone else follows the advice, earns (c0*v0 + c1*v1) / scale.
    """

    scale: int
    rows: tuple[tuple[tuple[int, int], ...], ...]

    def advice_is_nash(self, v0, v1) -> bool:
        """No policy of any player beats that player's identity policy.

        The identity policy answers as advised, so its entry is what
        following the advice is worth to that player; it equals (v0+v1)/2
        only when the advice marginals are uniform.  Compared in integers,
        with v0 and v1 brought over a common denominator as a0 and a1.
        """
        v0, v1 = Fraction(v0), Fraction(v1)
        den = math.lcm(v0.denominator, v1.denominator)
        a0, a1 = int(v0 * den), int(v1 * den)
        for row in self.rows:
            f0, f1 = row[FOLLOW_INDEX]
            bar = f0 * a0 + f1 * a1
            if any(c0 * a0 + c1 * a1 > bar for c0, c1 in row):
                return False
        return True


def deviation_table(game: GameSpec, advice: Advice | None = None) -> DeviationTable:
    """The deviation table of ``game``: n * questions law queries in all."""
    advice = advice or advice_correlation(game)
    weight_scale = _weight_scale(game)
    rows = tuple(_deviation_row(game, advice, j, weight_scale) for j in range(game.n))
    return DeviationTable(4 * weight_scale, rows)


def deviation_payoff_coefficients(
    game: GameSpec, advice: Advice, player: int, policy
) -> tuple[Fraction, Fraction]:
    """Expected utility (c0, c1) with u = c0*v0 + c1*v1 for one deviator.

    The deviator rewrites their advice bit through ``policy``; everyone else
    answers as advised.  A lookup into the deviator's row of the deviation
    table, built from the joint law of (own advice, parity of the other
    involved players).
    """
    index = _policy_index(policy)
    weight_scale = _weight_scale(game)
    c0, c1 = _deviation_row(game, advice, player, weight_scale)[index]
    return Fraction(c0, 4 * weight_scale), Fraction(c1, 4 * weight_scale)


def is_quantum_nash(game: GameSpec, params: PayoffParams) -> bool:
    """Is following the advice a Nash equilibrium at these payoffs?

    No policy of any player may beat following the advice, that player's
    identity policy: all 16 post-processing policies are scanned in
    integers over the deviation table.  The bound of ``quantum_threshold``
    is this scan's closed form only when the advice is uniform and
    belief-invariant.
    """
    if params.penalty != 0:
        raise ValueError("equilibrium test applies to the base game (penalty 0)")
    return deviation_table(game).advice_is_nash(params.v0, params.v1)


def qsw(params: PayoffParams) -> Fraction:
    """Social welfare of the advice-following strategy when every advice
    marginal is uniform: (v0+v1)/2."""
    return (params.v0 + params.v1) / 2


def quantum_player_utilities(game: GameSpec, params: PayoffParams) -> tuple[Fraction, ...]:
    """Per-player expected utility computed directly from the advice laws.

    Cross-check for the closed form: where the advice always wins and each
    player's marginal is uniform, every entry equals (v0+v1)/2.
    """
    advice = advice_correlation(game)
    totals = [Fraction(0)] * game.n
    for q in game.questions:
        law = advice[q.qid]
        win = law.parity_distribution(q.involved).get(q.parity, Fraction(0))
        if win != 1:
            raise UnsupportedGameError(f"question {q.qid} is not won with certainty")
        for j in range(game.n):
            marg = law.marginal([j])
            totals[j] += q.weight * (
                marg.get((0,), Fraction(0)) * params.v0 + marg.get((1,), Fraction(0)) * params.v1
            )
    return tuple(totals)

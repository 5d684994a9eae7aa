"""Shared fixtures for the test suite."""

from fractions import Fraction

from grapheq import GameSpec, Graph, QuestionSpec, derive_question


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

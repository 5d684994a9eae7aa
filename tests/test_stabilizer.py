"""Stabilizer algebra against two independent oracles.

Words are checked by multiplying explicit Pauli matrices; outcome laws are
checked against both a brute-force enumeration of compatible generator
subsets and the squared amplitudes of the measured graph-state vector.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from grapheq import (
    Graph,
    InconsistentLawError,
    OutcomeLaw,
    derive_question,
    outcome_law,
    stabilizer_word,
)
from grapheq import gf2
from helpers import edgeless, linear_image_distribution, oracle_neighbors, probability_of

I2 = np.eye(2, dtype=complex)
PX = np.array([[0, 1], [1, 0]], dtype=complex)
PZ = np.diag([1.0, -1.0]).astype(complex)
SITE = {"I": I2, "X": PX, "Z": PZ, "Y": PX @ PZ}  # Y records an X then Z factor


def kron_chain(mats):
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def generator_matrix(graph, i):
    mats = []
    for j in range(graph.n):
        if j == i:
            mats.append(PX)
        elif j in oracle_neighbors(graph, i):
            mats.append(PZ)
        else:
            mats.append(I2)
    return kron_chain(mats)


def word_matrix(word):
    sign = -1.0 if word.sign_exponent else 1.0
    return sign * kron_chain([SITE[c] for c in word.letters])


def random_graph(rng, n):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


def subsets(n):
    for bits in range(2**n):
        yield {j for j in range(n) if (bits >> j) & 1}


def test_word_equals_generator_product_on_cycle():
    g = Graph.cycle(5)
    gens = [generator_matrix(g, i) for i in range(5)]
    for k in subsets(5):
        prod = np.eye(2**5, dtype=complex)
        for i in sorted(k):
            prod = prod @ gens[i]
        assert np.allclose(prod, word_matrix(stabilizer_word(g, k)))


def test_word_equals_generator_product_random_graphs():
    rng = random.Random(20250810)
    for _ in range(12):
        n = rng.randint(2, 5)
        g = random_graph(rng, n)
        gens = [generator_matrix(g, i) for i in range(n)]
        for k in subsets(n):
            prod = np.eye(2**n, dtype=complex)
            for i in sorted(k):
                prod = prod @ gens[i]
            assert np.allclose(prod, word_matrix(stabilizer_word(g, k)))


def test_word_examples_on_cycle():
    g = Graph.cycle(5)
    w = stabilizer_word(g, {0})
    assert (w.letters, w.sign_exponent) == (("X", "Z", "I", "I", "Z"), 0)
    w = stabilizer_word(g, set())
    assert (w.letters, w.sign_exponent) == (("I",) * 5, 0)
    w = stabilizer_word(g, set(range(5)))
    assert (w.letters, w.sign_exponent) == (("X",) * 5, 1)
    w = stabilizer_word(g, {0, 1})
    assert w.letters[0] == "Y" and w.letters[1] == "Y"


def test_derive_question_examples():
    g = Graph.cycle(5)
    d = derive_question(g, {1})
    assert d.valid and d.involved == frozenset({0, 1, 2}) and d.parity == 0
    d = derive_question(g, {0, 2})
    assert d.valid and d.involved == frozenset({4, 0, 2, 3}) and d.parity == 0
    assert not derive_question(g, {0, 1}).valid
    # required bases: X exactly on K, Z on involved minus K
    d = derive_question(g, {0})
    assert d.required_basis == ("X", "Z", None, None, "Z")


def test_derivation_matches_word_support_and_sign():
    rng = random.Random(7)
    graphs = [Graph.cycle(5)] + [random_graph(rng, rng.randint(2, 8)) for _ in range(20)]
    for g in graphs:
        for k in subsets(g.n):
            d = derive_question(g, k)
            w = stabilizer_word(g, k)
            if d.valid:
                assert frozenset(w.support) == d.involved
                assert w.sign_exponent == d.parity
            else:
                assert "Y" in w.letters


def set_derivation(graph, k):
    """(valid, involved, parity, required bases) of K from neighbour sets:
    K is valid when each of its vertices has an even number of neighbours
    in K; the involved set adds the vertices with an odd number; the parity
    counts the edges inside K."""
    odd = {j for j in range(graph.n) if len(oracle_neighbors(graph, j) & k) % 2}
    if odd & k:
        return False, None, None, None
    parity = sum(1 for u, v in graph.edges if u in k and v in k) % 2
    bases = tuple("X" if j in k else "Z" if j in odd else None for j in range(graph.n))
    return True, k | odd, parity, bases


def test_derive_question_matches_set_derivation_exhaustive():
    rng = random.Random(23)
    graphs = [Graph.cycle(n) for n in range(3, 8)] + [random_graph(rng, rng.randint(1, 7)) for _ in range(30)]
    for g in graphs:
        for k in subsets(g.n):
            d = derive_question(g, k)
            assert (d.valid, d.involved, d.parity, d.required_basis) == set_derivation(g, k), (g, k)


def test_word_product_rule_exhaustive_on_cycle():
    # letters compose by XZ bookkeeping; the sign follows the edge count of
    # the symmetric difference
    g = Graph.cycle(5)
    compose = {"I": 0, "X": 1, "Z": 2, "Y": 3}
    back = {v: k for k, v in compose.items()}
    for ka in subsets(5):
        wa = stabilizer_word(g, ka)
        for kb in subsets(5):
            wb = stabilizer_word(g, kb)
            kc = set(ka) ^ set(kb)
            wc = stabilizer_word(g, kc)
            expected = tuple(
                back[compose[a] ^ compose[b]] for a, b in zip(wa.letters, wb.letters)
            )
            assert wc.letters == expected
            assert wc.sign_exponent == sum(1 for u, v in g.edges if u in kc and v in kc) % 2


# ---------------------------------------------------------------------------
# outcome laws


def graph_state_probabilities(graph, bases):
    """Squared amplitudes of the measured graph state (independent oracle)."""
    n = graph.n
    dim = 2**n
    psi = np.ones(dim, dtype=complex) / np.sqrt(dim)
    for idx in range(dim):
        x = [(idx >> (n - 1 - j)) & 1 for j in range(n)]
        phase = sum(x[u] * x[v] for u, v in graph.edges)
        if phase % 2:
            psi[idx] = -psi[idx]
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    op = kron_chain([hadamard if b == "X" else I2 for b in bases])
    out = op @ psi
    return np.abs(out) ** 2


def law_probability_vector(law):
    n = law.n
    return np.array(
        [
            float(probability_of(law, [(idx >> (n - 1 - j)) & 1 for j in range(n)]))
            for idx in range(2**n)
        ]
    )


def test_law_matches_statevector_all_patterns_on_cycle():
    g = Graph.cycle(5)
    for pattern in range(32):
        bases = ["X" if (pattern >> (4 - j)) & 1 else "Z" for j in range(5)]
        law = outcome_law(g, bases)
        assert np.allclose(law_probability_vector(law), graph_state_probabilities(g, bases), atol=1e-12)


def test_law_matches_statevector_random_graphs():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 6)
        g = random_graph(rng, n)
        bases = [rng.choice("XZ") for _ in range(n)]
        law = outcome_law(g, bases)
        assert np.allclose(law_probability_vector(law), graph_state_probabilities(g, bases), atol=1e-12)


def test_law_matches_admissible_subset_enumeration():
    # brute-force oracle: a vector is in the support iff it satisfies the
    # parity constraint of every compatible generator subset
    rng = random.Random(5)
    graphs = [Graph.cycle(5)] + [random_graph(rng, rng.randint(1, 6)) for _ in range(10)]
    for g in graphs:
        for _ in range(4):
            bases = [rng.choice("XZ") for _ in range(g.n)]
            constraints = []
            for k in subsets(g.n):
                if any(bases[j] == "Z" for j in k):
                    continue
                if any(
                    bases[j] == "X" and len(oracle_neighbors(g, j) & k) % 2 == 1
                    for j in range(g.n)
                ):
                    continue
                w = stabilizer_word(g, k)
                constraints.append((w.support, w.sign_exponent))
            law = outcome_law(g, bases)
            support = set(law.support())
            for a in itertools.product((0, 1), repeat=g.n):
                ok = all(sum(a[j] for j in supp) % 2 == rhs for supp, rhs in constraints)
                assert (a in support) == ok


def test_frozen_law_examples():
    g = Graph.cycle(5)
    law = outcome_law(g, ["X"] * 5)
    assert law.rank == 1 and law.support_size == 16
    assert law.parity_distribution(range(5)) == {1: Fraction(1)}

    law = outcome_law(g, ["X", "Z", "Z", "Z", "Z"])
    assert law.rank == 1 and law.support_size == 16
    assert law.parity_distribution([0, 1, 4]) == {0: Fraction(1)}

    # an edgeless pair measured in X is deterministic 00; measured in Z the
    # four outcomes are equally likely (plus states carry no Z constraint)
    pair = edgeless(2)
    law = outcome_law(pair, ["X", "X"])
    assert law.marginal([0, 1]) == {(0, 0): Fraction(1)}
    law = outcome_law(pair, ["Z", "Z"])
    assert law.support_size == 4
    assert law.marginal([0]) == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}


def test_law_query_examples():
    g = Graph.cycle(5)
    law = outcome_law(g, ["X"] * 5)
    assert law.marginal([0]) == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    law2 = outcome_law(g, ["X", "Z", "Z", "Z", "Z"])
    assert law2.parity_distribution([0, 1, 4]) == {0: Fraction(1)}
    # any vector off the constraint surface has probability zero
    assert probability_of(law2, [1, 0, 0, 0, 0]) == 0
    assert probability_of(law2, [0, 0, 0, 0, 0]) == Fraction(1, 16)


def test_probabilities_sum_to_one_with_equal_mass():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 6)
        g = random_graph(rng, n)
        bases = [rng.choice("XZ") for _ in range(n)]
        law = outcome_law(g, bases)
        total = Fraction(0)
        for a in itertools.product((0, 1), repeat=n):
            p = probability_of(law, a)
            assert p in (Fraction(0), Fraction(1, law.support_size))
            total += p
        assert total == 1


def test_marginal_and_parity_match_support_enumeration():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(2, 6)
        g = random_graph(rng, n)
        bases = [rng.choice("XZ") for _ in range(n)]
        law = outcome_law(g, bases)
        support = list(law.support())
        players = rng.sample(range(n), rng.randint(1, n))
        counts = {}
        parity_counts = {0: 0, 1: 0}
        for a in support:
            key = tuple(a[p] for p in players)
            counts[key] = counts.get(key, 0) + 1
            parity_counts[sum(a[p] for p in players) % 2] += 1
        want_marginal = {k: Fraction(v, len(support)) for k, v in counts.items()}
        assert law.marginal(players) == want_marginal
        want_parity = {b: Fraction(c, len(support)) for b, c in parity_counts.items() if c}
        assert law.parity_distribution(players) == want_parity


def test_inconsistent_constraints_rejected():
    with pytest.raises(InconsistentLawError):
        OutcomeLaw(2, [0b01, 0b01], [0, 1])


def test_malformed_rows_rejected():
    # a bit at or above n would land on the right-hand side column
    for rows, rhs in (([0b100], [0]), ([0b01], [0, 1]), ([-1], [0])):
        with pytest.raises(ValueError):
            OutcomeLaw(2, rows, rhs)


def random_law_constraints(rng, n, kind):
    """A consistent (matrix, rhs) pair: no rows, zero rows, a full-rank
    triangular system with shuffled rows, or random rows."""
    if kind == "empty":
        matrix = np.zeros((0, n), dtype=np.uint8)
    elif kind == "zero":
        matrix = np.zeros((3, n), dtype=np.uint8)
    elif kind == "full":
        matrix = np.triu(np.array([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)], dtype=np.uint8))
        np.fill_diagonal(matrix, 1)
        matrix = matrix[rng.sample(range(n), n)]
    else:
        matrix = np.array(
            [[rng.randint(0, 1) for _ in range(n)] for _ in range(rng.randint(1, n + 2))], dtype=np.uint8
        )
    point = np.array([rng.randint(0, 1) for _ in range(n)], dtype=np.uint8)
    return matrix, (matrix.astype(int) @ point) % 2


@pytest.mark.parametrize("kind", ["empty", "zero", "full", "random"])
def test_bitmask_law_matches_support_enumeration(kind):
    rng = random.Random(sum(map(ord, kind)))
    for _ in range(8 if kind == "random" else 3):
        n = rng.randint(1, 7)
        matrix, rhs = random_law_constraints(rng, n, kind)
        law = OutcomeLaw(n, [gf2.pack(row) for row in matrix.tolist()], rhs)
        # the support by trying every answer vector against the raw system
        support = [
            a for a in itertools.product((0, 1), repeat=n) if np.array_equal((matrix.astype(int) @ a) % 2, rhs)
        ]
        assert sorted(law.support()) == support
        assert law.support_size == len(support)
        assert law.rank == {"empty": 0, "zero": 0, "full": n}.get(kind, law.rank)
        assert 2 ** (n - law.rank) == len(support)
        for a in itertools.product((0, 1), repeat=n):
            assert probability_of(law, a) == (Fraction(1, len(support)) if a in support else 0)
        functionals = np.array(
            [[rng.randint(0, 1) for _ in range(n)] for _ in range(rng.randint(1, 3))], dtype=np.uint8
        )
        players = rng.sample(range(n), rng.randint(1, n))
        image, marginal, parity = {}, {}, {}
        for a in support:
            key = tuple(int(b) for b in (functionals.astype(int) @ a) % 2)
            image[key] = image.get(key, 0) + 1
            own = tuple(a[p] for p in players)
            marginal[own] = marginal.get(own, 0) + 1
            bit = sum(own) % 2
            parity[bit] = parity.get(bit, 0) + 1
        for got, counts in (
            (linear_image_distribution(law, functionals), image),
            (law.marginal(players), marginal),
            (law.parity_distribution(players), parity),
        ):
            assert got == {k: Fraction(c, len(support)) for k, c in counts.items()}


def test_law_is_factored_once_per_constraint_set(monkeypatch):
    law = outcome_law(Graph.cycle(5), ["X", "Z", "Z", "X", "Z"])
    calls = []
    for name in ("nullspace", "reduce_augmented"):
        original = getattr(gf2, name)
        monkeypatch.setattr(gf2, name, lambda *args, f=original: calls.append(args) or f(*args))
    before = [law.marginal([j]) for j in range(5)] + [law.parity_distribution(range(5))]
    assert [law.marginal([j]) for j in range(5)] + [law.parity_distribution(range(5))] == before
    support = set(law.support())
    # queries reuse the factorisation made at construction
    assert calls == []
    # the constraints are read-only: no assignment, and an edited copy
    # leaves the law as it was
    for name in ("matrix", "rhs"):
        with pytest.raises(AttributeError):
            setattr(law, name, getattr(law, name))
    rhs = law.rhs
    rhs ^= 1
    assert set(law.support()) == support
    assert all(np.array_equal((law.matrix.astype(int) @ a) % 2, law.rhs) for a in support)

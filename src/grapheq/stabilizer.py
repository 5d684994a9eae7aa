"""Graph-state stabilizer algebra over GF(2).

Products of stabilizer generators, derivation of valid parity questions, and
the exact joint law of single-qubit X/Z measurements on a graph state.  All
probabilities are rationals; nothing in this module touches floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gf2
from .errors import InconsistentLawError


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are stored deduplicated as (min, max) pairs; no self loops.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self loop at vertex {u}")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not normalized")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) outside 0..{self.n - 1}")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        return cls(n, frozenset((min(u, v), max(u, v)) for u, v in edges))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        return cls.from_edges(n, ((i, (i + 1) % n) for i in range(n)))

    @classmethod
    def edgeless(cls, n: int) -> "Graph":
        return cls(n, frozenset())

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(b if a == v else a for a, b in self.edges if v in (a, b))

    def adjacency(self) -> np.ndarray:
        adj = np.zeros((self.n, self.n), dtype=np.uint8)
        for u, v in self.edges:
            adj[u, v] = adj[v, u] = 1
        return adj

    def internal_edge_count(self, subset) -> int:
        s = set(subset)
        return sum(1 for u, v in self.edges if u in s and v in s)

    def disjoint_union(self, other: "Graph") -> "Graph":
        shifted = ((u + self.n, v + self.n) for u, v in other.edges)
        return Graph.from_edges(self.n + other.n, itertools.chain(self.edges, shifted))


@dataclass(frozen=True)
class PauliWord:
    """Signed n-qubit Pauli word.

    ``letters[j]`` is one of I/X/Y/Z, where Y records that both an X and a Z
    factor act on qubit j.  ``sign_exponent`` is 0 for +1 and 1 for -1.
    """

    letters: tuple[str, ...]
    sign_exponent: int

    def __post_init__(self):
        if self.sign_exponent not in (0, 1):
            raise ValueError("sign exponent must be 0 or 1")
        if any(c not in "IXYZ" for c in self.letters):
            raise ValueError("letters must be I, X, Y or Z")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(j for j, c in enumerate(self.letters) if c != "I")

    def __str__(self) -> str:
        sign = "-" if self.sign_exponent else "+"
        return sign + "".join(self.letters)


@dataclass(frozen=True)
class QuestionDerivation:
    """Validity and parity data for a generator subset K.

    K is valid when every vertex of the induced subgraph has even internal
    degree.  For valid K, ``involved`` is the support of the generator
    product, ``parity`` its sign exponent, and ``required_basis[j]`` is "X"
    on K, "Z" on involved-minus-K and None elsewhere.
    """

    generator_set: frozenset[int]
    valid: bool
    involved: frozenset[int] | None = None
    parity: int | None = None
    required_basis: tuple[str | None, ...] | None = None


def stabilizer_word(graph: Graph, subset) -> PauliWord:
    """Product of the graph-state stabilizer generators indexed by ``subset``.

    Qubit j carries X^[j in K] * Z^(|N(j) & K| mod 2); the sign exponent is
    the number of edges inside K, mod 2.
    """
    k = set(subset)
    letters = []
    for j in range(graph.n):
        x = j in k
        z = len(graph.neighbors(j) & k) % 2 == 1
        letters.append("Y" if x and z else "X" if x else "Z" if z else "I")
    return PauliWord(tuple(letters), graph.internal_edge_count(k) % 2)


def derive_question(graph: Graph, subset) -> QuestionDerivation:
    """Derive the question data (involved set, parity, bases) for K."""
    k = frozenset(subset)
    for j in k:
        if len(graph.neighbors(j) & k) % 2 == 1:
            return QuestionDerivation(k, False)
    word = stabilizer_word(graph, k)
    involved = frozenset(word.support)
    bases: list[str | None] = [None] * graph.n
    for j in k:
        bases[j] = "X"
    for j in involved - k:
        bases[j] = "Z"
    return QuestionDerivation(k, True, involved, word.sign_exponent, tuple(bases))


class OutcomeLaw:
    """Uniform distribution over the affine solution set of M a = c over GF(2).

    This is the exact joint law of the answers produced by measuring each
    qubit of a graph state in its assigned X or Z basis.
    """

    def __init__(self, n: int, matrix: np.ndarray, rhs: np.ndarray):
        reduced = gf2.reduce_augmented(gf2.as_matrix(matrix, n), np.asarray(rhs, dtype=np.uint8))
        if reduced is None:
            raise InconsistentLawError("parity constraints are inconsistent")
        self.n = n
        self.matrix, self.rhs = reduced

    @property
    def rank(self) -> int:
        return self.matrix.shape[0]

    @property
    def support_size(self) -> int:
        return 2 ** (self.n - self.rank)

    def _particular(self) -> np.ndarray:
        """One answer vector of the law's support."""
        particular = gf2.solve(self.matrix, self.rhs)
        if particular is None:
            raise InconsistentLawError("parity constraints are inconsistent")
        return particular

    def probability_of(self, answer) -> Fraction:
        """Exact probability of a full answer vector."""
        a = np.asarray(list(answer), dtype=np.uint8) & 1
        if a.shape != (self.n,):
            raise ValueError(f"answer must have length {self.n}")
        if np.any(((self.matrix @ a) & 1) != self.rhs):
            return Fraction(0)
        return Fraction(1, self.support_size)

    def linear_image_distribution(self, functional_rows) -> dict[tuple[int, ...], Fraction]:
        """Distribution of L @ a for answers a drawn from the law.

        ``functional_rows`` is an (m, n) 0/1 matrix; the image of an affine
        subspace under a linear map is an affine subspace with equal fibers,
        so the result is uniform over a coset enumerated exactly.
        """
        lmat = gf2.as_matrix(functional_rows, self.n)
        particular = self._particular()
        base = tuple(int(b) for b in (lmat @ particular) & 1)
        images = (gf2.nullspace(self.matrix) @ lmat.T) & 1
        span, pivots = gf2.rref(images)
        dim = len(pivots)
        if dim > 20:
            raise ValueError("query subset too large for exact enumeration")
        prob = Fraction(1, 2**dim)
        dist: dict[tuple[int, ...], Fraction] = {}
        for combo in itertools.product((0, 1), repeat=dim):
            point = np.array(base, dtype=np.uint8)
            for bit, row in zip(combo, span[:dim]):
                if bit:
                    point ^= row
            dist[tuple(int(b) for b in point)] = prob
        return dist

    def marginal(self, players) -> dict[tuple[int, ...], Fraction]:
        """Exact marginal distribution of the answers of a player subset."""
        players = list(players)
        rows = np.zeros((len(players), self.n), dtype=np.uint8)
        for i, p in enumerate(players):
            rows[i, p] = 1
        return self.linear_image_distribution(rows)

    def parity_distribution(self, players) -> dict[int, Fraction]:
        """Exact distribution of the answer parity of a player subset."""
        row = np.zeros((1, self.n), dtype=np.uint8)
        for p in players:
            row[0, p] = 1
        return {bits[0]: pr for bits, pr in self.linear_image_distribution(row).items()}

    def support(self):
        """Iterate all answer vectors of positive probability (small n only)."""
        dim = self.n - self.rank
        if dim > 24:
            raise ValueError("support too large to enumerate")
        particular = self._particular()
        basis = gf2.nullspace(self.matrix)
        for combo in itertools.product((0, 1), repeat=dim):
            point = particular.copy()
            for bit, row in zip(combo, basis):
                if bit:
                    point ^= row
            yield tuple(int(b) for b in point)

    def sample(self, rng) -> tuple[int, ...]:
        """Draw one answer vector.  Demo helper; analyses never sample."""
        point = self._particular().copy()
        for row in gf2.nullspace(self.matrix):
            if rng.random() < 0.5:
                point ^= row
        return tuple(int(b) for b in point)


def outcome_law(graph: Graph, bases) -> OutcomeLaw:
    """Joint answer law for measuring each graph-state qubit in X or Z.

    A generator subset K is compatible with the bases when no Z-measured
    vertex lies in K and every X-measured vertex has an even number of
    neighbors in K.  Compatible subsets form a linear space; each basis
    element contributes one parity constraint (its word support, with the
    word sign as right-hand side).  Signs are quadratic in K, so they are
    recomputed per word rather than assumed linear.
    """
    bases = list(bases)
    if len(bases) != graph.n:
        raise ValueError(f"need {graph.n} bases, got {len(bases)}")
    if any(b not in ("X", "Z") for b in bases):
        raise ValueError("bases must be 'X' or 'Z'")
    adj = graph.adjacency()
    conditions = []
    for j, b in enumerate(bases):
        if b == "Z":
            row = np.zeros(graph.n, dtype=np.uint8)
            row[j] = 1
            conditions.append(row)
        else:
            conditions.append(adj[j])
    admissible = gf2.nullspace(gf2.as_matrix(conditions, graph.n))
    rows = []
    rhs = []
    for indicator in admissible:
        word = stabilizer_word(graph, {int(j) for j in np.nonzero(indicator)[0]})
        for j, letter in enumerate(word.letters):
            # compatible subsets never produce a Y, and letters line up with bases
            if letter == "Y" or (letter in ("X", "Z") and letter != bases[j]):
                raise InconsistentLawError(f"letter {letter} on qubit {j} clashes with basis")
        row = np.zeros(graph.n, dtype=np.uint8)
        for j in word.support:
            row[j] = 1
        rows.append(row)
        rhs.append(word.sign_exponent)
    if not rows:
        rows = np.zeros((0, graph.n), dtype=np.uint8)
        rhs = np.zeros(0, dtype=np.uint8)
    return OutcomeLaw(graph.n, np.asarray(rows, dtype=np.uint8), np.asarray(rhs, dtype=np.uint8))

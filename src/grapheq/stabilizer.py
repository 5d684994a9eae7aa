"""Graph-state stabilizer algebra over GF(2).

Products of stabilizer generators, derivation of valid parity questions, and
the exact joint law of single-qubit X/Z measurements on a graph state.  All
probabilities are rationals; nothing in this module touches floating point.

Every generator product (a Pauli word, a question derivation, a constraint
of an outcome law) is one fold of neighbourhood bitmasks, ``_word``.
Outcome laws are built from those bitmasks and factored once, when they are
constructed: each law keeps one point of its support and a
null-space basis as Python-int bitmasks (``gf2``), so a marginal, parity or
image query is a handful of ANDs and XORs on that coset.
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

    def neighbor_masks(self) -> tuple[int, ...]:
        """Bit u of entry v is set when u and v are adjacent."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

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


def _word(nbr, k: int) -> tuple[int, int]:
    """The product of the generators in the vertex bitmask ``k``, given the
    neighbour masks ``nbr``: (z, sign).

    Bit j of z is |N(j) & K| mod 2, the Z factor on qubit j (the X factors
    are k itself); sign is the number of edges inside K, mod 2.
    """
    z = 0
    inside = 0
    for j in range(k.bit_length()):
        if (k >> j) & 1:
            z ^= nbr[j]
            inside += (nbr[j] & k).bit_count()
    return z, (inside // 2) & 1


def _vertex_mask(subset) -> int:
    return sum(1 << j for j in set(subset))


def stabilizer_word(graph: Graph, subset) -> PauliWord:
    """Product of the graph-state stabilizer generators indexed by ``subset``.

    Qubit j carries X^[j in K] * Z^(|N(j) & K| mod 2); the sign exponent is
    the number of edges inside K, mod 2.
    """
    k = _vertex_mask(subset)
    z, sign = _word(graph.neighbor_masks(), k)
    letters = tuple("IXZY"[((k >> j) & 1) | ((z >> j) & 1) << 1] for j in range(graph.n))
    return PauliWord(letters, sign)


def derive_question(graph: Graph, subset) -> QuestionDerivation:
    """Derive the question data (involved set, parity, bases) for K.

    K is valid exactly when its word has no Y, i.e. no Z factor on K.
    """
    gens = frozenset(subset)
    k = _vertex_mask(gens)
    z, sign = _word(graph.neighbor_masks(), k)
    if z & k:
        return QuestionDerivation(gens, False)
    involved = frozenset(j for j in range(graph.n) if ((k | z) >> j) & 1)
    bases = tuple("X" if (k >> j) & 1 else "Z" if (z >> j) & 1 else None for j in range(graph.n))
    return QuestionDerivation(gens, True, involved, sign, bases)


class OutcomeLaw:
    """Uniform distribution over the affine solution set of M a = c over GF(2).

    This is the exact joint law of the answers produced by measuring each
    qubit of a graph state in its assigned X or Z basis.  Row i of M is the
    bitmask ``rows[i]`` (bit j is player j's answer) and c_i is ``rhs[i]``.
    The constraints are reduced and the support factored once, at
    construction: one point plus a null-space basis, as bitmasks, which
    every query reuses.  The read-only properties ``matrix`` and ``rhs``
    give the reduced constraints as uint8 arrays.
    """

    def __init__(self, n: int, rows, rhs):
        rows, rhs = list(rows), list(rhs)
        if len(rows) != len(rhs) or not all(0 <= row < 1 << n for row in rows):
            raise ValueError(f"need one rhs bit per row and every row a bitmask below 2^{n}")
        self.n = n
        reduced = gf2.reduce_augmented(rows, rhs, n)
        if reduced is None:
            raise InconsistentLawError("parity constraints are inconsistent")
        self._rows, self._bits = reduced
        # each reduced row owns its pivot column, so setting every pivot to
        # its row's parity, free columns zero, solves the system
        self._particular = 0
        for row, b in zip(*reduced):
            if b:
                self._particular |= row & -row
        self._basis = gf2.nullspace(self._rows, self.n)

    @property
    def matrix(self) -> np.ndarray:
        return gf2.to_matrix(self._rows, self.n)

    @property
    def rhs(self) -> np.ndarray:
        return np.array(self._bits, dtype=np.uint8)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def support_size(self) -> int:
        return 2 ** (self.n - self.rank)

    def image_coset(self, masks) -> tuple[int, list[int]]:
        """The image of the support under the functionals ``masks``.

        Functional i maps an answer vector a to the parity of ``masks[i] &
        a``; bit i of an image point is its value.  The image of an affine
        subspace under a linear map is an affine subspace with equal fibers,
        returned as (offset, reduced basis): each of its points has
        probability 2**-len(basis).
        """
        def image(x):
            point = 0
            for i, m in enumerate(masks):
                point |= ((m & x).bit_count() & 1) << i
            return point

        return image(self._particular), gf2.rref(map(image, self._basis))[0]

    def _image_distribution(self, masks) -> dict[tuple[int, ...], Fraction]:
        offset, span = self.image_coset(masks)
        if len(span) > 20:
            raise ValueError("query subset too large for exact enumeration")
        prob = Fraction(1, 2 ** len(span))
        return {gf2.unpack(point, len(masks)): prob for point in gf2.coset(offset, span)}

    def marginal(self, players) -> dict[tuple[int, ...], Fraction]:
        """Exact marginal distribution of the answers of a player subset."""
        return self._image_distribution([1 << p for p in players])

    def parity_distribution(self, players) -> dict[int, Fraction]:
        """Exact distribution of the answer parity of a player subset."""
        mask = 0
        for p in players:
            mask |= 1 << p
        return {bits[0]: pr for bits, pr in self._image_distribution([mask]).items()}

    def support(self):
        """Iterate all answer vectors of positive probability (small n only)."""
        if self.n - self.rank > 24:
            raise ValueError("support too large to enumerate")
        for point in gf2.coset(self._particular, self._basis):
            yield gf2.unpack(point, self.n)


def outcome_law(graph: Graph, bases) -> OutcomeLaw:
    """Joint answer law for measuring each graph-state qubit in X or Z.

    A generator subset K is compatible with the bases when no Z-measured
    vertex lies in K and every X-measured vertex has an even number of
    neighbors in K.  Compatible subsets form a linear space; each basis
    element contributes one parity constraint (its word support, with the
    word sign as right-hand side).  Signs are quadratic in K, so they are
    recomputed per word rather than assumed linear.  Subsets, neighborhoods
    and words are bitmasks over the vertices.
    """
    bases = list(bases)
    if len(bases) != graph.n:
        raise ValueError(f"need {graph.n} bases, got {len(bases)}")
    if any(b not in ("X", "Z") for b in bases):
        raise ValueError("bases must be 'X' or 'Z'")
    nbr = graph.neighbor_masks()
    x_basis = gf2.pack(b == "X" for b in bases)
    conditions = [nbr[j] if b == "X" else 1 << j for j, b in enumerate(bases)]
    rows = []
    rhs = []
    for k in gf2.nullspace(conditions, graph.n):
        z, sign = _word(nbr, k)
        # compatible subsets never produce a Y, and letters line up with bases
        if k & z or k & ~x_basis or z & x_basis:
            members = [j for j in range(graph.n) if (k >> j) & 1]
            raise InconsistentLawError(f"the word of K={members} clashes with the bases")
        rows.append(k | z)
        rhs.append(sign)
    return OutcomeLaw(graph.n, rows, rhs)

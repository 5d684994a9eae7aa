"""Game definitions: weighted parity questions on a graph, builtins, file IO.

A game is a graph plus a list of questions.  Each question assigns every
player a type bit, names the involved players whose answer parity must hit
the target bit, and carries a rational weight.  Questions backed by a
generator subset K are cross-checked against the stabilizer derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConditioningOnImpossibleType,
    InvalidGeneratorError,
    MalformedDocumentError,
    QuestionMismatchError,
    WeightSumError,
)
from .stabilizer import Graph, derive_question

# Python's default limit on the digits of an integer literal
_MAX_EXPONENT = 4300


def parse_rational(text) -> Fraction:
    """Parse "p/q", "p" or a decimal such as "1.5e-3" into an exact Fraction;
    an exponent beyond ``_MAX_EXPONENT`` is refused before it is expanded."""
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    text = str(text).strip()
    try:
        _, marked, exponent = text.lower().partition("e")
        if marked and abs(int(exponent)) > _MAX_EXPONENT:
            raise ValueError("exponent out of range")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedDocumentError(f"bad rational literal {text!r}") from exc


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


@dataclass(frozen=True)
class PayoffParams:
    """Per-answer values v0 <= v1 and the wrong-answer penalty factor.

    A winning player earns v0 or v1 according to their own answer bit; a
    losing player earns minus penalty times that value (0 when penalty is 0).
    """

    v0: Fraction
    v1: Fraction
    penalty: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "v0", Fraction(self.v0))
        object.__setattr__(self, "v1", Fraction(self.v1))
        object.__setattr__(self, "penalty", Fraction(self.penalty))
        if self.v1 <= 0:
            raise ValueError("v1 must be positive")
        if not 0 <= self.v0 <= self.v1:
            raise ValueError("need 0 <= v0 <= v1")
        if self.penalty < 0:
            raise ValueError("penalty must be nonnegative")

    @property
    def ratio(self) -> Fraction:
        return self.v0 / self.v1


@dataclass(frozen=True)
class QuestionSpec:
    """One weighted question: type vector, involved set, parity target."""

    qid: str
    type_bits: tuple[int, ...]
    involved: frozenset[int]
    parity: int
    weight: Fraction
    generator_set: frozenset[int] | None = None


@dataclass(frozen=True)
class GameSpec:
    name: str
    graph: Graph
    questions: tuple[QuestionSpec, ...]

    def __post_init__(self):
        n = self.graph.n
        total = Fraction(0)
        seen: set[tuple[tuple[int, ...], frozenset[int]]] = set()
        ids: set[str] = set()
        for q in self.questions:
            # advice laws and deviation tables are keyed by question id
            if q.qid in ids:
                raise MalformedDocumentError(f"{q.qid}: duplicate question id")
            ids.add(q.qid)
            if len(q.type_bits) != n:
                raise MalformedDocumentError(f"{q.qid}: type vector length != {n}")
            if any(b not in (0, 1) for b in q.type_bits):
                raise MalformedDocumentError(f"{q.qid}: type bits must be 0/1")
            if q.parity not in (0, 1):
                raise MalformedDocumentError(f"{q.qid}: parity must be 0/1")
            if not q.involved <= frozenset(range(n)):
                raise MalformedDocumentError(f"{q.qid}: involved set outside vertices")
            if q.weight <= 0:
                raise WeightSumError(f"{q.qid}: weight must be positive")
            key = (q.type_bits, q.involved)
            if key in seen:
                raise MalformedDocumentError(f"{q.qid}: duplicate (type, involved) pair")
            seen.add(key)
            total += q.weight
            if q.generator_set is not None:
                self._check_generator(q)
        if total != 1:
            raise WeightSumError(f"weights sum to {total}, expected 1")

    def _check_generator(self, q: QuestionSpec) -> None:
        if not q.generator_set <= frozenset(range(self.n)):
            raise MalformedDocumentError(f"{q.qid}: generator set outside vertices")
        der = derive_question(self.graph, q.generator_set)
        if not der.valid:
            raise InvalidGeneratorError(f"{q.qid}: K={sorted(q.generator_set)} has odd internal degree")
        if der.involved != q.involved or der.parity != q.parity:
            raise QuestionMismatchError(
                f"{q.qid}: K yields involved={sorted(der.involved)}, parity={der.parity}"
            )
        for j in q.generator_set:
            if q.type_bits[j] != 1:
                raise QuestionMismatchError(f"{q.qid}: generator vertex {j} must have type 1")
        for j in q.involved - q.generator_set:
            if q.type_bits[j] != 0:
                raise QuestionMismatchError(f"{q.qid}: involved vertex {j} outside K must have type 0")

    @property
    def n(self) -> int:
        return self.graph.n

    def question(self, qid: str) -> QuestionSpec:
        for q in self.questions:
            if q.qid == qid:
                return q
        raise KeyError(qid)

    def stabilizer_backed(self) -> bool:
        return all(q.generator_set is not None for q in self.questions)


BUILTIN_NAMES = ("NC00_C5", "NC01_C5", "NC000_C5", "NC00010_C5")


def _c5_question(qid, graph, type_ones, gen, weight):
    der = derive_question(graph, gen)
    bits = tuple(1 if j in type_ones else 0 for j in range(5))
    return QuestionSpec(qid, bits, der.involved, der.parity, weight, frozenset(gen))


def builtin_game(name: str) -> GameSpec:
    """The four five-cycle game variants shipped with the package.

    All questions carry their generator set; involved sets and parities are
    recomputed from the graph, never entered by hand.
    """
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown builtin game {name!r}; choose from {BUILTIN_NAMES}")
    c5 = Graph.cycle(5)
    full = frozenset(range(5))
    qs: list[QuestionSpec] = []
    if name == "NC00_C5":
        # all-ones question plus one single-generator question per player;
        # the two non-involved players read type 0
        qs.append(_c5_question("Ta", c5, full, full, Fraction(1, 6)))
        for i in range(5):
            qs.append(_c5_question(f"T{i}", c5, {i}, {i}, Fraction(1, 6)))
    elif name == "NC01_C5":
        # same questions, but one non-involved player reads 1 so every player
        # sees both types with probability 1/2
        qs.append(_c5_question("Ta", c5, full, full, Fraction(1, 6)))
        for i in range(5):
            qs.append(_c5_question(f"T{i}", c5, {i, (i + 2) % 5}, {i}, Fraction(1, 6)))
    elif name == "NC000_C5":
        # adds the two-generator questions with four involved players
        qs.append(_c5_question("Ta", c5, full, full, Fraction(3, 13)))
        for i in range(5):
            qs.append(_c5_question(f"T{i}", c5, {i}, {i}, Fraction(1, 13)))
        for i in range(5):
            qs.append(_c5_question(f"T{i}b", c5, {i, (i + 2) % 5}, {i, (i + 2) % 5}, Fraction(1, 13)))
    else:  # NC00010_C5
        # doubled rows: the a/b pairs share a type vector but differ in the
        # generator set, hence in the involved players
        qs.append(_c5_question("Ta", c5, full, full, Fraction(3, 13)))
        for i in range(5):
            qs.append(_c5_question(f"T{i}", c5, {i}, {i}, Fraction(1, 26)))
        for i in range(5):
            qs.append(_c5_question(f"T{i}a", c5, {i, (i + 2) % 5}, {i}, Fraction(1, 26)))
        for i in range(5):
            qs.append(_c5_question(f"T{i}b", c5, {i, (i + 2) % 5}, {i, (i + 2) % 5}, Fraction(1, 13)))
    return GameSpec(name, c5, tuple(qs))


def p_involved(game: GameSpec, player: int, type_bit: int) -> Fraction:
    """Probability that ``player`` is involved, conditioned on their type bit."""
    num = Fraction(0)
    den = Fraction(0)
    for q in game.questions:
        if q.type_bits[player] == type_bit:
            den += q.weight
            if player in q.involved:
                num += q.weight
    if den == 0:
        raise ConditioningOnImpossibleType(f"player {player} never gets type {type_bit}")
    return num / den


def game_to_document(game: GameSpec, params: PayoffParams) -> dict:
    """Serialize a game and payoff parameters to the JSON document shape."""
    doc = {
        "name": game.name,
        "n": game.n,
        "edges": sorted([u, v] for u, v in game.graph.edges),
        "payoffs": {
            "v0": format_rational(params.v0),
            "v1": format_rational(params.v1),
            "ng": format_rational(params.penalty),
        },
        "questions": [],
    }
    for q in game.questions:
        entry = {
            "id": q.qid,
            "t": "".join(str(b) for b in q.type_bits),
            "I": sorted(q.involved),
            "b": q.parity,
            "w": format_rational(q.weight),
        }
        if q.generator_set is not None:
            entry["K"] = sorted(q.generator_set)
        doc["questions"].append(entry)
    return doc


def _vertex_set(entries, n: int) -> frozenset[int]:
    """Vertex ids of a K or I field; ValueError if one lies outside 0..n-1."""
    vertices = frozenset(int(j) for j in entries)
    if not all(0 <= j < n for j in vertices):
        raise ValueError(f"vertex outside 0..{n - 1} in {sorted(vertices)}")
    return vertices


def game_from_document(doc: dict) -> tuple[GameSpec, PayoffParams]:
    """Parse and validate a game document; inverse of ``game_to_document``.

    Questions with a K field take a missing involved set or parity from K,
    and a stated one must agree with it; questions without K must state
    both explicitly.  Every structural fault is a ``MalformedDocumentError``.
    """
    try:
        n = int(doc["n"])
        edges = [(int(u), int(v)) for u, v in doc["edges"]]
        name = str(doc.get("name", "game"))
        raw_questions = list(doc["questions"])
        payoffs = dict(doc.get("payoffs", {}))
        graph = Graph.from_edges(n, edges)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise MalformedDocumentError(f"bad game document: {exc}") from exc
    try:
        params = PayoffParams(
            parse_rational(payoffs.get("v0", "0")),
            parse_rational(payoffs.get("v1", "1")),
            parse_rational(payoffs.get("ng", "0")),
        )
    except ValueError as exc:
        raise MalformedDocumentError(f"bad payoffs: {exc}") from exc
    questions = []
    for raw in raw_questions:
        try:
            qid = str(raw["id"])
            tbits = tuple(int(c) for c in str(raw["t"]))
            weight = parse_rational(raw["w"])
            gen = _vertex_set(raw["K"], n) if "K" in raw else None
            involved = _vertex_set(raw["I"], n) if "I" in raw else None
            parity = int(raw["b"]) if "b" in raw else None
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise MalformedDocumentError(f"bad question entry {raw!r}: {exc}") from exc
        # before any derivation, whose cost grows with n
        if len(tbits) != n:
            raise MalformedDocumentError(f"{qid}: type vector length != {n}")
        # a stated I and b are checked against K by GameSpec
        if involved is None or parity is None:
            if gen is None:
                raise MalformedDocumentError(f"{qid}: questions without K need explicit I and b")
            der = derive_question(graph, gen)
            if not der.valid:
                raise InvalidGeneratorError(f"{qid}: K={sorted(gen)} has odd internal degree")
            involved = der.involved if involved is None else involved
            parity = der.parity if parity is None else parity
        questions.append(QuestionSpec(qid, tbits, involved, parity, weight, gen))
    return GameSpec(name, graph, tuple(questions)), params

"""Builtin game definitions, involvement probabilities, and the file format."""

import copy
import json
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grapheq import (
    BUILTIN_NAMES,
    ConditioningOnImpossibleType,
    GameError,
    GameSpec,
    Graph,
    InvalidGeneratorError,
    MalformedDocumentError,
    PayoffParams,
    QuestionMismatchError,
    QuestionSpec,
    WeightSumError,
    builtin_game,
    derive_question,
    game_from_document,
    game_to_document,
    p_involved,
    parse_rational,
)
from helpers import cycle_game, edgeless, run_cli

PARAMS = PayoffParams(Fraction(2, 3), Fraction(1))


def test_builtin_shapes():
    sizes = {"NC00_C5": 6, "NC01_C5": 6, "NC000_C5": 11, "NC00010_C5": 16}
    for name in BUILTIN_NAMES:
        game = builtin_game(name)
        assert len(game.questions) == sizes[name]
        assert sum(q.weight for q in game.questions) == 1
        assert game.stabilizer_backed()


def test_unknown_builtin():
    with pytest.raises(KeyError):
        builtin_game("NC_bogus")


def test_builtin_question_data_matches_derivation():
    for name in BUILTIN_NAMES:
        game = builtin_game(name)
        for q in game.questions:
            d = derive_question(game.graph, q.generator_set)
            assert d.valid
            assert d.involved == q.involved
            assert d.parity == q.parity


def test_expected_builtin_rows():
    nc00 = builtin_game("NC00_C5")
    q = nc00.question("T0")
    assert q.type_bits == (1, 0, 0, 0, 0)
    assert q.involved == frozenset({4, 0, 1}) and q.parity == 0
    assert q.weight == Fraction(1, 6)

    nc01 = builtin_game("NC01_C5")
    q = nc01.question("T0")
    assert q.type_bits == (1, 0, 1, 0, 0)
    assert q.involved == frozenset({0, 1, 4}) and q.parity == 0

    ncx = builtin_game("NC00010_C5")
    qa, qb = ncx.question("T0a"), ncx.question("T0b")
    assert qa.type_bits == qb.type_bits == (1, 0, 1, 0, 0)
    assert qa.involved == frozenset({4, 0, 1})
    assert qb.involved == frozenset({4, 0, 2, 3})
    assert qa.weight == Fraction(1, 26) and qb.weight == Fraction(1, 13)

    nc000 = builtin_game("NC000_C5")
    assert nc000.question("Ta").weight == Fraction(3, 13)
    assert nc000.question("T0").weight == Fraction(1, 13)
    assert nc000.question("T0b").involved == frozenset({4, 0, 2, 3})


def test_p_involved_reference_values():
    nc00 = builtin_game("NC00_C5")
    nc01 = builtin_game("NC01_C5")
    ncx = builtin_game("NC00010_C5")
    for i in range(5):
        assert p_involved(nc00, i, 0) == Fraction(1, 2)
        assert p_involved(nc00, i, 1) == 1
        assert p_involved(nc01, i, 0) == Fraction(2, 3)
        assert p_involved(nc01, i, 1) == Fraction(2, 3)
        assert p_involved(ncx, i, 0) == Fraction(8, 13)
        assert p_involved(ncx, i, 1) > Fraction(8, 13)


def test_nc01_type_balance():
    game = builtin_game("NC01_C5")
    for i in range(5):
        ones = sum(q.weight for q in game.questions if q.type_bits[i] == 1)
        assert ones == Fraction(1, 2)


def test_nc00010_type_balance():
    game = builtin_game("NC00010_C5")
    for i in range(5):
        ones = sum(q.weight for q in game.questions if q.type_bits[i] == 1)
        assert ones == Fraction(1, 2)


def test_nc000_involvement_asymmetry_is_structural():
    """NC000 cannot equalize involvement between the two types.

    Every question that hands a player type 1 involves them, so the
    involvement probability given type 1 is exactly 1 for any weights, while
    type 0 leaves some questions uninvolved.  Type marginals, by contrast,
    are unequal for the builtin weights but can be balanced by a different
    weight choice, so the checked property is the involvement gap.
    """
    game = builtin_game("NC000_C5")
    for i in range(5):
        for q in game.questions:
            if q.type_bits[i] == 1:
                assert i in q.involved
        assert p_involved(game, i, 1) == 1
        assert p_involved(game, i, 0) < 1
        ones = sum(q.weight for q in game.questions if q.type_bits[i] == 1)
        assert ones == Fraction(6, 13)  # builtin marginals: 6/13 vs 7/13
    # a symmetric reweighting with equal type marginals exists, and the
    # involvement gap persists there as well
    c5 = Graph.cycle(5)
    w1, w2, w3 = Fraction(29, 104), Fraction(7, 104), Fraction(1, 13)
    questions = [
        QuestionSpec("Ta", (1,) * 5, frozenset(range(5)), 1, w1, frozenset(range(5)))
    ]
    for i in range(5):
        d = derive_question(c5, {i})
        bits = tuple(1 if j == i else 0 for j in range(5))
        questions.append(QuestionSpec(f"T{i}", bits, d.involved, d.parity, w2, frozenset({i})))
    for i in range(5):
        gen = frozenset({i, (i + 2) % 5})
        d = derive_question(c5, gen)
        bits = tuple(1 if j in gen else 0 for j in range(5))
        questions.append(QuestionSpec(f"T{i}b", bits, d.involved, d.parity, w3, gen))
    balanced = GameSpec("NC000_balanced", c5, tuple(questions))
    for i in range(5):
        ones = sum(q.weight for q in balanced.questions if q.type_bits[i] == 1)
        assert ones == Fraction(1, 2)
        assert p_involved(balanced, i, 1) == 1
        assert p_involved(balanced, i, 0) < 1


def test_cyclic_relabeling_preserves_builtins():
    for name in BUILTIN_NAMES:
        game = builtin_game(name)
        rotated = set()
        original = set()
        for q in game.questions:
            original.add((q.type_bits, q.involved, q.parity, q.weight))
            bits = tuple(q.type_bits[(j - 1) % 5] for j in range(5))
            moved = frozenset((j + 1) % 5 for j in q.involved)
            rotated.add((bits, moved, q.parity, q.weight))
        assert rotated == original


def test_conditioning_on_impossible_type():
    c5 = edgeless(2)
    d = derive_question(c5, {0, 1})
    q = QuestionSpec("q", (1, 1), d.involved, d.parity, Fraction(1), frozenset({0, 1}))
    game = GameSpec("toy", c5, (q,))
    with pytest.raises(ConditioningOnImpossibleType):
        p_involved(game, 0, 0)


# ---------------------------------------------------------------------------
# document round trip and validation errors


def test_round_trip_all_builtins():
    for name in BUILTIN_NAMES:
        game = builtin_game(name)
        doc = game_to_document(game, PARAMS)
        back, params = game_from_document(json.loads(json.dumps(doc)))
        assert back == game
        assert params == PARAMS


def test_document_without_k_needs_involved_and_parity():
    game = builtin_game("NC00_C5")
    doc = game_to_document(game, PARAMS)
    entry = doc["questions"][0]
    del entry["K"]
    loaded, _ = game_from_document(doc)
    assert loaded.questions[0].generator_set is None
    del entry["I"]
    with pytest.raises(MalformedDocumentError):
        game_from_document(doc)


def test_weight_sum_error():
    doc = game_to_document(builtin_game("NC00_C5"), PARAMS)
    doc["questions"][0]["w"] = "1/13"
    with pytest.raises(WeightSumError):
        game_from_document(doc)


def test_invalid_generator_error():
    doc = game_to_document(builtin_game("NC00_C5"), PARAMS)
    doc["questions"][1]["K"] = [0, 1]
    with pytest.raises(InvalidGeneratorError):
        game_from_document(doc)


def test_mismatched_involved_error():
    doc = game_to_document(builtin_game("NC00_C5"), PARAMS)
    doc["questions"][1]["I"] = [0, 1, 2]
    with pytest.raises(QuestionMismatchError):
        game_from_document(doc)


def test_malformed_rational_error():
    doc = game_to_document(builtin_game("NC00_C5"), PARAMS)
    doc["questions"][0]["w"] = "one/six"
    with pytest.raises(MalformedDocumentError):
        game_from_document(doc)


def test_decimal_exponent_is_capped():
    # a 13-byte literal must not expand to a billion digits; 1e-300 stays exact
    assert parse_rational("1e-300") == Fraction(1, 10**300)
    assert parse_rational("-2.5E+3") == -2500
    for text in ("1e-1000000000", "1e4301", "1e" + "9" * 5000):
        with pytest.raises(MalformedDocumentError):
            parse_rational(text)


@pytest.mark.parametrize("where", ["v0", "weight"])
def test_huge_exponent_exits_3_at_once(tmp_path, where):
    doc = game_to_document(builtin_game("NC00_C5"), PARAMS)
    args = ["csw", "--game"]
    if where == "weight":
        doc["questions"][0]["w"] = "1e-1000000000"
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        args += [str(path)]
    else:
        args += ["NC00_C5", "--v0", "1e-1000000000"]
    began = time.perf_counter()
    code, out, err = run_cli(*args)
    assert time.perf_counter() - began < 1
    assert (code, out) == (3, "")
    assert err.startswith("error: bad rational literal")


def test_type_length_error():
    doc = game_to_document(builtin_game("NC00_C5"), PARAMS)
    doc["questions"][0]["t"] = "1000"
    with pytest.raises(MalformedDocumentError):
        game_from_document(doc)


def test_duplicate_type_and_involved_rejected():
    game = builtin_game("NC00_C5")
    doc = game_to_document(game, PARAMS)
    doc["questions"][1]["w"] = "1/12"
    doc["questions"].append(dict(doc["questions"][1]))
    with pytest.raises(MalformedDocumentError):
        game_from_document(doc)


def test_duplicate_question_id_rejected():
    # advice laws are keyed by id: a second "Ta" would alias the first
    game = builtin_game("NC00_C5")
    renamed = (game.questions[0], replace(game.questions[1], qid="Ta")) + game.questions[2:]
    with pytest.raises(MalformedDocumentError, match="duplicate question id"):
        GameSpec("dup", game.graph, renamed)
    doc = game_to_document(game, PARAMS)
    doc["questions"][1]["id"] = "Ta"
    with pytest.raises(MalformedDocumentError):
        game_from_document(doc)


def test_generator_set_outside_vertices_rejected():
    game = builtin_game("NC00_C5")
    moved = (replace(game.questions[0], generator_set=frozenset({0, 7})),) + game.questions[1:]
    with pytest.raises(MalformedDocumentError, match="generator set outside vertices"):
        GameSpec("far", game.graph, moved)


def drop_involved_and_parity(entry):
    del entry["I"], entry["b"]


MALFORMED_EDITS = {
    "K outside the vertices": lambda doc: doc["questions"][1].update(K=[7]),
    "K outside, no I or b": lambda doc: (doc["questions"][1].update(K=[7]), drop_involved_and_parity(doc["questions"][1])),
    "negative K": lambda doc: doc["questions"][1].update(K=[-1]),
    "I outside, no K": lambda doc: (doc["questions"][1].update(I=[9]), doc["questions"][1].pop("K")),
    "negative I": lambda doc: doc["questions"][1].update(I=[-1]),
    "K not a list": lambda doc: doc["questions"][1].update(K=5),
    "K not integers": lambda doc: doc["questions"][1].update(K="ab"),
    "I null": lambda doc: doc["questions"][1].update(I=None),
    "b not an integer": lambda doc: doc["questions"][1].update(b="x"),
    "questions not a list": lambda doc: doc.update(questions=5),
    "question not an object": lambda doc: doc["questions"].__setitem__(1, 5),
    "payoffs not an object": lambda doc: doc.update(payoffs=5),
    "edge outside the vertices": lambda doc: doc.update(edges=[[0, 9]]),
    "v0 above v1": lambda doc: doc["payoffs"].update(v0="2", v1="1"),
    "negative penalty": lambda doc: doc["payoffs"].update(ng="-1"),
    "v1 zero": lambda doc: doc["payoffs"].update(v0="0", v1="0"),
    "n infinite": lambda doc: doc.update(n=float("inf")),
    "b infinite": lambda doc: doc["questions"][1].update(b=float("inf")),
    # type vectors are checked against n before any derivation, whose cost
    # grows with n
    "n huge": lambda doc: doc.update(n=10**30),
}


@pytest.mark.parametrize("edit", MALFORMED_EDITS.values(), ids=MALFORMED_EDITS.keys())
def test_malformed_fields_are_typed_errors(edit):
    doc = game_to_document(builtin_game("NC00_C5"), PARAMS)
    edit(doc)
    with pytest.raises(MalformedDocumentError):
        game_from_document(doc)


def test_payoff_params_validation():
    with pytest.raises(ValueError):
        PayoffParams(Fraction(2), Fraction(1))
    with pytest.raises(ValueError):
        PayoffParams(Fraction(1, 2), Fraction(0))
    with pytest.raises(ValueError):
        PayoffParams(Fraction(1, 2), Fraction(1), Fraction(-1))
    assert PayoffParams(Fraction(1, 2), Fraction(1)).ratio == Fraction(1, 2)


FUZZ_BASES = [game_to_document(builtin_game(name), PARAMS) for name in BUILTIN_NAMES] + [
    game_to_document(cycle_game(4), PARAMS)
]
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(-3, 9), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 9), max_size=2),
)


def document_slots(doc):
    """Every (container, key) of a game document that an edit can reach:
    the top-level keys, the payoff fields and each question's fields."""
    slots = [(doc, key) for key in doc]
    if isinstance(doc.get("payoffs"), dict):
        slots += [(doc["payoffs"], key) for key in doc["payoffs"]]
    if isinstance(doc.get("questions"), list):
        for q in doc["questions"]:
            if isinstance(q, dict):
                slots += [(q, key) for key in q]
    return slots


def fuzz_edit(doc, data):
    """Apply one structural fault, drawn by ``data``, to ``doc`` in place."""
    slots = document_slots(doc)
    if not slots:
        return
    kind = data.draw(st.sampled_from(["drop", "retype", "index", "duplicate", "float", "huge-n"]))
    container, key = data.draw(st.sampled_from(slots))
    if kind == "drop":
        del container[key]
    elif kind == "retype":
        container[key] = data.draw(JSON_VALUES)
    elif kind == "index":
        value = container[key]
        index = data.draw(st.integers(-(10**20), 10**20) | st.integers(-2, 12))
        if isinstance(value, list) and value and not isinstance(value[0], list):
            value[data.draw(st.integers(0, len(value) - 1))] = index
        elif isinstance(doc.get("edges"), list) and doc["edges"]:
            doc["edges"][0] = [index, data.draw(st.integers(-2, 12))]
    elif kind == "duplicate":
        questions = doc.get("questions")
        if isinstance(questions, list) and questions:
            twin = copy.deepcopy(data.draw(st.sampled_from(questions)))
            if isinstance(twin, dict) and data.draw(st.booleans()):
                twin["id"] = "twin"  # a fresh id, so only the question repeats
            questions.append(twin)
    elif kind == "float":
        try:
            container[key] = float(Fraction(container[key]))
        except (OverflowError, TypeError, ValueError, ZeroDivisionError):
            container[key] = data.draw(st.floats(-1, 2))
    else:
        doc["n"] = data.draw(st.sampled_from([9, 10**6, 10**30, -1]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(base=st.sampled_from(FUZZ_BASES), edits=st.integers(1, 3), data=st.data())
def test_fuzzed_documents_round_trip_or_raise_game_errors(base, edits, data):
    doc = copy.deepcopy(base)
    for _ in range(edits):
        fuzz_edit(doc, data)
    try:
        game, params = game_from_document(doc)
    except GameError:
        return
    again = json.loads(json.dumps(game_to_document(game, params)))
    assert game_from_document(again) == (game, params)

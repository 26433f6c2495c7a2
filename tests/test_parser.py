"""Formula text round-trips, parse errors, and the automaton exchange format."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msostr import (DanglingState, FormatError, FormulaSyntaxError,
                    UnknownLetter, parse_automaton, parse_formula,
                    render_automaton, render_dot, render_formula)
from msostr import syntax as S
from msostr.parser import MAX_TABLE_CELLS

from corpus import AB, SENTENCES, factor_aa_automaton, sentence, succ_automaton_k2


def test_parse_starts_with_a():
    phi = parse_formula("ex1 x. x = 0 & a(x)", AB)
    assert phi == S.ExistsFO("x", S.And(S.EqConst("x", 0), S.Letter("a", "x")))


def test_parse_second_order():
    phi = parse_formula("ex2 X. all1 x. x in X", AB)
    assert phi == S.ExistsSO("X", S.ForallFO("x", S.SetMember("X", "x")))


def test_parse_unbalanced_parenthesis():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("a(x", AB)


def test_parse_error_carries_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("ex1 x.\n x <", AB)
    assert err.value.line == 2


def test_parse_unknown_letter():
    with pytest.raises(UnknownLetter):
        parse_formula("ex1 x. c(x)", AB)


def test_parse_reserved_prefix_rejected():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("ex1 _x. a(_x)", AB)


def test_render_ends_with_a():
    phi, _ = sentence("ends_with_a")
    assert render_formula(phi) == "ex1 x. last(x) & a(x)"


def test_render_letter_atom():
    assert render_formula(S.Letter("a", "x")) == "a(x)"


def test_nested_connectives_round_trip():
    phi = S.Or(S.And(S.Letter("a", "x"), S.Or(S.Letter("b", "x"),
                                              S.Letter("a", "y"))),
               S.Not(S.And(S.Letter("b", "y"), S.Letter("a", "x"))))
    assert parse_formula(render_formula(phi), AB) == phi


def test_quantifier_needs_parens_as_operand():
    phi = S.And(S.ExistsFO("x", S.Letter("a", "x")), S.Letter("b", "y"))
    text = render_formula(phi)
    assert parse_formula(text, AB) == phi


@pytest.mark.parametrize("name", sorted(SENTENCES))
def test_corpus_round_trip(name):
    phi, alphabet = sentence(name)
    assert parse_formula(render_formula(phi), alphabet) == phi


def _formulas(alphabet):
    """Hypothesis strategy over sugared formula trees."""
    fo_vars = st.sampled_from(("x", "y", "z"))
    so_vars = st.sampled_from(("X", "Y"))
    nat = st.integers(min_value=0, max_value=4)
    atoms = st.one_of(
        st.builds(S.Letter, st.sampled_from(alphabet.symbols), fo_vars),
        st.builds(S.Less, fo_vars, fo_vars),
        st.builds(S.SetMember, so_vars, fo_vars),
        st.builds(S.Eq, fo_vars, fo_vars),
        st.builds(S.Leq, fo_vars, fo_vars),
        st.builds(S.Succ, fo_vars, fo_vars),
        st.builds(S.PlusOffset, fo_vars, fo_vars, nat),
        st.builds(S.LessOffset, fo_vars, fo_vars, nat),
        st.builds(S.EqConst, fo_vars, nat),
        st.builds(S.GreaterConst, fo_vars, nat),
        st.builds(S.ConstLessLast, nat),
        st.builds(S.First, fo_vars),
        st.builds(S.Last, fo_vars),
        st.builds(S.Subset, so_vars, so_vars),
        st.just(S.TrueAtom()),
    )
    return st.recursive(
        atoms,
        lambda kids: st.one_of(
            st.builds(S.Not, kids),
            st.builds(S.Or, kids, kids),
            st.builds(S.And, kids, kids),
            st.builds(S.Implies, kids, kids),
            st.builds(S.Iff, kids, kids),
            st.builds(S.ExistsFO, fo_vars, kids),
            st.builds(S.ForallFO, fo_vars, kids),
            st.builds(S.ExistsSO, so_vars, kids),
            st.builds(S.ForallSO, so_vars, kids),
        ),
        max_leaves=12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_formulas(AB))
def test_round_trip_property(phi):
    assert parse_formula(render_formula(phi), AB) == phi


def test_automaton_json_round_trip():
    for aut in (factor_aa_automaton(), succ_automaton_k2()):
        again = parse_automaton(render_automaton(aut))
        assert again == aut
        assert render_automaton(again) == render_automaton(aut)


def test_automaton_round_trip_is_equivalent():
    aut = factor_aa_automaton()
    assert parse_automaton(render_automaton(aut)).equivalent(aut)


def test_singleton_automaton_recognizes_nothing():
    aut = parse_automaton(
        '{"alphabet": ["a"], "tracks": 0, "states": 1, "initial": [0],'
        ' "accepting": [], "transitions": []}')
    assert aut.is_empty()


def test_dangling_state_detected():
    with pytest.raises(DanglingState):
        parse_automaton(
            '{"alphabet": ["a"], "tracks": 0, "states": 1, "initial": [0],'
            ' "accepting": [0], "transitions": [[0, "a", [], 3]]}')


@pytest.mark.parametrize("text", [
    "not json at all {",
    '{"alphabet": ["a"]}',
    '{"alphabet": ["a"], "tracks": 0, "states": 1, "initial": [0],'
    ' "accepting": [0], "transitions": [[0, "b", [], 0]]}',
    '{"alphabet": ["a"], "tracks": 1, "states": 1, "initial": [0],'
    ' "accepting": [0], "transitions": [[0, "a", [2], 0]]}',
])
def test_format_errors(text):
    with pytest.raises(FormatError):
        parse_automaton(text)


_GOOD = {"alphabet": ["a", "b"], "tracks": 1, "states": 2, "initial": [0],
         "accepting": [1], "transitions": [[0, "a", [1], 1]]}


@pytest.mark.parametrize("key,value", [
    ("tracks", True), ("tracks", False), ("states", True), ("initial", [False]),
    ("accepting", [True]), ("transitions", [[False, "a", [1], 1]]),
    ("transitions", [[0, "a", [1], True]]), ("transitions", [[0, "a", [True], 1]]),
    ("transitions", [[0, "a", [1.0], 1]]), ("alphabet", "ab"), ("transitions", ""),
    ("initial", 0), ("accepting", "1")])
def test_wrong_json_types_are_format_errors(key, value):
    assert parse_automaton(json.dumps(_GOOD)).tracks == 1
    with pytest.raises(FormatError):
        parse_automaton(json.dumps({**_GOOD, key: value}))


def _document(states, letters, tracks):
    return json.dumps({"alphabet": letters, "tracks": tracks, "states": states,
                       "initial": [0], "accepting": [], "transitions": []})


@pytest.mark.parametrize("states,letters,tracks", [
    (1, ["a"], 64), (1, ["a", "b"], 10 ** 9), (2, ["a"], 20), (2 ** 21, ["a"], 0)])
def test_oversized_table_rejected_before_allocation(states, letters, tracks):
    with pytest.raises(FormatError, match=f"2\\^{tracks} track patterns exceeds"):
        parse_automaton(_document(states, letters, tracks))


def test_table_at_the_size_limit_is_accepted():
    assert MAX_TABLE_CELLS == 2 ** 20
    aut = parse_automaton(_document(1, ["a"], 20))
    assert aut.tracks == 20 and aut.is_empty()


def test_dot_export_mentions_states_and_labels():
    dot = render_dot(factor_aa_automaton())
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert '[label="a"]' in dot

"""Abbreviation expansion, free variables, and well-formedness."""

import pytest

from msostr import (Alphabet, EpsilonMode, UnknownLetter, VariableKindMismatch,
                    evaluate, expand, free_vars, free_vars_in_order, is_core,
                    is_sentence, parse_formula)
from msostr import syntax as S
from msostr.semantics import Assignment, words_over

from corpus import AB, SENTENCES, sentence


def test_expand_first_is_no_smaller_position():
    phi = expand(S.First("x"), AB)
    assert isinstance(phi, S.Not)
    assert isinstance(phi.body, S.ExistsFO)
    inner = phi.body
    assert inner.body == S.Less(inner.var, "x")


def test_expand_core_is_fixpoint():
    phi = parse_formula("ex1 x. ex1 y. x < y | !a(x)", AB)
    assert expand(phi, AB) == phi


def test_expand_offset_builds_successor_chain():
    phi = expand(S.PlusOffset("y", "x", 2), AB, keep_succ=True)
    flat = repr(phi)
    assert flat.count("Succ") == 2
    assert is_sentence(phi) is False
    assert free_vars(phi).fo == {"x", "y"}


def test_expand_offset_public_form_uses_aliases():
    """Without keep_succ the expansion introduces one alias per step plus
    the two endpoints, all reduced to the core."""
    phi = expand(S.PlusOffset("y", "x", 2), AB)
    assert is_core(phi)
    flat = repr(phi)
    # three alias binders, plus one inner binder per expanded successor
    assert flat.count("ExistsFO") == 5
    assert free_vars(phi).fo == {"x", "y"}
    for word_len in range(1, 5):
        word = "a" * word_len
        for i in range(word_len):
            for j in range(word_len):
                nu = Assignment(nu1={"x": i, "y": j})
                assert evaluate(word, phi, nu) == (j == i + 2)


def test_expand_yields_core_only():
    for name in SENTENCES:
        phi, alphabet = sentence(name)
        assert is_core(expand(phi, alphabet))


def test_expand_idempotent():
    for name in SENTENCES:
        phi, alphabet = sentence(name)
        once = expand(phi, alphabet)
        assert expand(once, alphabet) == once


def test_expand_preserves_free_variables():
    phi = parse_formula("X(x) & (ex1 x. b(x))", AB)
    assert free_vars(expand(phi, AB)) == free_vars(phi)


@pytest.mark.parametrize("name", sorted(SENTENCES))
def test_expand_preserves_semantics(name):
    phi, alphabet = sentence(name)
    expanded = expand(phi, alphabet)
    for length in range(0, 5):
        for word in words_over(alphabet, length):
            for mode in (EpsilonMode.EXCLUDE, EpsilonMode.INCLUDE):
                if not word and mode is EpsilonMode.EXCLUDE:
                    continue
                assert evaluate(word, phi, None, mode) == \
                    evaluate(word, expanded, None, mode), (name, word, mode)


def test_expand_preserves_semantics_open_formula():
    phi = parse_formula("a(x) & (ex1 y. x < y & b(y))", AB)
    expanded = expand(phi, AB)
    for length in range(1, 5):
        for word in words_over(AB, length):
            for i in range(length):
                nu = Assignment(nu1={"x": i})
                assert evaluate(word, phi, nu) == evaluate(word, expanded, nu)


def test_free_vars_closed_formula():
    phi, _ = sentence("starts_with_a")
    fv = free_vars(phi)
    assert not fv.fo and not fv.so


def test_free_vars_shadowing():
    phi = parse_formula("X(x) & (ex1 x. b(x))", AB)
    fv = free_vars(phi)
    assert fv.fo == {"x"}
    assert fv.so == {"X"}


def test_free_vars_in_order_first_occurrence():
    phi = parse_formula("y <= x & X sub Y", AB)
    assert free_vars_in_order(phi) == (("y", "x"), ("X", "Y"))
    # the expansion of <= swaps the position operands
    assert free_vars_in_order(expand(phi, AB, keep_succ=True)) == (("x", "y"), ("X", "Y"))
    shadowed = parse_formula("b(y) & (ex1 y. y < x & a(y)) & x in X", AB)
    assert free_vars_in_order(shadowed) == (("y", "x"), ("X",))


def test_free_vars_in_order_under_stripped_quantifiers():
    """Stripping the two outer quantifiers of the expanded factor sentence
    leaves exactly its two position variables free, in order."""
    phi, alphabet = sentence("contains_aa")
    core = expand(phi, alphabet, keep_succ=True)
    assert free_vars_in_order(core) == ((), ())
    assert free_vars_in_order(core.body.body) == (("x", "y"), ())


def test_unknown_node_rejected_by_every_walk():
    class Stray(S.Formula):
        pass

    for walk in (free_vars, lambda f: S.check_well_formed(f, AB)):
        with pytest.raises(TypeError):
            walk(S.Not(Stray()))
    assert not is_core(S.Not(Stray()))


def test_fresh_names_skip_names_in_use():
    fresh = S._Fresh({"x", "_v0", "_v7", "_vx"})
    assert [fresh(), fresh()] == ["_v8", "_v9"]
    assert S._Fresh(())() == "_v0"


def test_is_sentence():
    assert is_sentence(sentence("starts_with_a")[0])
    assert is_sentence(sentence("even_length")[0])
    assert not is_sentence(S.Letter("a", "x"))


def test_unknown_letter_rejected():
    with pytest.raises(UnknownLetter):
        expand(S.Letter("z", "x"), AB)


def test_variable_kind_mismatch_rejected():
    clash = S.And(S.Letter("a", "q"), S.SetMember("q", "x"))
    with pytest.raises(VariableKindMismatch):
        expand(clash, AB)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    assert list(Alphabet.from_csv("a, b,c")) == ["a", "b", "c"]

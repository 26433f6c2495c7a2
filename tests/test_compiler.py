"""Formula-to-automaton translation: the atomic automata, open formulas
and their tracks, and agreement with the direct interpreter."""

import itertools

import pytest

from msostr import (Assignment, EpsilonMode, compile_formula,
                    compile_with_tracks, evaluate, parse_formula, sym)
from msostr import syntax as S
from msostr.automata import live_and_dead_states
from msostr.compiler import TrackMap, _aut_sing, atomic_automaton
from msostr.semantics import words_over

from corpus import (AB, SENTENCES, factor_aa_automaton, sentence,
                    sing_automaton_k2, subset_automaton_k2,
                    subset_w_a_automaton_k2, succ_automaton_k2)


def test_normalize_core_input_unchanged_in_meaning():
    phi = parse_formula("X sub Y", AB)
    # the containment abbreviation goes through its definition:
    # no position may sit in X without sitting in Y
    left = compile_formula(phi, AB)
    hand = subset_automaton_k2()
    track_map = compile_with_tracks(phi, AB)[1]
    assert tuple(track_map) == ("X", "Y")
    assert left.equivalent(hand.with_epsilon(False))


# The atoms read their variables as tracks, whatever their kind: X sub Y
# is the membership atom "X in Y" read on a set track X.

def test_atomic_subset_matches_figure():
    aut = atomic_automaton(S.SetMember("Y", "X"), TrackMap(("X", "Y")), AB)
    assert aut.equivalent(subset_automaton_k2())
    assert aut.n_states == 1


def test_atomic_subset_w_matches_figure():
    aut = atomic_automaton(S.Letter("a", "X"), TrackMap(("X", "Y")), AB)
    assert aut.equivalent(subset_w_a_automaton_k2())
    assert aut.n_states == 1


def test_atomic_succ_matches_figure():
    aut = atomic_automaton(S.Succ("X", "Y"), TrackMap(("X", "Y")), AB)
    assert aut.equivalent(succ_automaton_k2())
    assert aut.n_states == 3
    assert sorted(aut.initial) == [0] and sorted(aut.accepting) == [2]


def test_atomic_sing_matches_figure():
    for track in (0, 1):
        aut = _aut_sing(track, AB, 2)
        assert aut.equivalent(sing_automaton_k2(track))


def test_sing_direct_equals_expanded_definition():
    """The two-state singleton automaton agrees with compiling the
    definitional form: a proper subset exists and no third subset does."""
    direct = _aut_sing(0, AB, 1)
    definition = parse_formula(
        "ex2 Y. Y sub X & Y != X & !(ex2 Z. Z sub X & Z != Y & Z != X)", AB)
    compiled = compile_formula(definition, AB)
    assert compiled.equivalent(direct.with_epsilon(False))


def test_atomic_less_validated_against_interpreter():
    aut = atomic_automaton(S.Less("x", "y"), TrackMap(("x", "y")), AB)
    phi = parse_formula("x < y", AB)
    for length in range(1, 5):
        for letters in itertools.product("ab", repeat=length):
            for i in range(length):
                for j in range(length):
                    word = [sym(l, int(p == i), int(p == j))
                            for p, l in enumerate(letters)]
                    nu = Assignment(nu1={"x": i, "y": j})
                    assert aut.accepts(word) == evaluate(letters, phi, nu)


def test_compile_contains_aa_matches_figure():
    phi, alphabet = sentence("contains_aa")
    compiled = compile_formula(phi, alphabet)
    live, dead = live_and_dead_states(compiled)
    assert len(live) == 3 and len(dead) <= 1
    assert compiled.equivalent(factor_aa_automaton())


def test_compile_contradiction_is_empty():
    phi, alphabet = sentence("contradiction")
    assert compile_formula(phi, alphabet).is_empty()


def test_compile_even_length():
    phi, alphabet = sentence("even_length")
    compiled = compile_formula(phi, alphabet)
    for n in range(0, 9):
        assert compiled.accepts("a" * n) == (n > 0 and n % 2 == 0)


@pytest.mark.parametrize("name", sorted(SENTENCES))
def test_oracle_equivalence(name):
    """Master property: compiled membership equals direct evaluation."""
    phi, alphabet = sentence(name)
    compiled = compile_formula(phi, alphabet)
    for length in range(1, 6):
        for word in words_over(alphabet, length):
            assert compiled.accepts(word) == evaluate(word, phi), (name, word)


@pytest.mark.parametrize("text", [
    "ex1 x. x < 4",
    "ex1 x. ex1 y. first(y) & last(x) & x < y + 3",
    "all1 x. all1 y. a(x) & b(y) -> x < y + 2",
    "last < 3",
])
def test_offset_comparison_past_the_last_position(text):
    """x < k, x < y + k and last < k hold when the position k or y + k
    lies past the end of the word."""
    phi = parse_formula(text, AB)
    compiled = compile_formula(phi, AB)
    for length in range(1, 7):
        for word in words_over(AB, length):
            assert compiled.accepts(word) == evaluate(word, phi), (text, word)


def test_oracle_equivalence_include_epsilon():
    for name in ("starts_with_a", "even_length", "contradiction"):
        phi, alphabet = sentence(name)
        compiled = compile_formula(phi, alphabet, EpsilonMode.INCLUDE)
        assert compiled.accepts("") == evaluate("", phi, None, EpsilonMode.INCLUDE)
        for length in range(1, 5):
            for word in words_over(alphabet, length):
                assert compiled.accepts(word) == evaluate(word, phi), (name, word)


def test_epsilon_only_language_compiles():
    phi = parse_formula("!(ex1 x. a(x) | !a(x))", AB)
    compiled = compile_formula(phi, AB, EpsilonMode.INCLUDE)
    assert compiled.accepts("")
    assert compiled.enumerate_words(3) == [""]
    assert compile_formula(phi, AB).is_empty()


def test_open_formula_epsilon_membership():
    # free set variables: the empty annotation satisfies containment
    subset = compile_formula(parse_formula("X sub Y", AB), AB,
                             EpsilonMode.INCLUDE)
    assert subset.accepts(())
    # a free position variable can never be assigned on the empty word
    letter = compile_formula(parse_formula("a(x)", AB), AB,
                             EpsilonMode.INCLUDE)
    assert not letter.accepts(())
    # a negated membership is vacuously true of the empty annotation
    neq = compile_formula(parse_formula("X != Y", AB), AB, EpsilonMode.INCLUDE)
    assert not neq.accepts(())


def test_open_formula_tracks_contract():
    """Annotated words are accepted exactly when the decoded assignment
    satisfies the formula; non-singleton annotations of position
    variables are rejected."""
    phi = parse_formula("x < y & a(x)", AB)
    compiled, tm = compile_with_tracks(phi, AB)
    assert tuple(tm) == ("x", "y")
    for length in range(1, 5):
        for letters in itertools.product("ab", repeat=length):
            for xbits in itertools.product((0, 1), repeat=length):
                for ybits in itertools.product((0, 1), repeat=length):
                    word = [sym(l, bx, by)
                            for l, bx, by in zip(letters, xbits, ybits)]
                    if sum(xbits) == 1 and sum(ybits) == 1:
                        nu = Assignment(nu1={"x": xbits.index(1),
                                             "y": ybits.index(1)})
                        expected = evaluate(letters, phi, nu)
                    else:
                        expected = False
                    assert compiled.accepts(word) == expected


def test_open_formula_set_variable():
    phi = parse_formula("X sub Y", AB)
    compiled, tm = compile_with_tracks(phi, AB)
    for length in range(1, 4):
        for letters in itertools.product("ab", repeat=length):
            for xbits in itertools.product((0, 1), repeat=length):
                for ybits in itertools.product((0, 1), repeat=length):
                    word = [sym(l, bx, by)
                            for l, bx, by in zip(letters, xbits, ybits)]
                    nu = Assignment(nu2={
                        "X": frozenset(i for i, b in enumerate(xbits) if b),
                        "Y": frozenset(i for i, b in enumerate(ybits) if b)})
                    assert compiled.accepts(word) == evaluate(letters, phi, nu)


def test_compile_negation_is_complement():
    phi, alphabet = sentence("a_then_b")
    negated = parse_formula(f"!({SENTENCES['a_then_b'][1]})", alphabet)
    direct = compile_formula(negated, alphabet)
    via_complement = compile_formula(phi, alphabet).complement().with_epsilon(False)
    assert direct.equivalent(via_complement)


def test_compile_disjunction_is_union():
    starts = SENTENCES["starts_with_a"][1]
    ends = SENTENCES["ends_with_a"][1]
    either = parse_formula(f"({starts}) | ({ends})", AB)
    union = compile_formula(parse_formula(starts, AB), AB).product(
        compile_formula(parse_formula(ends, AB), AB), "or")
    assert compile_formula(either, AB).equivalent(union)


def test_shadowed_quantifier_compiles():
    phi = parse_formula("ex1 x. a(x) & (ex1 x. b(x))", AB)
    compiled = compile_formula(phi, AB)
    for length in range(1, 6):
        for word in words_over(AB, length):
            assert compiled.accepts(word) == evaluate(word, phi)


def test_intermediate_sizes_stay_small():
    phi, alphabet = sentence("a_third_from_right")
    compiled = compile_formula(phi, alphabet)
    assert compiled.n_states < 10 ** 4


def _random_sentences_two_letters(count, seed):
    import random

    from msostr import is_sentence

    rng = random.Random(seed)

    def atom(fo_scope, so_scope):
        kinds = ["letter", "less", "eq", "succ", "first", "last"]
        if so_scope and fo_scope:
            kinds += ["member"] * 2
        if len(so_scope) >= 2:
            kinds.append("subset")
        if not fo_scope:
            kinds = (["subset"] if len(so_scope) >= 2 else []) or ["none"]
        kind = rng.choice(kinds)
        if kind == "none":
            return S.TrueAtom()
        if kind == "subset":
            return S.Subset(rng.choice(so_scope), rng.choice(so_scope))
        x = rng.choice(fo_scope)
        y = rng.choice(fo_scope)
        if kind == "letter":
            return S.Letter(rng.choice("ab"), x)
        if kind == "less":
            return S.Less(x, y)
        if kind == "eq":
            return S.Eq(x, y)
        if kind == "succ":
            return S.Succ(x, y)
        if kind == "first":
            return S.First(x)
        if kind == "last":
            return S.Last(x)
        return S.SetMember(rng.choice(so_scope), x)

    def build(depth, fo_scope, so_scope, budget):
        roll = rng.random()
        if budget <= 1 or (roll < 0.3 and (fo_scope or so_scope)):
            return atom(fo_scope, so_scope)
        if roll < 0.65 and depth > 0:
            if rng.random() < 0.7:
                name = f"p{depth}"
                body = build(depth - 1, fo_scope + (name,), so_scope, budget - 1)
                return (S.ExistsFO if rng.random() < 0.6 else S.ForallFO)(name, body)
            name = f"P{depth}"
            body = build(depth - 1, fo_scope, so_scope + (name,), budget - 1)
            return (S.ExistsSO if rng.random() < 0.6 else S.ForallSO)(name, body)
        if roll < 0.75:
            return S.Not(build(depth, fo_scope, so_scope, budget - 1))
        half = max(1, budget // 2)
        left = build(depth, fo_scope, so_scope, half)
        right = build(depth, fo_scope, so_scope, budget - half)
        return rng.choice((S.And, S.Or, S.Implies))(left, right)

    out = []
    while len(out) < count:
        phi = build(2, (), (), 6)
        if is_sentence(phi):
            out.append(phi)
    return out


def test_oracle_equivalence_random_formulas():
    """Compile-versus-interpret agreement on generated sentences mixing
    both quantifier sorts, beyond the fixed corpus."""
    for phi in _random_sentences_two_letters(40, seed=3581):
        compiled = compile_formula(phi, AB)
        for length in range(1, 5):
            for word in words_over(AB, length):
                assert compiled.accepts(word) == evaluate(word, phi), (phi, word)


def test_compilation_is_deterministic():
    from msostr import render_automaton
    phi, alphabet = sentence("a_then_b")
    first = render_automaton(compile_formula(phi, alphabet))
    second = render_automaton(compile_formula(phi, alphabet))
    assert first == second


# Each subformula is compiled over its own free variables, and subformulas
# equal up to a renaming of those share one automaton.  The cases below are
# where that sharing and the lifting to a union of tracks could go wrong.

def _assert_agrees_on_every_assignment(text, mode=EpsilonMode.EXCLUDE, max_len=4):
    """The compiled automaton accepts an annotated word exactly when the
    interpreter accepts the word under the assignment it encodes."""
    phi = parse_formula(text, AB)
    compiled, tm = compile_with_tracks(phi, AB, mode)
    positions = [v[0].islower() for v in tm]
    if mode is EpsilonMode.INCLUDE:
        expected = not any(positions) and evaluate("", phi, None, mode)
        assert compiled.accepts(()) == expected, text
    for length in range(1, max_len + 1):
        subsets = list(map(frozenset, itertools.chain.from_iterable(
            itertools.combinations(range(length), k) for k in range(length + 1))))
        domains = [range(length) if fo else subsets for fo in positions]
        for values in itertools.product(*domains):
            nu = Assignment(nu1={v: p for v, p, fo in zip(tm, values, positions) if fo},
                            nu2={v: p for v, p, fo in zip(tm, values, positions) if not fo})
            tracks = [[int(i == p if fo else i in p) for p, fo in zip(values, positions)]
                      for i in range(length)]
            for letters in itertools.product("ab", repeat=length):
                word = [sym(l, *bits) for l, bits in zip(letters, tracks)]
                assert compiled.accepts(word) == evaluate(letters, phi, nu, mode), \
                    (text, word)


@pytest.mark.parametrize("text", [
    "succ(x, y) | succ(y, x)",
    "(succ(x, y) | succ(y, z)) & (succ(x, y) | succ(z, x))",
    "(x in X & y in Y) | (y in X & x in Y)",
    "ex2 X. (x in X & ex2 X. !(x in X))",
    "ex1 z. a(x) | all2 Z. X sub Y",
])
def test_open_formulas_agree_with_interpreter(text):
    _assert_agrees_on_every_assignment(text)


@pytest.mark.parametrize("mode", list(EpsilonMode))
@pytest.mark.parametrize("text", [
    "ex1 z. all1 y. a(y)",
    "all1 z. ex1 y. a(y)",
    "ex2 Z. all2 Y. X sub Y",
    "all2 Z. ex2 Y. Y sub X",
])
def test_quantifier_over_variable_not_free(text, mode):
    _assert_agrees_on_every_assignment(text, mode)


def test_chain_of_quantified_conjuncts_compiles_in_linear_time():
    """Each ``x`` nests inside the last; built over all tracks in scope,
    the chain would take time exponential in its length."""
    from msostr import render_automaton
    single = parse_formula("ex1 x. a(x)", AB)
    chain = parse_formula(" & ".join(["ex1 x. a(x)"] * 60), AB)
    assert render_automaton(compile_formula(chain, AB)) == \
        render_automaton(compile_formula(single, AB))


def test_clauses_equal_up_to_renaming_are_built_once(monkeypatch):
    from msostr.automata import Nfa
    calls = []
    project = Nfa.project
    monkeypatch.setattr(Nfa, "project", lambda self, track: calls.append(track)
                        or project(self, track))
    phi = parse_formula("!(ex1 y. y in X0 & y in X1) & !(ex1 y. y in X0 & y in X2)"
                        " & !(ex1 y. y in X1 & y in X2)", AB)
    compiled, tm = compile_with_tracks(phi, AB)
    assert len(calls) == 1
    assert tuple(tm) == ("X0", "X1", "X2")
    assert compiled.accepts([sym("a", 1, 0, 0), sym("b", 0, 1, 1)]) is False
    assert compiled.accepts([sym("a", 1, 0, 0), sym("b", 0, 1, 0)]) is True

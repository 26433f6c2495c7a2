"""Automata operations: acceptance, boolean combinations, projection,
determinization, minimization, and the decision procedures."""

import itertools
import random

import pytest

from msostr import (Alphabet, BadTrack, Dfa, Nfa, TrackMismatch, compile_formula,
                    parse_formula, sym)
from msostr.automata import all_symbols, live_and_dead_states

from corpus import (AB, conjunction_automaton_k2, factor_aa_automaton,
                    sentence, sing_automaton_k2,
                    subset_w_a_automaton_k2, succ_automaton_k2)


def test_accepts_factor_aa():
    aut = factor_aa_automaton()
    assert aut.accepts("baab")
    assert not aut.accepts("abab")


def test_accepts_empty_word_iff_initial_accepting():
    aut = factor_aa_automaton()
    assert not aut.accepts("")
    eps = Nfa(AB, 0, 1, frozenset({0}), frozenset({0}), frozenset())
    assert eps.accepts("")


def test_accepts_succ_tracks():
    aut = succ_automaton_k2()
    assert aut.accepts([sym("a", 1, 0), sym("b", 0, 1)])
    assert aut.accepts([sym("b", 0, 0), sym("a", 1, 0), sym("a", 0, 1)])
    assert not aut.accepts([sym("a", 0, 1), sym("a", 1, 0)])
    with pytest.raises(TrackMismatch):
        aut.accepts([sym("a", 1)])


def test_product_of_singletons_and_adjacency_is_succ():
    threeway = sing_automaton_k2(0).product(sing_automaton_k2(1), "and") \
        .product(succ_automaton_k2(), "and")
    assert threeway.equivalent(succ_automaton_k2())


def test_product_with_universal_is_identity():
    aut = factor_aa_automaton()
    universal = Nfa(AB, 0, 1, frozenset({0}), frozenset({0}),
                    frozenset((0, s, 0) for s in all_symbols(AB, 0)))
    assert aut.product(universal, "and").equivalent(aut)


def test_intersection_with_letter_constraints_is_conjunction():
    product = succ_automaton_k2() \
        .product(subset_w_a_automaton_k2(), "and") \
        .product(_subset_w_a_second_track(), "and")
    assert product.equivalent(conjunction_automaton_k2())


def _subset_w_a_second_track():
    transitions = {(0, sym(letter, b, 0), 0) for letter in AB for b in (0, 1)}
    transitions |= {(0, sym("a", b, 1), 0) for b in (0, 1)}
    return Nfa(AB, 2, 1, frozenset({0}), frozenset({0}), frozenset(transitions))


def test_product_or_unites():
    starts, _ = sentence("starts_with_a")
    ends, _ = sentence("ends_with_a")
    a1 = compile_formula(starts, AB)
    a2 = compile_formula(ends, AB)
    union = a1.product(a2, "or")
    for word in ("ab", "ba", "bb", "aa", "bab"):
        assert union.accepts(word) == (a1.accepts(word) or a2.accepts(word))


def test_complement_involution():
    aut = factor_aa_automaton()
    assert aut.complement().complement().equivalent(aut)


def test_complement_of_empty_accepts_everything():
    empty = Nfa(AB, 0, 1, frozenset({0}), frozenset(), frozenset())
    comp = empty.complement()
    assert comp.accepts("")
    assert comp.accepts("abba")


def test_complement_against_interpreter():
    comp = factor_aa_automaton().complement()
    for length in range(0, 5):
        for letters in itertools.product("ab", repeat=length):
            word = "".join(letters)
            assert comp.accepts(word) == ("aa" not in word)


def test_projection_gives_factor_language():
    projected = conjunction_automaton_k2().project(1).project(0)
    assert projected.tracks == 0
    assert projected.equivalent(factor_aa_automaton())


def test_projection_drops_constant_track():
    aut = subset_w_a_automaton_k2()
    keep_zero = Nfa(AB, 2, 1, frozenset({0}), frozenset({0}),
                    frozenset(t for t in aut.transitions if t[1].bits[1] == 0))
    dropped = keep_zero.project(1)
    expected = Nfa(AB, 1, 1, frozenset({0}), frozenset({0}),
                   frozenset((p, s.drop(1), q) for (p, s, q) in keep_zero.transitions))
    assert dropped.equivalent(expected)


def test_projection_matches_annotation_search():
    aut = conjunction_automaton_k2()
    projected = aut.project(1)
    for length in range(0, 5):
        for letters in itertools.product("ab", repeat=length):
            for bits0 in itertools.product((0, 1), repeat=length):
                word = [sym(l, b) for l, b in zip(letters, bits0)]
                annotated = any(
                    aut.accepts([sym(l, b0, b1) for (l, b0), b1
                                 in zip(((s.letter, s.bits[0]) for s in word), bits1)])
                    for bits1 in itertools.product((0, 1), repeat=length))
                assert projected.accepts(word) == annotated


@pytest.mark.parametrize("to, tracks", [(2, (0,)), (2, (1, 1)), (2, (0, 2)), (1, (0, 1))])
def test_lift_rejects_bad_track_map(to, tracks):
    aut = succ_automaton_k2().determinize()
    with pytest.raises(BadTrack):
        aut.lift(to, tracks)


def test_determinize_fixpoint_on_dfa():
    det = factor_aa_automaton().determinize()
    assert det.determinize() is det
    assert det.equivalent(factor_aa_automaton())


def test_minimize_factor_aa():
    minimal = factor_aa_automaton().determinize().minimize()
    live, dead = live_and_dead_states(minimal)
    assert len(live) == 3
    assert len(dead) <= 1
    assert minimal.equivalent(factor_aa_automaton())


def test_minimize_idempotent_and_preserves_language():
    for aut in (factor_aa_automaton(), conjunction_automaton_k2()):
        minimal = aut.determinize().minimize()
        assert minimal.minimize().isomorphic(minimal)
        assert minimal.equivalent(aut)


def _all_pairs_distinguishable(dfa):
    """Independent minimality oracle: the classic marking algorithm.  In a
    minimal DFA every pair of states is separated by some word."""
    states = range(dfa.n_states)
    marked = {(p, q) for p in states for q in states
              if (p in dfa.accepting) != (q in dfa.accepting)}
    changed = True
    while changed:
        changed = False
        for p in states:
            for q in states:
                if p == q or (p, q) in marked:
                    continue
                for s in dfa.symbols:
                    if (dfa.delta(p, s), dfa.delta(q, s)) in marked:
                        marked.add((p, q))
                        changed = True
                        break
    return all((p, q) in marked for p in states for q in states if p != q)


def test_minimize_output_is_minimal_random():
    rng = random.Random(7193)
    for trial in range(25):
        n = rng.randint(1, 6)
        letters = ("a", "b")[:rng.randint(1, 2)]
        from msostr import Alphabet
        alphabet = Alphabet(letters)
        transitions = set()
        for p in range(n):
            for letter in letters:
                for q in range(n):
                    if rng.random() < 0.3:
                        transitions.add((p, sym(letter), q))
        aut = Nfa(alphabet, 0, n,
                  frozenset({0}),
                  frozenset(q for q in range(n) if rng.random() < 0.4),
                  frozenset(transitions))
        minimal = aut.determinize().minimize()
        assert minimal.equivalent(aut), trial
        assert _all_pairs_distinguishable(minimal), trial


def test_boolean_algebra_on_random_nfas():
    """Product, complement, and union agree with set operations on the
    bounded language fragments."""
    rng = random.Random(5521)
    for trial in range(10):
        nfas = []
        for _ in range(2):
            n = rng.randint(1, 4)
            transitions = {(p, sym(letter), q)
                           for p in range(n) for letter in "ab" for q in range(n)
                           if rng.random() < 0.35}
            nfas.append(Nfa(AB, 0, n, frozenset({0}),
                            frozenset(q for q in range(n) if rng.random() < 0.5),
                            frozenset(transitions)))
        a, b = nfas
        words = ["".join(w) for n_ in range(0, 5)
                 for w in itertools.product("ab", repeat=n_)]
        la = {w for w in words if a.accepts(w)}
        lb = {w for w in words if b.accepts(w)}
        both = a.product(b, "and")
        either = a.product(b, "or")
        comp = a.complement()
        assert {w for w in words if both.accepts(w)} == la & lb, trial
        assert {w for w in words if either.accepts(w)} == la | lb, trial
        assert {w for w in words if comp.accepts(w)} == set(words) - la, trial


def test_multiple_initial_states_determinize_correctly():
    # accepts words starting with a (via state 0) or ending with b (via 1)
    aut = Nfa(AB, 0, 3, frozenset({0, 1}), frozenset({2}),
              frozenset({(0, sym("a"), 2), (2, sym("a"), 2), (2, sym("b"), 2),
                         (1, sym("a"), 1), (1, sym("b"), 1), (1, sym("b"), 2)}))
    det = aut.determinize()
    for length in range(0, 5):
        for letters in itertools.product("ab", repeat=length):
            word = "".join(letters)
            assert det.accepts(word) == aut.accepts(word), word
    assert det.minimize().equivalent(aut)


def test_no_initial_states_means_empty_language():
    aut = Nfa(AB, 0, 2, frozenset(), frozenset({1}),
              frozenset({(0, sym("a"), 1)}))
    assert aut.is_empty()
    assert aut.product(factor_aa_automaton(), "and").is_empty()
    assert aut.complement().accepts("")


def test_isomorphic_requires_reachable_states():
    reachable = factor_aa_automaton().determinize().minimize()
    padded = Nfa(AB, 0, reachable.n_states + 1, reachable.initial,
                 reachable.accepting,
                 reachable.transitions
                 | {(reachable.n_states, s, reachable.n_states)
                    for s in reachable.symbols})
    from msostr import Dfa
    padded_dfa = Dfa(AB, 0, padded.n_states, padded.initial,
                     padded.accepting, padded.transitions)
    with pytest.raises(ValueError):
        padded_dfa.isomorphic(padded_dfa)


def test_two_compilations_minimize_isomorphic():
    contains, _ = sentence("contains_aa")
    direct = compile_formula(contains, AB)
    double_negation = factor_aa_automaton().complement().complement() \
        .determinize().minimize()
    assert direct.isomorphic(double_negation)


def test_empty_and_witness():
    contradiction, alphabet = sentence("contradiction")
    assert compile_formula(contradiction, alphabet).is_empty()
    aut = factor_aa_automaton()
    assert aut.shortest_word() == (sym("a"), sym("a"))


def test_equivalent_reflexive():
    aut = factor_aa_automaton()
    assert aut.equivalent(aut)


def test_alternative_formulations_equivalent():
    first, alphabet = sentence("a_third_from_right")
    second, _ = sentence("a_third_from_right_alt")
    assert compile_formula(first, alphabet).equivalent(compile_formula(second, alphabet))


def test_counterexample_is_shortlex_least():
    starts, _ = sentence("starts_with_a")
    ends, _ = sentence("ends_with_a")
    gap = compile_formula(starts, AB).counterexample(compile_formula(ends, AB))
    assert gap == (sym("a"), sym("b"))  # in starts-with-a, not ends-with-a


def test_containment():
    abc_word, alphabet = sentence("exactly_abc")
    starts, _ = sentence("starts_with_a")
    small = compile_formula(abc_word, alphabet)
    big = compile_formula(starts, alphabet)
    assert small.contained_in(big)
    assert not big.contained_in(small)
    gap = big.containment_counterexample(small)
    assert gap is not None and len(gap) <= 3 and gap[0].letter == "a"


def test_containment_self():
    aut = factor_aa_automaton()
    assert aut.contained_in(aut)


def test_enumerate_factor_aa():
    assert factor_aa_automaton().enumerate_words(3) == ["aa", "aaa", "aab", "baa"]


def test_enumerate_empty_automaton():
    empty = Nfa(AB, 0, 1, frozenset({0}), frozenset(), frozenset())
    assert empty.enumerate_words(4) == []


def test_enumerate_even_lengths():
    even, alphabet = sentence("even_length")
    assert compile_formula(even, alphabet).enumerate_words(5) == ["aa", "aaaa"]


def test_star_of_aa_is_even_lengths():
    aa, alphabet = sentence("exactly_aa")
    even, _ = sentence("even_length")
    starred = compile_formula(aa, alphabet).star()
    assert starred.accepts("")
    assert starred.with_epsilon(False).equivalent(compile_formula(even, alphabet))


def test_concat_matches_python_semantics():
    starts, _ = sentence("starts_with_a")
    ends, _ = sentence("ends_with_a")
    a1 = compile_formula(starts, AB)
    a2 = compile_formula(ends, AB)
    joined = a1.concat(a2)
    for length in range(0, 6):
        for letters in itertools.product("ab", repeat=length):
            word = "".join(letters)
            expected = any(brute(word[:i], word[i:])
                           for i in range(length + 1))
            assert joined.accepts(word) == expected, word


def brute(u, v):
    return u.startswith("a") and v.endswith("a") and u != "" and v != ""


def test_mismatched_alphabets_rejected():
    with pytest.raises(TrackMismatch):
        factor_aa_automaton().product(succ_automaton_k2(), "and")


# star-free decompositions: the three languages built from the empty and
# single-letter languages by complement (within nonempty words),
# concatenation, and union


def _empty_lang():
    return Nfa(AB, 0, 1, frozenset({0}), frozenset(), frozenset())


def _single_a():
    return Nfa(AB, 0, 2, frozenset({0}), frozenset({1}),
               frozenset({(0, sym("a"), 1)}))


def _nonempty_complement(aut):
    return aut.complement().with_epsilon(False)


def _union(a, b):
    return a.product(b, "or")


def test_star_free_decomposition_ends_with_a():
    ends, alphabet = sentence("ends_with_a")
    anything = _nonempty_complement(_empty_lang())
    decomposed = _union(anything.concat(_single_a()), _single_a())
    assert decomposed.equivalent(compile_formula(ends, alphabet))


def test_star_free_decomposition_contains_a():
    anything = _nonempty_complement(_empty_lang())
    single = _single_a()
    decomposed = _union(_union(single, anything.concat(single)),
                        _union(single.concat(anything),
                               anything.concat(single).concat(anything)))
    somewhere_a = compile_formula(parse_formula("ex1 x. a(x)", AB), AB)
    assert decomposed.equivalent(somewhere_a)


def test_star_free_decomposition_exactly_one_a():
    anything = _nonempty_complement(_empty_lang())
    single = _single_a()
    contains_a = _union(_union(single, anything.concat(single)),
                        _union(single.concat(anything),
                               anything.concat(single).concat(anything)))
    no_a = _nonempty_complement(contains_a)
    decomposed = _union(_union(single, no_a.concat(single)),
                        _union(single.concat(no_a),
                               no_a.concat(single).concat(no_a)))
    exactly_one = compile_formula(
        parse_formula("ex1 x. a(x) & !(ex1 y. a(y) & x != y)", AB), AB)
    assert decomposed.equivalent(exactly_one)


# differential tests: every core operation against brute-force word
# enumeration over the transition triples, on small random NFAs


def _random_nfa(rng, alphabet, tracks):
    n = rng.randint(1, 3)
    symbols = all_symbols(alphabet, tracks)
    return Nfa(alphabet, tracks, n,
               frozenset(q for q in range(n) if rng.random() < 0.6),
               frozenset(q for q in range(n) if rng.random() < 0.4),
               frozenset((p, s, q) for p in range(n) for s in symbols
                         for q in range(n) if rng.random() < 0.3))


def _max_len(aut):
    """Up to length 6, shorter over wider track alphabets."""
    return {1: 6, 2: 6, 4: 4, 8: 3, 16: 2}[len(aut.symbols)]


def _language(aut, max_len):
    """Accepted words up to ``max_len``, by simulating the triples."""
    step = {}
    for p, s, q in aut.transitions:
        step.setdefault((p, s), set()).add(q)
    out = set()
    level = [((), frozenset(aut.initial))]
    for length in range(max_len + 1):
        out |= {word for word, states in level if states & aut.accepting}
        if length < max_len:
            nxt = []
            for word, states in level:
                for s in aut.symbols:
                    target = frozenset(q for p in states for q in step.get((p, s), ()))
                    if target:
                        nxt.append((word + (s,), target))
            level = nxt
    return out


def _universe(aut, max_len):
    return {w for n in range(max_len + 1) for w in itertools.product(aut.symbols, repeat=n)}


def _shortlex(aut):
    order = {s: i for i, s in enumerate(aut.symbols)}
    return lambda word: (len(word), [order[s] for s in word])


def _useful(aut):
    """States reachable from an initial state and reaching an accepting one."""
    edges = {(p, q) for p, _, q in aut.transitions}

    def closure(start, edges):
        seen = set(start)
        while grown := {q for p, q in edges if p in seen} - seen:
            seen |= grown
        return seen

    return closure(aut.initial, edges) & closure(aut.accepting, {(q, p) for p, q in edges})


def _check_witness(got, words, aut, max_len):
    """The engine's witness is the shortlex-least of ``words`` (the brute
    force set up to ``max_len``), or lies past ``max_len`` if that is empty."""
    expected = min(words, key=_shortlex(aut), default=None)
    if expected is None:
        assert got is None or len(got) > max_len
    else:
        assert got == expected


def _check(operation, a, b):
    max_len = _max_len(a)
    la, lb = _language(a, max_len), _language(b, max_len)
    if operation == "determinize":
        det = a.determinize()
        assert isinstance(det, Dfa) and det.is_deterministic() and det.is_complete()
        assert _language(det, max_len) == la
    elif operation in ("product_and", "product_or"):
        combine = operation.split("_")[1]
        product = a.product(b, combine)
        assert isinstance(product, Dfa)
        got = _language(product, max_len)
        assert got == (la & lb if combine == "and" else la | lb)
    elif operation == "complement":
        assert _language(a.complement(), max_len) == _universe(a, max_len) - la
    elif operation == "project":
        for track in range(a.tracks):
            dropped = {tuple(s.drop(track) for s in w) for w in la}
            assert _language(a.project(track), max_len) == dropped
    elif operation == "lift":
        det = a.determinize()
        for to in range(a.tracks, 4):
            for tracks in itertools.permutations(range(to), a.tracks):
                lifted = det.lift(to, tracks)
                short = _max_len(lifted)
                la = _language(a, short)
                assert _language(lifted, short) == {
                    w for w in _universe(lifted, short)
                    if tuple(sym(s.letter, *(s.bits[t] for t in tracks)) for s in w) in la}
                # erasing the added tracks keeps the others in ascending order
                kept = sorted(tracks)
                projected = lifted
                for t in reversed(range(to)):
                    if t not in tracks:
                        projected = projected.project(t)
                if kept == list(tracks):
                    assert projected.equivalent(a)
                assert _language(projected, short) == {
                    tuple(sym(s.letter, *(s.bits[tracks.index(t)] for t in kept)) for s in w)
                    for w in la}
    elif operation == "minimize":
        minimal = a.determinize().minimize()
        assert _language(minimal, max_len) == la
        assert _all_pairs_distinguishable(minimal)
        assert minimal.minimize() == minimal
    elif operation == "trim":
        trimmed = a.trim()
        assert _language(trimmed, max_len) == la
        if la:
            assert _useful(trimmed) == set(range(trimmed.n_states))
        else:
            assert (trimmed.n_states, trimmed.accepting) == (1, frozenset())
    elif operation == "shortest_word":
        # an accepted word shorter than the state count exists if any does
        assert a.shortest_word() == min(la, key=_shortlex(a), default=None)
    elif operation == "counterexample":
        _check_witness(a.counterexample(b), la ^ lb, a, max_len)
    elif operation == "containment_counterexample":
        _check_witness(a.containment_counterexample(b), la - lb, a, max_len)
    elif operation == "enumerate_words":
        words = sorted(la, key=_shortlex(a))
        if a.tracks == 0:
            words = ["".join(s.letter for s in w) for w in words]
        assert a.enumerate_words(max_len) == words


@pytest.mark.parametrize("operation", [
    "determinize", "product_and", "product_or", "complement", "project",
    "lift", "minimize", "trim", "shortest_word", "counterexample",
    "containment_counterexample", "enumerate_words"])
def test_operation_matches_brute_force(operation):
    rng = random.Random(8117)
    for trial in range(40):
        alphabet = Alphabet(("a", "b")[:rng.randint(1, 2)])
        tracks = rng.randint(0, 2)
        a, b = _random_nfa(rng, alphabet, tracks), _random_nfa(rng, alphabet, tracks)
        try:
            _check(operation, a, b)
        except AssertionError as exc:
            raise AssertionError(f"trial {trial}: {a!r} {sorted(a.transitions)}, "
                                 f"{b!r} {sorted(b.transitions)}") from exc

"""Encoding a finite automaton as a second-order sentence.

One set variable per state holds the positions read from that state; the
sentence conjoins a transition clause, an initial-state clause, pairwise
state exclusion, and an acceptance clause over the last position, then
quantifies all state sets existentially.
"""

from __future__ import annotations

from . import syntax as S
from .automata import Nfa
from .errors import MultipleInitial, TrackMismatch
from .semantics import EpsilonMode
from .syntax import Formula


def _and_chain(parts: list[Formula]) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = S.And(out, p)
    return out


def _or_chain(parts: list[Formula]) -> Formula:
    if not parts:
        return S.FalseAtom()
    out = parts[0]
    for p in parts[1:]:
        out = S.Or(out, p)
    return out


def _group3(a: Formula, b: Formula, c: Formula) -> Formula:
    return S.And(a, S.And(b, c))


def _prepare(aut: Nfa) -> Nfa:
    """Normalize the input: single initial state 0, deterministic relation.

    Deterministic automata (total or partial) are used verbatim apart from
    renumbering the initial state to 0; nondeterministic ones are
    determinized and trimmed first.
    """
    if aut.tracks != 0:
        raise TrackMismatch("encoding is defined over the plain alphabet (k = 0)")
    if len(aut.initial) != 1:
        raise MultipleInitial(f"need exactly one initial state, got {sorted(aut.initial)}")
    if not aut.is_deterministic():
        aut = aut.determinize().trim()
        if len(aut.initial) != 1:  # empty language after trimming
            aut = Nfa(aut.alphabet, 0, 1, frozenset({0}), frozenset(), frozenset())
    init = next(iter(aut.initial))
    if init != 0:
        swap = {init: 0, 0: init}
        rename = lambda q: swap.get(q, q)
        aut = Nfa(aut.alphabet, 0, aut.n_states,
                  frozenset({0}),
                  frozenset(rename(q) for q in aut.accepting),
                  frozenset((rename(p), s, rename(q)) for (p, s, q) in aut.transitions))
    return aut


def fsa_to_mso(aut: Nfa, mode: EpsilonMode = EpsilonMode.EXCLUDE) -> Formula:
    """Build a sentence defining the automaton's language on nonempty words.

    With the INCLUDE semantics, acceptance of the empty word is restored
    by a disjunct that is satisfied only by the empty word.
    """
    accepts_epsilon = bool(aut.initial & aut.accepting)
    aut = _prepare(aut)
    states = range(aut.n_states)
    set_names = [f"X{q}" for q in states]
    alphabet = aut.alphabet

    # one disjunct per transition, ordered by source, target, letter
    delta = sorted(((p, q, s.letter) for (p, s, q) in aut.transitions),
                   key=lambda t: (t[0], t[1], alphabet.index(t[2])))
    transition_disjuncts = [
        _group3(S.SetMember(set_names[p], "x"), S.Letter(a, "x"),
                S.SetMember(set_names[q], "y"))
        for (p, q, a) in delta]
    transition_clause = S.ForallFO("x", S.ForallFO("y", S.Implies(
        S.PlusOffset("y", "x", 1), _or_chain(transition_disjuncts))))

    initial_clause = S.ForallFO("x", S.Implies(
        S.EqConst("x", 0), S.SetMember(set_names[0], "x")))

    exclusion_clauses = [
        S.Not(S.ExistsFO("y", S.And(S.SetMember(set_names[i], "y"),
                                    S.SetMember(set_names[j], "y"))))
        for i in states for j in states if i < j]

    accepting_pairs = sorted(
        ((p, s.letter) for (p, s, q) in aut.transitions if q in aut.accepting),
        key=lambda t: (t[0], alphabet.index(t[1])))
    acceptance_disjuncts = [
        S.And(S.SetMember(set_names[p], "x"), S.Letter(a, "x"))
        for (p, a) in accepting_pairs]
    acceptance_clause = S.ForallFO("x", S.Implies(
        S.Last("x"), _or_chain(acceptance_disjuncts)))

    body = _and_chain([transition_clause, initial_clause,
                       *exclusion_clauses, acceptance_clause])
    sentence: Formula = body
    for name in reversed(set_names):
        sentence = S.ExistsSO(name, sentence)

    if mode is EpsilonMode.INCLUDE and accepts_epsilon:
        a0 = alphabet.symbols[0]
        empty_word_only = S.Not(S.ExistsFO("x", S.Or(
            S.Letter(a0, "x"), S.Not(S.Letter(a0, "x")))))
        sentence = S.Or(sentence, empty_word_only)
    return sentence

"""Translation from formulas to automata.

A formula is first expanded into the syntax core with successor kept
primitive (``syntax.expand(..., keep_succ=True)``): letter, membership,
successor and order atoms, negation, disjunction and the two
existentials.  The compiler is one induction over that core, and each
subformula is compiled over its own free variables only, one track each;
a position is a track that holds exactly one 1.  Each atom maps to a
fixed small automaton over the track alphabet, negation to complement,
disjunction to the product of both operands lifted to the union of their
tracks, and a set quantifier to the projection of its track.  A position
quantifier first conjoins the singleton automaton of its track, then
projects it; a quantifier whose variable is not free leaves its body as
it is.  Subformulas equal up to a renaming of their free variables share
one automaton within a compile.  At the top level the result is lifted
to the tracks of the ``TrackMap``, and free position variables of open
formulas get the singleton conjunction.  Every intermediate result is a
minimal DFA: each step minimizes its result, except negation, as the
complement of a minimal DFA is minimal, and lifting, which keeps a
minimal DFA minimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from . import syntax as S
from .automata import Dfa, Nfa
from .errors import UnknownLetter, UnmappedVariable
from .semantics import EpsilonMode, evaluate
from .syntax import Alphabet, Formula, expand, free_vars_in_order


@dataclass(frozen=True)
class TrackMap:
    """Free variables in track order: the free position variables by first
    occurrence in the formula as written, then the free set variables by
    first occurrence in its expansion (which may swap position operands,
    as for ``<=``, hence the two sources)."""

    variables: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variables in track map")

    def index(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise UnmappedVariable(f"variable {var!r} has no track") from None

    def __len__(self) -> int:
        return len(self.variables)

    def __iter__(self):
        return iter(self.variables)


# -- atomic automata ------------------------------------------------------
#
# Each atom is built straight from symbol codes (see ``automata``): the bit
# of track i in code c is ``c >> (tracks - 1 - i) & 1`` and its letter
# index is ``c >> tracks``.  ``moves`` maps what an atom reads of a symbol
# to its (source, target) pairs; state 0 is initial.

def _atom(alphabet: Alphabet, tracks: int, n_states: int, accepting: int,
          moves, *reads) -> Nfa:
    ns = len(alphabet) << tracks
    columns = [list(map(read, range(ns))) for read in reads]
    rows = [[()] * ns for _ in range(n_states)]
    for c, read in enumerate(zip(*columns)):
        for p, q in moves[read]:  # at most one move per source
            rows[p][c] = (q,)
    return Nfa._make(alphabet, tracks, n_states, frozenset({0}),
                     frozenset({accepting}), tuple(map(tuple, rows)))


def _bit(tracks: int, i: int):
    return lambda c: c >> (tracks - 1 - i) & 1


_LOOP = ((0, 0),)
# inclusion atoms: one state, blocked where the first read is 1, the second 0
_IMPLIES = {(0, 0): _LOOP, (0, 1): _LOOP, (1, 1): _LOOP, (1, 0): ()}


def _aut_subset_w(i: int, letter: str, alphabet: Alphabet, tracks: int) -> Nfa:
    a = alphabet.index(letter)
    return _atom(alphabet, tracks, 1, 0, _IMPLIES,
                 _bit(tracks, i), lambda c: int(c >> tracks == a))


def _aut_subset(i: int, j: int, alphabet: Alphabet, tracks: int) -> Nfa:
    return _atom(alphabet, tracks, 1, 0, _IMPLIES, _bit(tracks, i), _bit(tracks, j))


def _aut_sing(i: int, alphabet: Alphabet, tracks: int) -> Nfa:
    return _atom(alphabet, tracks, 2, 1, {(0,): ((0, 0), (1, 1)), (1,): ((0, 1),)},
                 _bit(tracks, i))


def _aut_succ(i: int, j: int, alphabet: Alphabet, tracks: int) -> Nfa:
    return _atom(alphabet, tracks, 3, 2,
                 {(0, 0): ((0, 0), (2, 2)), (1, 0): ((0, 1),), (0, 1): ((1, 2),),
                  (1, 1): ()}, _bit(tracks, i), _bit(tracks, j))


def _aut_less(i: int, j: int, alphabet: Alphabet, tracks: int) -> Nfa:
    """Singleton i strictly before singleton j; a gap is allowed."""
    return _atom(alphabet, tracks, 3, 2,
                 {(0, 0): ((0, 0), (1, 1), (2, 2)), (1, 0): ((0, 1),), (0, 1): ((1, 2),),
                  (1, 1): ()}, _bit(tracks, i), _bit(tracks, j))


Atom = Union[S.Letter, S.SetMember, S.Succ, S.Less]


def atomic_automaton(atom: Atom, tm: TrackMap | Sequence[str],
                     alphabet: Alphabet) -> Nfa:
    """The fixed automaton of one core atom over the given tracks."""
    tm = TrackMap(tuple(tm))
    tracks, idx = len(tm), tm.index

    match atom:
        case S.Letter(a, x):
            if a not in alphabet:
                raise UnknownLetter(f"letter {a!r} not in alphabet {alphabet.symbols}")
            return _aut_subset_w(idx(x), a, alphabet, tracks)
        case S.SetMember(X, x):
            return _aut_subset(idx(x), idx(X), alphabet, tracks)
        case S.Succ(x, y):
            return _aut_succ(idx(x), idx(y), alphabet, tracks)
        case S.Less(x, y):
            return _aut_less(idx(x), idx(y), alphabet, tracks)
        case _:
            raise TypeError(f"not an atomic core formula: {atom!r}")


# -- inductive construction ------------------------------------------------

def _singleton(i: int, body: Dfa) -> Dfa:
    """``body`` conjoined with: track ``i`` holds exactly one position."""
    sing = _aut_sing(i, body.alphabet, body.tracks).determinize().minimize()
    return sing.product(body, "and").minimize()


def _build(f: Formula, alphabet: Alphabet, memo: dict, dfas: list[Dfa]
           ) -> tuple[int, tuple[str, ...]]:
    """Compile ``f`` over its own free variables.

    Returns ``(i, names)``: ``dfas[i]`` is the minimal DFA of ``f`` whose
    tracks are ``names``, the free variables of ``f`` in first-occurrence
    order.  The memo key of a node holds no variable names: the kind, the
    letter and the occurrence pattern of an atom, the children's indices,
    and the slots of a disjunction's right operand.  Subformulas equal up
    to a renaming of their free variables are thus built once.
    """
    match f:
        case S.Letter() | S.SetMember() | S.Succ() | S.Less():
            positions, sets, _ = S._parts(f)
            names = tuple(dict.fromkeys(positions + sets))
            key = (type(f), getattr(f, "letter", None),
                   tuple(map(names.index, positions + sets)))

            def make():
                return atomic_automaton(f, names, alphabet).determinize().minimize()
        case S.Not(b):
            i, names = _build(b, alphabet, memo, dfas)
            key = (S.Not, i)

            def make():  # the complement of a minimal DFA is minimal
                return dfas[i].complement()
        case S.Or(a, b):
            i, left = _build(a, alphabet, memo, dfas)
            j, right = _build(b, alphabet, memo, dfas)
            names = left + tuple(v for v in right if v not in left)
            slots = tuple(map(names.index, right))
            key = (S.Or, i, j, slots)

            def make():
                return (dfas[i].lift(len(names), range(len(left)))
                        .product(dfas[j].lift(len(names), slots), "or").minimize())
        case S.ExistsFO(x, b) | S.ExistsSO(x, b):
            i, body = _build(b, alphabet, memo, dfas)
            if x not in body:
                # only the empty word can tell the two apart, and the
                # top-level with_epsilon decides the empty word
                return i, body
            t = body.index(x)
            names = body[:t] + body[t + 1:]
            key = (type(f), i, t)

            def make():
                inner = _singleton(t, dfas[i]) if type(f) is S.ExistsFO else dfas[i]
                return inner.project(t).determinize().minimize()
        case _:
            raise TypeError(f"unexpected node after expansion: {f!r}")
    n = memo.get(key)
    if n is None:
        n = memo[key] = len(dfas)
        dfas.append(make())
    return n, names


def compile_with_tracks(phi: Formula, alphabet: Alphabet,
                        mode: EpsilonMode = EpsilonMode.EXCLUDE) -> tuple[Dfa, TrackMap]:
    """Compile a formula to a minimal DFA plus its free-variable tracks."""
    core = expand(phi, alphabet, keep_succ=True)
    free_fo = free_vars_in_order(phi)[0]
    dfas: list[Dfa] = []
    top, names = _build(core, alphabet, {}, dfas)
    # expansion binds every variable it adds, so the rest are free sets
    order = free_fo + tuple(v for v in names if v not in free_fo)
    aut = dfas[top].lift(len(order), map(order.index, names))
    for i in reversed(range(len(free_fo))):  # the innermost conjunct first
        aut = _singleton(i, aut)
    # Under INCLUDE the empty word is accepted when the variant semantics
    # holds there; free sets are then empty, and a free position variable
    # has nowhere to sit, so its singleton constraint rejects.
    want_epsilon = (mode is EpsilonMode.INCLUDE and not free_fo
                    and evaluate("", phi, None, EpsilonMode.INCLUDE))
    fixed = aut.with_epsilon(want_epsilon)
    return fixed.determinize().minimize(), TrackMap(order)


def compile_formula(phi: Formula, alphabet: Alphabet,
                    mode: EpsilonMode = EpsilonMode.EXCLUDE) -> Dfa:
    """Compile a formula; sentences yield a DFA over the plain alphabet."""
    return compile_with_tracks(phi, alphabet, mode)[0]

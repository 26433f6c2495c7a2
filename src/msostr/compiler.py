"""Translation from formulas to automata.

Formulas are first rewritten into a second-order-only core whose atoms
are letter-set containment, set containment, adjacency and order of
singleton sets, and singleton-ness.  Each atom maps to a fixed small
automaton over the track alphabet; connectives map to product, complement
and union; each set quantifier projects away one track.  Intermediate
results are determinized and minimized after every step.

Position variables are represented by set variables constrained to be
singletons; a position quantifier becomes a set quantifier conjoined with
that constraint.  Free position variables of open formulas receive the
same constraint at the top level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from . import syntax as S
from .automata import Dfa, Nfa
from .errors import UnknownLetter, UnmappedVariable
from .semantics import Assignment, EpsilonMode, evaluate
from .syntax import Alphabet, Formula, expand, free_vars


def _so_node(cls):
    return dataclass(frozen=True)(cls)


class CoreSO:
    """Base class of the second-order-only core."""

    __slots__ = ()


@_so_node
class SubsetW(CoreSO):
    """Every position in the set carries the given letter."""

    set_var: str
    letter: str


@_so_node
class SubsetSO(CoreSO):
    left: str
    right: str


@_so_node
class SuccSO(CoreSO):
    """Both sets are singletons and the right one immediately follows."""

    left: str
    right: str


@_so_node
class LessSO(CoreSO):
    """Both sets are singletons and the left one is strictly earlier."""

    left: str
    right: str


@_so_node
class SingSO(CoreSO):
    """The set holds exactly one position."""

    set_var: str


@_so_node
class NotSO(CoreSO):
    body: CoreSO


@_so_node
class OrSO(CoreSO):
    left: CoreSO
    right: CoreSO


@_so_node
class AndSO(CoreSO):
    left: CoreSO
    right: CoreSO


@_so_node
class ExistsSOCore(CoreSO):
    set_var: str
    body: CoreSO


@dataclass(frozen=True)
class TrackMap:
    """Free set variables in track order (first occurrence in the
    normalized formula)."""

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


def _ordered_free_fo(phi: Formula) -> tuple[str, ...]:
    """Free position variables in order of first occurrence."""
    free = free_vars(phi).fo
    seen: list[str] = []

    def note(x: str, bound: frozenset):
        if x in free and x not in bound and x not in seen:
            seen.append(x)

    def walk(f: Formula, bound: frozenset):
        match f:
            case S.Letter(_, x) | S.First(x) | S.Last(x) | S.EqConst(x, _) \
                    | S.LessConst(x, _) | S.GreaterConst(x, _):
                note(x, bound)
            case S.Less(x, y) | S.Eq(x, y) | S.Neq(x, y) | S.Leq(x, y) | S.Geq(x, y) \
                    | S.Gt(x, y) | S.Succ(x, y) | S.PlusOffset(x, y, _) \
                    | S.MinusOffset(x, y, _) | S.LessOffset(x, y, _) \
                    | S.GreaterOffset(x, y, _):
                note(x, bound)
                note(y, bound)
            case S.SetMember(_, x):
                note(x, bound)
            case S.Not(b):
                walk(b, bound)
            case S.Or(a, b) | S.And(a, b) | S.Implies(a, b) | S.Iff(a, b):
                walk(a, bound)
                walk(b, bound)
            case S.ExistsFO(x, b) | S.ForallFO(x, b):
                walk(b, bound | {x})
            case S.ExistsSO(_, b) | S.ForallSO(_, b):
                walk(b, bound)
            case _:
                pass

    walk(phi, frozenset())
    return tuple(seen)


def normalize(phi: Formula, alphabet: Alphabet) -> CoreSO:
    """Rewrite any well-formed formula into the second-order-only core.

    Position quantifiers become set quantifiers over fresh singleton sets;
    letter atoms become letter-set containment; membership becomes
    containment of the singleton.  Free position variables are constrained
    to singletons at the top level.
    """
    core = expand(phi, alphabet, keep_succ=True)
    free_fo = _ordered_free_fo(phi)
    fo_map = {x: x for x in free_fo}

    def rec(f: Formula, env: dict[str, str]) -> CoreSO:
        match f:
            case S.Letter(a, x):
                return SubsetW(_resolve(env, x), a)
            case S.Less(x, y):
                return LessSO(_resolve(env, x), _resolve(env, y))
            case S.Succ(x, y):
                return SuccSO(_resolve(env, x), _resolve(env, y))
            case S.SetMember(X, x):
                return SubsetSO(_resolve(env, x), X)
            case S.Not(b):
                return NotSO(rec(b, env))
            case S.Or(a, b):
                return OrSO(rec(a, env), rec(b, env))
            case S.ExistsFO(x, b):
                inner = {**env, x: x}
                return ExistsSOCore(x, AndSO(SingSO(x), rec(b, inner)))
            case S.ExistsSO(X, b):
                return ExistsSOCore(X, rec(b, env))
            case _:
                raise TypeError(f"unexpected node after expansion: {f!r}")

    body = rec(core, fo_map)
    for x in reversed(free_fo):
        body = AndSO(SingSO(x), body)
    return body


def _resolve(env: dict[str, str], x: str) -> str:
    try:
        return env[x]
    except KeyError:
        raise UnmappedVariable(f"position variable {x!r} has no set") from None


def so_free_ordered(core: CoreSO) -> tuple[str, ...]:
    """Free set variables of a core formula, first-occurrence order."""
    seen: list[str] = []

    def walk(f: CoreSO, bound: frozenset):
        match f:
            case SubsetW(X, _) | SingSO(X):
                if X not in bound and X not in seen:
                    seen.append(X)
            case SubsetSO(X, Y) | SuccSO(X, Y) | LessSO(X, Y):
                for v in (X, Y):
                    if v not in bound and v not in seen:
                        seen.append(v)
            case NotSO(b):
                walk(b, bound)
            case OrSO(a, b) | AndSO(a, b):
                walk(a, bound)
                walk(b, bound)
            case ExistsSOCore(X, b):
                walk(b, bound | {X})
            case _:
                raise TypeError(f"unknown core node {f!r}")

    walk(core, frozenset())
    return tuple(seen)


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


Atom = Union[SubsetW, SubsetSO, SuccSO, LessSO, SingSO]


def atomic_automaton(atom: Atom, tm: TrackMap | Sequence[str],
                     alphabet: Alphabet) -> Nfa:
    """The fixed automaton of one core atom over the given tracks."""
    variables = tuple(tm)
    tracks = len(variables)

    def idx(var: str) -> int:
        for i in range(tracks - 1, -1, -1):  # innermost binding wins
            if variables[i] == var:
                return i
        raise UnmappedVariable(f"variable {var!r} has no track")

    match atom:
        case SubsetW(X, a):
            if a not in alphabet:
                raise UnknownLetter(f"letter {a!r} not in alphabet {alphabet.symbols}")
            return _aut_subset_w(idx(X), a, alphabet, tracks)
        case SubsetSO(X, Y):
            return _aut_subset(idx(X), idx(Y), alphabet, tracks)
        case SuccSO(X, Y):
            return _aut_succ(idx(X), idx(Y), alphabet, tracks)
        case LessSO(X, Y):
            return _aut_less(idx(X), idx(Y), alphabet, tracks)
        case SingSO(X):
            return _aut_sing(idx(X), alphabet, tracks)
        case _:
            raise TypeError(f"not an atomic core formula: {atom!r}")


# -- inductive construction ------------------------------------------------

def _build(core: CoreSO, tracks: tuple[str, ...], alphabet: Alphabet) -> Dfa:
    match core:
        case SubsetW() | SubsetSO() | SuccSO() | LessSO() | SingSO():
            aut = atomic_automaton(core, tracks, alphabet)
            return aut.determinize().minimize()
        case NotSO(b):
            return _build(b, tracks, alphabet).complement().minimize()
        case OrSO(a, b):
            left = _build(a, tracks, alphabet)
            right = _build(b, tracks, alphabet)
            return left.product(right, "or").determinize().minimize()
        case AndSO(a, b):
            left = _build(a, tracks, alphabet)
            right = _build(b, tracks, alphabet)
            return left.product(right, "and").determinize().minimize()
        case ExistsSOCore(X, b):
            inner = _build(b, tracks + (X,), alphabet)
            return inner.project(len(tracks)).determinize().minimize()
        case _:
            raise TypeError(f"unknown core node {core!r}")


def _epsilon_membership(phi: Formula, fv) -> bool:
    """Whether the final automaton should accept the empty word under the
    INCLUDE semantics: open position variables force rejection (their
    singleton constraint is unsatisfiable), otherwise the variant
    semantics on the empty word decides, with free sets necessarily empty."""
    if fv.fo:
        return False
    assignment = Assignment(nu2={X: frozenset() for X in fv.so})
    return evaluate("", phi, assignment, EpsilonMode.INCLUDE)


def compile_with_tracks(phi: Formula, alphabet: Alphabet,
                        mode: EpsilonMode = EpsilonMode.EXCLUDE) -> tuple[Dfa, TrackMap]:
    """Compile a formula to a minimal DFA plus its free-variable tracks."""
    core = normalize(phi, alphabet)
    order = so_free_ordered(core)
    aut = _build(core, order, alphabet)
    fv = free_vars(phi)
    want_epsilon = False if mode is EpsilonMode.EXCLUDE else _epsilon_membership(phi, fv)
    fixed = aut.with_epsilon(want_epsilon)
    return fixed.determinize().minimize(), TrackMap(order)


def compile_formula(phi: Formula, alphabet: Alphabet,
                    mode: EpsilonMode = EpsilonMode.EXCLUDE) -> Dfa:
    """Compile a formula; sentences yield a DFA over the plain alphabet."""
    return compile_with_tracks(phi, alphabet, mode)[0]

"""Formula abstract syntax.

Defines the alphabet, the formula AST (a seven-node core plus sugared
abbreviations), expansion of abbreviations down to the core, free-variable
computation and well-formedness checks.  Which variables a node names,
binds and contains is decided in one table (``_parts``) that every
structural walk reads.

Position variables are written in lowercase, set variables in uppercase;
the two namespaces must be disjoint.  Formulas are immutable values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .errors import BadAlphabet, UnknownLetter, VariableKindMismatch

FRESH_PREFIX = "_v"
_FRESH_RE = re.compile(r"^_v(\d+)$")


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of letter names; the order fixes symbol enumeration."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise BadAlphabet("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise BadAlphabet(f"duplicate symbols in alphabet {self.symbols}")
        for s in self.symbols:
            if not s or not s[0].islower() or not s.isidentifier():
                raise BadAlphabet(f"letter {s!r} is not a lowercase identifier")

    @classmethod
    def from_csv(cls, text: str) -> "Alphabet":
        return cls(tuple(part.strip() for part in text.split(",") if part.strip()))

    def index(self, letter: str) -> int:
        try:
            return self.symbols.index(letter)
        except ValueError:
            raise UnknownLetter(f"letter {letter!r} not in alphabet {self.symbols}") from None

    def __contains__(self, letter: str) -> bool:
        return letter in self.symbols

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)


class Formula:
    """Base class for all formula nodes."""

    __slots__ = ()


def _node(cls):
    return dataclass(frozen=True)(cls)


# --- the seven core kinds ---------------------------------------------------

@_node
class Letter(Formula):
    letter: str
    var: str


@_node
class Less(Formula):
    left: str
    right: str


@_node
class SetMember(Formula):
    set_var: str
    var: str


@_node
class Not(Formula):
    body: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class ExistsFO(Formula):
    var: str
    body: Formula


@_node
class ExistsSO(Formula):
    set_var: str
    body: Formula


CORE_KINDS = (Letter, Less, SetMember, Not, Or, ExistsFO, ExistsSO)


# --- sugared kinds ----------------------------------------------------------

@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class ForallFO(Formula):
    var: str
    body: Formula


@_node
class ForallSO(Formula):
    set_var: str
    body: Formula


@_node
class Eq(Formula):
    left: str
    right: str


@_node
class Neq(Formula):
    left: str
    right: str


@_node
class Leq(Formula):
    left: str
    right: str


@_node
class Geq(Formula):
    left: str
    right: str


@_node
class Gt(Formula):
    left: str
    right: str


@_node
class EqConst(Formula):
    """left = k"""

    var: str
    k: int


@_node
class PlusOffset(Formula):
    """left = right + k"""

    left: str
    right: str
    k: int


@_node
class MinusOffset(Formula):
    """left = right - k"""

    left: str
    right: str
    k: int


@_node
class Succ(Formula):
    """right is the position immediately after left."""

    left: str
    right: str


@_node
class First(Formula):
    var: str


@_node
class Last(Formula):
    var: str


@_node
class LessOffset(Formula):
    """left < right + k"""

    left: str
    right: str
    k: int


@_node
class GreaterOffset(Formula):
    """left > right + k"""

    left: str
    right: str
    k: int


@_node
class LessConst(Formula):
    """var < k"""

    var: str
    k: int


@_node
class GreaterConst(Formula):
    """var > k"""

    var: str
    k: int


@_node
class ConstLessLast(Formula):
    """k < last (the greatest position exceeds k)."""

    k: int


@_node
class ConstGreaterLast(Formula):
    """k > last (the greatest position is below k)."""

    k: int


@_node
class Subset(Formula):
    left: str
    right: str


@_node
class SetEq(Formula):
    left: str
    right: str


@_node
class SetNeq(Formula):
    left: str
    right: str


@_node
class TrueAtom(Formula):
    pass


@_node
class FalseAtom(Formula):
    pass


@dataclass(frozen=True)
class FreeVars:
    """Free first-order and second-order variable names of a formula."""

    fo: frozenset[str]
    so: frozenset[str]

    def __bool__(self) -> bool:
        return bool(self.fo or self.so)


# --- what each node names and contains --------------------------------------
#
# The one table of which variables a node mentions: per node kind, its
# position names, set names and subformulas.  A node with subformulas
# names only the variable it binds in them (a quantifier's), so every walk
# that asks which names occur, are bound or are free reads this table.

_PARTS = {
    **dict.fromkeys((Letter, First, Last, EqConst, LessConst, GreaterConst),
                    lambda f: ((f.var,), (), ())),
    **dict.fromkeys((Less, Eq, Neq, Leq, Geq, Gt, Succ, PlusOffset, MinusOffset,
                     LessOffset, GreaterOffset), lambda f: ((f.left, f.right), (), ())),
    SetMember: lambda f: ((f.var,), (f.set_var,), ()),
    **dict.fromkeys((Subset, SetEq, SetNeq), lambda f: ((), (f.left, f.right), ())),
    Not: lambda f: ((), (), (f.body,)),
    **dict.fromkeys((Or, And, Implies, Iff), lambda f: ((), (), (f.left, f.right))),
    **dict.fromkeys((ExistsFO, ForallFO), lambda f: ((f.var,), (), (f.body,))),
    **dict.fromkeys((ExistsSO, ForallSO), lambda f: ((), (f.set_var,), (f.body,))),
    **dict.fromkeys((TrueAtom, FalseAtom, ConstLessLast, ConstGreaterLast),
                    lambda f: ((), (), ())),
}


def _parts(f: Formula) -> tuple[tuple[str, ...], tuple[str, ...], tuple[Formula, ...]]:
    """(position names, set names, subformulas) of one node."""
    try:
        parts = _PARTS[type(f)]
    except KeyError:
        raise TypeError(f"unknown formula node {f!r}") from None
    return parts(f)


def free_vars_in_order(phi: Formula) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Free position and free set variables of ``phi``, each in order of
    first occurrence from the left; quantifiers bind, inner bindings shadow."""
    fo: dict[str, None] = {}
    so: dict[str, None] = {}

    def walk(f: Formula, bound1: frozenset[str], bound2: frozenset[str]):
        names1, names2, subs = _parts(f)
        if subs:
            if names1:
                bound1 = bound1.union(names1)
            if names2:
                bound2 = bound2.union(names2)
            for g in subs:
                walk(g, bound1, bound2)
            return
        for x in names1:
            if x not in bound1:
                fo[x] = None
        for X in names2:
            if X not in bound2:
                so[X] = None

    walk(phi, frozenset(), frozenset())
    return tuple(fo), tuple(so)


def free_vars(phi: Formula) -> FreeVars:
    """Free variables of ``phi``; quantifiers bind, inner bindings shadow."""
    fo, so = free_vars_in_order(phi)
    return FreeVars(frozenset(fo), frozenset(so))


def is_sentence(phi: Formula) -> bool:
    """True iff ``phi`` has no free variables."""
    return not free_vars(phi)


def is_core(phi: Formula) -> bool:
    """True iff only the seven core kinds occur in ``phi``."""
    return type(phi) in CORE_KINDS and all(map(is_core, _parts(phi)[2]))


def check_well_formed(phi: Formula, alphabet: Alphabet) -> set[str]:
    """Raise UnknownLetter / VariableKindMismatch on ill-formed input;
    otherwise return every variable name in ``phi``, bound or free."""
    fo_names: set[str] = set()
    so_names: set[str] = set()

    def walk(f: Formula):
        if type(f) is Letter and f.letter not in alphabet:
            raise UnknownLetter(f"letter {f.letter!r} not in alphabet {alphabet.symbols}")
        names1, names2, subs = _parts(f)
        fo_names.update(names1)
        so_names.update(names2)
        for g in subs:
            walk(g)

    walk(phi)
    clash = fo_names & so_names
    if clash:
        raise VariableKindMismatch(
            f"names used both as position and set variables: {sorted(clash)}")
    return fo_names | so_names


class _Fresh:
    """Generates variable names with a reserved prefix, never colliding with
    the names already in use (the parser cannot produce the reserved prefix)."""

    def __init__(self, taken: Iterable[str]):
        top = -1
        for name in taken:
            m = _FRESH_RE.match(name)
            if m:
                top = max(top, int(m.group(1)))
        self._next = top + 1

    def __call__(self) -> str:
        name = f"{FRESH_PREFIX}{self._next}"
        self._next += 1
        return name


def expand(phi: Formula, alphabet: Alphabet, *, keep_succ: bool = False) -> Formula:
    """Expand every abbreviation, leaving only the seven core kinds.

    Expansion follows the definitional equalities exactly (so double
    negations introduced by them are kept).  With ``keep_succ`` the
    successor atom stays primitive; the automaton compiler relies on this.
    """
    fresh = _Fresh(check_well_formed(phi, alphabet))
    first_letter = alphabet.symbols[0]

    def rec(f: Formula) -> Formula:
        match f:
            # core: rebuild
            case Letter() | Less() | SetMember():
                return f
            case Not(b):
                return Not(rec(b))
            case Or(a, b):
                return Or(rec(a), rec(b))
            case ExistsFO(x, b):
                return ExistsFO(x, rec(b))
            case ExistsSO(X, b):
                return ExistsSO(X, rec(b))
            # propositional connectives and quantifiers
            case And(a, b):
                return Not(Or(Not(rec(a)), Not(rec(b))))
            case Implies(a, b):
                return Or(Not(rec(a)), rec(b))
            case Iff(a, b):
                return rec(And(Implies(a, b), Implies(b, a)))
            case ForallFO(x, b):
                return Not(ExistsFO(x, Not(rec(b))))
            case ForallSO(X, b):
                return Not(ExistsSO(X, Not(rec(b))))
            # order relations
            case Geq(x, y):
                return Not(Less(x, y))
            case Leq(x, y):
                return rec(Geq(y, x))
            case Eq(x, y):
                return rec(And(Leq(x, y), Leq(y, x)))
            case Neq(x, y):
                return Not(rec(Eq(x, y)))
            case Gt(x, y):
                return Less(y, x)
            # constants, successor, offsets
            case EqConst(x, 0):
                y = fresh()
                return rec(ForallFO(y, Not(Less(y, x))))
            case EqConst(x, k) if k > 0:
                z = fresh()
                return rec(ExistsFO(z, And(EqConst(z, 0), PlusOffset(x, z, k))))
            case EqConst(x, _):
                return Less(x, x)  # x = negative constant: unsatisfiable
            case Succ(x, y):
                if keep_succ:
                    return f
                z = fresh()
                return rec(And(Less(x, y), Not(ExistsFO(z, And(Less(x, z), Less(z, y))))))
            case PlusOffset(y, x, k):
                if keep_succ:
                    # leaner equivalent chain: k - 1 stepping stones instead
                    # of k + 1 aliases; keeps the automaton track count down
                    if k == 0:
                        return rec(Eq(y, x))
                    hops = [x] + [fresh() for _ in range(k - 1)] + [y]
                    parts = [Succ(hops[i], hops[i + 1]) for i in range(k)]
                    body: Formula = parts[-1]
                    for p in reversed(parts[:-1]):
                        body = And(p, body)
                    for z in hops[1:-1]:
                        body = ExistsFO(z, body)
                    return rec(body)
                zs = [fresh() for _ in range(k + 1)]
                parts = [Eq(zs[0], x)]
                parts += [Succ(zs[i], zs[i + 1]) for i in range(k)]
                parts.append(Eq(y, zs[k]))
                body = parts[-1]
                for p in reversed(parts[:-1]):
                    body = And(p, body)
                for z in reversed(zs):
                    body = ExistsFO(z, body)
                return rec(body)
            case MinusOffset(y, x, k):
                return rec(PlusOffset(x, y, k))
            case First(x):
                y = fresh()
                return Not(ExistsFO(y, Less(y, x)))
            case Last(x):
                y = fresh()
                return Not(ExistsFO(y, rec(Gt(y, x))))
            # comparisons against variable-plus-constant and plain constants
            case LessOffset(x, y, k) if k > 0:
                # y + k may lie past the last position, where x < y + k holds
                w = fresh()
                return rec(Not(ExistsFO(w, And(PlusOffset(w, y, k), Leq(w, x)))))
            case LessOffset(x, y, k):
                z = fresh()
                return rec(ExistsFO(z, And(PlusOffset(z, y, k), Less(x, z))))
            case GreaterOffset(x, y, k):
                z = fresh()
                return rec(ExistsFO(z, And(PlusOffset(z, y, k), Less(z, x))))
            case LessConst(x, k):
                if k <= 0:
                    return Less(x, x)
                z = fresh()
                return rec(ExistsFO(z, And(EqConst(z, 0), LessOffset(x, z, k))))
            case GreaterConst(x, k):
                if k < 0:
                    return Not(Less(x, x))
                z = fresh()
                return rec(ExistsFO(z, And(EqConst(z, 0), GreaterOffset(x, z, k))))
            case ConstLessLast(k):
                x = fresh()
                return rec(ForallFO(x, Implies(Last(x), GreaterConst(x, k))))
            case ConstGreaterLast(k):
                x = fresh()
                return rec(ForallFO(x, Implies(Last(x), LessConst(x, k))))
            # set relations
            case Subset(X, Y):
                x = fresh()
                return rec(ForallFO(x, Implies(SetMember(X, x), SetMember(Y, x))))
            case SetEq(X, Y):
                return rec(And(Subset(X, Y), Subset(Y, X)))
            case SetNeq(X, Y):
                return Not(rec(SetEq(X, Y)))
            # constants
            case FalseAtom():
                v = fresh()
                return rec(ExistsFO(v, And(Letter(first_letter, v), Not(Letter(first_letter, v)))))
            case TrueAtom():
                return Not(rec(FalseAtom()))
            case _:
                raise TypeError(f"unknown formula node {f!r}")

    return rec(phi)

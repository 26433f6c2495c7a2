"""Quantifier elimination for first-order formulas over a one-letter
alphabet, negation removal, and the finite/co-finite classifier.

The quantifier-free target language has positive and/or combinations of
strict order atoms between position variables, constants, and the final
position ``last``.  Elimination is by structural induction: negation is
pushed to atoms (strict atoms flip with an offset shift), disjunction
recurses, and an existential over a disjunct in normal form pairs every
lower bound on the quantified variable with every upper bound, adding the
defaults -1 below and last+1 above when a side is missing.  Apart from
folding variable-free comparisons and dropping duplicate atoms, no
simplification is applied, so derived tautologies such as ``y < y + 3``
survive verbatim.

Atoms are kept internally as ``lhs < rhs`` over terms ``base + offset``
with integer offsets; rendering restores natural-number surface forms
where possible.  ``last`` on a word of n letters means position n - 1;
on the empty word every sentence atom holds vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from . import syntax as S
from .errors import NonUnaryAlphabet, OpenFormula, SecondOrderPresent, UnboundVariable
from .semantics import EpsilonMode
from .syntax import Alphabet, Formula, check_well_formed

CONST = "const"
VAR = "var"
LAST = "last"


class Term(NamedTuple):
    """base + offset, where base is a constant zero, a variable, or last."""

    base: str
    name: str | None
    offset: int

    def shift(self, k: int) -> "Term":
        return Term(self.base, self.name, self.offset + k)


def const(k: int) -> Term:
    return Term(CONST, None, k)


def var(name: str, k: int = 0) -> Term:
    return Term(VAR, name, k)


def last(k: int = 0) -> Term:
    return Term(LAST, None, k)


class Lt(NamedTuple):
    """Strict comparison lhs < rhs between two terms."""

    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class QfAnd:
    parts: tuple  # atoms or QfOr

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class QfOr:
    parts: tuple  # atoms or QfAnd

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


QfFormula = Union[Lt, QfAnd, QfOr]

QF_TRUE = QfAnd(())
QF_FALSE = QfOr(())


def k_lt_last(k: int) -> Lt:
    return Lt(const(k), last())


def k_gt_last(k: int) -> Lt:
    return Lt(last(), const(k))


def mk_lt(lhs: Term, rhs: Term):
    """Normalized atom lhs < rhs; comparisons without a variable or last on
    either side fold to True/False (they have no surface form).  Atoms
    between two occurrences of the same variable are kept verbatim."""
    if lhs.base == CONST and rhs.base == CONST:
        return QF_TRUE if lhs.offset < rhs.offset else QF_FALSE
    if lhs.base == LAST and rhs.base == LAST:
        return QF_TRUE if lhs.offset < rhs.offset else QF_FALSE
    # shift so the distinguished side carries offset zero
    if lhs.base == VAR:
        return Lt(var(lhs.name), rhs.shift(-lhs.offset))
    if rhs.base == VAR:
        return Lt(lhs.shift(-rhs.offset), var(rhs.name))
    if rhs.base == LAST:  # const vs last
        return Lt(const(lhs.offset - rhs.offset), last())
    return Lt(last(), const(rhs.offset - lhs.offset))


def _domain_tautology(a: Lt) -> bool:
    """True when the atom holds for every valid assignment on every
    nonempty word, i.e. it is implied by 0 <= variable <= last."""
    lhs, rhs = a
    if lhs.base == VAR and rhs.base == VAR:
        return lhs.name == rhs.name and rhs.offset >= 1
    if lhs.base == CONST and rhs.base == VAR:
        return lhs.offset <= -1
    if lhs.base == VAR and rhs.base == LAST:
        return rhs.offset >= 1
    if lhs.base == CONST and rhs.base == LAST:
        return lhs.offset <= -1
    return False


def negate_atom(a: Lt) -> QfFormula:
    """not (lhs < rhs) is rhs <= lhs, i.e. rhs < lhs + 1."""
    return mk_lt(a.rhs, a.lhs.shift(1))


def negate_qf(f: QfFormula) -> QfFormula:
    """Syntactic negation of a quantifier-free formula (internal form)."""
    match f:
        case Lt():
            return negate_atom(f)
        case QfAnd(parts):
            return QfOr(tuple(negate_qf(p) for p in parts))
        case QfOr(parts):
            return QfAnd(tuple(negate_qf(p) for p in parts))
        case _:
            raise TypeError(f"not a quantifier-free formula: {f!r}")


def _dnf(f: QfFormula) -> list[tuple[Lt, ...]]:
    """Disjunctive normal form as atom tuples; duplicates inside a
    disjunct dropped, first occurrence kept."""
    match f:
        case Lt():
            return [(f,)]
        case QfOr(parts):
            out: list[tuple[Lt, ...]] = []
            for p in parts:
                out.extend(_dnf(p))
            return out
        case QfAnd(parts):
            disjuncts: list[tuple[Lt, ...]] = [()]
            for p in parts:
                disjuncts = [d + e for d in disjuncts for e in _dnf(p)]
            return [_dedupe(d) for d in disjuncts]
        case _:
            raise TypeError(f"not a quantifier-free formula: {f!r}")


def _dedupe(atoms: Sequence[Lt]) -> tuple[Lt, ...]:
    seen = set()
    out = []
    for a in atoms:
        if a not in seen:
            seen.add(a)
            out.append(a)
    return tuple(out)


def _mentions(term: Term, x: str) -> bool:
    return term.base == VAR and term.name == x


def eliminate_existential(x: str, f: QfFormula) -> QfFormula:
    """Quantifier-free equivalent of (exists x)(f) over nonempty words.

    Every lower bound on x is paired with every upper bound; the implicit
    position-domain bounds -1 < x and x < last + 1 always take part (the
    quantified position must exist inside the word), but a pair involving
    one of them is kept only when it actually constrains something.
    """
    results = []
    for disjunct in _dnf(f):
        kept: list[Lt] = []
        lowers: list[Term] = []
        uppers: list[Term] = []
        feasible = True
        saw_x = False
        for atom in disjunct:
            on_left = _mentions(atom.lhs, x)
            on_right = _mentions(atom.rhs, x)
            if on_left and on_right:
                saw_x = True
                if atom.lhs.offset >= atom.rhs.offset:  # x + a < x + b with a >= b
                    feasible = False
                    break
            elif on_left:  # x + a < t  =>  x < t - a
                saw_x = True
                uppers.append(atom.rhs.shift(-atom.lhs.offset))
            elif on_right:  # t < x + b  =>  t - b < x
                saw_x = True
                lowers.append(atom.lhs.shift(-atom.rhs.offset))
            else:
                kept.append(atom)
        if not feasible:
            continue
        conjuncts: list[Lt] = []
        dead = False
        if saw_x:
            # A lower bound t guarantees a witness >= 0 when t >= -1 under
            # every valid assignment; an upper bound guarantees a witness
            # <= last when it stays within one step of a position or last.
            # Without such a bound the domain bound joins the pairing.
            n_lowers, n_uppers = len(lowers), len(uppers)
            if not any(t.offset >= -1 for t in lowers):
                lowers = lowers + [const(-1)]
            if not any(t.base != CONST and t.offset <= 1 for t in uppers):
                uppers = uppers + [last(1)]
            for li, t1 in enumerate(lowers):
                for ui, t2 in enumerate(uppers):
                    from_default = li >= n_lowers or ui >= n_uppers
                    pair = mk_lt(t1.shift(1), t2)
                    if pair is QF_TRUE:
                        continue
                    if pair is QF_FALSE:
                        dead = True
                        break
                    if from_default and _domain_tautology(pair):
                        continue
                    conjuncts.append(pair)
                if dead:
                    break
        if dead:
            continue
        results.append(QfAnd(_dedupe(conjuncts + kept)))
    return _unwrap(QfOr(tuple(results)))


def _unwrap(f: QfFormula) -> QfFormula:
    match f:
        case QfOr((single,)) | QfAnd((single,)):
            return single
        case _:
            return f


def _check_first_order_unary(phi: Formula, alphabet: Alphabet) -> None:
    if len(alphabet) != 1:
        raise NonUnaryAlphabet(f"need a one-letter alphabet, got {alphabet.symbols}")
    check_well_formed(phi, alphabet)

    def walk(f: Formula):
        _, sets, subs = S._parts(f)
        if sets:
            raise SecondOrderPresent(f"second-order construct {f!r}")
        for g in subs:
            walk(g)

    walk(phi)


def to_qfmfo(phi: Formula, alphabet: Alphabet) -> QfFormula:
    """Quantifier-free equivalent of a first-order formula over one letter.

    The equivalence holds on every nonempty word; the empty word is not
    expressible in the positive quantifier-free fragment.
    """
    _check_first_order_unary(phi, alphabet)

    def pos(f: Formula) -> QfFormula:
        return rec(f, True)

    def neg(f: Formula) -> QfFormula:
        return rec(f, False)

    def atom(a: QfFormula, positive: bool) -> QfFormula:
        return a if positive else negate_qf(a)

    def rec(f: Formula, positive: bool) -> QfFormula:
        match f:
            case S.Letter():
                return QF_TRUE if positive else QF_FALSE  # one letter: redundant
            case S.TrueAtom():
                return QF_TRUE if positive else QF_FALSE
            case S.FalseAtom():
                return QF_FALSE if positive else QF_TRUE
            case S.Less(x, y):
                return atom(mk_lt(var(x), var(y)), positive)
            case S.Gt(x, y):
                return atom(mk_lt(var(y), var(x)), positive)
            case S.Leq(x, y):
                return atom(mk_lt(var(x), var(y, 1)), positive)
            case S.Geq(x, y):
                return atom(mk_lt(var(y), var(x, 1)), positive)
            case S.Eq(x, y):
                pair = QfAnd((mk_lt(var(x), var(y, 1)), mk_lt(var(y), var(x, 1))))
                return pair if positive else negate_qf(pair)
            case S.Neq(x, y):
                pair = QfOr((mk_lt(var(x), var(y)), mk_lt(var(y), var(x))))
                return pair if positive else negate_qf(pair)
            case S.LessOffset(x, y, k):
                return atom(mk_lt(var(x), var(y, k)), positive)
            case S.GreaterOffset(x, y, k):
                return atom(mk_lt(var(y, k), var(x)), positive)
            case S.LessConst(x, k):
                return atom(mk_lt(var(x), const(k)), positive)
            case S.GreaterConst(x, k):
                return atom(mk_lt(const(k), var(x)), positive)
            case S.EqConst(x, k):
                pair = QfAnd((mk_lt(const(k - 1), var(x)), mk_lt(var(x), const(k + 1))))
                return pair if positive else negate_qf(pair)
            case S.First(x):
                return atom(mk_lt(var(x), const(1)), positive)
            case S.Last(x):
                return atom(mk_lt(last(-1), var(x)), positive)
            case S.ConstLessLast(k):
                return atom(mk_lt(const(k), last()), positive)
            case S.ConstGreaterLast(k):
                return atom(mk_lt(last(), const(k)), positive)
            case S.Succ(x, y):
                pair = QfAnd((mk_lt(var(x), var(y)), mk_lt(var(y), var(x, 2))))
                return pair if positive else negate_qf(pair)
            case S.PlusOffset(y, x, k):
                pair = QfAnd((mk_lt(var(x, k - 1), var(y)), mk_lt(var(y), var(x, k + 1))))
                return pair if positive else negate_qf(pair)
            case S.MinusOffset(y, x, k):
                pair = QfAnd((mk_lt(var(y, k - 1), var(x)), mk_lt(var(x), var(y, k + 1))))
                return pair if positive else negate_qf(pair)
            case S.Not(b):
                return rec(b, not positive)
            case S.Or(a, b):
                if positive:
                    return _unwrap(QfOr((pos(a), pos(b))))
                return _unwrap(QfAnd((neg(a), neg(b))))
            case S.And(a, b):
                if positive:
                    return _unwrap(QfAnd((pos(a), pos(b))))
                return _unwrap(QfOr((neg(a), neg(b))))
            case S.Implies(a, b):
                if positive:
                    return _unwrap(QfOr((neg(a), pos(b))))
                return _unwrap(QfAnd((pos(a), neg(b))))
            case S.Iff(a, b):
                return rec(S.And(S.Implies(a, b), S.Implies(b, a)), positive)
            case S.ExistsFO(x, b):
                inner = eliminate_existential(x, pos(b))
                return inner if positive else negate_qf(inner)
            case S.ForallFO(x, b):
                inner = eliminate_existential(x, neg(b))
                return negate_qf(inner) if positive else inner
            case _:
                raise TypeError(f"unexpected node {f!r}")

    return rec(phi, True)


# -- direct interpretation --------------------------------------------------

def _term_value(t: Term, n: int, nu: Mapping[str, int]) -> int:
    if t.base == CONST:
        return t.offset
    if t.base == LAST:
        return n - 1 + t.offset
    try:
        return nu[t.name] + t.offset
    except KeyError:
        raise UnboundVariable(f"variable {t.name!r} is unbound") from None


def qf_evaluate(f: QfFormula, n: int, nu: Mapping[str, int] | None = None) -> bool:
    """Evaluate on the word of n letters; last means position n - 1.

    On the empty word every atom holds vacuously (their defining
    universals range over no position).
    """
    nu = nu or {}
    match f:
        case Lt(lhs, rhs):
            if n == 0:
                if lhs.base == VAR or rhs.base == VAR:
                    raise UnboundVariable("no positions exist on the empty word")
                return True
            return _term_value(lhs, n, nu) < _term_value(rhs, n, nu)
        case QfAnd(parts):
            return all(qf_evaluate(p, n, nu) for p in parts)
        case QfOr(parts):
            return any(qf_evaluate(p, n, nu) for p in parts)
        case _:
            raise TypeError(f"not a quantifier-free formula: {f!r}")


def qf_free_vars(f: QfFormula) -> frozenset[str]:
    match f:
        case Lt(lhs, rhs):
            return frozenset(t.name for t in (lhs, rhs) if t.base == VAR)
        case QfAnd(parts) | QfOr(parts):
            out: frozenset[str] = frozenset()
            for p in parts:
                out |= qf_free_vars(p)
            return out
        case _:
            raise TypeError(f"not a quantifier-free formula: {f!r}")


# -- negation of sentences (the published clause shapes) --------------------

def neg_qf(f: QfFormula) -> QfFormula:
    """Complement of a quantifier-free sentence, clause for clause:
    the negation of a strict bound on last is the opposite strict bound
    joined with the boundary case."""
    if qf_free_vars(f):
        raise OpenFormula(f"sentence required, free variables {sorted(qf_free_vars(f))}")
    match f:
        case Lt(Term(base="const", offset=k), Term(base="last", offset=0)):
            return QfOr((k_gt_last(k), QfAnd((k_lt_last(k - 1), k_gt_last(k + 1)))))
        case Lt(Term(base="last", offset=0), Term(base="const", offset=k)):
            return QfOr((k_lt_last(k), QfAnd((k_lt_last(k - 1), k_gt_last(k + 1)))))
        case QfAnd(parts):
            return QfOr(tuple(neg_qf(p) for p in parts))
        case QfOr(parts):
            return QfAnd(tuple(neg_qf(p) for p in parts))
        case Lt():
            raise OpenFormula(f"sentence atoms must compare a constant with last: {f!r}")
        case _:
            raise TypeError(f"not a quantifier-free formula: {f!r}")


# -- finite / co-finite classification ---------------------------------------

@dataclass(frozen=True)
class UnaryLanguageClass:
    """Explicit description of a one-letter language: the word lengths of a
    finite language, or of a co-finite language's complement."""

    tag: str  # "finite" | "cofinite"
    lengths: frozenset[int]

    def __post_init__(self):
        if self.tag not in ("finite", "cofinite"):
            raise ValueError(f"bad tag {self.tag!r}")
        object.__setattr__(self, "lengths", frozenset(self.lengths))

    def contains(self, n: int) -> bool:
        inside = n in self.lengths
        return inside if self.tag == "finite" else not inside

    def eventually_constant_from(self) -> int:
        """A bound beyond which membership no longer changes."""
        return max(self.lengths, default=-1) + 1


def _union(a: UnaryLanguageClass, b: UnaryLanguageClass) -> UnaryLanguageClass:
    if a.tag == "finite" and b.tag == "finite":
        return UnaryLanguageClass("finite", a.lengths | b.lengths)
    if a.tag == "cofinite" and b.tag == "cofinite":
        return UnaryLanguageClass("cofinite", a.lengths & b.lengths)
    fin, cof = (a, b) if a.tag == "finite" else (b, a)
    return UnaryLanguageClass("cofinite", cof.lengths - fin.lengths)


def _intersection(a: UnaryLanguageClass, b: UnaryLanguageClass) -> UnaryLanguageClass:
    if a.tag == "finite" and b.tag == "finite":
        return UnaryLanguageClass("finite", a.lengths & b.lengths)
    if a.tag == "cofinite" and b.tag == "cofinite":
        return UnaryLanguageClass("cofinite", a.lengths | b.lengths)
    fin, cof = (a, b) if a.tag == "finite" else (b, a)
    return UnaryLanguageClass("finite", fin.lengths - cof.lengths)


def classify(f: QfFormula,
             mode: EpsilonMode = EpsilonMode.EXCLUDE) -> UnaryLanguageClass:
    """Explicit finite/co-finite description of a sentence's language.

    Lengths range over the mode's universe: n >= 1, or n >= 0 where the
    empty word (on which every atom holds vacuously) is admitted.
    """
    if qf_free_vars(f):
        raise OpenFormula(f"sentence required, free variables {sorted(qf_free_vars(f))}")
    include = mode is EpsilonMode.INCLUDE
    universe_min = 0 if include else 1

    def rec(g: QfFormula) -> UnaryLanguageClass:
        match g:
            case Lt(Term(base="const", offset=k), Term(base="last", offset=0)):
                # words with n - 1 > k, plus the empty word vacuously
                missing = frozenset(range(1, max(k + 1, 0) + 1))
                return UnaryLanguageClass("cofinite", missing)
            case Lt(Term(base="last", offset=0), Term(base="const", offset=k)):
                present = set(range(universe_min, max(k, 0) + 1)) if k >= 1 else set()
                if include:
                    present.add(0)
                return UnaryLanguageClass("finite", frozenset(present))
            case Lt():
                raise OpenFormula(f"sentence atoms must compare a constant with last: {g!r}")
            case QfAnd(parts):
                out = UnaryLanguageClass("cofinite", frozenset())  # neutral: everything
                for p in parts:
                    out = _intersection(out, rec(p))
                return out
            case QfOr(parts):
                out = UnaryLanguageClass("finite", frozenset())  # neutral: nothing
                for p in parts:
                    out = _union(out, rec(p))
                return out
            case _:
                raise TypeError(f"not a quantifier-free formula: {g!r}")

    return rec(f)


def finite_sentence(lengths: Iterable[int],
                    mode: EpsilonMode = EpsilonMode.EXCLUDE) -> QfFormula:
    """A sentence whose language is exactly the given set of word lengths.

    Each admissible length k >= 1 contributes the clause
    (k-2 < last & last < k); in the epsilon-admitting universe every
    nonempty clause also captures the empty word, so a set containing a
    positive length is expressible there only if it contains 0 as well.
    """
    wanted = sorted(set(lengths))
    if any(k < 0 for k in wanted):
        raise ValueError("word lengths are non-negative")
    if not wanted:
        return QF_FALSE
    if mode is EpsilonMode.EXCLUDE:
        if 0 in wanted:
            raise ValueError("the empty word is outside the chosen universe")
        clauses = [QfAnd((k_lt_last(k - 2), k_gt_last(k))) for k in wanted]
        return _unwrap(QfOr(tuple(clauses)))
    if wanted == [0]:
        return k_gt_last(0)
    if 0 not in wanted:
        raise ValueError("every nonempty clause admits the empty word; "
                         "include 0 or use the epsilon-free universe")
    clauses = [QfAnd((k_lt_last(k - 2), k_gt_last(k))) for k in wanted if k > 0]
    return _unwrap(QfOr(tuple(clauses)))


# -- rendering ---------------------------------------------------------------

def _render_offset(k: int) -> str:
    if k == 0:
        return ""
    return f" + {k}" if k > 0 else f" - {-k}"


def render_atom(a: Lt) -> str:
    lhs, rhs = a.lhs, a.rhs
    if lhs.base == VAR and rhs.base == VAR:
        if rhs.offset >= 0:
            return f"{lhs.name} < {rhs.name}{_render_offset(rhs.offset)}"
        return f"{rhs.name} > {lhs.name}{_render_offset(-rhs.offset)}"
    if lhs.base == VAR and rhs.base == CONST:
        return f"{lhs.name} < {rhs.offset}"
    if lhs.base == CONST and rhs.base == VAR:
        return f"{rhs.name} > {lhs.offset}"
    if lhs.base == VAR and rhs.base == LAST:
        return f"{lhs.name} < last{_render_offset(rhs.offset)}"
    if lhs.base == LAST and rhs.base == VAR:
        return f"{rhs.name} > last{_render_offset(lhs.offset)}"
    if lhs.base == CONST and rhs.base == LAST:
        return f"last > {lhs.offset - rhs.offset}"
    if lhs.base == LAST and rhs.base == CONST:
        return f"last < {rhs.offset - lhs.offset}"
    raise TypeError(f"cannot render atom {a!r}")


def render_qf(f: QfFormula) -> str:
    """Canonical text: & chains inside | chains, tightest bindings bare."""
    match f:
        case Lt():
            return render_atom(f)
        case QfAnd(()):
            return "true"
        case QfOr(()):
            return "false"
        case QfAnd(parts):
            pieces = [f"({render_qf(p)})" if isinstance(p, QfOr) and p.parts else render_qf(p)
                      for p in parts]
            return " & ".join(pieces)
        case QfOr(parts):
            return " | ".join(
                f"({render_qf(p)})" if isinstance(p, (QfAnd, QfOr)) and len(p.parts) > 1
                else render_qf(p)
                for p in parts)
        case _:
            raise TypeError(f"not a quantifier-free formula: {f!r}")


def render_class(c: UnaryLanguageClass) -> str:
    body = "{" + ", ".join(str(n) for n in sorted(c.lengths)) + "}"
    if c.tag == "finite":
        return f"FINITE {body}"
    return f"COFINITE complement {body}"


def qf_to_formula(f: QfFormula) -> Formula:
    """Rebuild a surface formula from a quantifier-free one (for
    cross-checking against the direct interpreter)."""
    fresh = S._Fresh(qf_free_vars(f))

    def rec(g: QfFormula) -> Formula:
        match g:
            case Lt(lhs, rhs):
                return _atom_to_formula(lhs, rhs, fresh)
            case QfAnd(()):
                return S.TrueAtom()
            case QfOr(()):
                return S.FalseAtom()
            case QfAnd(parts):
                out = rec(parts[0])
                for p in parts[1:]:
                    out = S.And(out, rec(p))
                return out
            case QfOr(parts):
                out = rec(parts[0])
                for p in parts[1:]:
                    out = S.Or(out, rec(p))
                return out
            case _:
                raise TypeError(f"not a quantifier-free formula: {g!r}")

    return rec(f)


def _atom_to_formula(lhs: Term, rhs: Term, fresh) -> Formula:
    if lhs.base == VAR and rhs.base == VAR:
        if rhs.offset >= 0:
            return S.LessOffset(lhs.name, rhs.name, rhs.offset) if rhs.offset else S.Less(lhs.name, rhs.name)
        return S.GreaterOffset(rhs.name, lhs.name, -rhs.offset)
    if lhs.base == VAR and rhs.base == CONST:
        return S.LessConst(lhs.name, rhs.offset)
    if lhs.base == CONST and rhs.base == VAR:
        return S.GreaterConst(rhs.name, lhs.offset)
    if lhs.base == CONST and rhs.base == LAST:
        return S.ConstLessLast(lhs.offset - rhs.offset)
    if lhs.base == LAST and rhs.base == CONST:
        return S.ConstGreaterLast(rhs.offset - lhs.offset)
    if lhs.base == VAR and rhs.base == LAST:
        # y < last + c: a tautology when c >= 1; "not the last position"
        # when c = 0; otherwise the shifted position exists and is not last
        if rhs.offset >= 1:
            return S.TrueAtom()
        if rhs.offset == 0:
            return S.Not(S.Last(lhs.name))
        z = fresh()
        return S.ExistsFO(z, S.And(S.PlusOffset(z, lhs.name, -rhs.offset),
                                   S.Not(S.Last(z))))
    if lhs.base == LAST and rhs.base == VAR:
        # y > last + c: impossible for c >= 0; otherwise the shifted
        # position falls off the end of the word
        if lhs.offset >= 0:
            return S.FalseAtom()
        z = fresh()
        return S.Not(S.ExistsFO(z, S.PlusOffset(z, rhs.name, -lhs.offset)))
    raise TypeError(f"no surface form for {Lt(lhs, rhs)!r}")

"""Concrete syntax: formula text, automaton JSON exchange format, DOT export.

Formula grammar (quantifier scope extends maximally to the right;
precedence ! > & > | > -> > <->):

    phi  := "ex1" v "." phi | "all1" v "." phi | "ex2" V "." phi
          | "all2" V "." phi | phi "<->" phi | phi "->" phi
          | phi "|" phi | phi "&" phi | "!" phi | "(" phi ")" | atom
    atom := letter "(" v ")" | V "(" v ")" | v "in" V | V "sub" V
          | V "=" V | V "!=" V | v cmp v | v cmp v "+" int | v "=" v "-" nat
          | v cmp int | "succ(" v "," v ")" | "first(" v ")" | "last(" v ")"
          | int "<" "last" | int ">" "last" | "last" "<" int | "last" ">" int
          | "true" | "false"
    cmp  := "<" | "<=" | ">" | ">=" | "=" | "!="  (offsets allow <, >, = only)

Position variables are lowercase identifiers, set variables uppercase;
letters are the declared alphabet symbols.  Identifiers may not start
with an underscore (reserved for generated names).
"""

from __future__ import annotations

import json
import re

from . import syntax as S
from .automata import Nfa, _encode
from .errors import DanglingState, FormatError, FormulaSyntaxError, UnknownLetter
from .syntax import Alphabet, Formula

KEYWORDS = {"ex1", "all1", "ex2", "all2", "in", "sub", "succ", "first", "last",
            "true", "false"}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<nat>\d+)
  | (?P<op><->|->|<=|>=|!=|[()<>=.,+\-|&!])
""", re.VERBOSE)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}:{self.text!r}@{self.line}:{self.col}"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup == "name":
            if lexeme in KEYWORDS:
                tokens.append(_Token(lexeme, lexeme, line, col))
            elif lexeme[0].isupper():
                tokens.append(_Token("uname", lexeme, line, col))
            else:
                tokens.append(_Token("lname", lexeme, line, col))
        elif m.lastgroup == "nat":
            tokens.append(_Token("nat", lexeme, line, col))
        elif m.lastgroup == "op":
            tokens.append(_Token(lexeme, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], alphabet: Alphabet):
        self.tokens = tokens
        self.i = 0
        self.alphabet = alphabet

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise FormulaSyntaxError(f"expected {kind!r}, found {tok.text!r}",
                                     tok.line, tok.col)
        return tok

    def fail(self, message: str) -> FormulaSyntaxError:
        tok = self.peek()
        return FormulaSyntaxError(message, tok.line, tok.col)

    # precedence: <-> (1) < -> (2) < | (3) < & (4) < ! (5)

    def formula(self) -> Formula:
        return self.iff()

    def iff(self) -> Formula:
        left = self.imp()
        if self.peek().kind == "<->":
            self.next()
            return S.Iff(left, self.iff())
        return left

    def imp(self) -> Formula:
        left = self.disj()
        if self.peek().kind == "->":
            self.next()
            return S.Implies(left, self.imp())
        return left

    def disj(self) -> Formula:
        left = self.conj()
        while self.peek().kind == "|":
            self.next()
            left = S.Or(left, self.conj())
        return left

    def conj(self) -> Formula:
        left = self.unary()
        while self.peek().kind == "&":
            self.next()
            left = S.And(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "!":
            self.next()
            return S.Not(self.unary())
        if tok.kind in ("ex1", "all1", "ex2", "all2"):
            self.next()
            var_kind = "lname" if tok.kind in ("ex1", "all1") else "uname"
            var = self.expect(var_kind).text
            self.expect(".")
            body = self.formula()
            return {"ex1": S.ExistsFO, "all1": S.ForallFO,
                    "ex2": S.ExistsSO, "all2": S.ForallSO}[tok.kind](var, body)
        return self.atom()

    def _int(self) -> int:
        if self.peek().kind == "-":
            self.next()
            return -int(self.expect("nat").text)
        return int(self.expect("nat").text)

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            inner = self.formula()
            self.expect(")")
            return inner
        if tok.kind == "true":
            self.next()
            return S.TrueAtom()
        if tok.kind == "false":
            self.next()
            return S.FalseAtom()
        if tok.kind == "succ":
            self.next()
            self.expect("(")
            x = self.expect("lname").text
            self.expect(",")
            y = self.expect("lname").text
            self.expect(")")
            return S.Succ(x, y)
        if tok.kind == "first":
            self.next()
            self.expect("(")
            x = self.expect("lname").text
            self.expect(")")
            return S.First(x)
        if tok.kind == "last":
            self.next()
            if self.peek().kind == "(":
                self.next()
                x = self.expect("lname").text
                self.expect(")")
                return S.Last(x)
            op = self.next()
            if op.kind not in ("<", ">"):
                raise FormulaSyntaxError("expected '(' or comparison after 'last'",
                                         op.line, op.col)
            k = self._int()
            # last < k  means  k > last; last > k  means  k < last
            return S.ConstGreaterLast(k) if op.kind == "<" else S.ConstLessLast(k)
        if tok.kind in ("nat", "-"):
            k = self._int()
            op = self.next()
            if op.kind not in ("<", ">"):
                raise FormulaSyntaxError("expected comparison after constant",
                                         op.line, op.col)
            if self.peek().kind == "lname":
                x = self.next().text
                return S.GreaterConst(x, k) if op.kind == "<" else S.LessConst(x, k)
            self.expect("last")
            return S.ConstLessLast(k) if op.kind == "<" else S.ConstGreaterLast(k)
        if tok.kind == "uname":
            X = self.next().text
            follow = self.next()
            if follow.kind == "(":
                x = self.expect("lname").text
                self.expect(")")
                return S.SetMember(X, x)
            if follow.kind == "sub":
                return S.Subset(X, self.expect("uname").text)
            if follow.kind == "=":
                return S.SetEq(X, self.expect("uname").text)
            if follow.kind == "!=":
                return S.SetNeq(X, self.expect("uname").text)
            raise FormulaSyntaxError(f"unexpected {follow.text!r} after set variable",
                                     follow.line, follow.col)
        if tok.kind == "lname":
            name = self.next().text
            follow = self.peek()
            if follow.kind == "(":
                self.next()
                x = self.expect("lname").text
                self.expect(")")
                if name not in self.alphabet:
                    raise UnknownLetter(
                        f"letter {name!r} not in alphabet {self.alphabet.symbols}")
                return S.Letter(name, x)
            if follow.kind == "in":
                self.next()
                X = self.expect("uname").text
                return S.SetMember(X, name)
            if follow.kind == "+":
                self.next()
                k = self._int()
                op = self.next()
                if op.kind not in ("<", ">", "="):
                    raise FormulaSyntaxError(
                        f"offset comparison supports <, >, =, not {op.text!r}",
                        op.line, op.col)
                x = self.expect("lname").text
                node = {"<": S.GreaterOffset, ">": S.LessOffset,
                        "=": S.PlusOffset}[op.kind]
                return node(x, name, k)
            if follow.kind in ("<", "<=", ">", ">=", "=", "!="):
                op = self.next().kind
                return self._comparison(name, op)
            raise FormulaSyntaxError(f"unexpected {follow.text!r} after variable",
                                     follow.line, follow.col)
        raise self.fail(f"unexpected {tok.text!r}")

    def _comparison(self, x: str, op: str) -> Formula:
        tok = self.peek()
        if tok.kind == "lname":
            y = self.next().text
            if self.peek().kind == "+":
                self.next()
                k = self._int()
                node = {"<": S.LessOffset, ">": S.GreaterOffset,
                        "=": S.PlusOffset}.get(op)
                if node is None:
                    raise FormulaSyntaxError(
                        f"offset comparison supports <, >, =, not {op!r}",
                        tok.line, tok.col)
                return node(x, y, k)
            if self.peek().kind == "-":
                self.next()
                k = int(self.expect("nat").text)
                if op != "=":
                    raise FormulaSyntaxError(
                        "negative offsets only with '='", tok.line, tok.col)
                return S.MinusOffset(x, y, k)
            return {"<": S.Less, "<=": S.Leq, ">": S.Gt, ">=": S.Geq,
                    "=": S.Eq, "!=": S.Neq}[op](x, y)
        if tok.kind in ("nat", "-"):
            k = self._int()
            node = {"<": S.LessConst, ">": S.GreaterConst, "=": S.EqConst}.get(op)
            if node is None:
                raise FormulaSyntaxError(
                    f"constant comparison supports <, >, =, not {op!r}",
                    tok.line, tok.col)
            return node(x, k)
        if tok.kind == "last":
            raise FormulaSyntaxError("write 'last' comparisons constant-first",
                                     tok.line, tok.col)
        raise self.fail(f"unexpected {tok.text!r} in comparison")


def parse_formula(text: str, alphabet: Alphabet) -> Formula:
    """Parse formula text; sugared forms are kept, not expanded."""
    parser = _Parser(_tokenize(text), alphabet)
    phi = parser.formula()
    tok = parser.peek()
    if tok.kind != "eof":
        raise FormulaSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    S.check_well_formed(phi, alphabet)
    return phi


# rendering -------------------------------------------------------------

_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_NOT, _PREC_ATOM = 1, 2, 3, 4, 5, 6
_PREC_QUANT = 0


def _fmt_k(k: int) -> str:
    return str(k)


def render_formula(phi: Formula) -> str:
    """Deterministic text form; parse_formula(render_formula(phi)) == phi."""

    def prec(f: Formula) -> int:
        match f:
            case S.ExistsFO() | S.ForallFO() | S.ExistsSO() | S.ForallSO():
                return _PREC_QUANT
            case S.Iff():
                return _PREC_IFF
            case S.Implies():
                return _PREC_IMP
            case S.Or():
                return _PREC_OR
            case S.And():
                return _PREC_AND
            case S.Not():
                return _PREC_NOT
            case _:
                return _PREC_ATOM

    def wrap(f: Formula, minimum: int) -> str:
        text = rec(f)
        return f"({text})" if prec(f) < minimum else text

    def rec(f: Formula) -> str:
        match f:
            case S.ExistsFO(x, b):
                return f"ex1 {x}. {rec(b)}"
            case S.ForallFO(x, b):
                return f"all1 {x}. {rec(b)}"
            case S.ExistsSO(X, b):
                return f"ex2 {X}. {rec(b)}"
            case S.ForallSO(X, b):
                return f"all2 {X}. {rec(b)}"
            case S.Iff(a, b):
                return f"{wrap(a, _PREC_IMP)} <-> {wrap(b, _PREC_IFF)}"
            case S.Implies(a, b):
                return f"{wrap(a, _PREC_OR)} -> {wrap(b, _PREC_IMP)}"
            case S.Or(a, b):
                return f"{wrap(a, _PREC_OR)} | {wrap(b, _PREC_AND)}"
            case S.And(a, b):
                return f"{wrap(a, _PREC_AND)} & {wrap(b, _PREC_NOT)}"
            case S.Not(b):
                return f"!{wrap(b, _PREC_NOT)}"
            case S.Letter(a, x):
                return f"{a}({x})"
            case S.Less(x, y):
                return f"{x} < {y}"
            case S.SetMember(X, x):
                return f"{x} in {X}"
            case S.Leq(x, y):
                return f"{x} <= {y}"
            case S.Geq(x, y):
                return f"{x} >= {y}"
            case S.Gt(x, y):
                return f"{x} > {y}"
            case S.Eq(x, y):
                return f"{x} = {y}"
            case S.Neq(x, y):
                return f"{x} != {y}"
            case S.EqConst(x, k):
                return f"{x} = {_fmt_k(k)}"
            case S.LessConst(x, k):
                return f"{x} < {_fmt_k(k)}"
            case S.GreaterConst(x, k):
                return f"{x} > {_fmt_k(k)}"
            case S.PlusOffset(y, x, k):
                return f"{y} = {x} + {_fmt_k(k)}"
            case S.MinusOffset(y, x, k):
                return f"{y} = {x} - {_fmt_k(k)}"
            case S.LessOffset(x, y, k):
                return f"{x} < {y} + {_fmt_k(k)}"
            case S.GreaterOffset(x, y, k):
                return f"{x} > {y} + {_fmt_k(k)}"
            case S.ConstLessLast(k):
                return f"last > {_fmt_k(k)}"
            case S.ConstGreaterLast(k):
                return f"last < {_fmt_k(k)}"
            case S.Succ(x, y):
                return f"succ({x}, {y})"
            case S.First(x):
                return f"first({x})"
            case S.Last(x):
                return f"last({x})"
            case S.Subset(X, Y):
                return f"{X} sub {Y}"
            case S.SetEq(X, Y):
                return f"{X} = {Y}"
            case S.SetNeq(X, Y):
                return f"{X} != {Y}"
            case S.TrueAtom():
                return "true"
            case S.FalseAtom():
                return "false"
            case _:
                raise TypeError(f"unknown formula node {f!r}")

    return rec(phi)


# automaton exchange format ----------------------------------------------

def render_automaton(aut: Nfa) -> str:
    """Bit-exact JSON document for an automaton."""
    transitions = sorted(
        ((p, s.letter, list(s.bits), q) for (p, s, q) in aut.transitions),
        key=lambda t: (t[0], aut.alphabet.index(t[1]), t[2], t[3]))
    doc = {
        "alphabet": list(aut.alphabet.symbols),
        "tracks": aut.tracks,
        "states": aut.n_states,
        "initial": sorted(aut.initial),
        "accepting": sorted(aut.accepting),
        "transitions": [list(t) for t in transitions],
    }
    return json.dumps(doc, indent=2)


def parse_automaton(text: str) -> Nfa:
    """Parse the JSON exchange format back into an automaton."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError("document must be a JSON object")
    for key in ("alphabet", "tracks", "states", "initial", "accepting", "transitions"):
        if key not in doc:
            raise FormatError(f"missing key {key!r}")
    try:
        alphabet = Alphabet(tuple(doc["alphabet"]))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad alphabet: {exc}") from None
    tracks = doc["tracks"]
    n_states = doc["states"]
    if not isinstance(tracks, int) or tracks < 0:
        raise FormatError("tracks must be a non-negative integer")
    if not isinstance(n_states, int) or n_states < 1:
        raise FormatError("states must be a positive integer")
    for key in ("initial", "accepting"):
        if not isinstance(doc[key], list) or any(
                not isinstance(q, int) or not 0 <= q < n_states for q in doc[key]):
            raise FormatError(f"{key} must list states in range 0..{n_states - 1}")
    for item in doc["transitions"]:
        if (not isinstance(item, list) or len(item) != 4
                or not isinstance(item[0], int) or not isinstance(item[3], int)
                or not isinstance(item[1], str) or not isinstance(item[2], list)):
            raise FormatError(f"bad transition {item!r}")
        p, letter, bits, q = item
        if not 0 <= p < n_states or not 0 <= q < n_states:
            raise DanglingState(f"transition {item!r} references an undeclared state")
        if letter not in alphabet:
            raise FormatError(f"transition letter {letter!r} not in alphabet")
        if len(bits) != tracks or any(b not in (0, 1) for b in bits):
            raise FormatError(f"transition bits {bits!r} must be {tracks} zeros/ones")
    return Nfa._make(alphabet, tracks, n_states, frozenset(doc["initial"]),
                     frozenset(doc["accepting"]),
                     _encode(alphabet, tracks, n_states, doc["transitions"]))


def render_dot(aut: Nfa) -> str:
    """GraphViz form, for visualization only."""
    lines = ["digraph automaton {", "  rankdir=LR;", '  node [shape=circle];']
    for q in sorted(aut.accepting):
        lines.append(f"  {q} [shape=doublecircle];")
    for i, q in enumerate(sorted(aut.initial)):
        lines.append(f"  __start{i} [shape=none, label=\"\"];")
        lines.append(f"  __start{i} -> {q};")
    grouped: dict[tuple[int, int], list[str]] = {}
    for (p, s, q) in aut.transitions:
        label = s.letter if not s.bits else f"({s.letter},{','.join(map(str, s.bits))})"
        grouped.setdefault((p, q), []).append(label)
    for (p, q) in sorted(grouped):
        label = ", ".join(sorted(grouped[(p, q)]))
        lines.append(f'  {p} -> {q} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

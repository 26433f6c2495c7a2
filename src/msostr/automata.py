"""Finite automata over track alphabets.

Symbols pair a letter with a vector of k membership bits, one per free set
variable; k = 0 gives ordinary automata over the alphabet.  All automata
are immutable; every operation returns a new value.  Witnesses and
counterexamples are always the shortlex-least word, so output is stable.

Internally a symbol is its code ``letter_index << k | bits``, track 0 the
most significant bit, so codes ascend in ``all_symbols`` order.  An NFA
holds per state a tuple, by code, of ascending successor tuples; a DFA a
flat successor list, ``table[state * len(symbols) + code]``.  Symbols and
(state, symbol, state) triples appear only at the API edges: the
``transitions`` attribute, ``accepts``, ``delta``, witnesses, enumeration.
Input is checked only at the trust boundaries, the public ``Nfa(...)`` and
``Dfa(...)`` constructors and ``parser.parse_automaton``; operations build
their results unchecked with ``_make``.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from operator import and_, attrgetter, ne, or_
from typing import NamedTuple

from .errors import BadTrack, TrackMismatch
from .syntax import Alphabet


class TrackSymbol(NamedTuple):
    """One input symbol: a letter plus one bit per track."""

    letter: str
    bits: tuple[int, ...]

    def drop(self, i: int) -> "TrackSymbol":
        return TrackSymbol(self.letter, self.bits[:i] + self.bits[i + 1:])


Word = tuple[TrackSymbol, ...]
Transition = tuple[int, TrackSymbol, int]


@lru_cache(maxsize=None)
def all_symbols(alphabet: Alphabet, tracks: int) -> tuple[TrackSymbol, ...]:
    """Every symbol of the track alphabet, in canonical order."""
    return tuple(TrackSymbol(a, bits)
                 for a in alphabet.symbols
                 for bits in itertools.product((0, 1), repeat=tracks))


def sym(letter: str, *bits: int) -> TrackSymbol:
    return TrackSymbol(letter, tuple(bits))


def _coerce_word(word, tracks: int) -> Word:
    out = []
    for s in word:
        if isinstance(s, TrackSymbol):
            out.append(s)
        elif isinstance(s, str):
            out.append(TrackSymbol(s, ()))
        else:
            letter, bits = s
            out.append(TrackSymbol(letter, tuple(bits)))
    for s in out:
        if len(s.bits) != tracks:
            raise TrackMismatch(f"symbol {s} does not have {tracks} tracks")
    return tuple(out)


def word_str(word: Word) -> str:
    """Compact printable form; plain letters concatenate when k = 0."""
    if all(not s.bits for s in word):
        return "".join(s.letter for s in word)
    return " ".join(f"({s.letter},{','.join(map(str, s.bits))})" for s in word)


def _union(sets) -> tuple[int, ...]:
    """Ascending union of a sequence of ascending state tuples."""
    return sets[0] if len(sets) == 1 else tuple(sorted(set().union(*sets)))


def _bfs(starts, successors) -> list[int]:
    """States reachable from ``starts``, breadth-first; each state's
    successors are visited in the order ``successors(state)`` yields them."""
    order = list(dict.fromkeys(starts))
    seen = set(order)
    for p in order:  # grows while iterated
        for q in successors(p):
            if q not in seen:
                seen.add(q)
                order.append(q)
    return order


def _encode(alphabet: Alphabet, tracks: int, n_states: int, items):
    """Successor sets from checked (state, letter, bits, state) items."""
    rows = [[set() for _ in range(len(alphabet) << tracks)] for _ in range(n_states)]
    for p, letter, bits, q in items:
        code = alphabet.index(letter)
        for b in bits:
            code = code << 1 | b
        rows[p][code].add(q)
    return tuple(tuple(tuple(sorted(t)) for t in row) for row in rows)


def _checked(alphabet, tracks, n_states, initial, accepting, transitions):
    """The trust boundary of the public constructors: check every field,
    then encode the transitions."""
    initial, accepting = frozenset(initial), frozenset(accepting)
    items = [(p, s[0], tuple(s[1]), q) for (p, s, q) in transitions]
    if n_states < 1:
        raise ValueError("automaton needs at least one state")
    for q in initial | accepting:
        if not 0 <= q < n_states:
            raise ValueError(f"state {q} out of range")
    for (p, letter, bits, q) in items:
        if not (0 <= p < n_states and 0 <= q < n_states):
            raise ValueError(f"transition endpoint out of range: {(p, letter, bits, q)}")
        if len(bits) != tracks:
            raise TrackMismatch(f"symbol {(letter, bits)} does not have {tracks} tracks")
        if letter not in alphabet:
            raise ValueError(f"letter {letter!r} not in alphabet")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"symbol bits {bits} must be zeros and ones")
    return initial, accepting, _encode(alphabet, tracks, n_states, items)


class Nfa:
    """Nondeterministic finite automaton without epsilon transitions.

    ``Nfa(alphabet, tracks, n_states, initial, accepting, transitions)``
    takes (state, symbol, state) triples, a symbol being a ``TrackSymbol``
    or a (letter, bits) pair, and checks all of it.
    """

    def __init__(self, alphabet: Alphabet, tracks: int, n_states: int,
                 initial, accepting, transitions):
        self.__post_init__(alphabet, tracks, n_states, *_checked(
            alphabet, tracks, n_states, initial, accepting, transitions))

    def __post_init__(self, alphabet, tracks, n_states, initial, accepting, core):
        """Set the fields; every construction, checked or not, ends here.
        The benchmark's trace times this method as ``automata.construct``."""
        self.alphabet = alphabet
        self.tracks = tracks
        self.n_states = n_states
        self.initial = initial
        self.accepting = accepting
        self._core = core
        self._ns = len(alphabet) << tracks

    @classmethod
    def _make(cls, alphabet, tracks, n_states, initial, accepting, core):
        """Unchecked constructor for automata built from trusted parts."""
        aut = cls.__new__(cls)
        aut.__post_init__(alphabet, tracks, n_states, initial, accepting, core)
        return aut

    def _fields(self):
        return (type(self), self.alphabet, self.tracks, self.n_states, self.initial,
                self.accepting)

    def __eq__(self, other):
        return (isinstance(other, Nfa) and self._fields() == other._fields()
                and self._core == other._core)

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (f"{type(self).__name__}({self.alphabet.symbols}, tracks={self.tracks}, "
                f"states={self.n_states}, initial={sorted(self.initial)}, "
                f"accepting={sorted(self.accepting)})")

    # per state, per symbol code: the ascending successor tuple
    _succ = property(attrgetter("_core"))

    def _successors(self, p: int):
        """Successors of ``p``, by symbol code, then ascending."""
        return (q for t in self._succ[p] for q in t)

    @cached_property
    def symbols(self) -> tuple[TrackSymbol, ...]:
        return all_symbols(self.alphabet, self.tracks)

    @cached_property
    def _code(self) -> dict[TrackSymbol, int]:
        return {s: c for c, s in enumerate(self.symbols)}

    @cached_property
    def transitions(self) -> frozenset[Transition]:
        symbols = self.symbols
        return frozenset((p, symbols[c], q) for p, row in enumerate(self._succ)
                         for c, t in enumerate(row) for q in t)

    def _empty(self) -> "Nfa":
        """The empty language: one initial state, no transitions."""
        return Nfa._make(self.alphabet, self.tracks, 1, frozenset({0}), frozenset(),
                         (((),) * self._ns,))

    def _check_compatible(self, other: "Nfa") -> None:
        if self.alphabet != other.alphabet or self.tracks != other.tracks:
            raise TrackMismatch("automata differ in alphabet or track count")

    # -- basic queries ----------------------------------------------------

    def accepts(self, word) -> bool:
        """True iff some run over ``word`` leads from initial to accepting."""
        succ = self._succ
        current = tuple(self.initial)
        for s in _coerce_word(word, self.tracks):
            if s.letter not in self.alphabet:
                raise TrackMismatch(f"letter {s.letter!r} not in alphabet")
            code = self._code.get(s)
            current = () if code is None else _union([succ[p][code] for p in current])
            if not current:
                return False
        return not self.accepting.isdisjoint(current)

    def is_deterministic(self) -> bool:
        return len(self.initial) == 1 and all(len(t) <= 1 for row in self._succ for t in row)

    def is_complete(self) -> bool:
        return all(all(row) for row in self._succ)

    # -- constructions ----------------------------------------------------

    def totalize(self) -> "Nfa":
        """Add a non-accepting sink so every (state, symbol) has a successor."""
        if self.is_complete():
            return self
        sink = (self.n_states,)
        rows = tuple(tuple(t or sink for t in row) for row in self._succ)
        return Nfa._make(self.alphabet, self.tracks, self.n_states + 1, self.initial,
                         self.accepting, rows + ((sink,) * self._ns,))

    def determinize(self) -> "Dfa":
        """Subset construction; the result is total and deterministic."""
        return self._explore(tuple(sorted(self.initial)),
                             lambda subset: not self.accepting.isdisjoint(subset), self._moves)

    def _explore(self, start, is_final, moves) -> "Dfa":
        """The DFA of the keys reachable from ``start``, numbered
        breadth-first; ``moves(key)`` gives the key reached on each code."""
        index = {start: 0}
        order = [start]
        table: list[int] = []
        for key in order:  # grows while iterated
            for target in moves(key):
                j = index.get(target)
                if j is None:
                    j = index[target] = len(order)
                    order.append(target)
                table.append(j)
        return Dfa._make(self.alphabet, self.tracks, len(order), frozenset({0}),
                         frozenset(i for i, key in enumerate(order) if is_final(key)), table)

    def product(self, other: "Nfa", combine: str) -> "Nfa":
        """Synchronous product: ``and`` intersects, ``or`` unites languages.

        Union must run both inputs on every word, so each gets an initial
        state and is totalized first.  The product of two DFAs is a DFA.
        """
        self._check_compatible(other)
        if combine not in _KEEP:
            raise ValueError(f"combine must be 'and' or 'or', got {combine!r}")
        a, b = self, other
        if combine == "or":
            a, b = ((x if x.initial else x._empty()).totalize() for x in (self, other))
        if isinstance(a, Dfa) and isinstance(b, Dfa):
            return a._explore(*_pairs(a, b, _KEEP[combine]))
        sa, sb, width = a._succ, b._succ, b.n_states
        pairs = {}  # the pair (p, q) is keyed p * width + q

        def successors(key):
            p, q = divmod(key, width)
            pairs[key] = [[p2 * width + q2 for p2 in ta for q2 in tb]
                          for ta, tb in zip(sa[p], sb[q])]
            return (target for targets in pairs[key] for target in targets)

        order = _bfs([p * width + q for p in sorted(a.initial) for q in sorted(b.initial)],
                     successors)
        if not order:
            return self._empty()
        index = {key: i for i, key in enumerate(order)}
        keep = _KEEP[combine]
        final = frozenset(i for i, key in enumerate(order)
                          if keep(key // width in a.accepting, key % width in b.accepting))
        rows = tuple(tuple(tuple(sorted(index[t] for t in targets)) for targets in pairs[key])
                     for key in order)
        return Nfa._make(self.alphabet, self.tracks, len(order),
                         frozenset(range(len(a.initial) * len(b.initial))), final, rows)

    def complement(self) -> "Dfa":
        """Determinize, then flip acceptance; exact within the track alphabet."""
        det = self.determinize()
        return Dfa._make(det.alphabet, det.tracks, det.n_states, det.initial,
                         frozenset(range(det.n_states)) - det.accepting, det._core)

    def project(self, track: int) -> "Nfa":
        """Erase one track; implements existential quantification over it."""
        if not 0 <= track < self.tracks:
            raise BadTrack(f"track {track} out of range 0..{self.tracks - 1}")
        low = 1 << (self.tracks - 1 - track)  # the erased bit of a code
        kept = [(c & -low) << 1 | c & (low - 1) for c in range(self._ns >> 1)]
        rows = tuple(tuple(row[c] if row[c] == row[c | low] else _union((row[c], row[c | low]))
                           for c in kept) for row in self._succ)
        return Nfa._make(self.alphabet, self.tracks - 1, self.n_states, self.initial,
                         self.accepting, rows)

    def trim(self) -> "Nfa":
        """Keep states both reachable and co-reachable, renumbered by BFS."""
        live = live_and_dead_states(self)[0]
        if not live:
            return self._empty()
        order = _bfs(sorted(self.initial & live),
                     lambda p: (q for q in self._successors(p) if q in live))
        renum = {p: i for i, p in enumerate(order)}
        rows = tuple(tuple(tuple(sorted(renum[q] for q in t if q in live))
                           for t in self._succ[p]) for p in order)
        return Nfa._make(self.alphabet, self.tracks, len(order),
                         frozenset(renum[p] for p in self.initial & live),
                         frozenset(renum[p] for p in self.accepting & live), rows)

    def star(self) -> "Nfa":
        """Kleene star; used to witness non-closure results, not by compile."""
        back = tuple(sorted(self.initial))
        rows = tuple(tuple(t if self.accepting.isdisjoint(t) else _union((t, back))
                           for t in row) for row in self._succ + (tuple(self._moves(self.initial)),))
        return Nfa._make(self.alphabet, self.tracks, self.n_states + 1,
                         frozenset({self.n_states}), self.accepting | {self.n_states}, rows)

    def concat(self, other: "Nfa") -> "Nfa":
        """Language concatenation via the standard epsilon-free construction."""
        self._check_compatible(other)
        shift = self.n_states
        into = tuple(sorted(i + shift for i in other.initial))
        rows = tuple(tuple(t if self.accepting.isdisjoint(t) else t + into for t in row)
                     for row in self._succ)
        rows += tuple(tuple(tuple(q + shift for q in t) for t in row) for row in other._succ)
        initial = set(self.initial)
        if self.initial & self.accepting:
            initial |= {i + shift for i in other.initial}
        final = {q + shift for q in other.accepting}
        if other.initial & other.accepting:
            final |= self.accepting
        return Nfa._make(self.alphabet, self.tracks, shift + other.n_states,
                         frozenset(initial), frozenset(final), rows)

    def with_epsilon(self, want: bool) -> "Nfa":
        """Force membership of the empty word without touching other words."""
        if bool(self.initial & self.accepting) == want:
            return self
        fresh = self.n_states
        accepting = self.accepting | {fresh} if want else self.accepting
        return Nfa._make(self.alphabet, self.tracks, fresh + 1, frozenset({fresh}),
                         accepting, self._succ + (tuple(self._moves(self.initial)),))

    # -- decision procedures ----------------------------------------------

    def shortest_word(self) -> Word | None:
        """Shortlex-least accepted word, or None if the language is empty."""
        return self._search(tuple(sorted(self.initial)),
                            lambda subset: enumerate(self._moves(subset)),
                            lambda subset: not self.accepting.isdisjoint(subset))

    def _moves(self, subset):
        """The successor set of a set of states on each code."""
        rows = [self._succ[p] for p in subset]
        return (rows[0] if len(rows) == 1 else
                map(_union, zip(*rows)) if rows else ((),) * self._ns)

    def _search(self, start, moves, is_goal) -> Word | None:
        """Shortlex-least word leading from ``start`` to a goal key, breadth
        first; ``moves(key)`` lists (code, key) pairs in code order.  The
        empty tuple, an empty set of states, is a dead end."""
        if is_goal(start):
            return ()
        words = {start: ()}
        order = [start]
        for key in order:  # grows while iterated
            for code, target in moves(key):
                if target != () and target not in words:
                    words[target] = words[key] + (code,)
                    if is_goal(target):
                        return tuple(self.symbols[c] for c in words[target])
                    order.append(target)
        return None

    def is_empty(self) -> bool:
        return self.shortest_word() is None

    def counterexample(self, other: "Nfa") -> Word | None:
        """Shortlex-least word on which the two languages differ."""
        self._check_compatible(other)
        start, differ, moves = _pairs(self.determinize(), other.determinize(), ne)
        return self._search(start, lambda key: enumerate(moves(key)), differ)

    def equivalent(self, other: "Nfa") -> bool:
        return self.counterexample(other) is None

    def containment_counterexample(self, other: "Nfa") -> Word | None:
        """Shortlex-least word accepted here but not by ``other``."""
        return self.product(other.complement(), "and").shortest_word()

    def contained_in(self, other: "Nfa") -> bool:
        """True iff every word accepted here is accepted by ``other``."""
        return self.containment_counterexample(other) is None

    def enumerate_words(self, max_len: int) -> list:
        """Accepted words of length <= max_len, shortlex; strings when k = 0."""
        out: list[tuple[int, ...]] = [()] if self.initial & self.accepting else []
        frontier = [((), tuple(sorted(self.initial)))]
        for _ in range(max_len):
            nxt = []
            for word, states in frontier:
                for code, target in enumerate(self._moves(states)):
                    if target:
                        grown = word + (code,)
                        if not self.accepting.isdisjoint(target):
                            out.append(grown)
                        nxt.append((grown, target))
            frontier = nxt
        words = [tuple(self.symbols[c] for c in w) for w in out]
        if self.tracks == 0:
            return ["".join(s.letter for s in w) for w in words]
        return words


_KEEP = {"and": and_, "or": or_}  # acceptance of a pair in a product


def _pairs(a: "Dfa", b: "Dfa", keep):
    """Pairs of states of two DFAs, the pair (p, q) keyed p * width + q: the
    start pair, whether ``keep`` accepts a pair, and a pair's moves."""
    ns, width, ta, tb = a._ns, b.n_states, a._core, b._core

    def moves(key):
        p, q = divmod(key, width)
        return [x * width + y for x, y in zip(ta[p * ns:p * ns + ns], tb[q * ns:q * ns + ns])]

    return (next(iter(a.initial)) * width + next(iter(b.initial)),
            lambda key: keep(key // width in a.accepting, key % width in b.accepting), moves)


def live_and_dead_states(aut: Nfa) -> tuple[set[int], set[int]]:
    """Split reachable states into live (can reach acceptance) and dead."""
    reach = _bfs(sorted(aut.initial), aut._successors)
    back: list[list[int]] = [[] for _ in range(aut.n_states)]
    for p in reach:
        for q in aut._successors(p):
            back[q].append(p)
    live = set(_bfs(sorted(aut.accepting.intersection(reach)), back.__getitem__))
    return live, set(reach) - live


class Dfa(Nfa):
    """Total deterministic automaton: one initial state, one successor per
    (state, symbol) pair; the public constructor checks both.  ``_core``
    is the flat successor table."""

    def __init__(self, alphabet: Alphabet, tracks: int, n_states: int,
                 initial, accepting, transitions):
        initial, accepting, rows = _checked(
            alphabet, tracks, n_states, initial, accepting, transitions)
        if len(initial) != 1:
            raise ValueError("DFA needs exactly one initial state")
        for p, row in enumerate(rows):
            for c, t in enumerate(row):
                if len(t) != 1:
                    raise ValueError(f"DFA needs one successor of each state on each symbol, "
                                     f"not {len(t)} on {(p, all_symbols(alphabet, tracks)[c])}")
        self.__post_init__(alphabet, tracks, n_states, initial, accepting,
                           [t[0] for row in rows for t in row])

    @cached_property
    def _succ(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        ns, table = self._ns, self._core
        return tuple(tuple((q,) for q in table[i:i + ns]) for i in range(0, len(table), ns))

    def is_complete(self) -> bool:
        return True

    def delta(self, state: int, s: TrackSymbol) -> int:
        return self._core[state * self._ns + self._code[s]]

    def determinize(self) -> "Dfa":
        return self

    def minimize(self) -> "Dfa":
        """Unique minimal complete DFA, states numbered breadth-first.

        Hopcroft's partition refinement (1971), keeping the blocks reachable
        from the initial one: a splitter (block, symbol) splits every block
        holding some but not all of its predecessors.  The larger half keeps
        the block's number and queued splitters, the smaller half is queued
        anew, and a split costs the smaller half plus the predecessors
        scanned, so the work is O(n·|Σ|·log n).
        """
        ns, n, table, final = self._ns, self.n_states, self._core, self.accepting
        # symbols with equal columns act alike: split on one of each
        columns = dict.fromkeys(zip(*(table[i:i + ns] for i in range(0, n * ns, ns))))
        inverse = [[[] for _ in range(n)] for _ in columns]
        for inv, column in zip(inverse, columns):
            for p, q in enumerate(column):
                inv[q].append(p)
        blocks = sorted((b for b in (set(final), set(range(n)) - set(final)) if b), key=len)
        block_of = [len(blocks) - 1 if q in blocks[-1] else 0 for q in range(n)]
        work = {(0, c) for c in range(len(inverse))} if len(blocks) == 2 else set()
        while work:
            splitter, c = work.pop()
            hit: dict[int, set[int]] = {}
            for q in blocks[splitter]:
                for p in inverse[c][q]:
                    hit.setdefault(block_of[p], set()).add(p)
            for i, part in hit.items():
                block = blocks[i]
                if len(part) == len(block):
                    continue
                if 2 * len(part) <= len(block):
                    block -= part  # in place: costs len(part), not len(block)
                    small = part
                else:  # costs len(part) + len(small); part was scanned already
                    small, blocks[i] = block - part, part
                new = len(blocks)
                blocks.append(small)
                for q in small:
                    block_of[q] = new
                work.update((new, d) for d in range(len(inverse)))

        def successors(block):  # any state of a block stands for all of them
            p = next(iter(blocks[block]))
            return [block_of[q] for q in table[p * ns:p * ns + ns]]

        return self._explore(block_of[next(iter(self.initial))],
                             lambda block: not final.isdisjoint(blocks[block]), successors)

    def isomorphic(self, other: "Dfa") -> bool:
        """State-renaming equality of two total DFAs; both must be fully
        reachable (as minimize() outputs are) for the renaming to exist."""
        self._check_compatible(other)
        if self.n_states != other.n_states:
            return False
        a, b = (d._explore(next(iter(d.initial)), d.accepting.__contains__, d._successors)
                for d in (self, other))
        if a.n_states != self.n_states or b.n_states != other.n_states:
            raise ValueError("isomorphism check requires all states reachable")
        return a == b

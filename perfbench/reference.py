"""References the benchmark checks verdicts against.

None of this code calls the compiler or the automaton engine: automata
are plain transition tables the benchmark builds itself (or reads back
from the JSON exchange format), words are simulated by subset stepping,
and shortlex-least separating words are found by brute-force enumeration
of words in shortlex order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Table:
    """A nondeterministic automaton over plain letters (no tracks)."""

    letters: tuple[str, ...]
    n_states: int
    initial: frozenset[int]
    accepting: frozenset[int]
    delta: dict[tuple[int, str], tuple[int, ...]]

    @classmethod
    def build(cls, letters, n_states, initial, accepting, transitions):
        delta: dict[tuple[int, str], set[int]] = {}
        for p, a, q in transitions:
            delta.setdefault((p, a), set()).add(q)
        return cls(tuple(letters), n_states, frozenset(initial),
                   frozenset(accepting),
                   {key: tuple(sorted(v)) for key, v in delta.items()})

    @classmethod
    def from_document(cls, text: str) -> "Table":
        """Read the automaton JSON exchange format (tracks must be 0)."""
        doc = json.loads(text)
        if doc["tracks"] != 0:
            raise ValueError("reference tables have no tracks")
        return cls.build(doc["alphabet"], doc["states"], doc["initial"],
                         doc["accepting"],
                         [(p, a, q) for p, a, _, q in doc["transitions"]])

    def transitions(self):
        for (p, a), targets in sorted(self.delta.items()):
            for q in targets:
                yield p, a, q

    def document(self) -> str:
        """The automaton in the JSON exchange format."""
        return json.dumps({
            "alphabet": list(self.letters), "tracks": 0,
            "states": self.n_states, "initial": sorted(self.initial),
            "accepting": sorted(self.accepting),
            "transitions": [[p, a, [], q] for p, a, q in self.transitions()],
        })

    def step(self, states: frozenset[int], letter: str) -> frozenset[int]:
        out: set[int] = set()
        for p in states:
            out.update(self.delta.get((p, letter), ()))
        return frozenset(out)

    def accepts(self, word: str) -> bool:
        states = self.initial
        for letter in word:
            states = self.step(states, letter)
        return bool(states & self.accepting)

    def renumbered(self, order: list[int]) -> "Table":
        """The same automaton with state ``order[i]`` renamed to ``i``."""
        new = {q: i for i, q in enumerate(order)}
        return Table.build(self.letters, self.n_states,
                           {new[q] for q in self.initial},
                           {new[q] for q in self.accepting},
                           [(new[p], a, new[q]) for p, a, q in self.transitions()])


def first_difference(left: Table, right: Table, max_len: int, *,
                     min_len: int = 0, one_sided: bool = False) -> str | None:
    """Shortlex-least word of length ``min_len``..``max_len`` on which the
    two automata disagree (``one_sided``: accepted by ``left`` only), or
    None if there is none within the bound."""
    if left.letters != right.letters:
        raise ValueError("automata over different alphabets")
    steps: dict = {}  # shares state sets between words, saving time and memory

    def step(side: Table, states: frozenset[int], letter: str) -> frozenset[int]:
        key = (side is left, states, letter)
        if key not in steps:
            steps[key] = side.step(states, letter)
        return steps[key]

    level = [("", left.initial, right.initial)]
    for length in range(max_len + 1):
        if length >= min_len:
            for word, a, b in level:
                in_left = bool(a & left.accepting)
                in_right = bool(b & right.accepting)
                if in_left != in_right and (in_left or not one_sided):
                    return word
        if length == max_len:
            return None
        level = [(word + x, step(left, a, x), step(right, b, x))
                 for word, a, b in level for x in left.letters]
    return None


def words(letters, length: int):
    """All words of exactly ``length`` letters, lexicographic."""
    level = [""]
    for _ in range(length):
        level = [w + x for w in level for x in letters]
    return level


# the corpus languages, written directly as predicates on words
CORPUS_PREDICATES = {
    "starts_with_a": lambda w: w.startswith("a"),
    "a_then_b": lambda w: all(w[i + 1:i + 2] == "b"
                              for i in range(len(w)) if w[i] == "a"),
    "ends_with_a": lambda w: w.endswith("a"),
    "a_third_from_right": lambda w: len(w) >= 3 and w[-3] == "a",
    "a_third_from_right_alt": lambda w: len(w) >= 3 and w[-3] == "a",
    "contradiction": lambda w: False,
    "exactly_abc": lambda w: w == "abc",
    "exactly_aa": lambda w: w == "aa",
    "even_length": lambda w: len(w) % 2 == 0 and len(w) > 0,
    "contains_aa": lambda w: "aa" in w,
}

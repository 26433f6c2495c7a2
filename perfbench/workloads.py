"""The benchmark's workloads: inputs made from a seed, jobs, and checks.

Each workload's ``prepare`` builds its inputs from the seed and returns a
list of rounds; a round is a list of jobs.  A job's ``run`` is the timed
call into msostr; its ``check`` runs afterwards, untimed, and returns a
failure message or None.  Checks compare with references that do not come
from the compiler (see reference.py) and with stored golden digests.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from reference import CORPUS_PREDICATES, Table, first_difference, words

GOLDENS_FILE = Path(__file__).resolve().parent / "goldens.json"


class Job(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    # fixed per workload so that a faster program, which fits more jobs
    # into a run, is still compared at the same percentile
    tail_percentile: float
    prepare: Callable


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Goldens:
    """Digests of canonical outputs, keyed by workload and input digest.

    With ``record`` set, outputs are stored instead of compared; callers
    compare with goldens last, so only outputs that passed every other
    check are recorded.
    """

    def __init__(self, table: dict, record: bool = False):
        self.table = table
        self.record = record

    @classmethod
    def load(cls) -> "Goldens":
        return cls(json.loads(GOLDENS_FILE.read_text(encoding="utf-8")))

    def check(self, workload: str, key: str, document: str) -> str | None:
        got = digest(document)
        if self.record:
            self.table.setdefault(workload, {})[key] = got
            return None
        want = self.table.get(workload, {}).get(key)
        if want is not None and want != got:
            return f"output digest {got} differs from golden {want}"
        return None


# -- roundtrip: automaton -> sentence -> automaton ----------------------------

# the three-state machine of the round-trip acceptance criterion
EXAMPLE_MACHINE = Table.build(
    ("a", "b", "c"), 3, {0}, {2},
    [(0, "c", 0), (0, "b", 1), (0, "a", 2), (1, "a", 2), (2, "c", 0), (2, "a", 2)])

# A round holds random total DFAs of these (states, letters) shapes.  By
# cost, a round is 4 light jobs (2x1, 1x3), 11 middle ones (2x2, 3x1) and
# 10 heavy ones (the example machine, 3x3 and eight 5x1 with seven
# tracks), so the median falls in the upper part of the middle block and
# the p80 tail in the middle of the heavy block: both rest on many jobs of
# like cost whatever the seed and however fast the machine.  Left out:
# 3x2 automata, whose cost lies between the blocks, 4-state automata over
# two or three letters and 5-state ones over more than one, one of which
# alone takes about as long as a round.
SHAPES = ([(2, 1), (1, 3)] * 2 + [(2, 2)] * 6 + [(3, 1)] * 5 + [(3, 3)]
          + [(5, 1)] * 8)
ROUNDTRIP_ROUNDS = 12
# compiled DFA checked against the input on all words up to this length
ROUNDTRIP_BOUND = {1: 12, 2: 10, 3: 7}


def random_total_dfa(rng: random.Random, n_states: int, n_letters: int) -> Table:
    """Drawn as the round-trip acceptance criterion draws its DFAs."""
    letters = ("a", "b", "c")[:n_letters]
    transitions = [(p, a, rng.randrange(n_states))
                   for p in range(n_states) for a in letters]
    accepting = {q for q in range(n_states) if rng.random() < 0.5}
    return Table.build(letters, n_states, {0}, accepting, transitions)


def _roundtrip_job(m, label: str, table: Table, goldens: Goldens) -> Job:
    alphabet = m.Alphabet(table.letters)
    aut = m.Nfa(alphabet, 0, table.n_states, table.initial, table.accepting,
                frozenset((p, m.sym(a), q) for p, a, q in table.transitions()))
    key = digest(table.document())

    def run():
        dfa = m.compile_formula(m.fsa_to_mso(aut), alphabet)
        return dfa, dfa.equivalent(aut.with_epsilon(False))

    def check(out):
        dfa, equivalent = out
        if not equivalent:
            return "engine says the compiled DFA differs from its input"
        document = m.render_automaton(dfa)
        compiled = Table.from_document(document)
        if compiled.accepts(""):
            return "compiled DFA accepts the empty word"
        gap = first_difference(compiled, table, ROUNDTRIP_BOUND[len(table.letters)],
                               min_len=1)
        if gap is not None:
            return f"compiled DFA and input disagree on {gap!r}"
        return goldens.check("roundtrip", key, document)

    return Job(label, run, check)


def prepare_roundtrip(m, seed: int, workdir: Path, goldens: Goldens) -> list[list[Job]]:
    rng = random.Random(seed)
    rounds = []
    for _ in range(ROUNDTRIP_ROUNDS):
        jobs = [_roundtrip_job(m, "example", EXAMPLE_MACHINE, goldens)]
        jobs += [_roundtrip_job(m, f"{n}x{k}", random_total_dfa(rng, n, k), goldens)
                 for n, k in SHAPES]
        rounds.append(jobs)
    return rounds


# -- unary: random one-letter sentences --------------------------------------

UNARY_ROUNDS = 4
UNARY_PER_ROUND = 100
UNARY_LENGTHS = range(1, 13)


def random_unary_sentences(m, rng: random.Random, count: int) -> list:
    """The generator of the unary acceptance criteria, call for call: at
    their seed the first 100 sentences are theirs."""
    S = m.syntax

    def atom(scope):
        kinds = ["const_last"]
        if scope:
            kinds += ["letter", "cmp", "cmp_offset", "cmp_const", "eq_const",
                      "first", "last", "succ"] * 2
        kind = rng.choice(kinds)
        k = rng.randint(0, 4)
        if kind == "const_last":
            return (S.ConstLessLast if rng.random() < 0.5 else S.ConstGreaterLast)(k)
        x = rng.choice(scope)
        y = rng.choice(scope)
        if kind == "letter":
            return S.Letter("a", x)
        if kind == "cmp":
            return rng.choice((S.Less, S.Leq, S.Eq, S.Neq))(x, y)
        if kind == "cmp_offset":
            return rng.choice((S.LessOffset, S.GreaterOffset, S.PlusOffset))(x, y, k)
        if kind == "cmp_const":
            return rng.choice((S.LessConst, S.GreaterConst))(x, k)
        if kind == "eq_const":
            return S.EqConst(x, k)
        if kind == "first":
            return S.First(x)
        if kind == "last":
            return S.Last(x)
        return S.Succ(x, y)

    def build(depth, scope, budget):
        roll = rng.random()
        if budget <= 1 or (roll < 0.25 and scope):
            return atom(scope)
        if roll < 0.55 and depth > 0:
            name = f"v{depth}"
            body = build(depth - 1, scope + (name,), budget - 1)
            return (S.ExistsFO if rng.random() < 0.6 else S.ForallFO)(name, body)
        if roll < 0.7:
            return S.Not(build(depth, scope, budget - 1))
        half = max(1, budget // 2)
        left = build(depth, scope, half)
        right = build(depth, scope, budget - half)
        return rng.choice((S.And, S.Or, S.Implies))(left, right)

    sentences = []
    while len(sentences) < count:
        phi = build(3, (), 8)
        if m.is_sentence(phi):
            sentences.append(phi)
    return sentences


def _unary_job(m, index: int, phi, unary) -> Job:
    text = m.render_formula(phi)

    def run():
        parsed = m.parse_formula(text, unary)
        described = m.classify(m.to_qfmfo(parsed, unary))
        return described, m.compile_formula(parsed, unary)

    def check(out):
        described, dfa = out
        compiled = Table.from_document(m.render_automaton(dfa))
        wrong = []
        for n in UNARY_LENGTHS:
            truth = m.evaluate("a" * n, phi)
            if described.contains(n) != truth:
                wrong.append(f"classify wrong at length {n}")
            if compiled.accepts("a" * n) != truth:
                wrong.append(f"DFA wrong at length {n}")
        return f"{text}: {wrong[0]}" if wrong else None

    return Job(f"sentence {index}", run, check)


def prepare_unary(m, seed: int, workdir: Path, goldens: Goldens) -> list[list[Job]]:
    # no goldens: a fix of the known x < k expansion defect changes outputs
    rng = random.Random(seed)
    unary = m.Alphabet(("a",))
    return [[_unary_job(m, r * UNARY_PER_ROUND + i, phi, unary)
             for i, phi in enumerate(random_unary_sentences(m, rng, UNARY_PER_ROUND))]
            for r in range(UNARY_ROUNDS)]


# -- sample: corpus sentences against the oracle ------------------------------

# name -> (letters, source text), as in the test corpus
CORPUS = {
    "starts_with_a": ("ab", "ex1 x. x = 0 & a(x)"),
    "a_then_b": ("ab", "all1 x. a(x) -> (ex1 y. succ(x, y) & b(y))"),
    "ends_with_a": ("ab", "ex1 x. last(x) & a(x)"),
    "a_third_from_right": ("ab", "ex1 x. a(x) & (ex1 y. y = x + 2 & last(y))"),
    "a_third_from_right_alt": ("ab", "ex1 x. last(x) & (ex1 y. y = x - 2 & a(y))"),
    "contradiction": ("ab", "ex1 x. a(x) & !a(x)"),
    "exactly_abc": ("abc", "ex1 x. ex1 y. ex1 z. x = 0 & succ(x, y) & succ(y, z)"
                           " & last(z) & a(x) & b(y) & c(z)"),
    "exactly_aa": ("a", "ex1 x. ex1 y. x = 0 & y = x + 1 & a(x) & a(y) & last(y)"),
    "even_length": ("a", "ex2 P. all1 x. (x = 0 -> !P(x))"
                         " & (all1 y. y = x + 1 -> (!P(x) <-> P(y)))"
                         " & a(x) & (last(x) -> P(x))"),
    "contains_aa": ("ab", "ex1 x. ex1 y. succ(x, y) & a(x) & a(y)"),
}
SAMPLE_LENGTHS = range(1, 7)
SAMPLE_ROUNDS = 8


def _sample_job(m, name: str, length: int, alphabet, phi, goldens: Goldens) -> Job:
    candidates = words(alphabet.symbols, length)
    expected = [w for w in candidates if CORPUS_PREDICATES[name](w)]

    def run():
        dfa = m.compile_formula(phi, alphabet)
        by_oracle = [w for w in candidates if m.evaluate(w, phi)]
        by_dfa = [w for w in candidates if dfa.accepts(w)]
        return dfa, by_oracle, by_dfa

    def check(out):
        dfa, by_oracle, by_dfa = out
        if by_oracle != by_dfa:
            return f"oracle and DFA disagree on {sorted(set(by_oracle) ^ set(by_dfa))[:3]}"
        if by_oracle != expected:
            return f"oracle disagrees with the brute-force predicate at length {length}"
        return goldens.check("sample", name, m.render_automaton(dfa))

    return Job(f"{name}/{length}", run, check)


def prepare_sample(m, seed: int, workdir: Path, goldens: Goldens) -> list[list[Job]]:
    jobs = []
    for name, (letters, text) in CORPUS.items():
        alphabet = m.Alphabet(tuple(letters))
        phi = m.parse_formula(text, alphabet)
        jobs += [_sample_job(m, name, n, alphabet, phi, goldens) for n in SAMPLE_LENGTHS]
    rng = random.Random(seed)
    return [rng.sample(jobs, len(jobs)) for _ in range(SAMPLE_ROUNDS)]


# -- decide: equiv / contains through the CLI on JSON automata ----------------

DECIDE_ROUNDS = 3
KTH = (8, 9, 10, 11, 12)
RANDOM_NFAS = 3
LARGE_DFAS = 3
LARGE_STATES = 600
# positive verdicts are checked on every word up to this length
BOUND = {2: 10, 3: 7}
LARGE_BOUND = 6


def kth_from_right(k: int, x: str, last: str | None = None) -> Table:
    """Words over {a, b} whose k-th letter from the right is ``x`` (and,
    with ``last``, whose last letter is ``last``)."""
    transitions = [(0, "a", 0), (0, "b", 0), (0, x, 1)]
    for i in range(1, k):
        for a in ("a", "b"):
            if i < k - 1 or last in (None, a):
                transitions.append((i, a, i + 1))
    return Table.build(("a", "b"), k + 1, {0}, {k}, transitions)


def shuffled(table: Table, rng: random.Random) -> Table:
    order = list(range(table.n_states))
    rng.shuffle(order)
    return table.renumbered(order)


def random_nfa(rng: random.Random) -> Table:
    letters = ("a", "b", "c")[:rng.randint(2, 3)]
    n = rng.randint(8, 14)
    transitions = [(p, a, rng.randrange(n)) for p in range(n) for a in letters
                   for _ in range(rng.choice((0, 1, 1, 2)))]
    initial = {0} if rng.random() < 0.7 else {0, rng.randrange(n)}
    accepting = {q for q in range(n) if rng.random() < 0.3}
    return Table.build(letters, n, initial, accepting, transitions)


def widened(table: Table, rng: random.Random) -> Table:
    """A superset language: two more transitions and one more accepting state."""
    extra = [(rng.randrange(table.n_states), rng.choice(table.letters),
              rng.randrange(table.n_states)) for _ in range(2)]
    return Table.build(table.letters, table.n_states, table.initial,
                       table.accepting | {rng.randrange(table.n_states)},
                       list(table.transitions()) + extra)


def mutated(table: Table, rng: random.Random) -> Table:
    """One transition retargeted."""
    transitions = list(table.transitions())
    i = rng.randrange(len(transitions))
    p, a, _ = transitions[i]
    transitions[i] = (p, a, rng.randrange(table.n_states))
    return Table.build(table.letters, table.n_states, table.initial,
                       table.accepting, transitions)


def depths(table: Table) -> dict[int, int]:
    """Breadth-first distance of each reachable state of a DFA."""
    depth = {q: 0 for q in table.initial}
    frontier = sorted(table.initial)
    while frontier:
        nxt = []
        for p in frontier:
            for a in table.letters:
                for q in table.delta.get((p, a), ()):
                    if q not in depth:
                        depth[q] = depth[p] + 1
                        nxt.append(q)
        frontier = nxt
    return depth


class _Decision(NamedTuple):
    command: str      # "equiv" or "contains"
    left: Table
    right: Table
    positive: bool    # expected verdict
    bound: int        # positive verdicts: no difference up to this length


def _decide_round(rng: random.Random) -> list[tuple[str, _Decision]]:
    out = []
    for k in KTH:
        x, y = rng.sample(("a", "b"), 2)
        marked = kth_from_right(k, x)
        narrow = kth_from_right(k, x, last=x)
        out += [(f"kth{k}/equiv+", _Decision("equiv", shuffled(marked, rng),
                                            shuffled(marked, rng), True, k + 1)),
                (f"kth{k}/equiv-", _Decision("equiv", shuffled(marked, rng),
                                            kth_from_right(k, y), False, 0)),
                (f"kth{k}/contains+", _Decision("contains", narrow,
                                               shuffled(marked, rng), True, k + 1)),
                (f"kth{k}/contains-", _Decision("contains", shuffled(marked, rng),
                                               narrow, False, 0))]
        if k == KTH[-1]:
            # The two heaviest kinds of job are this k's contains+ and
            # contains-.  With contains- twice, the p95 tail falls in the
            # middle of the contains- block, not at its edge.
            out.append((f"kth{k}/contains-2", _Decision("contains", shuffled(marked, rng),
                                                       narrow, False, 0)))
    for i in range(RANDOM_NFAS):
        while True:  # redraw until the mutant differs within the bound,
            aut = random_nfa(rng)  # so that its witness can be checked
            bound = BOUND[len(aut.letters)]
            other = mutated(aut, rng) if aut.delta else aut
            if first_difference(aut, other, bound) is not None:
                break
        out += [(f"nfa{i}/equiv+", _Decision("equiv", aut, shuffled(aut, rng), True, bound)),
                (f"nfa{i}/contains+", _Decision("contains", aut, widened(aut, rng),
                                               True, bound)),
                (f"nfa{i}/equiv-", _Decision("equiv", aut, other, False, 0))]
    for i in range(LARGE_DFAS):
        dfa = random_total_dfa(rng, LARGE_STATES, 3)
        depth = depths(dfa)
        # flip a rejecting state 3 to 5 steps from the start: the witness
        # is the shortlex-least word reaching it
        flip = rng.choice(sorted(q for q, d in depth.items()
                                 if 3 <= d <= 5 and q not in dfa.accepting))
        more = Table.build(dfa.letters, dfa.n_states, dfa.initial,
                           dfa.accepting | {flip}, dfa.transitions())
        out += [(f"dfa{i}/equiv+", _Decision("equiv", shuffled(dfa, rng),
                                            shuffled(dfa, rng), True, LARGE_BOUND)),
                (f"dfa{i}/equiv-", _Decision("equiv", dfa, more, False, 0)),
                (f"dfa{i}/contains-", _Decision("contains", more, dfa, False, 0))]
    return out


def _decide_job(m, label: str, case: _Decision, left: Path, right: Path) -> Job:
    argv = [case.command, "--alphabet", ",".join(case.left.letters),
            "--f1", str(left), "--f2", str(right)]
    yes, no = (("EQUIVALENT", "NOT_EQUIVALENT") if case.command == "equiv"
               else ("CONTAINED", "NOT_CONTAINED"))

    def run():
        captured = io.StringIO()
        with redirect_stdout(captured):
            status = m.cli.main(argv)
        return status, captured.getvalue()

    def check(out):
        status, text = out
        lines = text.splitlines()
        want = (yes, 0) if case.positive else (no, 1)
        if (lines[:1], status) != ([want[0]], want[1]):
            return f"got {lines[:1]} exit {status}, expected {want[0]} exit {want[1]}"
        one_sided = case.command == "contains"
        if case.positive:
            gap = first_difference(case.left, case.right, case.bound, one_sided=one_sided)
            return None if gap is None else f"inputs differ on {gap!r}"
        if len(lines) < 2:
            return "no witness printed"
        witness = "" if lines[1] == "<epsilon>" else lines[1]
        least = first_difference(case.left, case.right, len(witness), one_sided=one_sided)
        if least != witness:
            return f"witness {witness!r}, shortlex-least separating word {least!r}"
        return None

    return Job(label, run, check)


def prepare_decide(m, seed: int, workdir: Path, goldens: Goldens) -> list[list[Job]]:
    rng = random.Random(seed)
    rounds = []
    written: dict[str, Path] = {}

    def path(table: Table) -> Path:
        document = table.document()
        key = digest(document)
        if key not in written:
            written[key] = workdir / f"{key}.json"
            written[key].write_text(document, encoding="utf-8")
        return written[key]

    for _ in range(DECIDE_ROUNDS):
        rounds.append([_decide_job(m, label, case, path(case.left), path(case.right))
                       for label, case in _decide_round(rng)])
    return rounds


WORKLOADS = {w.name: w for w in (
    Workload("roundtrip", 20250808, 80.0, prepare_roundtrip),
    Workload("unary", 96211, 95.0, prepare_unary),
    Workload("sample", 1, 97.5, prepare_sample),
    Workload("decide", 1, 95.0, prepare_decide),
)}

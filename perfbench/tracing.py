"""Per-layer tracing of msostr from outside the package.

``Tracer.install`` replaces the public functions and methods of each
msostr module with wrappers that record a span (name, start, end, parent)
per call, and a few counts taken from the calls' arguments and results.
Spans stay in memory; ``layer_metrics`` turns them into per-layer totals,
where a layer's self time is its spans' duration minus the time covered by
their child spans.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("automata", "compiler", "syntax", "parser", "semantics", "qe",
           "fsa2mso", "cli")

# Accessors that run inside the operations' inner loops; a wrapper there
# would charge its own cost to the operation it is meant to measure.
# Dfa.determinize only returns self, so it is not a subset construction.
SKIP = {"automata.Dfa.delta", "automata.Dfa.determinize",
        "automata.TrackSymbol.drop", "automata.sym", "automata.word_str",
        "syntax.Alphabet.index", "qe.Term.shift"}

# the validating constructors, reported together as automata.construct
CONSTRUCTORS = ("Nfa", "Dfa")

# automaton operations counted as build steps when run under compile_formula
BUILD_STEPS = {"automata.determinize", "automata.minimize", "automata.product",
               "automata.project", "automata.complement", "automata.totalize",
               "automata.with_epsilon", "compiler.atomic_automaton"}

JOB = "bench.job"


def formula_nodes(phi) -> int:
    """Number of formula nodes in ``phi``."""
    count = 0
    stack = [phi]
    while stack:
        node = stack.pop()
        count += 1
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            if dataclasses.is_dataclass(value):
                stack.append(value)
    return count


def _after_construct(counts, args, result):
    aut = args[0]
    symbols = len(aut.alphabet) << aut.tracks
    counts["automata.peak_states_x_symbols"] = max(
        counts["automata.peak_states_x_symbols"], aut.n_states * symbols)
    counts["automata.peak_tracks"] = max(counts["automata.peak_tracks"], aut.tracks)


def _after_minimize(counts, args, result):
    counts["automata.minimize.states_in"] += args[0].n_states
    counts["automata.minimize.states_out"] += result.n_states


def _after_determinize(counts, args, result):
    counts["automata.determinize.states_out"] += result.n_states


def _after_expand(counts, args, result):
    counts["syntax.expand.nodes_out"] += formula_nodes(result)


def _after_fsa_to_mso(counts, args, result):
    counts["fsa2mso.sentence_nodes"] += formula_nodes(result)


AFTER = {"automata.construct": _after_construct,
         "automata.minimize": _after_minimize,
         "automata.determinize": _after_determinize,
         "syntax.expand": _after_expand,
         "fsa2mso.fsa_to_mso": _after_fsa_to_mso}


class Tracer:
    """Spans and counts of the wrapped calls of one run."""

    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._paused = False
        self.wrapped: list[str] = []

    def _wrap(self, name: str, fn):
        after = AFTER.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public function and method of the package's modules,
        in every module namespace that holds a reference to it."""
        replace = {}
        for short in MODULES:
            module = getattr(package, short)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isfunction(obj) and name not in SKIP:
                    replace[obj] = self._wrap(name, obj)
                    self.wrapped.append(name)
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        for module in [package] + [getattr(package, m) for m in MODULES]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(module, attr, replace[obj])

    def _wrap_class(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr == "__post_init__" and cls.__name__ in CONSTRUCTORS:
                name = f"{short}.construct"
            elif attr.startswith("_") or f"{short}.{cls.__name__}.{attr}" in SKIP:
                continue
            else:
                name = f"{short}.{attr}"
            setattr(cls, attr, self._wrap(name, obj))
            self.wrapped.append(f"{short}.{cls.__name__}.{attr}")

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    @contextmanager
    def job(self):
        """A root span per job, so every span belongs to one job."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (JOB, start, perf_counter(), -1)

    def layers(self) -> dict[str, dict[str, float]]:
        """Calls, total time and self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            layer = out[name]
            layer["calls"] += 1
            layer["total_s"] += end - start
            layer["self_s"] += end - start - child[i]
        return dict(out)

    def build_steps(self) -> int:
        """Number of build-step spans with a compile_formula span above them."""
        under = [False] * len(self.spans)
        steps = 0
        for i, (name, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                under[i] = under[parent] or self.spans[parent][0] == "compiler.compile_formula"
            steps += under[i] and name in BUILD_STEPS
        return steps


PER_LAYER = [
    # (metric name, unit); NAME.self_s and NAME.calls come from spans,
    # the others from the counts taken at the same calls
    ("automata.minimize.self_s", "s"), ("automata.minimize.calls", "count"),
    ("automata.determinize.self_s", "s"), ("automata.determinize.calls", "count"),
    ("automata.product.self_s", "s"), ("automata.product.calls", "count"),
    ("automata.project.self_s", "s"), ("automata.project.calls", "count"),
    ("automata.complement.self_s", "s"), ("automata.complement.calls", "count"),
    ("automata.construct.self_s", "s"), ("automata.construct.calls", "count"),
    ("automata.minimize.states_in", "count"), ("automata.minimize.states_out", "count"),
    ("automata.minimize.kept_ratio", "ratio"),
    ("automata.peak_states_x_symbols", "count"), ("automata.peak_tracks", "count"),
    ("automata.counterexample.self_s", "s"),
    ("automata.containment_counterexample.self_s", "s"),
    ("automata.shortest_word.self_s", "s"),
    ("automata.determinize.states_out", "count"),
    ("compiler.compile_formula.self_s", "s"), ("compiler.compile_formula.calls", "count"),
    ("compiler.normalize.self_s", "s"), ("compiler.atomic_automaton.self_s", "s"),
    ("compiler.build_steps", "count"),
    ("syntax.expand.self_s", "s"), ("syntax.expand.nodes_out", "count"),
    ("fsa2mso.fsa_to_mso.self_s", "s"), ("fsa2mso.sentence_nodes", "count"),
    ("parser.parse_automaton.self_s", "s"), ("parser.parse_formula.self_s", "s"),
    ("qe.to_qfmfo.self_s", "s"), ("qe.classify.self_s", "s"),
    ("semantics.evaluate.self_s", "s"), ("semantics.evaluate.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, dict]:
    """The per-layer metrics, as the benchmark's result line reports them."""
    layers = tracer.layers()
    counts = tracer.counts
    states_in = counts["automata.minimize.states_in"]
    derived = {
        "compiler.build_steps": tracer.build_steps(),
        "automata.minimize.kept_ratio":
            counts["automata.minimize.states_out"] / states_in if states_in else 0.0,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, unit in PER_LAYER:
        layer, _, quantity = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif quantity in ("self_s", "calls"):
            value = layers.get(layer, {}).get(quantity, 0)
        else:
            value = counts[name]
        out[name] = {"value": value, "unit": unit}
    return out

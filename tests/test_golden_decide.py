"""Golden decisions: ``msostr equiv``, ``contains`` and ``empty`` on pairs
of random JSON automata must print exactly the recorded verdict and
witness, with the recorded exit code.

The pairs have 3-8 states, 1-2 letters and 0-1 tracks.  Each automaton
has a chain through all its states and otherwise only loops and edges
back, so that witnesses run longer than the brute-force limits of
``test_automata.test_operation_matches_brute_force``.  Some automata have
no initial state, and some first automata accept nothing while the second
accepts words.  The automata are stored with their verdicts; a second
test checks that the generator below still makes them.

Re-record (only after a deliberate change of output) with
``PYTHONPATH=src python tests/test_golden_decide.py``.
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

from msostr import Alphabet, Nfa, render_automaton
from msostr.automata import all_symbols
from msostr.cli import main

GOLDEN = Path(__file__).with_name("golden_decide.json")
SEED = 4242
PAIRS = 40


def _random_nfa(rng, alphabet, tracks, initial=True, accepting=True):
    n = rng.randint(3, 8)
    density = rng.choice((0.05, 0.1, 0.2))
    symbols = all_symbols(alphabet, tracks)
    chain = {(p, rng.choice(symbols), p + 1) for p in range(n - 1)}
    return Nfa(alphabet, tracks, n,
               {0} | {q for q in range(n) if rng.random() < 0.1} if initial else (),
               {q for q in range(n // 2, n) if rng.random() < 0.4} if accepting else (),
               chain | {(p, s, q) for p in range(n) for s in symbols
                        for q in range(p + 1) if rng.random() < density})


def _pairs():
    """Automaton pairs.  The first automaton has no initial state in pairs
    1, 5, 9, ... and no accepting state in pairs 2, 6, 10, ...; the second
    has no initial state in pairs 3, 11, 19, ..."""
    rng = random.Random(SEED)
    out = []
    for i in range(PAIRS):
        alphabet = Alphabet(("a", "b")[:rng.randint(1, 2)])
        tracks = rng.randint(0, 1)
        a = _random_nfa(rng, alphabet, tracks, initial=i % 4 != 1, accepting=i % 4 != 2)
        b = _random_nfa(rng, alphabet, tracks, initial=i % 8 != 3)
        out.append((a, b))
    return out


COMMANDS = {
    "equiv": ("equiv", "--f1", "f1", "--f2", "f2"),
    "contains f1 f2": ("contains", "--f1", "f1", "--f2", "f2"),
    "contains f2 f1": ("contains", "--f1", "f2", "--f2", "f1"),
    "empty f1": ("empty", "--formula", "f1"),
    "empty f2": ("empty", "--formula", "f2"),
}


def _decide(f1: str, f2: str, folder: Path) -> dict:
    """Exit code and printed lines of every command on the two documents."""
    files = {"f1": folder / "f1.json", "f2": folder / "f2.json"}
    files["f1"].write_text(f1, encoding="utf-8")
    files["f2"].write_text(f2, encoding="utf-8")
    alphabet = ",".join(json.loads(f1)["alphabet"])
    out = {}
    for name, argv in COMMANDS.items():
        argv = [str(files.get(arg, arg)) for arg in argv]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main(argv + ["--alphabet", alphabet])
        out[name] = [code] + printed.getvalue().splitlines()
    return out


def _compact(aut: Nfa) -> str:
    return json.dumps(json.loads(render_automaton(aut)), separators=(",", ":"))


RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("index", range(len(RECORDED)))
def test_decisions_match_golden(index, tmp_path):
    pair = RECORDED[index]
    assert _decide(pair["f1"], pair["f2"], tmp_path) == pair["verdicts"]


def test_golden_covers_the_generated_pairs():
    assert [(p["f1"], p["f2"]) for p in RECORDED] == [
        (_compact(a), _compact(b)) for a, b in _pairs()]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        records = []
        for a, b in _pairs():
            f1, f2 = _compact(a), _compact(b)
            records.append({"f1": f1, "f2": f2, "verdicts": _decide(f1, f2, Path(folder))})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")

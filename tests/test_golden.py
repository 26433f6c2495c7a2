"""Golden automata: the compiled DFA of every corpus sentence, in both
empty-word modes, must render to exactly the recorded JSON document.

The recorded documents pin state numbering and transition order, not
just the language.  Re-record them (only after a deliberate change of
output) with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

import pytest

from msostr import EpsilonMode, compile_formula, render_automaton

from corpus import SENTENCES, sentence

GOLDEN = Path(__file__).with_name("golden_corpus.json")


def _render_all() -> dict:
    out = {}
    for name in sorted(SENTENCES):
        phi, alphabet = sentence(name)
        for mode in EpsilonMode:
            out[f"{name}/{mode.name}"] = render_automaton(
                compile_formula(phi, alphabet, mode))
    return out


RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(RECORDED))
def test_corpus_automaton_matches_golden(key):
    name, mode = key.split("/")
    phi, alphabet = sentence(name)
    got = render_automaton(compile_formula(phi, alphabet, EpsilonMode[mode]))
    assert got == RECORDED[key]


def test_golden_covers_corpus_in_both_modes():
    assert set(RECORDED) == {f"{name}/{mode.name}"
                             for name in SENTENCES for mode in EpsilonMode}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_render_all(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")

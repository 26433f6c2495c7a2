"""Golden automata of open formulas: the compiled DFA and its track order,
in both empty-word modes, must match the recorded documents.

Sentences have no tracks, so ``golden_corpus.json`` cannot pin the track
order of the compiler: free position variables by first occurrence in
the formula as written, then free set variables by first occurrence in
its expansion.  The formulas below are chosen so that the two orders
differ (``<=`` swaps its operands when expanded), that a set variable
comes before a position variable in the text, and that a bound variable
shadows a free one.

Re-record (only after a deliberate change of output) with
``PYTHONPATH=src python tests/test_golden_open.py``.
"""

import json
from pathlib import Path

import pytest

from msostr import (EpsilonMode, compile_with_tracks, parse_formula,
                    render_automaton)

from corpus import AB

GOLDEN = Path(__file__).with_name("golden_open.json")

FORMULAS = (
    "x < y & a(x)",
    "y <= x & X sub Y",
    "Y sub X & x in Y",
    "x = y + 2 & X != Y",
    "all1 z. z in X <-> z in Y",
    "X = Y | last(x)",
    "b(y) & (ex1 y. y < x & a(y)) & x in X",
    "ex2 Z. Z sub X & y in Z & succ(x, y)",
)


def _render(text: str, mode: EpsilonMode) -> dict:
    aut, tracks = compile_with_tracks(parse_formula(text, AB), AB, mode)
    return {"tracks": list(tracks), "automaton": render_automaton(aut)}


RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(RECORDED))
def test_open_automaton_matches_golden(key):
    text, mode = key.rsplit("/", 1)
    assert _render(text, EpsilonMode[mode]) == RECORDED[key]


def test_golden_covers_open_formulas_in_both_modes():
    assert set(RECORDED) == {f"{text}/{mode.name}"
                             for text in FORMULAS for mode in EpsilonMode}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({f"{text}/{mode.name}": _render(text, mode)
                                  for text in FORMULAS for mode in EpsilonMode},
                                 indent=1, sort_keys=True) + "\n", encoding="utf-8")

"""Command-line front end.

Verdict subcommands print a verdict token on the first line, then any
witness or counterexample; exit status 0 means an affirmative answer,
1 a negative one, 2 a usage or input error.  Output is deterministic:
witnesses are always the shortlex-least word.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from .automata import Nfa, word_str
from .compiler import compile_formula
from .errors import MsoError
from .fsa2mso import fsa_to_mso
from .parser import (parse_automaton, parse_formula, render_automaton,
                     render_dot, render_formula)
from .qe import classify, render_class, render_qf, to_qfmfo
from .semantics import EpsilonMode, evaluate
from .syntax import Alphabet, Formula

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _mode(args) -> EpsilonMode:
    return EpsilonMode.INCLUDE if getattr(args, "epsilon", False) else EpsilonMode.EXCLUDE


def _read_formula_text(value: str) -> str:
    if os.path.isfile(value):
        with open(value, encoding="utf-8") as handle:
            return handle.read()
    return value


def _load_formula(value: str, alphabet: Alphabet) -> Formula:
    return parse_formula(_read_formula_text(value), alphabet)


def _load_language(value: str, alphabet: Alphabet, mode: EpsilonMode) -> Nfa:
    """A formula (inline or file) or an automaton document (.json file)."""
    if os.path.isfile(value) and value.endswith(".json"):
        with open(value, encoding="utf-8") as handle:
            return parse_automaton(handle.read())
    return compile_formula(_load_formula(value, alphabet), alphabet, mode)


def _parse_word(text: str) -> list[str]:
    if text == "":
        return []
    if "," in text:
        return [part for part in text.split(",") if part]
    return list(text)


def _print_word(word) -> None:
    text = word_str(tuple(word)) if not isinstance(word, str) else word
    print(text if text else "<epsilon>")


def _alphabet(args) -> Alphabet:
    return Alphabet.from_csv(args.alphabet)


def _cmd_compile(args) -> int:
    alphabet = _alphabet(args)
    aut = compile_formula(_load_formula(args.formula, alphabet), alphabet, _mode(args))
    document = render_automaton(aut)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
    else:
        print(document)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(render_dot(aut))
    return EXIT_YES


def _cmd_check(args) -> int:
    alphabet = _alphabet(args)
    mode = _mode(args)
    phi = _load_formula(args.formula, alphabet)
    word = _parse_word(args.word)
    by_interpreter = evaluate(word, phi, None, mode)
    by_automaton = compile_formula(phi, alphabet, mode).accepts(word)
    if by_interpreter != by_automaton:
        print("INTERNAL_ERROR interpreter and automaton disagree "
              f"(interpreter={by_interpreter}, automaton={by_automaton})")
        return EXIT_ERROR
    print("ACCEPT" if by_interpreter else "REJECT")
    return EXIT_YES if by_interpreter else EXIT_NO


def _cmd_equiv(args) -> int:
    alphabet = _alphabet(args)
    mode = _mode(args)
    left = _load_language(args.f1, alphabet, mode)
    right = _load_language(args.f2, alphabet, mode)
    gap = left.counterexample(right)
    if gap is None:
        print("EQUIVALENT")
        return EXIT_YES
    print("NOT_EQUIVALENT")
    _print_word(gap)
    return EXIT_NO


def _cmd_contains(args) -> int:
    alphabet = _alphabet(args)
    mode = _mode(args)
    left = _load_language(args.f1, alphabet, mode)
    right = _load_language(args.f2, alphabet, mode)
    gap = left.containment_counterexample(right)
    if gap is None:
        print("CONTAINED")
        return EXIT_YES
    print("NOT_CONTAINED")
    _print_word(gap)
    return EXIT_NO


def _cmd_empty(args) -> int:
    alphabet = _alphabet(args)
    aut = _load_language(args.formula, alphabet, _mode(args))
    witness = aut.shortest_word()
    if witness is None:
        print("EMPTY")
        return EXIT_YES
    print("NONEMPTY")
    _print_word(witness)
    return EXIT_NO


def _cmd_enumerate(args) -> int:
    alphabet = _alphabet(args)
    aut = _load_language(args.formula, alphabet, _mode(args))
    for word in aut.enumerate_words(args.max_len):
        _print_word(word)
    return EXIT_YES


def _cmd_fsa2mso(args) -> int:
    with open(args.infile, encoding="utf-8") as handle:
        aut = parse_automaton(handle.read())
    text = render_formula(fsa_to_mso(aut, _mode(args)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return EXIT_YES


def _cmd_qe(args) -> int:
    alphabet = _alphabet(args)
    phi = _load_formula(args.formula, alphabet)
    print(render_qf(to_qfmfo(phi, alphabet)))
    return EXIT_YES


def _cmd_classify(args) -> int:
    alphabet = _alphabet(args)
    phi = _load_formula(args.formula, alphabet)
    result = classify(to_qfmfo(phi, alphabet), _mode(args))
    text = render_class(result)
    token, _, description = text.partition(" ")
    print(token)
    print(description)
    return EXIT_YES


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="msostr",
        description="Decide monadic logics on finite strings via automata.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, formula=True):
        p.add_argument("--alphabet", required=True,
                       help="comma-separated letters, e.g. a,b,c")
        if formula:
            p.add_argument("--formula", required=True,
                           help="formula text, or a file containing one")
        p.add_argument("--epsilon", action="store_true",
                       help="admit the empty word (variant semantics)")

    p = sub.add_parser("compile", help="compile a formula to an automaton")
    common(p)
    p.add_argument("--out", help="write the automaton JSON here")
    p.add_argument("--dot", help="also write a DOT rendering here")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("check", help="evaluate a word against a formula")
    common(p)
    p.add_argument("--word", required=True,
                   help="the word; comma-separated for multi-letter symbols")
    p.set_defaults(func=_cmd_check)

    for name, func, blurb in (("equiv", _cmd_equiv, "decide language equality"),
                              ("contains", _cmd_contains,
                               "decide containment L(f1) within L(f2)")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--alphabet", required=True)
        p.add_argument("--f1", required=True,
                       help="formula (inline or file) or automaton .json")
        p.add_argument("--f2", required=True,
                       help="formula (inline or file) or automaton .json")
        p.add_argument("--epsilon", action="store_true")
        p.set_defaults(func=func)

    p = sub.add_parser("empty", help="decide language emptiness")
    common(p)
    p.set_defaults(func=_cmd_empty)

    p = sub.add_parser("enumerate", help="list accepted words up to a length")
    common(p)
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("fsa2mso", help="encode an automaton as a sentence")
    p.add_argument("--in", dest="infile", required=True, help="automaton .json")
    p.add_argument("--out", help="write the sentence here")
    p.add_argument("--epsilon", action="store_true")
    p.set_defaults(func=_cmd_fsa2mso)

    p = sub.add_parser("qe", help="eliminate quantifiers over a one-letter alphabet")
    common(p)
    p.set_defaults(func=_cmd_qe)

    p = sub.add_parser("classify", help="classify a one-letter language")
    common(p)
    p.set_defaults(func=_cmd_classify)
    return top


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MsoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a crash must not exit 1, the negative verdict
        print(f"INTERNAL_ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

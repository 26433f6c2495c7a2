"""Monadic first- and second-order logic on finite strings, decided by
compiling formulas to finite automata and back, with a quantifier
elimination pipeline for the one-letter first-order fragment."""

from .automata import Dfa, Nfa, TrackSymbol, all_symbols, sym, word_str
from .compiler import (TrackMap, atomic_automaton, compile_formula,
                       compile_with_tracks)
from .errors import (BadAlphabet, BadTrack, DanglingState, EmptyWordRejected,
                     FormatError, FormulaSyntaxError, MsoError, MultipleInitial,
                     NonUnaryAlphabet, OpenFormula, SecondOrderPresent,
                     TrackMismatch, UnboundVariable, UnknownLetter,
                     UnmappedVariable, VariableKindMismatch)
from .fsa2mso import fsa_to_mso
from .parser import (parse_automaton, parse_formula, render_automaton,
                     render_dot, render_formula)
from .qe import (QfAnd, QfOr, UnaryLanguageClass, classify, finite_sentence,
                 neg_qf, qf_evaluate, render_qf, to_qfmfo)
from .semantics import Assignment, EpsilonMode, evaluate, language_sample
from .syntax import (Alphabet, Formula, FreeVars, expand, free_vars,
                     free_vars_in_order, is_core, is_sentence)

__all__ = [name for name in dir() if not name.startswith("_")]

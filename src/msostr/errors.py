"""Exception types shared across the package."""


class MsoError(Exception):
    """Base class for all errors raised by this library."""


class BadAlphabet(MsoError, ValueError):
    """An alphabet is empty, repeats a letter or has a malformed letter."""


class UnknownLetter(MsoError):
    """A letter predicate refers to a symbol outside the declared alphabet."""


class VariableKindMismatch(MsoError):
    """The same name is used both as a position and as a set variable."""


class UnboundVariable(MsoError):
    """Evaluation reached a variable with no assigned value."""


class EmptyWordRejected(MsoError):
    """The empty word was supplied while epsilon is excluded from the domain."""


class FormulaSyntaxError(MsoError):
    """Malformed formula text; carries a 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class TrackMismatch(MsoError):
    """Automata or symbols disagree on alphabet or track count."""


class BadTrack(MsoError):
    """A track index is outside the automaton's track range."""


class FormatError(MsoError):
    """Malformed automaton exchange document."""


class DanglingState(MsoError):
    """A transition references a state that was never declared."""


class MultipleInitial(MsoError):
    """Automaton-to-formula encoding requires a single initial state."""


class UnmappedVariable(MsoError):
    """An atom uses a set variable that has no track assigned."""


class NonUnaryAlphabet(MsoError):
    """Quantifier elimination is only defined over a one-letter alphabet."""


class SecondOrderPresent(MsoError):
    """Quantifier elimination input must be first-order."""


class OpenFormula(MsoError):
    """A sentence was required but the formula has free variables."""

"""Exception types shared across the package.

Everything raised on purpose derives from :class:`QAKBError` so callers
(and the CLI) can distinguish expected failures from genuine bugs.
"""

from typing import Optional


class QAKBError(Exception):
    """Base class for all errors raised deliberately by this package."""


class MalformedId(QAKBError):
    """An entity or relation identifier is empty or cannot be canonicalized."""


class ParseError(QAKBError):
    """A data file, or a line of one, could not be parsed.

    Carries the 1-based line number of a text file's offending line, so
    the CLI can point at it; a fault of a whole binary file has none.
    """

    def __init__(self, message: str, line_no: Optional[int] = None):
        super().__init__(message if line_no is None
                         else f"line {line_no}: {message}")
        self.line_no = line_no


class ShapeMismatch(QAKBError):
    """Array arguments have incompatible shapes for the requested operation."""


class EmptySequence(QAKBError):
    """A recurrent layer or encoder was given a zero-length sequence."""


class EmptyTrainingSet(QAKBError):
    """Training was requested on an empty example list."""


class LabelFailure(QAKBError):
    """Entity span labelling could not align the subject with the question."""


class NoCandidates(QAKBError):
    """Candidate retrieval produced no entities for a question."""


class NoRelation(QAKBError):
    """A candidate entity has no outgoing relations to score."""


class EmptyEvalSet(QAKBError):
    """Evaluation was requested on an empty example list."""

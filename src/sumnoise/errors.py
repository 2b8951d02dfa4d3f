"""Exception types shared across the toolkit."""

from __future__ import annotations


class SumnoiseError(Exception):
    """Base class for every error this package raises on purpose."""


class EmptySentenceError(SumnoiseError):
    """Text produced no tokens (empty, whitespace, or punctuation only)."""


class EmptyDocumentError(SumnoiseError):
    """A document was built with no sentences."""


class InvalidThresholdError(SumnoiseError):
    """Overlap threshold outside [0, 1]."""


class InvalidDistributionError(SumnoiseError):
    """Noise distribution is empty, has an entry outside [0, 1] or NaN, or does not sum to one."""


class InsufficientArticleError(SumnoiseError):
    """The article has too few unmatched sentences for the requested insertions."""


class InsufficientSummaryError(SumnoiseError):
    """More summary positions requested than the summary has."""


class InvalidCommandError(SumnoiseError):
    """An external denoiser argv that is empty, or a string where an argv sequence was due."""


class ProtocolViolationError(SumnoiseError):
    """An external denoiser broke the one-line-in, one-line-out contract."""


class MalformedRecordError(SumnoiseError):
    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class DuplicateIdError(SumnoiseError):
    """A corpus file repeats a record id."""


class AlignmentError(SumnoiseError):
    """Two corpus streams disagree on record ids."""


class EmptyCorpusError(SumnoiseError):
    """An aggregate was requested over zero records."""

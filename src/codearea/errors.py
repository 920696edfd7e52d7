"""Exception types shared across the package."""

from __future__ import annotations


class CodeAreaError(Exception):
    """Base class for every error raised by this package."""


class SourceError(CodeAreaError):
    """An error tied to a position in an input file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnbalancedBracesError(SourceError):
    """An unmatched ``{`` or ``}`` in the input."""


class MalformedHeaderError(SourceError):
    """A loop/condition keyword without a parseable header."""


class NegativeIterationsError(SourceError):
    """An ``@iters`` pragma gave a negative count.  A literal ``for`` bound
    never does: one whose condition fails at once counts 0."""


class NestingTooDeepError(SourceError):
    """Constructs nested deeper than the parser accepts."""


class SegmentOverrideError(CodeAreaError):
    """A segmentation sidecar that fails validation."""


class AttributeOutOfRangeError(CodeAreaError):
    """A quality attribute score outside {0, 1, 2}."""


class ZeroSegmentsError(CodeAreaError):
    """Per-segment execution time requested for an empty segment list."""


class NonPositiveTimeError(CodeAreaError):
    """An execution time that is not strictly positive."""


class ScoreOutOfRangeError(CodeAreaError):
    """A level score outside the [0, 10] scale."""


class IncompleteRubricError(CodeAreaError):
    """A rubric with missing or invalid answers."""


class ConfigError(CodeAreaError):
    """Base class for configuration problems."""


class ConfigParseError(ConfigError):
    """The configuration file could not be parsed."""


class UnknownKeyError(ConfigError):
    """An unrecognized section or key in the configuration."""


class InvalidWeightError(ConfigError):
    """A statement weight outside the [0, 1] scale."""

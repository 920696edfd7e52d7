"""Aggregate metrics: code area, quality quotient, efficiency, baseline.

Code area is the sum of all segment impacts.  Efficiency divides it by
the supplied execution time and scales by the quality quotient, the sum
of five user-judged attributes scored 0/1/2 each.  The baseline
percentage compares the product ``code_area * quotient`` against a
notional 100,000-line program at quality rate 7.5, evaluated at the
program's own execution time so the time cancels; at least 75% counts
as meeting the threshold.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    AttributeOutOfRangeError,
    ConfigParseError,
    NonPositiveTimeError,
    ZeroSegmentsError,
)
from .records import FrozenRecord
from .segmenter import ScoredSegment

BASELINE_LOC = 100_000
BASELINE_QUALITY = Fraction(15, 2)  # 7.5 on the 0-10 scale
THRESHOLD_PERCENT = Fraction(75)

QUALITY_ATTRIBUTE_NAMES = (
    "security",
    "execution_time",
    "user_friendliness",
    "other_metrics",
    "environment_selection",
)


class QualityAttributes(FrozenRecord):
    """Five attribute scores, each 0 (absent), 1 (partial), or 2 (present)."""

    __slots__ = _fields = QUALITY_ATTRIBUTE_NAMES

    def __init__(self, security: int = 1, execution_time: int = 1, user_friendliness: int = 1,
                 other_metrics: int = 1, environment_selection: int = 1):
        values = (
            security, execution_time, user_friendliness, other_metrics, environment_selection
        )
        for name, value in zip(self._fields, values):
            if value not in (0, 1, 2):
                raise AttributeOutOfRangeError(f"{name} must be 0, 1, or 2, got {value!r}")
        self._set(*values)

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return self._values()


class _Seconds(FrozenRecord):
    """A time in seconds, which must be positive, with at most 140 digits in its
    numerator and denominator (a settings number has up to 120), so a report prints it."""

    __slots__ = _fields = ("seconds",)

    def __init__(self, seconds: Fraction):
        if max(abs(seconds.numerator), seconds.denominator) >= 10**140:
            raise ConfigParseError(f"{self.what} must have at most 140 digits a part")
        if seconds <= 0:
            raise NonPositiveTimeError(f"{self.what} must be > 0, got {seconds}")
        self._set(seconds)


class TotalSeconds(_Seconds):
    __slots__ = ()
    what = "total time"


class PerSegmentAverage(_Seconds):
    __slots__ = ()
    what = "per-segment time"


ExecutionTimeModel = TotalSeconds | PerSegmentAverage


def code_area(segments: list[ScoredSegment]) -> Fraction:
    """Sum of segment impacts (equivalently, count times mean impact)."""
    return sum((seg.impact for seg in segments), Fraction(0))


def quality_quotient(attrs: QualityAttributes) -> int:
    """Sum of the five attribute scores, an integer in [0, 10]."""
    return sum(attrs.as_tuple())


def execution_time(model: ExecutionTimeModel, segment_count: int) -> Fraction:
    """Total execution time in seconds for the given model."""
    if isinstance(model, TotalSeconds):
        return model.seconds
    if segment_count == 0:
        raise ZeroSegmentsError("per-segment time given but there are no segments")
    return segment_count * model.seconds


def efficiency(area: Fraction, time_s: Fraction, quotient: int) -> Fraction:
    """(code area / execution time) * quality quotient, exactly."""
    if time_s <= 0:
        raise NonPositiveTimeError(f"execution time must be > 0, got {time_s}")
    return area / time_s * quotient


def baseline_percentage(area: Fraction, quotient: int) -> Fraction:
    """Percentage of the 100,000-line / quality-7.5 baseline.

    The baseline is evaluated at the analyzed program's own execution
    time, so the ratio reduces to
    ``100 * (area * quotient) / (100000 * 7.5)``.
    """
    return 100 * (area * quotient) / (BASELINE_LOC * BASELINE_QUALITY)

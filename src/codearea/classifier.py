"""Quality levels and control-flow orderliness.

The level classifier maps a 0-10 score onto four tiers.  The published
tier ranges leave gaps (8.0-8.5 and 6.0-6.5) and give the lowest tier no
range at all, so the intervals are closed upward to partition [0, 10]:
level 1 covers [8.5, 10], level 2 [6.5, 8.5), level 3 [4.5, 6.5), and
level 4 [0, 4.5).  Scores that land in a published gap are flagged.

The score itself comes from a five-question rubric answered 0/1/2 by the
operator, minus a fixed penalty when the control flow is not orderly.
Orderliness means no backward jumps (a ``goto`` to an earlier line) and
at most a configured number of unstructured exits (forward or unresolved
``goto`` targets, plus extra ``break``/``continue`` beyond one per loop).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import IncompleteRubricError, ScoreOutOfRangeError
from .frontend import FlowFacts

RUBRIC_QUESTIONS = (
    "segment_flow",          # segments executed in order, smooth call flow
    "oo_reuse",              # use of reuse/generalization facilities
    "commenting",            # segments commented in understandable language
    "error_controls",        # controlled failure handling, low error-proneness
    "security_customization",  # access restrictions and per-user customization
)

DEFAULT_FLOW_EXIT_LIMIT = 2
DEFAULT_FLOW_PENALTY = Fraction(1)


class FlowReport(NamedTuple):
    backward_jumps: int
    unstructured_exits: int
    orderly: bool


class QualityLevel(NamedTuple):
    level: int
    low: Fraction   # inclusive
    high: Fraction  # exclusive, except level 1 which includes 10


_LEVELS = (
    QualityLevel(1, Fraction(17, 2), Fraction(10)),
    QualityLevel(2, Fraction(13, 2), Fraction(17, 2)),
    QualityLevel(3, Fraction(9, 2), Fraction(13, 2)),
    QualityLevel(4, Fraction(0), Fraction(9, 2)),
)

# Score regions between the published tier ranges.
_GAPS = ((Fraction(8), Fraction(17, 2)), (Fraction(6), Fraction(13, 2)))


def classify_level(score: Fraction | int | float) -> QualityLevel:
    """Map a [0, 10] score to its quality level."""
    value = Fraction(score)
    if not (0 <= value <= 10):
        raise ScoreOutOfRangeError(f"score must be in [0, 10], got {score}")
    for level in _LEVELS:
        if value >= level.low:
            return level
    raise AssertionError("level ranges must cover [0, 10]")


def in_range_gap(score: Fraction | int | float) -> bool:
    """True when *score* falls strictly between two published ranges."""
    value = Fraction(score)
    return any(low < value < high for low, high in _GAPS)


class LevelRubric(NamedTuple):
    """Answers to the five rubric questions, each 0, 1, or 2."""

    answers: dict[str, int]

    def validate(self) -> None:
        missing = [q for q in RUBRIC_QUESTIONS if q not in self.answers]
        if missing:
            raise IncompleteRubricError(f"missing answers: {', '.join(missing)}")
        unknown = [q for q in self.answers if q not in RUBRIC_QUESTIONS]
        if unknown:
            raise IncompleteRubricError(f"unknown questions: {', '.join(unknown)}")
        bad = [q for q in RUBRIC_QUESTIONS if self.answers[q] not in (0, 1, 2)]
        if bad:
            raise IncompleteRubricError(f"answers must be 0, 1, or 2: {', '.join(bad)}")


def rubric_score(
    rubric: LevelRubric,
    flow: FlowReport,
    *,
    penalty: Fraction = DEFAULT_FLOW_PENALTY,
) -> Fraction:
    """Sum of rubric answers, minus the flow penalty, clamped to [0, 10]."""
    rubric.validate()
    score = Fraction(sum(rubric.answers[q] for q in RUBRIC_QUESTIONS))
    if not flow.orderly:
        score -= penalty
    return max(Fraction(0), min(Fraction(10), score))


# ---------------------------------------------------------------------------
# Flow analysis
# ---------------------------------------------------------------------------


def flow_orderliness(
    facts: FlowFacts,
    *,
    exit_limit: int = DEFAULT_FLOW_EXIT_LIMIT,
) -> FlowReport:
    """Count backward jumps and unstructured exits from a file's flow facts."""
    backward = 0
    unstructured = sum(exits - 1 for exits in facts.loop_exits if exits > 1)
    for target, line in facts.gotos:
        target_line = facts.labels.get(target)
        if target_line is not None and target_line < line:
            backward += 1
        else:
            unstructured += 1
    return flow_report(backward, unstructured, exit_limit)


def flow_report(backward: int, unstructured: int, exit_limit: int) -> FlowReport:
    """The one orderliness rule: no backward jump, few unstructured exits."""
    return FlowReport(
        backward_jumps=backward,
        unstructured_exits=unstructured,
        orderly=backward == 0 and unstructured <= exit_limit,
    )

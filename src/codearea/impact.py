"""Impact scores for blocks and segments.

Every statement kind carries a weight on the [0, 1] scale.  A loop
multiplies the impact of its body by its iteration count, a condition
block averages its branch sums over the branch count, and an exception
block multiplies its body by the handler count.  Impact is therefore
linear in the weights: each statement adds its kind's weight times the
product of the multipliers on its path from the top.  One top-down pass
sums each child list's weights in integers, over the weight table's
common denominator, and scales that sum by the list's multiplier once.

All arithmetic is exact (``fractions.Fraction``); rounding happens only
when a report is rendered.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .errors import InvalidWeightError
from .frontend import (
    BlockNode,
    ConditionBlock,
    ExceptionBlock,
    FunctionDef,
    LoopBlock,
    Statement,
    StatementKind,
)
from .records import FrozenRecord
from .segmenter import CodeSegment

ImpactScore = Fraction

DEFAULT_WEIGHTS: dict[StatementKind, Fraction] = {
    StatementKind.COMMENT: Fraction(1, 2),
    StatementKind.HEADER_INCLUDE: Fraction(7, 10),
    StatementKind.DECLARATION: Fraction(1, 10),
    StatementKind.INIT_TERMINATION: Fraction(1, 5),
    StatementKind.SIMPLE_ASSIGNMENT: Fraction(3, 10),
    StatementKind.COMPLEX_ASSIGNMENT: Fraction(1, 2),
    StatementKind.EXPRESSION: Fraction(4, 5),
    StatementKind.FUNCTION_CALL: Fraction(4, 5),
    StatementKind.RETURN: Fraction(4, 5),
}


class WeightTable(FrozenRecord):
    """Weight per statement kind, total over all kinds, each in [0, 1].
    ``scaled`` holds each weight's numerator over the table's least common
    denominator, and that denominator."""

    _fields = ("weights", "exception_multiplier_enabled")
    __slots__ = (*_fields, "scaled")

    def __init__(self, weights: Mapping[StatementKind, Fraction] | None = None,
                 exception_multiplier_enabled: bool = True):
        weights = dict(DEFAULT_WEIGHTS) if weights is None else weights
        for kind in StatementKind:
            if kind not in weights:
                raise InvalidWeightError(f"missing weight for {kind.value}")
            w = weights[kind]
            if not (0 <= w <= 1):
                raise InvalidWeightError(
                    f"weight for {kind.value} must be in [0, 1], got {w}"
                )
        self._set(weights, exception_multiplier_enabled)
        denominator = math.lcm(*(w.denominator for w in weights.values()))
        scaled = {k: int(w * denominator) for k, w in weights.items()}, denominator
        object.__setattr__(self, "scaled", scaled)

    def weight(self, kind: StatementKind) -> Fraction:
        return self.weights[kind]


def _impact(nodes: list[BlockNode], weights: WeightTable) -> ImpactScore:
    """Sum, over the statements under *nodes*, each kind's weight times
    the product of the multipliers on its path: a loop's iteration
    count, ``1/branches`` for a condition block, the handler count for
    an exception block (when the table enables it), and 1 for a function.
    """
    numerators, denominator = weights.scaled
    exception_multiplier = weights.exception_multiplier_enabled
    # A multiplier is an integer pair (numerator, divisor); the sums of
    # the child lists are kept per divisor and put over one denominator
    # at the end, so the walk builds no Fraction.
    sums: dict[int, int] = {}
    stack: list[tuple[list[BlockNode], int, int]] = [(nodes, 1, 1)]
    while stack:
        children, m, d = stack.pop()
        weight_sum = 0
        for node in children:
            if isinstance(node, Statement):
                weight_sum += numerators[node.kind]
            elif isinstance(node, LoopBlock):
                stack.append((node.body, m * node.count.value, d))
            elif isinstance(node, ConditionBlock):
                divisor = d * len(node.branches)
                stack.extend((branch, m, divisor) for branch in node.branches)
            elif isinstance(node, ExceptionBlock):
                stack.append(
                    (node.body, m * node.handlers if exception_multiplier else m, d)
                )
            elif isinstance(node, FunctionDef):
                stack.append((node.body, m, d))
            else:
                raise TypeError(f"not a block node: {node!r}")
        if weight_sum:
            sums[d] = sums.get(d, 0) + m * weight_sum
    common = math.lcm(*sums)
    total = sum(n * (common // d) for d, n in sums.items())
    return Fraction(total, common * denominator)


def block_impact(node: BlockNode, weights: WeightTable) -> ImpactScore:
    """The composed impact of one node of the block tree."""
    return _impact([node], weights)


def segment_impact(segment: CodeSegment, weights: WeightTable) -> ImpactScore:
    """The composed impact of a segment's nodes."""
    return _impact(segment.nodes, weights)

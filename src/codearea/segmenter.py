"""Partition a block tree into code segments.

Segments are the unit over which impacts accumulate.  At each scope the
top-level nodes are covered by an ordered, non-overlapping partition:
condition blocks become CL segments, loop blocks LL, exception blocks
EL, and maximal runs of consecutive plain statements become SL segments.
Function bodies are segmented recursively; the function contributes its
body's segments in place.

Statement runs only merge while the statements stay in the same weight
group: comments, preprocessor lines, and everything else each form their
own runs, which keeps per-segment impacts reproducible.

A sidecar file ``<source>.segments`` can replace the computed partition.
Each non-blank, non-``#`` line holds ``startLine endLine KIND`` with KIND
one of SL/CL/LL/EL.  The override must still be a partition: spans may
not overlap, every node of the computed partition must fall entirely
inside exactly one span, and every span must cover at least one node.
"""

from __future__ import annotations

import enum
import re
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .errors import SegmentOverrideError
from .frontend import (
    BlockNode,
    ConditionBlock,
    ExceptionBlock,
    FunctionDef,
    LoopBlock,
    Span,
    Statement,
    StatementKind,
)


class SegmentKind(enum.Enum):
    SL = "SL"  # simple lines
    CL = "CL"  # condition-based lines
    LL = "LL"  # loop-based lines
    EL = "EL"  # exception-handling lines


class CodeSegment(NamedTuple):
    kind: SegmentKind
    nodes: list[BlockNode]
    span: Span


class ScoredSegment(NamedTuple):
    """A segment as the report keeps it: no nodes, just its impact."""

    kind: SegmentKind
    span: Span
    impact: Fraction


SegmentCounts = namedtuple(
    "SegmentCounts", ["simple", "condition", "loop", "exception", "total"]
)


# The weight group of each statement kind that runs apart from code (``None``).
_GROUPS = {StatementKind.COMMENT: "comment", StatementKind.HEADER_INCLUDE: "header"}


def segment(tree: list[BlockNode]) -> list[CodeSegment]:
    """Compute the default ordered segment partition of *tree*."""
    out: list[CodeSegment] = []
    run: list[Statement] = []
    _partition(tree, out, run)
    _flush(out, run)
    return out


# Module-level helpers, not nested closures: a recursive closure is a
# function <-> cell reference cycle, which would keep ``out`` and the tree
# alive while ``analysis.analyze`` has the cyclic collector paused.


def _flush(out: list[CodeSegment], run: list[Statement]) -> None:
    if run:
        # The statements of a run end in text order.
        out.append(CodeSegment(SegmentKind.SL, list(run), (run[0].first, run[-1].last)))
        run.clear()


# The segment kind of each block that forms a segment of its own.
_BLOCK_KINDS = {
    ConditionBlock: SegmentKind.CL, LoopBlock: SegmentKind.LL, ExceptionBlock: SegmentKind.EL,
}


def _partition(
    nodes: list[BlockNode], out: list[CodeSegment], run: list[Statement]
) -> None:
    for node in nodes:
        if isinstance(node, Statement):
            if run and _GROUPS.get(run[-1].kind) != _GROUPS.get(node.kind):
                _flush(out, run)
            run.append(node)
            continue
        _flush(out, run)
        if isinstance(node, FunctionDef):
            _partition(node.body, out, run)
            _flush(out, run)
        elif (kind := _BLOCK_KINDS.get(type(node))) is not None:
            out.append(CodeSegment(kind, [node], (node.first, node.last)))
        else:
            raise TypeError(f"not a block node: {node!r}")


def segment_counts(segments: list[CodeSegment] | list[ScoredSegment]) -> SegmentCounts:
    """Count segments per kind; ``total`` is the overall segment count."""
    per = {kind: 0 for kind in SegmentKind}
    for seg in segments:
        per[seg.kind] += 1
    return SegmentCounts(
        per[SegmentKind.SL],
        per[SegmentKind.CL],
        per[SegmentKind.LL],
        per[SegmentKind.EL],
        len(segments),
    )


# ---------------------------------------------------------------------------
# Sidecar overrides
# ---------------------------------------------------------------------------


class SegmentOverride(NamedTuple):
    start: int
    end: int
    kind: SegmentKind


_LINE_NUMBER = re.compile(r"[-+]?[0-9]+")  # ``int`` alone also takes ``_`` and non-ASCII digits


def parse_segment_overrides(text: str) -> list[SegmentOverride]:
    """Parse a sidecar file into override triples."""
    overrides: list[SegmentOverride] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise SegmentOverrideError(
                f"sidecar line {lineno}: expected 'startLine endLine KIND', got {raw!r}"
            )
        try:
            if not (_LINE_NUMBER.fullmatch(parts[0]) and _LINE_NUMBER.fullmatch(parts[1])):
                raise ValueError
            start, end = int(parts[0]), int(parts[1])
        except ValueError:
            raise SegmentOverrideError(
                f"sidecar line {lineno}: line numbers must be integers"
            ) from None
        try:
            kind = SegmentKind(parts[2].upper())
        except ValueError:
            raise SegmentOverrideError(
                f"sidecar line {lineno}: unknown segment kind {parts[2]!r}"
            ) from None
        if start < 1 or end < start:
            raise SegmentOverrideError(
                f"sidecar line {lineno}: invalid span {start}..{end}"
            )
        overrides.append(SegmentOverride(start, end, kind))
    return overrides


def apply_segment_overrides(
    tree: list[BlockNode], overrides: list[SegmentOverride]
) -> list[CodeSegment]:
    """Replace the computed partition with sidecar spans, after validation.

    The partition's nodes start in text order and the sorted spans do not
    overlap, so one forward walk over the spans finds each node's span."""
    spans = sorted(overrides, key=lambda o: (o.start, o.end))
    for prev, cur in zip(spans, spans[1:]):
        if cur.start <= prev.end:
            raise SegmentOverrideError(
                f"sidecar spans {prev.start}..{prev.end} and "
                f"{cur.start}..{cur.end} overlap"
            )
    segments = [CodeSegment(o.kind, [], (o.start, o.end)) for o in spans]
    at = 0  # the first span that does not end before the current node
    for unit in (node for seg in segment(tree) for node in seg.nodes):
        first, last = unit.first, unit.last
        while at < len(spans) and spans[at].end < first:
            at += 1
        if at == len(spans) or not (spans[at].start <= first and last <= spans[at].end):
            raise SegmentOverrideError(
                f"lines {first}..{last} are not covered by exactly one sidecar span"
            )
        segments[at].nodes.append(unit)
    for seg in segments:
        if not seg.nodes:
            raise SegmentOverrideError(f"sidecar span {seg.span[0]}..{seg.span[1]} covers no code")
    return segments

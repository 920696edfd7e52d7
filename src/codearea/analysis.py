"""Corpus analysis: per-file pipeline plus aggregate report assembly.

:func:`analyze_source` runs one file through tokenize, parse, segment, and impact scoring,
with the cyclic collector paused; a parse failure is recorded on that file's entry and never
disturbs another file's numbers.  Neither does any other exception from one file's analysis:
it becomes that file's ``InternalError``, and its traceback is logged.  A file's result keeps
the parser's ``(line, IterationCount)`` loop records as they are.  :func:`iter_analyze` reads
each input and yields its result in turn, and :class:`Totals` folds what the aggregate reads
from each, so a report is always self-consistent.

A sidecar named ``<source>.segments`` next to an input file replaces
that file's computed segmentation (see :mod:`codearea.segmenter`), unless
a sidecar is passed explicitly, which is then the only one read.
"""

from __future__ import annotations

import codecs
import gc
import io
import operator
import os
import sys
from collections.abc import Iterator
from fractions import Fraction
from typing import BinaryIO, NamedTuple

from . import classifier, impact, metrics, segmenter
from .config import Config
from .errors import SegmentOverrideError, SourceError
from .frontend import CountProvenance, IterationCount, parse_tokens, tokenize
from .records import Record
from .segmenter import ScoredSegment, SegmentCounts

STDIN_PATH = "-"
STDIN_LABEL = "<stdin>"


class FileResult(Record):
    """One file's outcome.  ``loops`` holds ``(line, count)`` pairs; a failed
    file has an ``error``, with its ``error_line`` when known.  A list left
    as None starts empty."""

    __slots__ = _fields = ("path", "raw_loc", "segments", "counts", "impact", "loops", "flow",
                           "diagnostics", "error", "error_line")

    def __init__(self, path: str, raw_loc: int = 0, segments: list[ScoredSegment] | None = None,
                 counts: SegmentCounts = SegmentCounts(0, 0, 0, 0, 0),
                 impact: Fraction = Fraction(0),
                 loops: list[tuple[int, IterationCount]] | None = None,
                 flow: classifier.FlowReport = classifier.FlowReport(0, 0, True),
                 diagnostics: list[str] | None = None, error: str | None = None,
                 error_line: int | None = None):
        self._set(path, raw_loc, [] if segments is None else segments, counts, impact,
                  [] if loops is None else loops, flow, [] if diagnostics is None else diagnostics,
                  error, error_line)


class AnalysisReport(NamedTuple):
    files: list[FileResult]
    raw_loc: int
    counts: SegmentCounts
    code_area: Fraction
    qr_attrs: metrics.QualityAttributes
    qr: int
    execution_time_s: Fraction | None
    efficiency: Fraction | None
    percentage_of_baseline: Fraction
    meets_threshold: bool
    rubric_score: Fraction
    level: classifier.QualityLevel
    flow: classifier.FlowReport
    diagnostics: list[str]

    @property
    def failed_files(self) -> list[FileResult]:
        return [f for f in self.files if f.error is not None]


def _count_lines(text: str) -> int:
    if not text:
        return 0
    return text.count("\n") + (0 if text.endswith("\n") else 1)


def analyze_source(
    text: str,
    path: str,
    config: Config,
    *,
    sidecar: str | None = None,
) -> FileResult:
    """Analyze one file's contents, without a leading UTF-8 byte-order
    mark; parse errors land on the result, and any other exception is the
    result's ``InternalError``, its traceback logged.  The analysis holds
    *text* until ``tokenize`` returns (on Python 3.11 and later; a caller's
    own reference keeps it alive), then the token columns, with no comment,
    string or preprocessor text, until ``parse_tokens`` returns, then the tree."""
    text = text.removeprefix("\ufeff")
    raw_loc = _count_lines(text)
    # No reference cycles (tests/test_no_cycles.py): the collector would only rescan the live
    # tokens and tree, so it is paused while the file is analyzed and left as it was found.
    collector_was_on = gc.isenabled()
    gc.disable()
    try:
        tokens = tokenize(text)
        del text  # the parser reads only the columns, so the text is freed here
        diagnostics = [
            f"{path}:{line}: unknown character {ch!r} tokenized as punctuation"
            for ch, line in tokens.unknown
        ]
        parsed = parse_tokens(
            tokens,
            default_iterations=config.default_iterations,
            init_termination_calls=config.init_termination_calls,
        )
        del tokens  # the tree holds none of them, so free them before scoring
        if sidecar is not None:
            overrides = segmenter.parse_segment_overrides(sidecar)
            segments = segmenter.apply_segment_overrides(parsed.tree, overrides)
        else:
            segments = segmenter.segment(parsed.tree)
        diagnostics += (f"{path}: {d}" for d in parsed.diagnostics)
        diagnostics += (
            f"{path}:{line}: loop bound not statically "
            f"resolvable; using default count {count.value}"
            for line, count in parsed.loops
            if count.provenance is CountProvenance.CONFIG_DEFAULT
        )
        scored = [
            ScoredSegment(seg.kind, seg.span, impact.segment_impact(seg, config.weights))
            for seg in segments
        ]
        flow = classifier.flow_orderliness(parsed.flow, exit_limit=config.flow_exit_limit)
        return FileResult(path, raw_loc, scored, segmenter.segment_counts(scored),
                          metrics.code_area(scored), parsed.loops, flow, diagnostics)
    except (SourceError, SegmentOverrideError) as exc:
        error = f"{type(exc).__name__}: {exc}"
        return FileResult(path, raw_loc, diagnostics=diagnostics, error=error,
                          error_line=getattr(exc, "line", None))
    except Exception as exc:  # a defect here must not cost the other files
        import logging  # here, since importing it costs every run ~8 ms

        logging.getLogger(__name__).exception("internal error analyzing %s", path)
        return FileResult(path, raw_loc, error=f"InternalError: {type(exc).__name__}: {exc}")
    finally:
        if collector_was_on:
            gc.enable()


def _read_input(path: str, sidecar_path: str | None) -> tuple[str, str | None]:
    """Return (text, sidecar text or None) for one input path.  The sidecar
    is *sidecar_path* when given, else ``<path>.segments`` if that file
    exists."""
    if path == STDIN_PATH:
        if not hasattr(sys.stdin, "buffer"):
            raise OSError(f"standard input {'is closed' if sys.stdin is None else 'has no buffer'}")
        text = _read(sys.stdin.buffer)
    else:
        with open(path, "rb") as file:
            text = _read(file)
        if sidecar_path is None and os.path.isfile(path + ".segments"):
            sidecar_path = path + ".segments"
    if sidecar_path is None:
        return text, None
    with open(sidecar_path, "rb") as file:
        return text, _read(file).removeprefix("\ufeff")


def _read(file: BinaryIO) -> str:
    """Decode *file* as strict UTF-8 with universal newlines, 64 KiB at a time:
    freeing an input-sized block would make glibc serve the token columns from
    a holey heap.  A decode error gives its position in the whole input."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    newlines = io.IncrementalNewlineDecoder(decoder, True)  # True: translate \r\n and \r to \n
    pieces, offset = [], 0  # offset: the bytes read before the current piece
    try:
        for piece in iter(lambda: file.read(1 << 16), b""):
            pieces.append(newlines.decode(piece))
            offset += len(piece)
        pieces.append(newlines.decode(b"", final=True))
    except UnicodeDecodeError as exc:
        held = offset - len(decoder.getstate()[0])  # where the failed decode's bytes begin
        exc.object = bytes(held) + exc.object  # the message shows object[start]
        exc.start, exc.end = exc.start + held, exc.end + held
        raise
    return "".join(pieces)


class Totals(Record):
    """What the aggregate reads of the files, folded one at a time: the analyzed
    files' raw LOC, segment counts, area, backward jumps and unstructured exits;
    every file's diagnostics (None starts an empty list), and the number that failed."""

    __slots__ = _fields = ("raw_loc", "counts", "area", "backward", "unstructured",
                           "diagnostics", "failed")

    def __init__(self, raw_loc: int = 0, counts: SegmentCounts = SegmentCounts(0, 0, 0, 0, 0),
                 area: Fraction = Fraction(0), backward: int = 0, unstructured: int = 0,
                 diagnostics: list[str] | None = None, failed: int = 0):
        diagnostics = [] if diagnostics is None else diagnostics
        self._set(raw_loc, counts, area, backward, unstructured, diagnostics, failed)

    def add(self, f: FileResult) -> FileResult:
        """Fold *f* in and return it, so ``map(totals.add, files)`` folds a stream."""
        self.diagnostics += f.diagnostics
        if f.error is not None:
            self.failed += 1
            self.diagnostics.append(f"{f.path}: {f.error}")
        else:
            self.raw_loc += f.raw_loc
            self.counts = SegmentCounts._make(map(operator.add, self.counts, f.counts))
            self.area += f.impact
            self.backward += f.flow.backward_jumps
            self.unstructured += f.flow.unstructured_exits
        return f

    def report(self, config: Config, files: list[FileResult]) -> AnalysisReport:
        """The aggregate of the files folded so far, listing *files*."""
        diagnostics = list(self.diagnostics)
        qr_attrs = config.qr or metrics.QualityAttributes()
        if config.qr is None:
            diagnostics.append("quality attributes not configured; defaulting each to 1")
        quotient = metrics.quality_quotient(qr_attrs)
        if config.exec_time is None:
            time_s = efficiency = None
            diagnostics.append("execution time not provided; efficiency omitted")
        else:
            time_s = metrics.execution_time(config.exec_time, self.counts.total)
            efficiency = metrics.efficiency(self.area, time_s, quotient)
        percentage = metrics.baseline_percentage(self.area, quotient)

        flow = classifier.flow_report(self.backward, self.unstructured, config.flow_exit_limit)
        answers = dict(config.rubric)
        for question in classifier.RUBRIC_QUESTIONS:
            if question not in answers:
                diagnostics.append(f"rubric answer '{question}' missing; defaulting to 1")
                answers[question] = 1
        rubric = classifier.LevelRubric(answers)
        score = classifier.rubric_score(rubric, flow, penalty=config.flow_penalty)
        level = classifier.classify_level(score)
        if classifier.in_range_gap(score):
            diagnostics.append(
                f"level score {float(score)} falls between published ranges; "
                f"assigned level {level.level} by closed intervals"
            )

        return AnalysisReport(
            files=files,
            raw_loc=self.raw_loc,
            counts=self.counts,
            code_area=self.area,
            qr_attrs=qr_attrs,
            qr=quotient,
            execution_time_s=time_s,
            efficiency=efficiency,
            percentage_of_baseline=percentage,
            meets_threshold=percentage >= metrics.THRESHOLD_PERCENT,
            rubric_score=score,
            level=level,
            flow=flow,
            diagnostics=diagnostics,
        )


def iter_analyze(
    paths: list[str], config: Config, *, sidecar_path: str | None = None
) -> Iterator[FileResult]:
    """Analyze *paths* in order, yielding each file's result when it is done.
    ``sidecar_path`` is an explicit segmentation override file, read in place
    of sidecar discovery; it is only meaningful for a single input.  The first
    ``-`` reads standard input, as ``<stdin>``.  Each text is handed over in a
    one-slot list emptied into the call, so on Python 3.11+ only the analysis holds it."""
    stdin_read = False
    for path in paths:
        label = STDIN_LABEL if path == STDIN_PATH else path
        try:
            if stdin_read and path == STDIN_PATH:
                raise OSError("standard input already read")
            stdin_read |= path == STDIN_PATH
            *text, sidecar = _read_input(path, sidecar_path)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in a path, or UnicodeDecodeError
            yield FileResult(path=label, error=f"Io: {exc}")
        else:
            yield analyze_source(text.pop(), label, config, sidecar=sidecar)


def analyze(
    paths: list[str], config: Config, *, sidecar_path: str | None = None
) -> AnalysisReport:
    """Analyze *paths* in order: :func:`iter_analyze`, collected and folded by :class:`Totals`."""
    totals = Totals()
    files = list(map(totals.add, iter_analyze(paths, config, sidecar_path=sidecar_path)))
    return totals.report(config, files)

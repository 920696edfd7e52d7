"""Report rendering: human-readable text and versioned JSON.

Displayed numbers are rounded half-up to two decimals; the JSON format
additionally carries every rational under an ``*_exact`` key as a
reduced ``[numerator, denominator]`` pair.  Identical reports always
render to identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .analysis import AnalysisReport, FileResult
from .metrics import QUALITY_ATTRIBUTE_NAMES

SCHEMA_VERSION = 1


def _cents(value: Fraction) -> int:
    """Round half-up to whole hundredths (values are non-negative here)."""
    q, r = divmod(value.numerator * 100, value.denominator)
    if 2 * r >= value.denominator:
        q += 1
    return q


def round2(value: Fraction) -> float:
    return _cents(value) / 100


def render2(value: Fraction) -> str:
    q = _cents(value)
    return f"{q // 100}.{q % 100:02d}"


def exact(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


def emit_report(report: AnalysisReport, fmt: str = "text") -> bytes:
    """Serialize *report* to UTF-8 bytes in the requested format."""
    if fmt == "json":
        return _render_json(report)
    if fmt == "text":
        return _render_text(report)
    raise ValueError(f"unknown report format: {fmt!r}")


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def _file_json(f: FileResult) -> dict:
    entry: dict = {"path": f.path, "raw_loc": f.raw_loc}
    if f.error is not None:
        entry["error"] = {"message": f.error, "line": f.error_line}
        return entry
    entry["segments"] = [
        {
            "kind": seg.kind.value,
            "start_line": seg.span[0],
            "end_line": seg.span[1],
            "impact": round2(seg.impact),
            "impact_exact": exact(seg.impact),
        }
        for seg in f.segments
    ]
    entry["segment_counts"] = _counts_json(f.counts)
    entry["impact"] = round2(f.impact)
    entry["impact_exact"] = exact(f.impact)
    entry["loops"] = [
        {"line": lp.line, "count": lp.count, "provenance": lp.provenance}
        for lp in f.loops
    ]
    entry["flow"] = _flow_json(f.flow)
    return entry


def _counts_json(counts) -> dict:
    return {
        "sl": counts.simple,
        "cl": counts.condition,
        "ll": counts.loop,
        "el": counts.exception,
        "total": counts.total,
    }


def _flow_json(flow) -> dict:
    return {
        "backward_jumps": flow.backward_jumps,
        "unstructured_exits": flow.unstructured_exits,
        "orderly": flow.orderly,
    }


def _render_json(report: AnalysisReport) -> bytes:
    doc = {
        "v": SCHEMA_VERSION,
        "files": [_file_json(f) for f in report.files],
        "raw_loc": report.raw_loc,
        "segment_counts": _counts_json(report.counts),
        "code_area": round2(report.code_area),
        "code_area_exact": exact(report.code_area),
        "quality_attributes": dict(
            zip(QUALITY_ATTRIBUTE_NAMES, report.qr_attrs.as_tuple())
        ),
        "quality_quotient": report.qr,
        "quality_quotient_normalized": round2(Fraction(report.qr, 10)),
        "execution_time_s": None
        if report.execution_time_s is None
        else round2(report.execution_time_s),
        "execution_time_exact": None
        if report.execution_time_s is None
        else exact(report.execution_time_s),
        "efficiency": None if report.efficiency is None else round2(report.efficiency),
        "efficiency_exact": None
        if report.efficiency is None
        else exact(report.efficiency),
        "percentage_of_baseline": round2(report.percentage_of_baseline),
        "percentage_of_baseline_exact": exact(report.percentage_of_baseline),
        "meets_threshold": report.meets_threshold,
        "rubric_score": round2(report.rubric_score),
        "rubric_score_exact": exact(report.rubric_score),
        "level": report.level.level,
        "flow": _flow_json(report.flow),
        "diagnostics": list(report.diagnostics),
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Text
# ---------------------------------------------------------------------------


def _render_text(report: AnalysisReport) -> bytes:
    lines = [
        "impact-weighted code metrics",
        "============================",
        f"files: {len(report.files)}",
        "",
    ]
    for f in report.files:
        lines.append(f"{f.path}")
        if f.error is not None:
            lines.append(f"  error: {f.error}")
            lines.append("")
            continue
        lines.append(f"  raw LOC: {f.raw_loc}")
        for seg in f.segments:
            lines.append(
                f"  {seg.kind.value}  lines {seg.span[0]:>4}-{seg.span[1]:<4} "
                f"impact {render2(seg.impact)}"
            )
        for lp in f.loops:
            lines.append(
                f"  loop at line {lp.line}: count {lp.count} ({lp.provenance})"
            )
        lines.append(f"  file impact: {render2(f.impact)}")
        lines.append("")
    c = report.counts
    lines.append("aggregate")
    lines.append("---------")
    lines.append(f"  raw LOC:           {report.raw_loc}")
    lines.append(
        f"  segments:          SL={c.simple} CL={c.condition} LL={c.loop} "
        f"EL={c.exception} total={c.total}"
    )
    lines.append(f"  code area:         {render2(report.code_area)}")
    if report.execution_time_s is None:
        lines.append("  execution time:    n/a")
        lines.append("  efficiency:        n/a")
    else:
        lines.append(f"  execution time:    {render2(report.execution_time_s)} s")
        lines.append(f"  efficiency:        {render2(report.efficiency)}")
    lines.append(
        f"  quality quotient:  {report.qr}/10 "
        f"({render2(Fraction(report.qr, 10))} normalized)"
    )
    met = "met" if report.meets_threshold else "not met"
    lines.append(
        f"  baseline:          {render2(report.percentage_of_baseline)}% "
        f"(75% threshold {met})"
    )
    lines.append(
        f"  level:             {report.level.level} "
        f"(score {render2(report.rubric_score)})"
    )
    flow_state = "orderly" if report.flow.orderly else "not orderly"
    lines.append(
        f"  flow:              {flow_state} "
        f"(backward={report.flow.backward_jumps}, "
        f"unstructured={report.flow.unstructured_exits})"
    )
    if report.diagnostics:
        lines.append("")
        lines.append("diagnostics")
        lines.append("-----------")
        for diag in report.diagnostics:
            lines.append(f"  - {diag}")
    lines.append("")
    return "\n".join(lines).encode("utf-8")

"""Dict-and-``json.dumps`` JSON renderer kept as a test oracle.

This is the JSON renderer the package used before it wrote schema v1 by
template.  It builds the whole document as nested dicts and lists and
hands it to ``json.dumps(doc, indent=2)``, so the schema's layout is
easy to read off; the byte-identity tests require
:func:`codearea.report.emit_report` to give the same bytes wherever a
plain key's value survives a 64-bit float (below 10**13).  It is not
used outside the tests.
"""

from __future__ import annotations

import json
from fractions import Fraction

from codearea.analysis import AnalysisReport, FileResult
from codearea.metrics import QUALITY_ATTRIBUTE_NAMES
from codearea.report import SCHEMA_VERSION, round2


def exact(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


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
        {"line": line, "count": count.value, "provenance": count.provenance.value}
        for line, count in f.loops
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


def render(report: AnalysisReport) -> bytes:
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

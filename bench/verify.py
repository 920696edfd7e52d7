"""Checks a rendered report against the generator's expectations.

Only the JSON report (schema v1) and the text report's summary lines are
read, never the package's objects, so the checks hold across any change
to the package's internals that keeps its output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import SourceFile, Workload

EXEC_TIME = Fraction(88)
QR = (1, 2, 0, 1, 2)
REPORT_FLAGS = ["--exec-time", "88", "--qr", "1,2,0,1,2"]
FLOW_EXIT_LIMIT = 2
RUBRIC_DEFAULT_SCORE = 5  # five unanswered questions default to 1 each

# The bundled corpus run with REPORT_FLAGS, as the README states it.
GOLDEN_CODE_AREA = 220.1
GOLDEN_EFFICIENCY_EXACT = [6603, 440]


def report_config(api):
    """The package's ``Config`` for what REPORT_FLAGS set on the CLI."""
    return api.Config(exec_time=api.TotalSeconds(EXEC_TIME), qr=api.QualityAttributes(*QR))


def _q100(value: Fraction) -> int:
    q, r = divmod(value.numerator * 100, value.denominator)
    return q + 1 if 2 * r >= value.denominator else q


def round2(value: Fraction) -> float:
    """Half-up rounding to two decimals, as the JSON report shows it."""
    return _q100(value) / 100


def render2(value: Fraction) -> str:
    """Half-up rounding to two decimals, as the text report shows it."""
    q = _q100(value)
    return f"{q // 100}.{q % 100:02d}"


def _exact(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


def _counts(files: list[SourceFile]) -> dict[str, int]:
    total = dict.fromkeys(("sl", "cl", "ll", "el", "total"), 0)
    for f in files:
        for key, n in f.expected.counts().items():
            total[key] += n
    return total


def file_mismatch(entry: dict, f: SourceFile) -> str | None:
    """Describe the first way *entry* disagrees with *f*, or return None."""
    exp = f.expected
    if entry.get("path") != f.name:
        return f"path {entry.get('path')!r}"
    if entry.get("raw_loc") != exp.raw_loc:
        return f"raw_loc {entry.get('raw_loc')} != {exp.raw_loc}"
    if exp.error is not None:
        want = {"message": exp.error[0], "line": exp.error[1]}
        return None if entry.get("error") == want else f"error {entry.get('error')!r} != {want!r}"
    if "error" in entry:
        return f"unexpected error {entry['error']!r}"
    got = [
        (s["kind"], s["start_line"], s["end_line"], s["impact_exact"], s["impact"])
        for s in entry["segments"]
    ]
    want = [(k, a, b, _exact(i), round2(i)) for k, a, b, i in exp.segments]
    if got != want:
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return f"segment {i}: {g} != {w}"
        return f"{len(got)} segments != {len(want)}"
    if entry["segment_counts"] != exp.counts():
        return f"segment_counts {entry['segment_counts']} != {exp.counts()}"
    if entry["impact_exact"] != _exact(exp.impact) or entry["impact"] != round2(exp.impact):
        return f"impact {entry['impact_exact']} != {_exact(exp.impact)}"
    loops = [(lp["line"], lp["count"], lp["provenance"]) for lp in entry["loops"]]
    if loops != exp.loops:
        for i, (g, w) in enumerate(zip(loops, exp.loops)):
            if g != w:
                return f"loop {i}: {g} != {w}"
        return f"{len(loops)} loops != {len(exp.loops)}"
    flow = {
        "backward_jumps": exp.backward,
        "unstructured_exits": exp.unstructured,
        "orderly": exp.backward == 0 and exp.unstructured <= FLOW_EXIT_LIMIT,
    }
    if entry["flow"] != flow:
        return f"flow {entry['flow']} != {flow}"
    return None


def expected_summary(workload: Workload) -> dict:
    """The aggregate keys of the JSON report a correct run produces."""
    ok = [f for f in workload.files if f.expected.error is None]
    area = sum((f.expected.impact for f in ok), Fraction(0))
    quotient = sum(QR)
    percentage = 100 * area * quotient / (100_000 * Fraction(15, 2))
    backward = sum(f.expected.backward for f in ok)
    unstructured = sum(f.expected.unstructured for f in ok)
    orderly = backward == 0 and unstructured <= FLOW_EXIT_LIMIT
    score = Fraction(RUBRIC_DEFAULT_SCORE - (0 if orderly else 1))
    level = 1 if score >= Fraction(17, 2) else 2 if score >= Fraction(13, 2) \
        else 3 if score >= Fraction(9, 2) else 4
    return {
        "raw_loc": sum(f.expected.raw_loc for f in ok),
        "segment_counts": _counts(ok),
        "code_area": round2(area),
        "code_area_exact": _exact(area),
        "efficiency_exact": _exact(area / EXEC_TIME * quotient),
        "percentage_of_baseline_exact": _exact(percentage),
        "meets_threshold": percentage >= 75,
        "rubric_score_exact": _exact(score),
        "level": level,
        "flow": {
            "backward_jumps": backward,
            "unstructured_exits": unstructured,
            "orderly": orderly,
        },
    }


def check_json(data: bytes, workload: Workload) -> tuple[int, list[str]]:
    """Return (files in disagreement, problems) for a JSON report.

    A wrong aggregate, or a report that cannot be read, fails every file.
    """
    n = len(workload.files)
    try:
        doc = json.loads(data)
        entries = doc["files"]
    except (ValueError, KeyError, TypeError) as exc:
        return n, [f"unreadable JSON report: {exc!r}"]
    if len(entries) != n:
        return n, [f"{len(entries)} files reported, {n} analysed"]
    problems = []
    for entry, f in zip(entries, workload.files):
        try:
            problem = file_mismatch(entry, f)
        except (KeyError, TypeError) as exc:
            problem = f"malformed entry: {exc!r}"
        if problem is not None:
            problems.append(f"{f.name}: {problem}")
    for key, want in expected_summary(workload).items():
        if doc.get(key) != want:
            return n, problems + [f"aggregate {key}: {doc.get(key)!r} != {want!r}"]
    return len(problems), problems


def check_text(data: bytes, workload: Workload) -> tuple[int, list[str]]:
    """Spot-check the text report's file count and code area."""
    summary = expected_summary(workload)
    area = Fraction(*summary["code_area_exact"])
    text = data.decode("utf-8", errors="replace")
    wanted = (f"files: {len(workload.files)}\n", f"  code area:         {render2(area)}\n")
    missing = [w.strip() for w in wanted if w not in text]
    if missing:
        return len(workload.files), [f"text report lacks {m!r}" for m in missing]
    return 0, []


def check_golden(data: bytes) -> list[str]:
    """Problems with the corpus report, which must match the README."""
    try:
        doc = json.loads(data)
        got = (doc["code_area"], doc["efficiency_exact"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable corpus report: {exc!r}"]
    if got != (GOLDEN_CODE_AREA, GOLDEN_EFFICIENCY_EXACT):
        return [f"corpus gives code area {got[0]}, efficiency {got[1]}"]
    return []

from __future__ import annotations

import importlib.util
import io
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from codearea import WeightTable, parse_tokens, segment, segment_impact, tokenize
from codearea.segmenter import ScoredSegment

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = REPO_ROOT / "corpus"

CORPUS_FILES = [
    CORPUS / "comments_only.c",
    CORPUS / "headers_and_calls.c",
    CORPUS / "branching.c",
    CORPUS / "service_loop.c",
    CORPUS / "nested_repeat.c",
]


@pytest.fixture
def corpus_paths() -> list[str]:
    return [str(p) for p in CORPUS_FILES]


def stdin_of(text: str) -> io.TextIOWrapper:
    """A standard input that holds *text* as UTF-8 bytes, as the CLI's does."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


def universal_newlines(text: str) -> str:
    """*text* as a path or standard input reads it: each ``\r\n`` and ``\r`` a ``\n``."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_source(source: str):
    """Tokenize and parse a source string with default settings."""
    return parse_tokens(tokenize(source))[0]


def flow_facts(source: str):
    """The flow facts the parser records for a source string."""
    return parse_tokens(tokenize(source)).flow


def segments_of(source: str, weights: WeightTable | None = None):
    """Full single-file pipeline: parse, segment, and score, as report rows."""
    weights = weights or WeightTable()
    return [
        ScoredSegment(seg.kind, seg.span, segment_impact(seg, weights))
        for seg in segment(parse_source(source))
    ]


def total_impact(source: str, weights: WeightTable | None = None):
    return sum((seg.impact for seg in segments_of(source, weights)), start=0)


def bench_workloads():
    """The bench's workload generator, ``bench/workloads.py``, imported
    from its file without touching it."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", REPO_ROOT / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


# ---------------------------------------------------------------------------
# Structured random sources for property tests
# ---------------------------------------------------------------------------

STATEMENT_BANK = [
    "flush_queue();",
    "n = n + 1;",
    "int total;",
    "limit = 8;",
    "value = probe(sensor) + probe(backup);",
    "// boundary note",
    "#include <stdio.h>",
    "total = drain(total);",
    "return total;",
]


@st.composite
def source_lines(draw, depth: int = 0):
    """Random, brace-balanced source snippets as a list of lines."""
    lines: list[str] = []
    for _ in range(draw(st.integers(0, 4))):
        choice = draw(st.integers(0, 5 if depth < 2 else 2))
        if choice <= 2:
            lines.append(draw(st.sampled_from(STATEMENT_BANK)))
        elif choice == 3:
            bound = draw(st.integers(0, 3))
            inner = draw(source_lines(depth + 1))
            lines += [f"for (i = 0; i < {bound}; i++)", "{"]
            lines += ["    " + ln for ln in inner]
            lines += ["}"]
        elif choice == 4:
            then = draw(source_lines(depth + 1))
            alt = draw(source_lines(depth + 1))
            lines += ["if (n > 0)", "{"]
            lines += ["    " + ln for ln in then]
            lines += ["}", "else", "{"]
            lines += ["    " + ln for ln in alt]
            lines += ["}"]
        else:
            inner = draw(source_lines(depth + 1))
            lines += ["try", "{"]
            lines += ["    " + ln for ln in inner]
            lines += ["}", "catch (err)", "{", "    soothe();", "}"]
    return lines


def as_source(lines: list[str]) -> str:
    return "\n".join(lines) + "\n" if lines else ""

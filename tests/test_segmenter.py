from __future__ import annotations

import time

import pytest

from codearea import (
    Config,
    FunctionDef,
    SegmentKind,
    SegmentOverrideError,
    analyze_source,
    apply_segment_overrides,
    parse_segment_overrides,
    segment,
    segment_counts,
)

from conftest import CORPUS, parse_source

FIG9_SOURCE = (CORPUS / "service_loop.c").read_text(encoding="utf-8")


def test_twenty_comments_form_one_segment():
    source = (CORPUS / "comments_only.c").read_text(encoding="utf-8")
    segs = segment(parse_source(source))
    assert len(segs) == 1
    assert segs[0].kind is SegmentKind.SL
    assert segs[0].span == (1, 20)
    assert len(segs[0].nodes) == 20


def test_twenty_comment_file_counts():
    source = (CORPUS / "comments_only.c").read_text(encoding="utf-8")
    counts = segment_counts(segment(parse_source(source)))
    assert counts == (1, 0, 0, 0, 1)


def test_empty_file_has_no_segments():
    assert segment(parse_source("")) == []
    assert segment_counts([]) == (0, 0, 0, 0, 0)


def test_function_body_segments_in_order():
    segs = segment(parse_source(FIG9_SOURCE))
    assert [s.kind for s in segs] == [SegmentKind.SL, SegmentKind.CL, SegmentKind.LL]
    counts = segment_counts(segs)
    assert (counts.simple, counts.condition, counts.loop, counts.exception) == (1, 1, 1, 0)
    assert counts.total == 3


def test_headers_and_code_split_into_separate_runs():
    segs = segment(parse_source("#include <a.h>\n#include <b.h>\ncall_one();\ncall_two();\n"))
    assert [s.kind for s in segs] == [SegmentKind.SL, SegmentKind.SL]
    assert [len(s.nodes) for s in segs] == [2, 2]


def test_comments_split_from_code_runs():
    segs = segment(parse_source("x = 1;\n// note\ny = 2;\n"))
    assert [len(s.nodes) for s in segs] == [1, 1, 1]


def test_exception_block_becomes_el_segment():
    segs = segment(parse_source("try { risky(); } catch (e) { soothe(); }"))
    assert [s.kind for s in segs] == [SegmentKind.EL]


def test_segments_partition_and_stay_ordered():
    segs = segment(parse_source(FIG9_SOURCE))
    spans = [s.span for s in segs]
    assert spans == sorted(spans)
    for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
        assert prev_end < next_start
    node_ids = [id(n) for s in segs for n in s.nodes]
    assert len(node_ids) == len(set(node_ids))


def test_concatenation_appends_segment_lists():
    a = "x = probe(a) + probe(b);\n"
    b = "if (x > 0) { y = probe(x) + probe(y); } else { }\n"
    combined = segment(parse_source(a + b))
    assert [s.kind for s in combined] == [SegmentKind.SL, SegmentKind.CL]
    assert [len(s.nodes) for s in combined] == [1, 1]


def test_concatenation_merges_boundary_runs_of_same_group():
    a = "x = 1;\n"
    b = "y = 2;\n"
    only_a = segment_counts(segment(parse_source(a)))
    combined = segment_counts(segment(parse_source(a + b)))
    assert only_a.total == 1
    assert combined.total == 1  # one merged SL run


@pytest.mark.parametrize("where", ["top", "function_body"])
def test_a_tree_holding_a_non_node_is_refused(where):
    (statement,) = parse_source("x = 1;\n")
    nodes = [statement, object(), statement]
    tree = nodes if where == "top" else [FunctionDef("f", nodes, 1, 1)]
    with pytest.raises(TypeError, match="not a block node"):
        segment(tree)


# ---------------------------------------------------------------------------
# Sidecar overrides
# ---------------------------------------------------------------------------


def test_sidecar_parsing():
    overrides = parse_segment_overrides("# comment\n\n1 20 SL\n21 30 ll\n")
    assert [(o.start, o.end, o.kind) for o in overrides] == [
        (1, 20, SegmentKind.SL),
        (21, 30, SegmentKind.LL),
    ]


@pytest.mark.parametrize(
    "text",
    [
        "1 20\n",            # missing kind
        "one 20 SL\n",       # non-integer
        "1 20 XX\n",         # unknown kind
        "5 2 SL\n",          # end before start
        "0 4 SL\n",          # line numbers are 1-based
        "\u0661 2 SL\n",     # digits that are not ASCII
        "1_0 20 SL\n",       # an underscore
    ],
)
def test_sidecar_parse_errors(text):
    with pytest.raises(SegmentOverrideError):
        parse_segment_overrides(text)


def test_sidecar_merges_whole_file_into_one_segment():
    tree = parse_source(FIG9_SOURCE)
    segs = apply_segment_overrides(tree, parse_segment_overrides("1 27 SL\n"))
    assert len(segs) == 1
    assert segs[0].kind is SegmentKind.SL
    assert len(segs[0].nodes) == 5  # three statements, condition, loop


def test_sidecar_respecting_boundaries_is_accepted():
    tree = parse_source(FIG9_SOURCE)
    segs = apply_segment_overrides(
        tree, parse_segment_overrides("1 21 CL\n22 27 LL\n")
    )
    assert [s.kind for s in segs] == [SegmentKind.CL, SegmentKind.LL]


def test_sidecar_overlap_rejected():
    tree = parse_source(FIG9_SOURCE)
    with pytest.raises(SegmentOverrideError):
        apply_segment_overrides(
            tree, parse_segment_overrides("1 20 SL\n15 27 LL\n")
        )


def test_sidecar_splitting_a_block_rejected():
    tree = parse_source(FIG9_SOURCE)
    # Line 10 is inside the if/else block: the block cannot be split.
    with pytest.raises(SegmentOverrideError):
        apply_segment_overrides(
            tree, parse_segment_overrides("1 10 SL\n11 27 LL\n")
        )


def test_sidecar_uncovered_node_rejected():
    tree = parse_source(FIG9_SOURCE)
    with pytest.raises(SegmentOverrideError):
        apply_segment_overrides(tree, parse_segment_overrides("1 21 SL\n"))


def test_sidecar_empty_span_rejected():
    tree = parse_source("x = 1;\n")
    with pytest.raises(SegmentOverrideError):
        apply_segment_overrides(
            tree, parse_segment_overrides("1 1 SL\n5 9 LL\n")
        )


@pytest.mark.parametrize(
    "sidecar,message",
    [
        ("1 2 SL\n2 2 SL\n9 9 CL\n", "sidecar spans 1..2 and 2..2 overlap"),
        ("1 1 SL\n2 2 SL\n", "lines 3..3 are not covered by exactly one sidecar span"),
        ("1 1 SL\n2 2 SL\n3 3 SL\n", "sidecar span 2..2 covers no code"),
    ],
)
def test_sidecar_checks_come_in_order(sidecar, message):
    # Overlap before an uncovered node, and an uncovered node before an empty span.
    tree = parse_source("x = 1;\n\ny = 2;\n")
    with pytest.raises(SegmentOverrideError) as err:
        apply_segment_overrides(tree, parse_segment_overrides(sidecar))
    assert str(err.value) == message


def test_a_sidecar_span_per_line_is_matched_in_linear_time():
    # Each node finds its span in one forward walk; a search from the first
    # span for every node makes about 2 * 10**8 span checks at this size.
    n = 20_000
    source = "".join(f"x{i} = {i};\n" for i in range(n))
    sidecar = "".join(f"{line} {line} SL\n" for line in range(1, n + 1))
    start = time.perf_counter()
    result = analyze_source(source, "lines.c", Config(), sidecar=sidecar)
    elapsed = time.perf_counter() - start
    assert result.error is None and len(result.segments) == n
    assert elapsed < 5.0

"""The package's records: constructors, attributes, equality and immutability.

Records are named tuples or slotted classes.  Each keeps its constructor
(positional order, keyword names and defaults), its attribute names and
the exception its validation raises.  Records that refuse assignment keep
refusing it, equality tells record types apart, no two instances share a
mutable default, and ``_replace`` and pickling validate like the constructor.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from codearea import (
    DEFAULT_WEIGHTS,
    AnalysisReport,
    AttributeOutOfRangeError,
    CodeSegment,
    ConditionBlock,
    Config,
    ConfigParseError,
    CountProvenance,
    ExceptionBlock,
    FileResult,
    FlowReport,
    FunctionDef,
    InvalidWeightError,
    IterationCount,
    LevelRubric,
    LoopBlock,
    NonPositiveTimeError,
    PerSegmentAverage,
    QualityAttributes,
    QualityLevel,
    SegmentKind,
    Statement,
    StatementKind,
    TotalSeconds,
    UnknownKeyError,
    WeightTable,
    load_config,
)
from codearea.analysis import Totals
from codearea.frontend import DEFAULT_INIT_TERMINATION_CALLS
from codearea.segmenter import SegmentCounts, SegmentOverride

UNIT = {kind: Fraction(1) for kind in StatementKind}
COUNTS = SegmentCounts(1, 2, 3, 4, 10)
ORDERLY = FlowReport(0, 0, True)

# Each record with its attribute names, in constructor order, and one
# valid value for each.
RECORDS = [
    (IterationCount, ("value", "provenance"), (3, CountProvenance.PRAGMA_OVERRIDE)),
    (Statement, ("kind", "first", "last"), (StatementKind.RETURN, 4, 5)),
    (ConditionBlock, ("branches", "first", "last", "from_switch"), ([[], []], 1, 2, True)),
    (LoopBlock, ("count", "body", "first", "last"), (IterationCount(2, CountProvenance.LITERAL_BOUND), [], 1, 2)),
    (ExceptionBlock, ("handlers", "body", "first", "last"), (2, [], 1, 2)),
    (FunctionDef, ("name", "body", "first", "last"), ("f", [], 1, 2)),
    (CodeSegment, ("kind", "nodes", "span"), (SegmentKind.LL, [], (1, 2))),
    (SegmentOverride, ("start", "end", "kind"), (1, 2, SegmentKind.CL)),
    (FlowReport, ("backward_jumps", "unstructured_exits", "orderly"), (1, 2, False)),
    (QualityLevel, ("level", "low", "high"), (2, Fraction(13, 2), Fraction(17, 2))),
    (LevelRubric, ("answers",), ({"oo_reuse": 2},)),
    (
        QualityAttributes,
        ("security", "execution_time", "user_friendliness", "other_metrics", "environment_selection"),
        (0, 1, 2, 0, 2),
    ),
    (TotalSeconds, ("seconds",), (Fraction(3),)),
    (PerSegmentAverage, ("seconds",), (Fraction(1, 2),)),
    (WeightTable, ("weights", "exception_multiplier_enabled"), (UNIT, False)),
    (
        Config,
        (
            "weights", "default_iterations", "qr", "rubric", "exec_time", "flow_exit_limit",
            "flow_penalty", "report_format", "init_termination_calls",
        ),
        (
            WeightTable(UNIT), 4, QualityAttributes(), {"oo_reuse": 1}, TotalSeconds(Fraction(1)),
            3, Fraction(1, 2), "json", frozenset({"f"}),
        ),
    ),
    (
        FileResult,
        (
            "path", "raw_loc", "segments", "counts", "impact", "loops", "flow", "diagnostics",
            "error", "error_line",
        ),
        ("a.c", 3, [], COUNTS, Fraction(1), [], ORDERLY, ["d"], "e", 2),
    ),
    (
        AnalysisReport,
        (
            "files", "raw_loc", "counts", "code_area", "qr_attrs", "qr", "execution_time_s",
            "efficiency", "percentage_of_baseline", "meets_threshold", "rubric_score", "level",
            "flow", "diagnostics",
        ),
        (
            [], 1, COUNTS, Fraction(2), QualityAttributes(), 5, None, None, Fraction(3), False,
            Fraction(4), QualityLevel(4, Fraction(0), Fraction(9, 2)), ORDERLY, ["d"],
        ),
    ),
    (
        Totals,
        ("raw_loc", "counts", "area", "backward", "unstructured", "diagnostics", "failed"),
        (5, COUNTS, Fraction(7), 1, 2, ["d"], 1),
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]

FROZEN = [
    IterationCount, SegmentOverride, FlowReport, QualityLevel, LevelRubric,
    QualityAttributes, TotalSeconds, PerSegmentAverage, WeightTable, Config,
]


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls, names, values):
    by_position = cls(*values)
    by_name = cls(**dict(zip(names, values)))
    for record in (by_position, by_name):
        assert all(getattr(record, n) is v for n, v in zip(names, values))
    assert by_position == by_name


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_records_keep_no_instance_dict(cls, names, values):
    assert not hasattr(cls(*values), "__dict__")


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_records_survive_pickle_and_deepcopy(cls, names, values):
    record = cls(*values)
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is cls and twin == record


def test_defaults():
    weights = WeightTable()
    assert (weights.weights, weights.exception_multiplier_enabled) == (DEFAULT_WEIGHTS, True)
    assert ConditionBlock([], 1, 1).from_switch is False
    qr = QualityAttributes()
    assert qr.as_tuple() == (1, 1, 1, 1, 1)
    config = Config()
    assert (
        config.weights, config.default_iterations, config.qr, config.rubric, config.exec_time,
        config.flow_exit_limit, config.flow_penalty, config.report_format,
        config.init_termination_calls,
    ) == (weights, 1, None, {}, None, 2, Fraction(1), "text", DEFAULT_INIT_TERMINATION_CALLS)
    f = FileResult("a.c")
    assert (
        f.path, f.raw_loc, f.segments, f.counts, f.impact, f.loops, f.flow, f.diagnostics,
        f.error, f.error_line,
    ) == ("a.c", 0, [], (0, 0, 0, 0, 0), 0, [], ORDERLY, [], None, None)
    t = Totals()
    assert (t.raw_loc, t.counts, t.area, t.backward, t.unstructured, t.diagnostics, t.failed) == (
        0, (0, 0, 0, 0, 0), 0, 0, 0, [], 0,
    )


def test_no_instance_shares_a_mutable_default():
    first, second = Config(), Config()
    assert first.rubric is not second.rubric
    assert first.weights.weights is not second.weights.weights
    assert WeightTable().weights is not DEFAULT_WEIGHTS
    a, b = FileResult("a.c"), FileResult("b.c")
    assert a.segments is not b.segments and a.loops is not b.loops
    assert a.diagnostics is not b.diagnostics
    a.diagnostics.append("x")
    assert FileResult("c.c").diagnostics == []
    assert Totals().diagnostics is not Totals().diagnostics


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: QualityAttributes(security=3), AttributeOutOfRangeError, "security must be 0, 1, or 2, got 3"),
        (lambda: TotalSeconds(Fraction(0)), NonPositiveTimeError, "total time must be > 0, got 0"),
        (lambda: PerSegmentAverage(Fraction(-1)), NonPositiveTimeError, "per-segment time must be > 0"),
        (lambda: TotalSeconds(Fraction(1, 10**5000)), ConfigParseError,
         "total time must have at most 140 digits a part"),
        (lambda: TotalSeconds(Fraction(10**140)), ConfigParseError,
         "total time must have at most 140 digits a part"),
        (lambda: PerSegmentAverage(Fraction(-10**5000)), ConfigParseError,
         "per-segment time must have at most 140 digits a part"),
        (lambda: WeightTable({}), InvalidWeightError, "missing weight for comment"),
        (lambda: WeightTable(UNIT | {StatementKind.RETURN: Fraction(2)}), InvalidWeightError,
         r"weight for return must be in \[0, 1\], got 2"),
        (lambda: Config(default_iterations=-1), ConfigParseError,
         "default_iterations must be >= 0"),
        (lambda: Config(default_iterations=10**20), ConfigParseError,
         "default_iterations must have at most 20 digits"),
        (lambda: Config(default_iterations=10**4300), ConfigParseError,
         "default_iterations must have at most 20 digits"),
        (lambda: Config(flow_exit_limit=-1), ConfigParseError, "flow_exit_limit must be >= 0"),
        (lambda: Config(flow_penalty=Fraction(-1, 2)), ConfigParseError,
         "flow_penalty must be >= 0"),
        (lambda: Config(report_format="xml"), ConfigParseError,
         "report_format must be text or json, got 'xml'"),
        (lambda: Config(rubric={"bogus": 1}), UnknownKeyError, "unknown rubric key: 'bogus'"),
        (lambda: Config(rubric={"segment_flow": 5}), ConfigParseError,
         "rubric.segment_flow must be 0, 1, or 2, got 5"),
        (lambda: Config()._replace(default_iterations=-1), ConfigParseError,
         "default_iterations must be >= 0"),
    ],
)
def test_validation_raises_at_construction(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_records_refuse_assignment(cls):
    _, names, values = next(r for r in RECORDS if r[0] is cls)
    record = cls(*values)
    with pytest.raises(AttributeError):
        setattr(record, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    assert getattr(record, names[0]) is values[0]


def test_equality_tells_record_types_apart():
    assert TotalSeconds(Fraction(2)) != PerSegmentAverage(Fraction(2))
    assert TotalSeconds(Fraction(2)) == TotalSeconds(Fraction(2))
    assert ExceptionBlock(1, [], 1, 2) != FunctionDef(1, [], 1, 2)
    assert LoopBlock(1, [], 1, 2) != ExceptionBlock(1, [], 1, 2)
    statement = Statement(StatementKind.RETURN, 1, 2)
    assert statement == Statement(StatementKind.RETURN, 1, 2)
    assert statement != (StatementKind.RETURN, 1, 2)
    assert [LoopBlock(1, [statement], 1, 2)] != [ExceptionBlock(1, [statement], 1, 2)]


def test_frozen_records_hash_by_value_and_block_nodes_do_not_hash():
    assert hash(QualityAttributes(0, 1, 2, 1, 0)) == hash(QualityAttributes(0, 1, 2, 1, 0))
    assert hash(TotalSeconds(Fraction(1))) == hash(TotalSeconds(Fraction(1)))
    with pytest.raises(TypeError):
        hash(Statement(StatementKind.RETURN, 1, 1))


def test_repr_names_the_fields():
    assert repr(Statement(StatementKind.RETURN, 1, 2)) == (
        "Statement(kind=<StatementKind.RETURN: 'return'>, first=1, last=2)"
    )
    assert repr(TotalSeconds(Fraction(3))) == "TotalSeconds(seconds=Fraction(3, 1))"


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_replace_keeps_the_type_and_the_other_fields(cls, names, values):
    record = cls(*values)
    assert type(record._replace()) is cls and record._replace() == record
    changed = record._replace(**{names[-1]: values[-1]})
    assert all(getattr(changed, n) is v for n, v in zip(names, values))


def test_replace_validates_like_the_constructor():
    with pytest.raises(InvalidWeightError):
        WeightTable()._replace(weights=UNIT | {StatementKind.RETURN: Fraction(2)})
    with pytest.raises(AttributeOutOfRangeError):
        QualityAttributes()._replace(other_metrics=5)
    with pytest.raises(NonPositiveTimeError):
        TotalSeconds(Fraction(1))._replace(seconds=Fraction(0))
    assert WeightTable()._replace(weights=UNIT).scaled == (dict.fromkeys(StatementKind, 1), 1)


@pytest.mark.parametrize("flags", [
    [("--x", "weights", {"return": "2"})],
    [("--x", "weights", {"return": "1/2"}), ("--y", "analysis", {"exception_multiplier": "off"}),
     ("--z", "weights", {"comment": "3/2"})],
])
def test_config_overrides_of_weights_still_validate(flags):
    with pytest.raises(InvalidWeightError):
        load_config(None, flags)

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codearea import (
    AttributeOutOfRangeError,
    Config,
    NonPositiveTimeError,
    PerSegmentAverage,
    QualityAttributes,
    TotalSeconds,
    ZeroSegmentsError,
    analyze,
    baseline_percentage,
    code_area,
    efficiency,
    execution_time,
    quality_quotient,
)
from codearea.segmenter import ScoredSegment, SegmentKind

from conftest import CORPUS_FILES

QUOTIENT_6 = QualityAttributes(1, 2, 0, 1, 2)

WORKED_IMPACTS = [
    Fraction(10),
    Fraction(53, 10),
    Fraction(16, 5),
    Fraction(48, 5),
    Fraction(192),
]


def seg(impact: Fraction) -> ScoredSegment:
    return ScoredSegment(SegmentKind.SL, (1, 1), impact)


def test_code_area_sums_worked_example():
    assert code_area([seg(i) for i in WORKED_IMPACTS]) == Fraction(2201, 10)


def test_code_area_of_nothing_is_zero():
    assert code_area([]) == 0


def test_code_area_is_additive_over_duplication():
    segments = [seg(i) for i in WORKED_IMPACTS]
    assert code_area(segments + segments) == 2 * code_area(segments)


def test_quality_quotient_worked_example():
    assert quality_quotient(QualityAttributes(1, 2, 0, 1, 2)) == 6


def test_quality_quotient_bounds():
    assert quality_quotient(QualityAttributes(0, 0, 0, 0, 0)) == 0
    assert quality_quotient(QualityAttributes(2, 2, 2, 2, 2)) == 10


def test_quality_attribute_out_of_range():
    with pytest.raises(AttributeOutOfRangeError):
        QualityAttributes(3, 0, 0, 0, 0)
    with pytest.raises(AttributeOutOfRangeError):
        QualityAttributes(-1, 0, 0, 0, 0)


def test_execution_time_total_seconds_passthrough():
    assert execution_time(TotalSeconds(Fraction(88)), 5) == 88


def test_execution_time_per_segment_average():
    assert execution_time(PerSegmentAverage(Fraction(2)), 5) == 10


def test_execution_time_zero_segments_error():
    with pytest.raises(ZeroSegmentsError):
        execution_time(PerSegmentAverage(Fraction(1)), 0)


def test_time_models_reject_non_positive():
    with pytest.raises(NonPositiveTimeError):
        TotalSeconds(Fraction(0))
    with pytest.raises(NonPositiveTimeError):
        PerSegmentAverage(Fraction(-1))


def test_efficiency_worked_example_exact():
    value = efficiency(Fraction(2201, 10), Fraction(88), 6)
    assert value == Fraction(6603, 440)


def test_efficiency_zero_quotient_is_zero():
    assert efficiency(Fraction(123), Fraction(7), 0) == 0


def test_efficiency_formula_oracle():
    assert efficiency(Fraction(200), Fraction(100), 10) == 20


def test_efficiency_rejects_non_positive_time():
    with pytest.raises(NonPositiveTimeError):
        efficiency(Fraction(1), Fraction(0), 5)


def test_baseline_self_identity():
    # area * quotient == 100000 * 7.5 is exactly the baseline.
    area = Fraction(100_000) * Fraction(15, 2) / 6
    assert baseline_percentage(area, 6) == 100


def test_baseline_threshold_is_inclusive(tmp_path):
    # 187,500 passes of one comment statement (impact 1/2) at quotient 6:
    # area 93,750, which is exactly 75% of the baseline.
    source = tmp_path / "t.c"
    source.write_text("// @iters 187500\nfor (;;) { /* c */ }\n", encoding="utf-8")
    result = analyze([str(source)], Config(qr=QUOTIENT_6, exec_time=TotalSeconds(Fraction(1))))
    assert result.code_area == 93_750
    assert result.percentage_of_baseline == 75
    assert result.meets_threshold


def test_baseline_worked_example():
    assert baseline_percentage(Fraction(2201, 10), 6) == Fraction(2201, 12500)


@given(st.integers(0, 10), st.fractions(min_value=Fraction(1, 10), max_value=1000),
       st.fractions(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_efficiency_linear_in_quotient_and_inverse_in_time(q, t, area):
    assert efficiency(area, t, q) == q * efficiency(area, t, 1)
    assert efficiency(area, 2 * t, q) * 2 == efficiency(area, t, q)


def test_efficiency_result_without_time():
    result = analyze([str(p) for p in CORPUS_FILES], Config(qr=QUOTIENT_6))
    assert result.code_area == Fraction(2201, 10)
    assert result.efficiency is None
    assert result.execution_time_s is None
    assert result.percentage_of_baseline == Fraction(2201, 12500)
    assert not result.meets_threshold

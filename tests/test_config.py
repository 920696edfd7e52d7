from __future__ import annotations

from fractions import Fraction

import pytest

from codearea import (
    Config,
    ConfigParseError,
    InvalidWeightError,
    PerSegmentAverage,
    StatementKind,
    TotalSeconds,
    UnknownKeyError,
    analyze,
    emit_report,
    load_config,
)
from codearea.config import REPORT_FORMATS

from conftest import CORPUS


def write(tmp_path, text):
    path = tmp_path / "metrics.ini"
    path.write_text(text, encoding="utf-8")
    return path


def test_no_file_gives_defaults():
    config = load_config(None)
    assert config == Config()
    assert config.weights.weight(StatementKind.COMMENT) == Fraction(1, 2)
    assert config.default_iterations == 1
    assert config.exec_time is None


def test_single_weight_override(tmp_path):
    config = load_config(write(tmp_path, "[weights]\ncomment = 0.9\n"))
    assert config.weights.weight(StatementKind.COMMENT) == Fraction(9, 10)
    assert config.weights.weight(StatementKind.EXPRESSION) == Fraction(4, 5)


def test_weight_above_one_rejected(tmp_path):
    with pytest.raises(InvalidWeightError):
        load_config(write(tmp_path, "[weights]\ncomment = 1.5\n"))


def test_unknown_weight_key_rejected(tmp_path):
    with pytest.raises(UnknownKeyError):
        load_config(write(tmp_path, "[weights]\nwhitespace = 0.1\n"))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(UnknownKeyError):
        load_config(write(tmp_path, "[surprises]\nx = 1\n"))


@pytest.mark.parametrize("text", [
    "[DEFAULT]\ncomment = 0.9\n",
    "[DEFAULT]\nexec_time = 5\n[analysis]\ndefault_iterations = 2\n",
    "[weights]\ncomment = 0.9\n[DEFAULT]\nbogus = 1\n",
], ids=["alone", "beside_analysis", "beside_weights"])
def test_default_section_is_an_unknown_section(tmp_path, text):
    with pytest.raises(UnknownKeyError, match=r"^unknown section: \[DEFAULT\]$"):
        load_config(write(tmp_path, text))


def test_unknown_analysis_key_rejected(tmp_path):
    with pytest.raises(UnknownKeyError):
        load_config(write(tmp_path, "[analysis]\nspeed = fast\n"))


def test_parse_error_reports_location(tmp_path):
    with pytest.raises(ConfigParseError):
        load_config(write(tmp_path, "comment = 0.9\n"))  # key before any section


def test_qr_section(tmp_path):
    config = load_config(
        write(
            tmp_path,
            "[qr]\nsecurity = 1\nexecution_time = 2\nuser_friendliness = 0\n"
            "other_metrics = 1\nenvironment_selection = 2\n",
        )
    )
    assert config.qr is not None
    assert config.qr.as_tuple() == (1, 2, 0, 1, 2)


def test_rubric_section_partial(tmp_path):
    config = load_config(write(tmp_path, "[rubric]\nsegment_flow = 2\n"))
    assert config.rubric == {"segment_flow": 2}


def test_rubric_range_enforced(tmp_path):
    with pytest.raises(ConfigParseError):
        load_config(write(tmp_path, "[rubric]\nsegment_flow = 5\n"))


def test_analysis_section(tmp_path):
    config = load_config(
        write(
            tmp_path,
            "[analysis]\ndefault_iterations = 4\nflow_exit_limit = 1\n"
            "flow_penalty = 0.5\nexec_time = 88\nexception_multiplier = off\n"
            "report_format = json\ninit_termination_calls = setup, teardown\n",
        )
    )
    assert config.default_iterations == 4
    assert config.flow_exit_limit == 1
    assert config.flow_penalty == Fraction(1, 2)
    assert config.exec_time == TotalSeconds(Fraction(88))
    assert not config.weights.exception_multiplier_enabled
    assert config.report_format == "json"
    assert config.init_termination_calls == frozenset({"setup", "teardown"})


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("default_iterations", "-1", "default_iterations must be >= 0"),
        ("flow_exit_limit", "-1", "flow_exit_limit must be >= 0"),
        ("flow_penalty", "-1/2", "flow_penalty must be >= 0"),
        ("default_iterations", "1.5", "analysis.default_iterations: not an integer: '1.5'"),
        ("default_iterations", "1_0", "analysis.default_iterations: not an integer: '1_0'"),
        ("flow_exit_limit", "\u0663", "analysis.flow_exit_limit: not an integer: '\u0663'"),
        ("flow_penalty", "x", "analysis.flow_penalty: not a number: 'x'"),
        ("exec_time_avg", "x", "analysis.exec_time_avg: not a number: 'x'"),
        ("default_iterations", "1" + "0" * 20, "default_iterations must have at most 20 digits"),
        ("exception_multiplier", "maybe",
         "analysis.exception_multiplier must be on/off, got 'maybe'"),
        ("report_format", "xml", "report_format must be text or json, got 'xml'"),
        ("exec_time", "1e-10000", "analysis.exec_time: not a number: '1e-10000'"),
        ("exec_time_avg", "1e-5000", "analysis.exec_time_avg: not a number: '1e-5000'"),
        ("flow_penalty", "1e-5000", "analysis.flow_penalty: not a number: '1e-5000'"),
        ("exec_time", "1e100", "analysis.exec_time: not a number: '1e100'"),
        ("exec_time", "1_000", "analysis.exec_time: not a number: '1_000'"),
        ("exec_time", "1 / 3", "analysis.exec_time: not a number: '1 / 3'"),
        ("exec_time", "\u0661\u0662", "analysis.exec_time: not a number: '\u0661\u0662'"),
        ("exec_time", "1/0", "analysis.exec_time: not a number: '1/0'"),
        ("exec_time", "1" * 21, f"analysis.exec_time: not a number: '{'1' * 21}'"),
        ("exec_time", "0." + "5" * 21, f"analysis.exec_time: not a number: '0.{'5' * 21}'"),
        ("flow_penalty", "nan", "analysis.flow_penalty: not a number: 'nan'"),
    ],
)
def test_bad_analysis_value_is_named(tmp_path, key, value, message):
    with pytest.raises(ConfigParseError) as err:
        load_config(write(tmp_path, f"[analysis]\n{key} = {value}\n"))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, value",
    [("88", 88), ("2.5", Fraction(5, 2)), (".5", Fraction(1, 2)), ("5.", 5),
     ("1e-30", Fraction(1, 10**30)), ("+1.5E2", 150), ("3/4", Fraction(3, 4)), ("0/07", 0)],
)
def test_numbers_in_the_settings_syntax_are_read_exactly(tmp_path, text, value):
    config = load_config(write(tmp_path, f"[analysis]\nflow_penalty = {text}\n"))
    assert config.flow_penalty == value


# Times at the edge of the settings syntax: a 119-digit numerator, two
# 120-digit denominators (the longest parts it can write) and the longest ratio.
LARGEST_TIMES = ["99999999999999999999.99999999999999999999e99", ".00000000000000000001e-99",
                 "99999999999999999999.99999999999999999999e-99", "1/99999999999999999999"]


@pytest.mark.parametrize("key", ["exec_time", "exec_time_avg"])
@pytest.mark.parametrize("text", LARGEST_TIMES)
def test_the_largest_settings_times_build_and_render(tmp_path, key, text):
    config = load_config(write(tmp_path, f"[analysis]\n{key} = {text}\n"))
    assert config.exec_time.seconds == Fraction(text)
    report = analyze([str(CORPUS / "branching.c")], config)
    for fmt in REPORT_FORMATS:
        assert emit_report(report, fmt)


def test_exec_time_avg(tmp_path):
    config = load_config(write(tmp_path, "[analysis]\nexec_time_avg = 2.5\n"))
    assert config.exec_time == PerSegmentAverage(Fraction(5, 2))


def test_exec_time_modes_are_exclusive(tmp_path):
    with pytest.raises(ConfigParseError):
        load_config(
            write(tmp_path, "[analysis]\nexec_time = 1\nexec_time_avg = 2\n")
        )


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ConfigParseError):
        load_config(tmp_path / "absent.ini")


def test_default_iterations_of_twenty_digits_is_accepted(tmp_path):
    config = load_config(write(tmp_path, f"[analysis]\ndefault_iterations = {'9' * 20}\n"))
    assert config.default_iterations == 10**20 - 1


@pytest.mark.parametrize("section", ["qr", "rubric"])
def test_unknown_qr_and_rubric_keys_are_named(tmp_path, section):
    with pytest.raises(UnknownKeyError) as err:
        load_config(write(tmp_path, f"[{section}]\nspeed = 1\n"))
    assert str(err.value) == f"unknown {section} key: 'speed'"

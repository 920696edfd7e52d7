"""Settings: the :class:`Config` record, which checks each value when
made, and :func:`load_config`, which reads them from text.

The configuration file is an INI-style UTF-8 document with four flat
sections, all optional::

    [weights]
    comment = 0.5
    header_include = 0.7
    declaration = 0.1
    init_termination = 0.2
    simple_assignment = 0.3
    complex_assignment = 0.5
    expression = 0.8
    function_call = 0.8
    return = 0.8

    [qr]
    security = 1
    execution_time = 2
    user_friendliness = 0
    other_metrics = 1
    environment_selection = 2

    [rubric]
    segment_flow = 2
    oo_reuse = 1
    commenting = 1
    error_controls = 2
    security_customization = 1

    [analysis]
    default_iterations = 1
    flow_exit_limit = 2
    flow_penalty = 1.0
    exec_time = 88          ; or exec_time_avg = 2.5 (not both)
    exception_multiplier = on
    report_format = text    ; or json
    init_termination_calls = open, close, fopen, fclose, malloc, calloc, realloc, free

Unspecified keys take the defaults above; unknown sections or keys are
errors.  A number is a decimal with an optional exponent of at most two
digits (``2.5``, ``1e-30``) or a ratio (``-1/2``), each part of at most
20 ASCII digits.  ``Config`` refuses a value out of range, however made.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from itertools import chain
from typing import Iterable

from .classifier import (
    DEFAULT_FLOW_EXIT_LIMIT,
    DEFAULT_FLOW_PENALTY,
    RUBRIC_QUESTIONS,
)
from .errors import ConfigParseError, UnknownKeyError
from .frontend import DEFAULT_INIT_TERMINATION_CALLS, StatementKind
from .impact import WeightTable
from .metrics import (
    ExecutionTimeModel,
    PerSegmentAverage,
    QUALITY_ATTRIBUTE_NAMES,
    QualityAttributes,
    TotalSeconds,
)
from .records import FrozenRecord

REPORT_FORMATS = ("text", "json")
_SECTIONS = ("weights", "qr", "rubric", "analysis")

_WEIGHT_KEYS = {kind.value: kind for kind in StatementKind}
_BOOL_VALUES = {
    "on": True, "true": True, "yes": True, "1": True,
    "off": False, "false": False, "no": False, "0": False,
}
# A number as the docstring gives it, read alike on every Python.
_NUMBER = re.compile(r"[-+]?(\d{1,20}(\.\d{0,20})?|\.\d{1,20})([eE][-+]?\d{1,2})?"
                     r"|[-+]?\d{1,20}/(?=0*[1-9])\d{1,20}", re.ASCII)
_INTEGER = re.compile(r"[-+]?\d+", re.ASCII)  # ``int`` alone also takes ``_`` and non-ASCII digits


class Config(FrozenRecord):
    """The settings of a run, each checked when made.  ``weights`` left as
    None is a new default table, and ``rubric`` a new empty dict."""

    __slots__ = _fields = ("weights", "default_iterations", "qr", "rubric", "exec_time",
                           "flow_exit_limit", "flow_penalty", "report_format",
                           "init_termination_calls")

    def __init__(self, weights: WeightTable | None = None, default_iterations: int = 1,
                 qr: QualityAttributes | None = None, rubric: dict[str, int] | None = None,
                 exec_time: ExecutionTimeModel | None = None,
                 flow_exit_limit: int = DEFAULT_FLOW_EXIT_LIMIT,
                 flow_penalty: Fraction = DEFAULT_FLOW_PENALTY, report_format: str = "text",
                 init_termination_calls: frozenset[str] = DEFAULT_INIT_TERMINATION_CALLS):
        for name, value in (("default_iterations", default_iterations),
                            ("flow_exit_limit", flow_exit_limit), ("flow_penalty", flow_penalty)):
            if value < 0:
                raise ConfigParseError(f"{name} must be >= 0")
        if default_iterations >= 10**20:
            raise ConfigParseError("default_iterations must have at most 20 digits")
        if report_format not in REPORT_FORMATS:
            raise ConfigParseError(f"report_format must be text or json, got {report_format!r}")
        for key, score in (rubric or {}).items():
            if key not in RUBRIC_QUESTIONS:
                raise UnknownKeyError(f"unknown rubric key: {key!r}")
            if score not in (0, 1, 2):
                raise ConfigParseError(f"rubric.{key} must be 0, 1, or 2, got {score}")
        self._set(WeightTable() if weights is None else weights, default_iterations, qr,
                  {} if rubric is None else rubric, exec_time, flow_exit_limit, flow_penalty,
                  report_format, init_termination_calls)


def _fraction(value: str, context: str) -> Fraction:
    text = value.strip()
    if not _NUMBER.fullmatch(text):
        raise ConfigParseError(f"{context}: not a number: {value!r}")
    return Fraction(text)


def _int(value: str, context: str) -> int:
    try:
        if not _INTEGER.fullmatch(text := value.strip()):
            raise ValueError
        return int(text)
    except ValueError:
        raise ConfigParseError(f"{context}: not an integer: {value!r}") from None


def _on_off(value: str, context: str) -> bool:
    raw = value.strip().lower()
    if raw not in _BOOL_VALUES:
        raise ConfigParseError(f"{context} must be on/off, got {raw!r}")
    return _BOOL_VALUES[raw]


# Each [analysis] key, in the order it applies: the field it sets (of the
# Config, or of its weight table) and how its text is read.
_ANALYSIS = {
    "default_iterations": ("default_iterations", _int),
    "flow_exit_limit": ("flow_exit_limit", _int),
    "flow_penalty": ("flow_penalty", _fraction),
    "exec_time": ("exec_time", lambda text, where: TotalSeconds(_fraction(text, where))),
    "exec_time_avg": ("exec_time", lambda text, where: PerSegmentAverage(_fraction(text, where))),
    "exception_multiplier": ("exception_multiplier_enabled", _on_off),
    "report_format": ("report_format", lambda text, where: text.strip().lower()),
    "init_termination_calls": ("init_termination_calls", lambda text, where: frozenset(
        filter(None, map(str.strip, text.split(","))))),
}


def _parse_weights(items: dict[str, str]) -> dict[StatementKind, Fraction]:
    overrides: dict[StatementKind, Fraction] = {}
    for key, value in items.items():
        kind = _WEIGHT_KEYS.get(key)
        if kind is None:
            raise UnknownKeyError(f"unknown weight key: {key!r}")
        overrides[kind] = _fraction(value, f"weights.{key}")
    return overrides


def _parse_qr(items: dict[str, str], where: str | None) -> QualityAttributes:
    values = {}
    for key, value in items.items():
        if key not in QUALITY_ATTRIBUTE_NAMES:
            raise UnknownKeyError(f"unknown qr key: {key!r}")
        values[key] = _int(value, where or f"qr.{key}")
    return QualityAttributes(**values)


def _parse_rubric(items: dict[str, str]) -> dict[str, int]:
    return {key: _int(value, f"rubric.{key}") for key, value in items.items()}


def load_config(
    path: str | os.PathLike[str] | None = None,
    flags: Iterable[tuple[str, str, dict[str, str]]] = (),
) -> Config:
    """Load a configuration file, or the documented defaults when absent,
    then apply *flags*: ``(name, section, items)`` triples read after the
    file's sections and as they are, except that a bad ``[qr]`` score or
    ``exec_time``/``exec_time_avg`` number is reported under *name*."""
    sections = []
    if path is not None:
        import configparser  # here, since only a run given a file needs it

        # No header names the empty section, so ``[DEFAULT]`` is a section like any other.
        parser = configparser.ConfigParser(
            interpolation=None, inline_comment_prefixes=(";", "#"), default_section=""
        )
        try:
            with open(path, encoding="utf-8-sig") as file:
                parser.read_file(file, source=str(path))
        except OSError as exc:
            raise ConfigParseError(f"cannot read config: {exc}") from None
        except configparser.Error as exc:
            lineno = getattr(exc, "lineno", None)
            where = f"{path}:{lineno}" if lineno else str(path)
            raise ConfigParseError(f"{where}: {exc.message}") from None
        for section in parser.sections():
            if section not in _SECTIONS:
                raise UnknownKeyError(f"unknown section: [{section}]")
        sections = [
            (None, name, dict(parser.items(name)))
            for name in _SECTIONS
            if parser.has_section(name)
        ]

    config = Config()
    for where, section, items in chain(sections, flags):
        if section == "weights":
            weights = {**config.weights.weights, **_parse_weights(items)}
            config = config._replace(weights=config.weights._replace(weights=weights))
        elif section == "qr":
            config = config._replace(qr=_parse_qr(items, where))
        elif section == "rubric":
            config = config._replace(rubric=_parse_rubric(items))
        else:
            config = _apply_analysis(config, items, where)
    return config


def _apply_analysis(config: Config, items: dict[str, str], where: str | None) -> Config:
    for key in items:
        if key not in _ANALYSIS:
            raise UnknownKeyError(f"unknown analysis key: {key!r}")
    if "exec_time" in items and "exec_time_avg" in items:
        raise ConfigParseError("exec_time and exec_time_avg are mutually exclusive")
    for key, (field, read) in _ANALYSIS.items():
        if key in items:
            change = {field: read(items[key], where or f"analysis.{key}")}
            if field not in Config._fields:  # a field of the weight table
                change = {"weights": config.weights._replace(**change)}
            config = config._replace(**change)
    return config

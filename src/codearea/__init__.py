"""Impact-weighted source-code metrics for C-like languages.

The pipeline tokenizes a source file, builds a nested block tree,
partitions it into code segments (simple runs, condition blocks, loop
blocks, exception blocks), scores each segment by composing per-statement
impact weights through the nesting structure, and aggregates the scores
into a code area, an efficiency figure, a baseline percentage, and a
four-tier quality level.
"""

from .analysis import AnalysisReport, FileResult, analyze, analyze_source, iter_analyze
from .classifier import (
    FlowReport, LevelRubric, QualityLevel, RUBRIC_QUESTIONS, classify_level, flow_orderliness,
    rubric_score,
)
from .config import Config, load_config
from .errors import (
    AttributeOutOfRangeError, CodeAreaError, ConfigError, ConfigParseError, IncompleteRubricError,
    InvalidWeightError, MalformedHeaderError, NegativeIterationsError, NestingTooDeepError,
    NonPositiveTimeError, ScoreOutOfRangeError, SegmentOverrideError, UnbalancedBracesError,
    UnknownKeyError, ZeroSegmentsError,
)
from .frontend import (
    BlockNode, ConditionBlock, CountProvenance, ExceptionBlock, FunctionDef, IterationCount,
    LoopBlock, Statement, StatementKind, Token, TokenKind, parse_tokens, tokenize,
)
from .impact import DEFAULT_WEIGHTS, WeightTable, block_impact, segment_impact
from .metrics import (
    PerSegmentAverage, QualityAttributes, TotalSeconds, baseline_percentage, code_area, efficiency,
    execution_time, quality_quotient,
)
from .report import emit_report, iter_report
from .segmenter import (
    CodeSegment, SegmentKind, apply_segment_overrides, parse_segment_overrides, segment,
    segment_counts,
)

__version__ = "0.1.0"

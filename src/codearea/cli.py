"""Command-line entry point.

Exit codes: 0 on success, 1 when any input file fails to analyze, 2 on configuration
or usage errors (also with standard error closed), 3 when ``--gate`` is passed and the
75% baseline threshold is not met, 141 (128 + SIGPIPE) when standard output is closed,
before the run or by its reader before the report ends.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from collections.abc import Iterator

from .analysis import Totals, iter_analyze
from .config import REPORT_FORMATS, Config, load_config
from .errors import CodeAreaError
from .frontend import StatementKind
from .metrics import QUALITY_ATTRIBUTE_NAMES
from .report import stream_report

EXIT_OK = 0
EXIT_FILE_ERROR = 1
EXIT_CONFIG_ERROR = 2
EXIT_GATE_FAILED = 3
EXIT_BROKEN_PIPE = 141


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codearea",
        description=(
            "Compute impact-weighted code metrics for C-like source files. "
            "Pass '-' to read a single file from standard input."
        ),
    )
    parser.add_argument("paths", nargs="*", help="source files to analyze")
    parser.add_argument("--config", metavar="PATH", help="configuration file")
    timing = parser.add_mutually_exclusive_group()
    timing.add_argument(
        "--exec-time", metavar="SECONDS", help="total execution time in seconds"
    )
    timing.add_argument(
        "--exec-time-avg",
        metavar="SECONDS",
        help="average execution time per segment, in seconds",
    )
    parser.add_argument(
        "--qr",
        metavar="S,E,U,O,P",
        help="five quality attribute scores (each 0, 1, or 2)",
    )
    parser.add_argument(
        "--format", choices=REPORT_FORMATS, help="report format (default: text)"
    )
    parser.add_argument(
        "--segments",
        metavar="SIDECAR",
        help="segmentation override file (single input only)",
    )
    parser.add_argument(
        "--weights-dump",
        action="store_true",
        help="print the effective weight table and exit",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="exit with status 3 when the 75%% baseline threshold is not met",
    )
    return parser


def _flag_items(args: argparse.Namespace) -> Iterator[tuple[str, str, dict[str, str]]]:
    """Yield each setting flag given as ``(flag, config section, items)``,
    lazily, so that ``load_config`` reports the config file's errors first."""
    if args.exec_time is not None:
        yield "--exec-time", "analysis", {"exec_time": args.exec_time}
    if args.exec_time_avg is not None:
        yield "--exec-time-avg", "analysis", {"exec_time_avg": args.exec_time_avg}
    if args.qr is not None:
        scores = args.qr.split(",")
        if len(scores) != len(QUALITY_ATTRIBUTE_NAMES):
            raise CodeAreaError(f"--qr expects five comma-separated scores, got {args.qr!r}")
        yield "--qr", "qr", dict(zip(QUALITY_ATTRIBUTE_NAMES, scores))
    if args.format is not None:
        yield "--format", "analysis", {"report_format": args.format}


def _dump_weights(config: Config) -> None:
    for kind in StatementKind:
        weight = config.weights.weight(kind)
        print(f"{kind.value} = {weight.numerator / weight.denominator}")
    state = "on" if config.weights.exception_multiplier_enabled else "off"
    print(f"exception_multiplier = {state}")


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    if sys.stdout is None:  # argparse would write the help to stderr
        parser.print_help = lambda file=None: parser.exit(EXIT_BROKEN_PIPE)
    if sys.stderr is None:  # argparse would write a usage error's usage text to stdout
        parser.error = lambda message: parser.exit(EXIT_CONFIG_ERROR)
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, _flag_items(args))
        if args.segments is not None and len(args.paths) != 1:
            raise CodeAreaError("--segments requires exactly one input file")
        if sys.stdout is None:  # closed before the run: nothing can be written
            return EXIT_BROKEN_PIPE
        if args.weights_dump:
            _dump_weights(config)
            return EXIT_OK
        # Files are written as they are analyzed, then dropped.  Chunks wait for a
        # segment: per-segment timing with none is a config error, printing nothing.
        totals = Totals()
        aggregate = functools.cache(lambda: totals.report(config, []))
        files = map(totals.add, iter_analyze(args.paths, config, sidecar_path=args.segments))
        chunks = stream_report(len(args.paths), files, aggregate, config.report_format)
        held: list[bytes] = []
        for chunk in chunks:
            held.append(chunk)
            if totals.counts.total:
                break
        sys.stdout.buffer.writelines(held)
        sys.stdout.buffer.writelines(chunks)  # segment by segment
        sys.stdout.buffer.flush()
    except CodeAreaError as exc:
        if sys.stderr is not None:  # closed at start; print(file=None) would write to stdout
            with contextlib.suppress(OSError):  # fd 2 open on what cannot be written
                print(f"codearea: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except BrokenPipeError:
        # The reader is gone: read no more input, and give the exit flush a sink.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE

    if totals.failed:
        return EXIT_FILE_ERROR
    if args.gate and not aggregate().meets_threshold:
        return EXIT_GATE_FAILED
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())

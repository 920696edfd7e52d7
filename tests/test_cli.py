from __future__ import annotations

import gc
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from codearea import (
    Config, FileResult, QualityAttributes, TotalSeconds, analysis, analyze, emit_report,
)
from codearea.cli import main

from conftest import CORPUS_FILES, stdin_of


def corpus_args():
    return [str(p) for p in CORPUS_FILES]


def test_worked_example_run(capsys):
    code = main(corpus_args() + ["--exec-time", "88", "--qr", "1,2,0,1,2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "code area:         220.10" in out
    assert "efficiency:        15.01" in out


def test_json_format_flag(capsys):
    code = main(corpus_args() + ["--exec-time", "88", "--qr", "1,2,0,1,2",
                                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["v"] == 1
    assert doc["efficiency"] == 15.01


def test_empty_run_is_success(capsys):
    assert main([]) == 0
    assert "files: 0" in capsys.readouterr().out


def test_file_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_text("}\n", encoding="utf-8")
    assert main([str(bad)]) == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_loops_with_long_bounds_report_in_full(tmp_path, capsysbinary, fmt):
    bound = "9" * 2000
    nest = "".join(f"for ({v} = 0; {v} < {bound}; {v}++) " for v in "ijk")
    path = tmp_path / "long.c"
    path.write_text(nest + "x();\n", encoding="utf-8")
    assert main([str(path), "--format", fmt]) == 0
    out, err = capsysbinary.readouterr()
    assert err == b""
    if fmt == "json":
        loops = json.loads(out)["files"][0]["loops"]
        assert [(loop["count"], loop["provenance"]) for loop in loops] == [(1, "default")] * 3
    else:
        assert out.count(b"loop at line 1: count 1 (default)\n") == 3


def test_missing_file_exit_code(tmp_path, capsys):
    assert main([str(tmp_path / "absent.c")]) == 1


def test_path_that_is_not_utf8_is_reported_as_its_bytes(tmp_path, capsysbinary):
    raw = os.fsencode(tmp_path) + b"/\xff.c"
    with open(raw, "wb") as f:
        f.write(b"x = 1;\n")
    path = os.fsdecode(raw)
    assert main([path]) == 0
    assert raw + b"\n  raw LOC: 1\n" in capsysbinary.readouterr().out
    assert main([path, "--format", "json"]) == 0
    assert json.loads(capsysbinary.readouterr().out)["files"][0]["path"] == path


def test_config_error_exit_code(tmp_path, capsys):
    conf = tmp_path / "bad.ini"
    conf.write_text("[weights]\ncomment = 2.0\n", encoding="utf-8")
    assert main(["--config", str(conf)] + corpus_args()) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_qr_flag_exit_code(capsys):
    assert main(["--qr", "1,2,3"] + corpus_args()) == 2
    assert main(["--qr", "1,2,0,1,9"] + corpus_args()) == 2


def test_gate_failure_exit_code(capsys):
    assert main(corpus_args() + ["--gate"]) == 3


def test_gate_passes_when_threshold_met(tmp_path, capsys):
    # 13 expression statements per iteration at weight 1.0 over a large
    # literal bound pushes the area past the 75% baseline (562,500).
    big = tmp_path / "big.c"
    lines = ["for (i = 0; i < 60000; i++)", "{"]
    lines += [f"    v{k} = probe(a{k}) + probe(b{k});" for k in range(13)]
    lines += ["}"]
    big.write_text("\n".join(lines) + "\n", encoding="utf-8")
    conf = tmp_path / "unit.ini"
    conf.write_text("[weights]\nexpression = 1.0\n", encoding="utf-8")
    code = main([str(big), "--config", str(conf), "--qr", "2,2,2,2,2", "--gate"])
    assert code == 0


def test_weights_dump(capsys):
    assert main(["--weights-dump"]) == 0
    out = capsys.readouterr().out
    assert "comment = 0.5" in out
    assert "expression = 0.8" in out
    assert "exception_multiplier = on" in out


def test_weights_dump_reflects_config(tmp_path, capsys):
    conf = tmp_path / "w.ini"
    conf.write_text("[weights]\ncomment = 0.9\n", encoding="utf-8")
    assert main(["--config", str(conf), "--weights-dump"]) == 0
    assert "comment = 0.9" in capsys.readouterr().out


def test_stdin_input(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", stdin_of("x = probe(a) + probe(b);\n"))
    assert main(["-"]) == 0
    out = capsys.readouterr().out
    assert "<stdin>" in out
    assert "file impact: 0.80" in out


def test_a_stdin_without_a_buffer_is_that_inputs_io_error(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("x = 1;\n"))
    stdin, other = analysis.iter_analyze(["-", str(CORPUS_FILES[2])], Config())
    assert (stdin.path, stdin.error) == ("<stdin>", "Io: standard input has no buffer")
    assert other.error is None


def test_explicit_segments_flag(tmp_path, capsys):
    source = tmp_path / "one.c"
    source.write_text("x = 1;\ny = 2;\nz = probe(x) + probe(y);\n", encoding="utf-8")
    sidecar = tmp_path / "override.segments"
    sidecar.write_text("1 2 SL\n3 3 CL\n", encoding="utf-8")
    assert main([str(source), "--segments", str(sidecar), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    kinds = [seg["kind"] for seg in doc["files"][0]["segments"]]
    assert kinds == ["SL", "CL"]


def test_segments_flag_replaces_the_sidecar_next_to_the_input(tmp_path, capsys):
    source = tmp_path / "a.c"
    source.write_text("x = 1;\ny = probe(x) + probe(y);\n", encoding="utf-8")
    (tmp_path / "a.c.segments").write_bytes(b"\xff not utf-8\n")
    good = tmp_path / "good.segments"
    good.write_text("1 2 CL\n", encoding="utf-8")
    assert main([str(source), "--segments", str(good), "--format", "json"]) == 0
    [entry] = json.loads(capsys.readouterr().out)["files"]
    assert [seg["kind"] for seg in entry["segments"]] == ["CL"]


def test_segments_flag_requires_single_input(capsys):
    assert main(corpus_args() + ["--segments", "x.segments"]) == 2


def test_missing_segments_file_fails_its_input(tmp_path, capsys):
    missing = tmp_path / "missing.segments"
    assert main([str(CORPUS_FILES[0]), "--segments", str(missing), "--format", "json"]) == 1
    [entry] = json.loads(capsys.readouterr().out)["files"]
    assert entry["error"]["message"].startswith("Io: [Errno 2]")


def test_exec_time_avg_with_empty_corpus_is_config_error(capsys):
    assert main(["--exec-time-avg", "2"]) == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_exec_time_avg_with_no_segment_prints_nothing(tmp_path, capsysbinary, fmt):
    (tmp_path / "open.c").write_text("void f() {\n    x = 1;\n", encoding="utf-8")
    (tmp_path / "empty.c").write_text("", encoding="utf-8")
    args = [str(tmp_path / "open.c"), str(tmp_path / "empty.c"), "--exec-time-avg", "2"]
    assert main(args + ["--format", fmt]) == 2
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    [line] = captured.err.decode().splitlines()
    assert line.startswith("codearea: config error: ")


def test_exec_time_flags_are_mutually_exclusive():
    with pytest.raises(SystemExit) as err:
        main(["--exec-time", "1", "--exec-time-avg", "2"])
    assert err.value.code == 2


def test_flags_replace_the_same_config_settings(tmp_path, capsys):
    conf = tmp_path / "c.ini"
    conf.write_text(
        "[qr]\nsecurity = 0\n[analysis]\nexec_time = 88\nreport_format = json\n",
        encoding="utf-8",
    )
    base = [*corpus_args(), "--config", str(conf)]
    assert main(base) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["execution_time_s"] == 88 and doc["quality_attributes"]["security"] == 0
    assert main([*base, "--exec-time-avg", "2", "--qr", "2,2,2,2,2", "--format", "text"]) == 0
    out = capsys.readouterr().out
    segments = int(out.split("total=")[1].split()[0])
    assert f"execution time:    {2 * segments}.00 s" in out
    assert "quality quotient:  10/10" in out


@pytest.mark.parametrize(
    "flag, value",
    [("--exec-time", "abc"), ("--exec-time-avg", "abc"), ("--qr", "1,2,x,1,2"), ("--qr", "1,2,3"),
     ("--qr", "\u0661,1,1,1,1"), ("--qr", "1_0,1,1,1,1")],
)
def test_bad_flag_value_is_a_config_error_naming_the_flag(capsys, flag, value):
    assert main([*corpus_args(), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("codearea: config error: ") and flag in err


def test_config_file_errors_come_before_flag_errors(tmp_path, capsys):
    conf = tmp_path / "bad.ini"
    conf.write_text("[weights]\ncomment = 2.0\n", encoding="utf-8")
    assert main(["--config", str(conf), "--exec-time", "abc", "--qr", "1,2,3"]) == 2
    err = capsys.readouterr().err
    assert "comment" in err and "--exec-time" not in err and "--qr" not in err


@pytest.mark.parametrize(
    "args, ini",
    [
        (["--exec-time", "1e-10000"], None),
        (["--exec-time-avg", "1e-5000"], None),
        (["--exec-time", "1e-10000000"], None),
        (["--exec-time", "1_000"], None),
        (["--exec-time", "1 / 3"], None),
        (["--exec-time", "\u0661\u0662"], None),
        (["--format", "json"], "[weights]\ncomment = 1e-5000\n"),
        (["--format", "json"], "[analysis]\nflow_penalty = 1e-5000\n"),
    ],
)
def test_a_settings_number_out_of_its_syntax_is_refused_at_once(tmp_path, args, ini):
    if ini is not None:
        (tmp_path / "c.ini").write_text(ini, encoding="utf-8")
        args = [*args, "--config", str(tmp_path / "c.ini")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "codearea", *corpus_args(), *args],
                          env=env, capture_output=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.startswith(b"codearea: config error: ") and b"not a number" in done.stderr
    assert b"Traceback" not in done.stderr
    assert elapsed < 1


def test_a_closed_stdout_ends_the_run_quietly_with_status_141():
    # 500 files make a report far larger than a pipe holds, so the reader's
    # close meets the CLI mid-report.
    paths = [str(CORPUS_FILES[-1])] * 500
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.Popen([sys.executable, "-m", "codearea", *paths, "--format", "json"],
                             env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.readline()
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=120), stderr) == (141, b"")


def run_cli_child(args: list[str], closed_fd: int | None = None, env: dict | None = None,
                  **kwargs) -> subprocess.CompletedProcess:
    """Run the CLI in a child process, with file descriptor *closed_fd* closed."""
    if closed_fd is not None:
        kwargs["preexec_fn"] = lambda: os.close(closed_fd)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **(env or {}))
    return subprocess.run([sys.executable, "-m", "codearea", *args], env=env,
                          capture_output=True, timeout=120, **kwargs)


def test_a_closed_stdin_is_that_inputs_io_error():
    done = run_cli_child(["-", str(CORPUS_FILES[2]), "--format", "json"], closed_fd=0)
    files = json.loads(done.stdout)["files"]
    assert [f["path"] for f in files] == ["<stdin>", str(CORPUS_FILES[2])]
    assert files[0]["error"]["message"] == "Io: standard input is closed"
    assert "error" not in files[1]
    assert (done.returncode, done.stderr) == (1, b"")


def test_a_repeated_stdin_is_that_inputs_io_error():
    done = run_cli_child(["-", "-", str(CORPUS_FILES[2]), "--format", "json"], input=b"x = 1;\n")
    files = json.loads(done.stdout)["files"]
    assert [f["path"] for f in files] == ["<stdin>", "<stdin>", str(CORPUS_FILES[2])]
    assert files[0]["raw_loc"] == 1 and "error" not in files[0]
    assert files[1]["error"]["message"] == "Io: standard input already read"
    assert "error" not in files[2]
    assert (done.returncode, done.stderr) == (1, b"")


def test_standard_input_is_decoded_as_strictly_as_a_path(tmp_path):
    # UTF-8 mode, which Python turns on in the C locale, reads a bad byte as a surrogate.
    data = b"x = 1; \xff\n"
    (tmp_path / "bad.c").write_bytes(data)
    by_path = run_cli_child([str(tmp_path / "bad.c"), "--format", "json"],
                            env={"PYTHONUTF8": "1"})
    by_stdin = run_cli_child(["-", "--format", "json"], input=data, env={"PYTHONUTF8": "1"})
    message = json.loads(by_path.stdout)["files"][0]["error"]["message"]
    assert message == ("Io: 'utf-8' codec can't decode byte 0xff in position 7: "
                       "invalid start byte")
    assert json.loads(by_stdin.stdout)["files"][0]["error"]["message"] == message
    assert (by_path.returncode, by_stdin.returncode) == (1, 1)


def test_standard_input_is_read_as_utf_8_whatever_the_stdio_encoding():
    done = run_cli_child(["-", "--format", "json"], input=b"x = 1; \xe9\n",
                         env={"PYTHONIOENCODING": "latin-1"})
    assert json.loads(done.stdout)["files"][0]["error"]["message"] == (
        "Io: 'utf-8' codec can't decode byte 0xe9 in position 7: invalid continuation byte")
    assert done.returncode == 1


@pytest.mark.parametrize("via", ["path", "stdin"])
def test_a_decode_error_far_into_an_input_gives_its_whole_input_position(tmp_path, via):
    data = b"x = 1;\n" * 15_000 + b"\xe9\n"  # the bad byte is at 105,000, in the second piece
    (tmp_path / "bad.c").write_bytes(data)
    done = run_cli_child([str(tmp_path / "bad.c") if via == "path" else "-", "--format", "json"],
                         input=data if via == "stdin" else None)
    assert json.loads(done.stdout)["files"][0]["error"]["message"] == (
        "Io: 'utf-8' codec can't decode byte 0xe9 in position 105000: invalid continuation byte")


PIECE = 1 << 16  # the bytes analysis._read decodes at a time


def whole_input_read(data: bytes) -> str:
    """*data* as a whole-input read decodes it: strict UTF-8, universal newlines."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


@pytest.mark.parametrize("at", [0, PIECE - 2, PIECE - 1, PIECE, 105_000, 2 * PIECE - 1])
@pytest.mark.parametrize("bad", [b"\xe9", b"\xff", b"\xe2\x82", b"\xf0\x9d\x84"],
                         ids=["continuation", "start", "two_of_three", "three_of_four"])
@pytest.mark.parametrize("end", [b"", b"x\n"], ids=["at_end", "before_text"])
def test_the_reader_gives_a_decode_error_as_a_whole_input_read_does(at, bad, end):
    data = "é".encode() * (at // 2) + b"a" * (at % 2) + bad + end
    with pytest.raises(UnicodeDecodeError) as whole:
        whole_input_read(data)
    with pytest.raises(UnicodeDecodeError) as pieces:
        analysis._read(io.BytesIO(data))
    assert str(pieces.value) == str(whole.value)


@pytest.mark.parametrize("newline", [b"\r\n", b"\r", b"\r\r\n", b"\n\r"])
@pytest.mark.parametrize("at", [PIECE - 2, PIECE - 1, PIECE, 3 * PIECE - 1])
def test_the_reader_reads_newlines_across_pieces_as_a_whole_input_read_does(newline, at):
    for data in (b"a" * at + newline + "é".encode(), b"a" * at + newline):
        assert analysis._read(io.BytesIO(data)) == whole_input_read(data)


@pytest.mark.parametrize("args", [[str(CORPUS_FILES[2])], ["--weights-dump"], ["--help"]],
                         ids=["report", "weights", "help"])
def test_a_stdout_closed_before_the_run_ends_it_with_status_141(args):
    done = run_cli_child(args, closed_fd=1)
    assert (done.returncode, done.stderr) == (141, b"")


def read_only_stderr() -> None:
    os.dup2(os.open(os.devnull, os.O_RDONLY), 2)


@pytest.mark.parametrize("kwargs", [{"closed_fd": 2}, {"preexec_fn": read_only_stderr}],
                         ids=["closed", "read_only"])
def test_an_unwritable_stderr_keeps_the_config_error_status(kwargs):
    # A closed fd 2 gives no sys.stderr; a read-only one fails each write.
    done = run_cli_child([str(CORPUS_FILES[2]), "--qr", "1,2"], **kwargs)
    assert (done.returncode, done.stdout) == (2, b"")


def test_a_usage_error_with_stderr_closed_writes_nothing():
    done = run_cli_child(["--nope"], closed_fd=2)
    assert (done.returncode, done.stdout) == (2, b"")


def test_a_large_block_keeps_its_own_mapping_after_an_input_is_read(tmp_path):
    # In a fresh interpreter, whose heap has little free space: a whole-input
    # read would free a 4 MiB block, and glibc would raise its mmap threshold
    # past 1 MiB, so the token columns would grow in the heap's holes.
    path = tmp_path / "big.c"
    path.write_bytes(b"x = f(a);\n" * (400 << 10))
    probe = """if 1:
        import ctypes, sys
        from codearea.analysis import _read

        class Mallinfo2(ctypes.Structure):
            _fields_ = [(name, ctypes.c_size_t) for name in (
                "arena", "ordblks", "smblks", "hblks", "hblkhd",
                "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

        libc = ctypes.CDLL(None)
        libc.mallinfo2.restype = Mallinfo2
        with open(sys.argv[1], "rb") as file:
            text = _read(file)
        mapped = libc.mallinfo2().hblks
        block = bytearray(1 << 20)
        print(len(text), libc.mallinfo2().hblks - mapped)
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError):
        glibc = None
    if not glibc or tuple(map(int, glibc.split()[1].split(".")[:2])) < (2, 33):
        pytest.skip("needs mallinfo2, from glibc 2.33")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", probe, str(path)], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == f"{10 * (400 << 10)} 1\n"


def test_missing_body_fails_only_its_file(tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_text("void f() { if (a) }\n", encoding="utf-8")
    good = tmp_path / "good.c"
    good.write_text("a = b;\nc = d;\n", encoding="utf-8")
    assert main([str(bad), str(good), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    by_path = {f["path"]: f for f in doc["files"]}
    assert by_path[str(bad)]["error"] == {
        "message": "MalformedHeaderError: line 1: missing body", "line": 1,
    }
    assert "error" not in by_path[str(good)]
    assert by_path[str(good)]["segments"][0]["impact"] == 0.6


@pytest.mark.parametrize(
    "source",
    ["{" * 3000 + "}" * 3000, "if (a)\n" * 2000 + "x = 1;\n"],
    ids=["braces", "chained_ifs"],
)
def test_deep_nesting_fails_only_its_file(tmp_path, capsys, source):
    deep = tmp_path / "deep.c"
    deep.write_text(source, encoding="utf-8")
    good = tmp_path / "good.c"
    good.write_text("a = b;\nc = d;\n", encoding="utf-8")
    assert main([str(deep), str(good), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    by_path = {f["path"]: f for f in doc["files"]}
    assert by_path[str(deep)]["error"]["message"].startswith("NestingTooDeepError")
    assert "error" not in by_path[str(good)]
    assert by_path[str(good)]["segments"][0]["impact"] == 0.6


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_unexpected_exception_fails_only_its_file(tmp_path, capsys, caplog, monkeypatch, fmt):
    bad = tmp_path / "bad.c"
    bad.write_text("breaks();\n", encoding="utf-8")
    good = tmp_path / "good.c"
    good.write_text("a = b;\nc = d;\n", encoding="utf-8")
    real_parse = analysis.parse_tokens

    def parse_or_break(tokens, **kwargs):
        if tokens.texts[0] == "breaks":
            raise ZeroDivisionError("boom")
        return real_parse(tokens, **kwargs)

    monkeypatch.setattr(analysis, "parse_tokens", parse_or_break)
    assert main([str(bad), str(good), "--format", fmt]) == 1
    captured = capsys.readouterr()
    message = "InternalError: ZeroDivisionError: boom"
    if fmt == "json":
        by_path = {f["path"]: f for f in json.loads(captured.out)["files"]}
        assert by_path[str(bad)] == {
            "path": str(bad), "raw_loc": 1, "error": {"message": message, "line": None},
        }
        assert by_path[str(good)]["impact"] == 0.6
    else:
        assert f"{bad}\n  error: {message}\n" in captured.out
        assert f"{good}\n  raw LOC: 2\n" in captured.out
    [record] = caplog.records
    assert str(bad) in record.getMessage() and record.exc_info[0] is ZeroDivisionError


WORKED_EXAMPLE_FLAGS = ["--exec-time", "88", "--qr", "1,2,0,1,2"]
WORKED_EXAMPLE_CONFIG = Config(
    exec_time=TotalSeconds(Fraction(88)), qr=QualityAttributes(1, 2, 0, 1, 2)
)
STDIN_SOURCE = "x = probe(a) + probe(b);\n"


def stdout_case(case: str, tmp_path) -> tuple[list[str], list[str], Config]:
    """The input paths of one case, its setting flags and the config those
    flags amount to."""
    if case == "corpus":
        return corpus_args(), WORKED_EXAMPLE_FLAGS, WORKED_EXAMPLE_CONFIG
    if case == "no_files":
        return [], [], Config()
    if case == "good_and_failing":
        (tmp_path / "good.c").write_text("a = b;\nwhile (c) d();\n", encoding="utf-8")
        (tmp_path / "bad.c").write_text("}\n", encoding="utf-8")
        return [str(tmp_path / "good.c"), str(tmp_path / "bad.c")], [], Config()
    if case == "stdin":
        return ["-"], [], Config()
    raw = os.fsencode(tmp_path) + b"/\xff.c"
    with open(raw, "wb") as f:
        f.write(b"x = 1;\n")
    return [os.fsdecode(raw)], [], Config()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "case", ["corpus", "no_files", "good_and_failing", "stdin", "non_utf8_path"]
)
def test_stdout_is_the_emitted_report(tmp_path, monkeypatch, capsysbinary, case, fmt):
    paths, flags, config = stdout_case(case, tmp_path)
    monkeypatch.setattr("sys.stdin", stdin_of(STDIN_SOURCE))
    code = main(paths + flags + ["--format", fmt])
    out = capsysbinary.readouterr().out
    monkeypatch.setattr("sys.stdin", stdin_of(STDIN_SOURCE))
    report = analyze(paths, config)
    assert out == emit_report(report, fmt)
    assert code == (1 if report.failed_files else 0)
    if case == "no_files":
        assert (b'"files": [],' if fmt == "json" else b"files: 0\n") in out
    if case == "non_utf8_path" and fmt == "text":
        assert b"/\xff.c\n  raw LOC: 1\n" in out


def cli_write_peak(monkeypatch, report, fmt: str) -> int:
    """The tracemalloc peak of the CLI while it writes *report* in *fmt*."""
    monkeypatch.setattr("codearea.cli.iter_analyze", lambda *args, **kwargs: iter(report.files))
    with open(os.devnull, "wb") as discard:
        monkeypatch.setattr("sys.stdout", SimpleNamespace(buffer=discard))
        assert main(["--format", fmt]) == 0  # imports and caches come first
        tracemalloc.start()
        try:
            assert main(["--format", fmt]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_the_cli_holds_one_rendered_file_at_a_time(monkeypatch):
    corpus = analyze(corpus_args(), WORKED_EXAMPLE_CONFIG)
    report = corpus._replace(files=corpus.files * 100)
    assert cli_write_peak(monkeypatch, report, "json") < len(emit_report(report, "json")) / 4
    # Nor a whole large file: it is written a segment at a time.
    loops = next(f for f in corpus.files if f.loops)
    large = loops._replace(segments=loops.segments * 2000, loops=loops.loops * 2000)
    report = corpus._replace(files=[large])
    for fmt in ("json", "text"):
        assert cli_write_peak(monkeypatch, report, fmt) < len(emit_report(report, fmt)) / 4


def file_results_held(monkeypatch, paths: list[str], fmt: str) -> list[int]:
    """How many ``FileResult``s are alive when each file's analysis starts,
    in a CLI run on *paths* in *fmt*, beyond those alive before the run.

    They are counted among the objects the collector tracks, which is exact.
    Counting tracemalloc blocks by the lines that make a result is not: an
    argument tuple that CPython keeps on its tuple free list stays traced
    at the line of the call that made it."""

    def alive() -> int:
        return sum(type(obj) is FileResult for obj in gc.get_objects())

    real_analyze_source = analysis.analyze_source
    held = []

    def counting(*args, **kwargs):
        held.append(alive() - before)
        return real_analyze_source(*args, **kwargs)

    before = alive()
    one = real_analyze_source("x = 1;\n", "one.c", Config())
    assert alive() == before + 1  # the count sees a result
    del one
    monkeypatch.setattr(analysis, "analyze_source", counting)
    with open(os.devnull, "wb") as discard:
        monkeypatch.setattr("sys.stdout", SimpleNamespace(buffer=discard))
        assert main(paths + ["--format", fmt]) == 0
    return held


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_the_cli_holds_one_file_result_at_a_time(tmp_path, monkeypatch, fmt):
    text = CORPUS_FILES[2].read_text(encoding="utf-8")  # segments and a loop
    paths = []
    for k in range(40):
        paths.append(str(tmp_path / f"copy{k}.c"))
        (tmp_path / f"copy{k}.c").write_text(text, encoding="utf-8")
    held = file_results_held(monkeypatch, paths, fmt)
    assert len(held) == len(paths) and max(held) == 0


BOM_INPUTS = {
    "a.c": "#include <stdio.h>\nx = probe(a) + probe(b);\n",
    "a.c.segments": "1 2 CL\n",
    "c.ini": "[weights]\nheader_include = 0.25\n",
}


@pytest.mark.parametrize("kind", ["source", "sidecar", "config", "stdin"])
def test_a_leading_byte_order_mark_is_dropped(tmp_path, monkeypatch, capsysbinary, kind):
    marked = {"source": "a.c", "sidecar": "a.c.segments", "config": "c.ini"}.get(kind)
    outputs = []
    for bom in ("", "\ufeff"):
        directory = tmp_path / f"bom{len(bom)}"
        directory.mkdir()
        for name, text in BOM_INPUTS.items():
            (directory / name).write_text((bom if name == marked else "") + text, encoding="utf-8")
        stdin = (bom if kind == "stdin" else "") + BOM_INPUTS["a.c"]
        monkeypatch.setattr("sys.stdin", stdin_of(stdin))
        monkeypatch.chdir(directory)
        assert main(["a.c", "-", "--config", "c.ini", "--format", "json"]) == 0
        outputs.append(capsysbinary.readouterr().out)
    assert outputs[1] == outputs[0]
    files = json.loads(outputs[0])["files"]
    assert [seg["kind"] for seg in files[0]["segments"]] == ["CL"]  # the sidecar's
    assert [f["impact"] for f in files] == [1.05, 1.05]  # 0.25 for the #include, 0.8

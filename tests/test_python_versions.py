"""The CLI gives the same bytes on every Python the package supports.

``pyproject.toml`` declares ``requires-python >= 3.10``, but the suite
runs on one interpreter.  This test collects ``python3.10`` to
``python3.13`` from ``PATH``, then any interpreters listed in the
``CODEAREA_TEST_PYTHONS`` environment variable (separated by
``os.pathsep``), then pyenv's ``$PYENV_ROOT/versions/3.1[0-3]*/bin/python3``
(``PYENV_ROOT`` defaults to ``~/.pyenv``).  It keeps the first one that
runs of each minor version other than that of the interpreter running
the suite.  On each it runs the CLI, in text and JSON, on the
golden corpus, on one small generated file, given as a path and through
``-``, on a generated file with CRLF line ends larger than the 64 KiB
the reader decodes at a time, and on a failing file between two good
ones, and with settings numbers that ``Fraction`` reads only on some
Pythons (``1_000``, ``1 / 3``), and requires the same stdout bytes and
exit code as the current interpreter.  It skips when it finds no
other interpreter.
"""

from __future__ import annotations

import glob
import os
import shutil
import subprocess
import sys

import pytest

from conftest import CORPUS, REPO_ROOT, bench_workloads

SRC = REPO_ROOT / "src"


def _version(python: str) -> str | None:
    """The major and minor version of the interpreter *python* starts, or
    None if it cannot run (a pyenv shim of a version not selected exits 127)."""
    try:
        probe = subprocess.run(
            [python, "-c", "import sys; print(sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return probe.stdout.strip() if probe.returncode == 0 else None


def _other_pythons() -> list[str]:
    names = [shutil.which(f"python3.{minor}") for minor in range(10, 14)]
    names += os.environ.get("CODEAREA_TEST_PYTHONS", "").split(os.pathsep)
    pyenv = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    names += sorted(glob.glob(os.path.join(pyenv, "versions", "3.1[0-3]*", "bin", "python3")))
    found = {str(sys.version_info[:2])}
    others = []
    for name in filter(None, names):
        version = _version(name)
        if version is not None and version not in found:
            found.add(version)
            others.append(name)
    return others


def _small_generated_file(directory) -> str:
    (file,) = bench_workloads().generate("deep_logic", 11, scale=0.05).files
    (directory / file.name).write_text(file.text, encoding="utf-8")
    return file.name


def _crlf_file(directory) -> str:
    (file,) = bench_workloads().generate("deep_logic", 11, scale=0.15).files
    data = file.text.replace("\n", "\r\n").encode("utf-8")
    assert len(data) > 1 << 16
    (directory / "crlf.c").write_bytes(data)
    return "crlf.c"


def _failing_between_good_files(directory) -> list[str]:
    (directory / "good1.c").write_text("a = b;\nwhile (c) d();\n", encoding="utf-8")
    (directory / "bad.c").write_text("void f() { if (a) }\n", encoding="utf-8")
    (directory / "good2.c").write_text("for (i = 0; i < 4; i++) x();\n", encoding="utf-8")
    return ["good1.c", "bad.c", "good2.c"]


def _cli(python: str, args: list[str], cwd, stdin: bytes = b"") -> tuple[int, bytes]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([python, "-m", "codearea", *args], cwd=cwd, env=env, input=stdin,
                          capture_output=True, timeout=300)
    return done.returncode, done.stdout


def test_cli_gives_the_same_bytes_on_every_other_python(tmp_path):
    others = _other_pythons()
    if not others:
        pytest.skip("no other Python interpreter found")
    golden = [str(p.relative_to(REPO_ROOT)) for p in sorted(CORPUS.glob("*.c"))]
    small = _small_generated_file(tmp_path)
    runs = [
        (REPO_ROOT, golden + ["--exec-time", "88", "--qr", "1,2,0,1,2"], 0, b""),
        (tmp_path, [small], 0, b""),
        (tmp_path, ["-"], 0, (tmp_path / small).read_bytes()),
        (tmp_path, [_crlf_file(tmp_path)], 0, b""),
        (tmp_path, _failing_between_good_files(tmp_path), 1, b""),
    ]
    for cwd, args, exit_code, stdin in runs:
        for fmt in ("text", "json"):
            want = _cli(sys.executable, args + ["--format", fmt], cwd, stdin)
            assert want[0] == exit_code and want[1]
            for python in others:
                assert _cli(python, args + ["--format", fmt], cwd, stdin) == want, (python, fmt)
    for number in ("1_000", "1 / 3"):
        args = golden + ["--exec-time", number]
        want = _cli(sys.executable, args, REPO_ROOT)
        assert want == (2, b"")
        for python in others:
            assert _cli(python, args, REPO_ROOT) == want, (python, number)

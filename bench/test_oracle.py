"""The benchmark's generator-side oracle agrees with the package.

Each workload is generated at a small scale over several seeds and run
through ``analyze`` and ``emit_report``; the oracle must find no
disagreement, and must find one when an expectation is wrong.
"""

from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

import pytest

import codearea
import run
import spans
import verify
import workloads

SCALE = 0.01


def _analyze(workload, directory, monkeypatch):
    workload.write(directory)
    monkeypatch.chdir(directory)
    config = verify.report_config(codearea)
    report = codearea.analyze([f.name for f in workload.files], config)
    return codearea.emit_report(report, "text"), codearea.emit_report(report, "json")


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_oracle_agrees_with_package(name, seed, tmp_path, monkeypatch):
    workload = workloads.generate(name, seed, SCALE)
    text, data = _analyze(workload, tmp_path, monkeypatch)
    assert verify.check_json(data, workload) == (0, [])
    assert verify.check_text(text, workload) == (0, [])


def test_oracle_counts_a_wrong_file(tmp_path, monkeypatch):
    workload = workloads.generate("source_tree", 0, SCALE)
    _, data = _analyze(workload, tmp_path, monkeypatch)
    exp = next(f.expected for f in workload.files if f.expected.segments)
    kind, start, end, impact = exp.segments[0]
    exp.segments[0] = (kind, start, end, impact + Fraction(1, 10))
    failed, problems = verify.check_json(data, workload)
    # The wrong file disagrees, and so does the aggregate code area,
    # which fails every file.
    assert failed == len(workload.files)
    assert any("segment 0" in p for p in problems)


def test_source_tree_has_sidecars_and_unclosed_files():
    workload = workloads.generate("source_tree", 7, SCALE)
    assert any(f.sidecar for f in workload.files)
    errors = [f.expected.error for f in workload.files if f.expected.error]
    assert errors and all("unclosed '{'" in message for message, _ in errors)


def test_same_seed_same_inputs():
    first = workloads.generate("deep_logic", 5, SCALE)
    again = workloads.generate("deep_logic", 5, SCALE)
    other = workloads.generate("deep_logic", 6, SCALE)
    assert [f.text for f in first.files] == [f.text for f in again.files]
    assert [f.text for f in first.files] != [f.text for f in other.files]


def test_tracer_sees_every_layer(tmp_path, monkeypatch):
    workload = workloads.generate("source_tree", 1, SCALE)
    tracer = spans.Tracer()
    with tracer.patched():
        _analyze(workload, tmp_path, monkeypatch)
    names = {span[0] for span in tracer.spans}
    assert names == {name for _, name in spans.LAYER_FUNCTIONS}
    nodes, depth = spans.tree_shape(tracer.trees)
    assert nodes > 0 and depth >= 2
    # Unpatched again: further calls record nothing.
    count = len(tracer.spans)
    again = tmp_path / "again"
    again.mkdir()
    _analyze(workload, again, monkeypatch)
    assert len(tracer.spans) == count


def test_cli_peak_rss_is_the_childs_own(tmp_path):
    ballast = b"x" * (128 << 20)  # touched, so this process peaks above it
    env = dict(os.environ, PYTHONPATH=str(Path(codearea.__file__).parent.parent))
    _, rss_kib, out, code, _ = run.run_cli(["--weights-dump"], tmp_path, env)
    assert code == 0 and b"expression = " in out
    assert rss_kib is not None and 4 << 10 < rss_kib < 64 << 10
    assert len(ballast) == 128 << 20

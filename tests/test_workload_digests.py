"""The report bytes of the three bench workloads do not move.

Each workload is generated at seed 11 from ``bench/workloads.py`` (read,
not changed), written to a temporary directory and analyzed there with
the settings the bench passes on the command line: ``--exec-time 88
--qr 1,2,0,1,2``.  The sha256 of the text and JSON reports must match the
digests the bench has recorded since its first run.  The CLI, which
streams the report file by file, must write the same bytes for
``source_tree``.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from codearea import Config, QualityAttributes, TotalSeconds, analyze, emit_report
from codearea.cli import main

from conftest import bench_workloads

DIGESTS = {
    "amalgamation": (
        "a2a0503a6d6edef58ba99abc6da4e9837b9a0caf6975ace846afd5c0fa6735ce",
        "dac760c07d09f2c85165ca5239a7bf4fa3d88462c1825aae281cae51ee17296f",
    ),
    "deep_logic": (
        "74391fcd9a39d4a45f61e20cd304fac4e7067972d3f6e642f374447a7b8269c0",
        "c26e69aa52dfa3290ecf038fcaf9368f0d88b1d7f2efcb15aa050a16e2a6214f",
    ),
    "source_tree": (
        "5ef67fa37e6647d07c3f628e53729211255192667f4de8772b458ca510037419",
        "b1ffd7411baa94ac6a92f7ee4e08d5d27d4f65476b439e3009ad5e71d2c1fbb0",
    ),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_workload_report_bytes_are_pinned(name, tmp_path, monkeypatch):
    workload = bench_workloads().generate(name, 11)
    workload.write(tmp_path)
    monkeypatch.chdir(tmp_path)
    config = Config(exec_time=TotalSeconds(Fraction(88)), qr=QualityAttributes(1, 2, 0, 1, 2))
    report = analyze([f.name for f in workload.files], config)
    digests = tuple(
        hashlib.sha256(emit_report(report, fmt)).hexdigest() for fmt in ("text", "json")
    )
    assert digests == DIGESTS[name]


def test_cli_streams_the_pinned_source_tree_reports(tmp_path, monkeypatch, capsysbinary):
    workload = bench_workloads().generate("source_tree", 11)
    workload.write(tmp_path)
    monkeypatch.chdir(tmp_path)
    args = [f.name for f in workload.files] + ["--exec-time", "88", "--qr", "1,2,0,1,2"]
    exit_code = 1 if any(f.expected.error for f in workload.files) else 0
    digests = []
    for fmt in ("text", "json"):
        assert main(args + ["--format", fmt]) == exit_code
        digests.append(hashlib.sha256(capsysbinary.readouterr().out).hexdigest())
    assert tuple(digests) == DIGESTS["source_tree"]

#!/usr/bin/env python3
"""Benchmark of the codearea pipeline on seeded, generated inputs.

Run from the root of a checkout::

    python3 bench/run.py --workload amalgamation --seed 1 --seconds 40 --trace 0

The workload (see ``bench/README.md``) is generated from the seed and
written as files into a temporary directory under ``.bench_tmp/``; the
package sees only those files.  One run:

1. checks the bundled corpus against the totals the README states;
2. for ``--seconds``, repeats rounds of three ``python -m codearea
   --weights-dump`` runs (set-up time), one in-process job (``analyze``,
   then ``emit_report`` as text and as JSON) and one CLI run on the same
   files, with a calibration slot between steps; with ``--trace 1`` each
   round adds one traced job.  Child processes run one at a time, each
   after the previous one has ended;
3. checks every report against the generator's oracle and checks that
   all reports of the run have the same bytes.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count files checked and files in
disagreement, and ``metrics`` holds the end-to-end metrics, or with
``--trace 1`` the per-layer ones.  Spans of a traced run are written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import spans
import verify
import workloads

MIN_ROUNDS = 2
# Set-up runs per round; spread over the run, they see the same machine
# as the jobs do.
SETUP_PER_ROUND = 3
# The speed of each CPU drifts by up to 1.7x within seconds (see README),
# so each end-to-end sample is scaled by how long a fixed task,
# independent of the package, took just before and just after it on the
# same CPU, against CALIBRATION_S.
CALIBRATION_SCALE = 0.5
CALIBRATION_PER_SLOT = 2
CALIBRATION_S = 0.12
# Layers called only where a file has a sidecar; every workload calls
# the other layers in spans.LAYER_FUNCTIONS.
OVERRIDE_LAYERS = ("parse_segment_overrides", "apply_segment_overrides")
# Runs the CLI as ``python -m codearea`` does, then writes the child's
# own peak RSS in KiB to the file named by BENCH_HWM_FILE.  VmHWM starts
# afresh with the address space exec makes; wait4's ru_maxrss does not,
# as exec carries the parent's high-water mark into the child.
CLI_SHIM = """\
import os, runpy
try:
    runpy.run_module("codearea", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(os.environ["BENCH_HWM_FILE"], "w") as out:
        out.write(hwm)
"""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package(src: Path):
    """Import codearea from this checkout's ``src``, and nowhere else."""
    if not (src / "codearea" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source under {src}")
    sys.path.insert(0, str(src))
    import codearea

    if Path(codearea.__file__).resolve().parent != (src / "codearea").resolve():
        raise SystemExit(f"bench: imported codearea from {codearea.__file__}, not {src}")
    return codearea


def calibrate() -> float:
    """Time the calibration task: generating a fixed small workload.

    The collector is off meanwhile, so the time does not depend on how
    many objects the package has left alive in this process.  The task
    makes no reference cycles; reference counting frees all it makes.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        workloads.generate("deep_logic", 0, CALIBRATION_SCALE)
        return time.perf_counter() - start
    finally:
        gc.enable()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(args: list[str], cwd: Path, env: dict) -> tuple[float, int | None, bytes, int, bytes]:
    """Run the CLI once; return (wall s, peak RSS KiB or None if the child
    did not record it, stdout, exit code, stderr)."""
    err_path = cwd / "cli.stderr"
    hwm_path = cwd / "cli.hwm"
    hwm_path.unlink(missing_ok=True)
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_SHIM, *args],
            cwd=cwd, env=dict(env, BENCH_HWM_FILE=str(hwm_path)),
            stdout=subprocess.PIPE, stderr=err,
        )
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            proc.wait()
        wall = time.perf_counter() - start
    rss = int(hwm_path.read_text()) if hwm_path.exists() else None
    return wall, rss, out, proc.returncode, err_path.read_bytes()


class Run:
    """Everything one invocation measures and checks."""

    def __init__(self, api, workload: workloads.Workload, work: Path, env: dict, trace: bool):
        self.api = api
        self.workload = workload
        self.work = work
        self.env = env
        self.names = [f.name for f in workload.files]
        self.config = verify.report_config(api)
        self.cli_args = [*self.names, "--format", "json", *verify.REPORT_FLAGS]
        self.cli_exit = 1 if any(f.expected.error for f in workload.files) else 0
        self.tracer = spans.Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: tuple[str, str] | None = None
        self.digests_failed = 0  # files the first report got wrong
        self.facts = dict.fromkeys(("files", "failed_files", "diagnostics", "report_bytes"), 0)
        self.traced_jobs: list[dict] = []
        self.cli_rss_kib: list[int] = []
        # (kind, seconds) in the order measured; kinds are "job",
        # "traced_job", "cli", "setup" and "calibration".
        self.timeline: list[tuple[str, float]] = []

    def _tally(self, files: int, failed: int, problems: list[str]) -> None:
        self.attempted += files
        self.failed += failed
        self.problems += problems

    # -- checks that run once -------------------------------------------

    def check_golden(self, corpus: Path) -> None:
        paths = sorted(str(p) for p in corpus.glob("*.c"))
        _, _, out, code, err = run_cli([*paths, "--format", "json", *verify.REPORT_FLAGS],
                                       self.work, self.env)
        problems = verify.check_golden(out)
        if code != 0:
            problems.append(f"corpus run exited {code}: {err.decode(errors='replace')[-500:]}")
        self._tally(len(paths), len(paths) if problems else 0, problems)

    # -- the measured rounds ---------------------------------------------

    def setup(self) -> float:
        """Time one ``--weights-dump`` run, after checking what it prints."""
        want = "".join(f"{kind} = {w.numerator / w.denominator}\n"
                       for kind, w in workloads.WEIGHTS.items())
        want = (want + "exception_multiplier = on\n").encode()
        wall, _, out, code, _ = run_cli(["--weights-dump"], self.work, self.env)
        problem = f"--weights-dump printed {out[:200]!r}, exit {code}"
        if (out != want or code != 0) and problem not in self.problems:
            self.problems.append(problem)
        return wall

    def _check_job(self, text: bytes, data: bytes) -> None:
        n = len(self.names)
        digests = (sha256(text), sha256(data))
        if self.digests is None:
            failed_json, problems = verify.check_json(data, self.workload)
            failed_text, text_problems = verify.check_text(text, self.workload)
            self.digests = digests
            if not failed_json:
                doc = json.loads(data)
                self.facts.update(
                    files=len(doc["files"]),
                    failed_files=sum(1 for f in doc["files"] if "error" in f),
                    diagnostics=len(doc["diagnostics"]),
                )
            self.facts["report_bytes"] = len(text) + len(data)
            self.digests_failed = max(failed_json, failed_text)
            self._tally(n, self.digests_failed, problems + text_problems)
        elif digests != self.digests:
            self._tally(n, n, ["report bytes differ between jobs of one run"])
        else:
            self._tally(n, self.digests_failed, [])

    def job(self) -> None:
        gc.collect()
        try:
            start = time.perf_counter()
            report = self.api.analyze(self.names, self.config)
            text = self.api.emit_report(report, "text")
            data = self.api.emit_report(report, "json")
            wall = time.perf_counter() - start
        except Exception as exc:  # an escaping exception fails the whole job
            self._tally(len(self.names), len(self.names), [f"job raised {exc!r}"])
            return
        del report
        self.timeline.append(("job", wall))
        self._check_job(text, data)

    def traced_job(self) -> None:
        gc.collect()
        tracer = self.tracer
        first = len(tracer.spans)
        gc_ns, gc_n = tracer.gc_ns, tracer.gc_collections
        try:
            with tracer.patched(), tracer.span("job"):
                with tracer.span("analyze"):
                    report = self.api.analyze(self.names, self.config)
                with tracer.span("emit_report.text"):
                    text = self.api.emit_report(report, "text")
                with tracer.span("emit_report.json"):
                    data = self.api.emit_report(report, "json")
        except Exception as exc:
            self._tally(len(self.names), len(self.names), [f"traced job raised {exc!r}"])
            return
        del report
        job_span = tracer.spans[first]
        self.timeline.append(("traced_job", (job_span[2] - job_span[1]) / 1e9))
        nodes, depth = spans.tree_shape(tracer.trees)
        tracer.trees.clear()
        self.traced_jobs.append({
            "first": first, "end": len(tracer.spans),
            "gc_s": (tracer.gc_ns - gc_ns) / 1e9, "gc_n": tracer.gc_collections - gc_n,
            "nodes": nodes, "max_depth": depth,
        })
        tracer.job += 1
        self._check_job(text, data)

    def cli(self) -> None:
        wall, rss, out, code, err = run_cli(self.cli_args, self.work, self.env)
        n = len(self.names)
        if code != self.cli_exit:
            self._tally(n, n, [f"CLI exited {code}, expected {self.cli_exit}: "
                               f"{err.decode(errors='replace')[-500:]}"])
            return
        if rss is None:
            self._tally(n, n, ["CLI child did not record its peak RSS"])
            return
        self.timeline.append(("cli", wall))
        self.cli_rss_kib.append(rss)
        if self.digests is not None and sha256(out) == self.digests[1]:
            self._tally(n, self.digests_failed, [])
        else:
            failed, problems = verify.check_json(out, self.workload)
            self._tally(n, max(failed, 1), problems or ["CLI JSON differs from the in-process report"])

    def calibrate(self) -> None:
        slot = [calibrate() for _ in range(CALIBRATION_PER_SLOT)]
        self.timeline.append(("calibration", statistics.median(slot)))

    def rounds(self, seconds: float) -> None:
        self.setup()  # warms the file cache; not a sample
        self.calibrate()
        started = time.perf_counter()
        done = 0
        while True:
            for _ in range(SETUP_PER_ROUND):
                self.timeline.append(("setup", self.setup()))
            self.calibrate()
            jobs = [self.job] if self.tracer is None else [self.job, self.traced_job]
            # Alternate which job goes first, so order does not bias the
            # tracing overhead.
            for job in jobs[::-1] if done % 2 else jobs:
                job()
                self.calibrate()
            self.cli()
            self.calibrate()
            done += 1
            now = time.perf_counter()
            # Start another round only if it is expected to end in time.
            if done >= MIN_ROUNDS and now + (now - started) / done > started + seconds:
                return

    # -- results -----------------------------------------------------------

    def raw(self, kind: str) -> list[float]:
        return [v for k, v in self.timeline if k == kind]

    def scaled(self, kind: str) -> list[float]:
        """Samples of *kind*, each divided by the machine's speed around
        it: the mean of the calibration slots just before and after it,
        over CALIBRATION_S."""
        out: list[float] = []
        pending: list[float] = []
        before = None
        for k, v in self.timeline:
            if k == "calibration":
                out += [p * CALIBRATION_S * 2 / (before + v) for p in pending]
                pending = []
                before = v
            elif k == kind:
                pending.append(v)
        return out

    def end_to_end(self) -> dict:
        """Medians, with times scaled to the calibrated machine speed."""
        return {
            "lines_per_s": (self.workload.lines / statistics.median(self.scaled("job")), "lines/s"),
            "cli_s": (statistics.median(self.scaled("cli")), "s"),
            "peak_rss_mib": (statistics.median(self.cli_rss_kib) / 1024, "MiB"),
            "setup_s": (statistics.median(self.scaled("setup")), "s"),
        }

    def per_layer(self) -> dict:
        tracer = self.tracer
        own = spans.self_times(tracer.spans)
        rows = []
        for job in self.traced_jobs:
            self_ns: dict[str, int] = defaultdict(int)
            sizes: dict[str, int] = defaultdict(int)
            calls: dict[str, int] = defaultdict(int)
            for i in range(job["first"], job["end"]):
                name, start, end, _, _, size = tracer.spans[i]
                self_ns[name] += own[i]
                calls[name] += 1
                if size is not None:
                    sizes[name] += size
            missing = [name for name in self._expected_layers() if not calls[name]]
            if missing:
                raise SystemExit(f"bench: no span recorded for {', '.join(missing)} "
                                 f"on {self.workload.name}")
            job_ns = tracer.spans[job["first"]][2] - tracer.spans[job["first"]][1]
            s = {name: ns / 1e9 for name, ns in self_ns.items()}
            seg_s = s["segment"] + s.get("parse_segment_overrides", 0.0) \
                + s.get("apply_segment_overrides", 0.0)
            tokens = sizes["tokenize"]
            segments = sizes["segment"] + sizes["apply_segment_overrides"]
            rows.append({
                "tokenize.self_s": (s["tokenize"], "s"),
                "tokenize.share": (s["tokenize"] * 1e9 / job_ns, "ratio"),
                "tokenize.tokens_per_s": (tokens / s["tokenize"], "1/s"),
                "tokenize.mib_per_s": (self.workload.bytes / 2**20 / s["tokenize"], "MiB/s"),
                "tokenize.tokens": (tokens, "count"),
                "parse.self_s": (s["parse_tokens"], "s"),
                "parse.share": (s["parse_tokens"] * 1e9 / job_ns, "ratio"),
                "parse.nodes": (job["nodes"], "count"),
                "parse.nodes_per_s": (job["nodes"] / s["parse_tokens"], "1/s"),
                "parse.max_depth": (job["max_depth"], "count"),
                "segment.self_s": (seg_s, "s"),
                "segment.segments": (segments, "count"),
                "segment.override_files": (calls["apply_segment_overrides"], "count"),
                "score.self_s": (s["segment_impact"], "s"),
                "score.share": (s["segment_impact"] * 1e9 / job_ns, "ratio"),
                "score.segments_per_s": (calls["segment_impact"] / s["segment_impact"], "1/s"),
                "flow.self_s": (s["flow_orderliness"], "s"),
                "flow.share": (s["flow_orderliness"] * 1e9 / job_ns, "ratio"),
                "analysis.self_s": (s["analyze"] + s["analyze_source"], "s"),
                "analysis.files": (self.facts["files"], "count"),
                "analysis.failed_files": (self.facts["failed_files"], "count"),
                "analysis.diagnostics": (self.facts["diagnostics"], "count"),
                "render.text_s": (s["emit_report.text"], "s"),
                "render.json_s": (s["emit_report.json"], "s"),
                "render.bytes": (self.facts["report_bytes"], "count"),
                "runtime.gc_s": (job["gc_s"], "s"),
                "runtime.gc_collections": (job["gc_n"], "count"),
            })
        job_median = statistics.median(self.raw("job"))
        # Counts take a value one job really had, not the mean of two.
        out = {
            name: ((statistics.median_low if unit == "count" else statistics.median)(
                row[name][0] for row in rows), unit)
            for name, (_, unit) in rows[0].items()
        }
        out["cli.startup_s"] = (statistics.median(self.raw("cli")) - job_median, "s")
        out["trace.overhead_ratio"] = (statistics.median(self.raw("traced_job")) / job_median,
                                       "ratio")
        return out

    def _expected_layers(self) -> list[str]:
        sidecars = any(f.sidecar for f in self.workload.files)
        return [name for _, name in spans.LAYER_FUNCTIONS
                if sidecars or name not in OVERRIDE_LAYERS]

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps(["name", "start_ns", "end_ns", "parent", "job", "size"]) + "\n")
            for span in self.tracer.spans:
                out.write(json.dumps(span) + "\n")


def main(argv: list[str] | None = None) -> int:
    # Turn a termination request into an exit that kills the CLI child
    # and removes the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    args = parse_args(argv)
    # One CPU for this process and its children, so each calibration
    # slot runs where the samples next to it ran.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    api = import_package(src)
    corpus = root / "corpus"
    if not corpus.is_dir():
        raise SystemExit(f"bench: no golden corpus at {corpus}")

    t0 = time.perf_counter()
    workload = workloads.generate(args.workload, args.seed)
    gen_s = time.perf_counter() - t0
    tmp_root = root / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    cwd = os.getcwd()
    try:
        workload.write(work)
        # Reports name files relative to the work directory, so their
        # bytes do not depend on where the checkout is.
        os.chdir(work)
        env = dict(os.environ, PYTHONPATH=str(src))
        run = Run(api, workload, work, env, trace=bool(args.trace))
        run.check_golden(corpus)
        run.rounds(args.seconds)
        if not run.raw("job") or not run.raw("cli"):
            print("\n".join(run.problems[:20]), file=sys.stderr)
            raise SystemExit("bench: no job or CLI run completed")
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    print(f"workload {workload.name} seed {workload.seed}: {len(workload.files)} files, "
          f"{workload.lines} lines, {workload.bytes} bytes, generated in {gen_s:.2f} s")
    print(f"parameters {json.dumps(workload.params, sort_keys=True)}")
    print(f"machine: nproc {os.cpu_count()}, cpus used {len(os.sched_getaffinity(0))}, "
          f"python {platform.python_version()}, {platform.machine()}")
    for kind in ("job", "traced_job", "cli", "setup", "calibration"):
        print(f"samples {kind}_s: {' '.join(f'{v:.4f}' for v in run.raw(kind))}")
    speed = statistics.median(run.raw("calibration")) / CALIBRATION_S
    print(f"machine speed: calibration took {speed} x {CALIBRATION_S} s")
    print(f"unscaled: lines_per_s {workload.lines / statistics.median(run.raw('job'))} "
          f"cli_s {statistics.median(run.raw('cli'))} "
          f"setup_s {statistics.median(run.raw('setup'))}")
    if run.digests is not None:
        print(f"report sha256: text {run.digests[0]} json {run.digests[1]}")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    print(f"failed_ratio {run.failed / max(1, run.attempted)} ratio "
          f"({run.failed} of {run.attempted} files)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    if args.trace:
        run.write_spans(root / ".bench_out" / f"spans-{workload.name}-{workload.seed}.jsonl")
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

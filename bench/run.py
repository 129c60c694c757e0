#!/usr/bin/env python3
"""emt-lab benchmark: one caller, one thread, a closed loop of scenario runs.

Run from the repository root:

    python3 bench/run.py --workload epistemic_pool --seed 1 --seconds 12 --trace 0

One op is one in-process ``emt_lab.cli.main(["run", <input>, "--out", <dir>])``
with stdout captured: load, validate, compute, write and the report line,
which is ``emt-lab run`` without interpreter start-up. The inputs are
generated from --seed (see workloads.py) into a directory apart from --out.
Every input runs once before timing, and its artifact is checked in full;
every timed op must exit 0 and reproduce those bytes. The timed phase runs
whole passes over the inputs until --seconds have gone and at least MIN_OPS
ops are done.

The host is shared, and its speed moves by up to 2x for seconds at a time,
CPU time as much as wall time. So between ops the benchmark times a fixed
calibration kernel, and the gated timings are normalized: each op's wall time
is scaled by KERNEL_REF_MS over the mean kernel time just before and after it,
and set-up time likewise (_setup_seconds).

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced passes
with passes that have timing wrappers on the emt_lab module attributes
(tracing.py) and prints the per-layer metrics. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import workloads
from tracing import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_OPS = 100  # the 90th percentile then has at least ten samples above it
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120
# About the calibration kernel's time on a quiet 2-core VM (Intel Xeon,
# Python 3.11): a normalized op time is what the op would take there.
KERNEL_REF_MS = 10.0

# (name, unit, span whose self time is reported, or counter key); per-op means.
LAYER_METRICS = (
    ("cli.self_ms", "ms", "cli"),
    ("config.load_ms", "ms", "config.load"),
    ("config.input_kb", "KB", "config.input_kb"),
    ("runner.self_ms", "ms", "runner"),
    ("runner.write_ms", "ms", "runner.write"),
    ("runner.bytes_out", "bytes", "runner.bytes_out"),
    ("epistemic.pool_step_ms", "ms", "epistemic.pool_step"),
    ("epistemic.pool_step_calls", "count", "epistemic.pool_step_calls"),
    ("epistemic.research_output_ms", "ms", "epistemic.research_output"),
    ("epistemic.step_knowledge_ms", "ms", "epistemic.step_knowledge"),
    ("epistemic.problems_scanned", "count", "epistemic.problems_scanned"),
    ("dynprog.vi_ms", "ms", "dynprog.vi"),
    ("dynprog.vi_calls", "count", "dynprog.vi_calls"),
    ("dynprog.vi_iterations", "count", "dynprog.vi_iterations"),
    ("dynprog.eval_ms", "ms", "dynprog.eval"),
    ("dynprog.eval_calls", "count", "dynprog.eval_calls"),
    ("feedback.simulate_ms", "ms", "feedback.simulate"),
    ("feedback.steps", "count", "feedback.steps"),
    ("feedback.diagnostics_ms", "ms", "feedback.diagnostics"),
    ("recombinant.draw_ms", "ms", "recombinant.draw"),
    ("recombinant.draws", "count", "recombinant.draws"),
    ("recombinant.diagnostics_ms", "ms", "recombinant.diagnostics"),
    ("game.spne_ms", "ms", "game.spne"),
    ("game.is_spne_calls", "count", "game.is_spne_calls"),
    ("gravity.flywheel_ms", "ms", "gravity.flywheel"),
    ("growth.ladder_step_ms", "ms", "growth.ladder_step"),
    ("policy.optimize_ms", "ms", "policy.optimize"),
)


@dataclass
class Item:
    scenario: dict
    input: Path
    artifact: Path
    digest: str | None = None  # sha256 of the first artifact, once it passed its checks


def _kernel_seconds(array: np.ndarray, floats: list) -> float:
    """Wall time of a fixed piece of work: an interpreter loop, a walk over a
    list of 200k Python floats and a numpy sort of as many.

    The walk makes the kernel slow down with the machine's caches and memory
    as the interpreter-bound epistemic and feedback ops do; without it, the
    normalized percentiles of epistemic_pool spread about twice as wide.
    """
    start = perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    acc = 0.0
    for x in floats:
        acc += x * 1.0001
    np.sort(array)
    return perf_counter() - start


def _normalized(elapsed: float, before: float, after: float) -> float:
    """elapsed scaled to the kernel's reference speed, given the kernel times around it."""
    return elapsed * KERNEL_REF_MS * 1e-3 / ((before + after) / 2)


@dataclass
class Phase:
    times: list  # wall seconds per op
    norm: list  # the same, normalized to the kernel's reference speed
    failures: list  # one message per failed op
    wall: float

    def extend(self, other: "Phase") -> None:
        self.times += other.times
        self.norm += other.norm
        self.failures += other.failures
        self.wall += other.wall

    @staticmethod
    def quantile_ms(times: list, q: int) -> float:
        """q-th percentile (q in 10, 20, ..., 90) of op time, linearly interpolated."""
        return statistics.quantiles([t * 1e3 for t in times], n=10, method="inclusive")[q // 10 - 1]


class Bench:
    """The generated inputs of one workload, warmed up and ready to time."""

    def __init__(self, workload: str, seed: int, tiny: bool, workdir: Path):
        from emt_lab import cli

        self.main = cli.main
        self.kernel_array = np.random.default_rng(0).random(200_000)
        self.kernel_floats = self.kernel_array.tolist()
        in_dir, self.out_dir = workdir / "inputs", workdir / "out"
        in_dir.mkdir()
        self.out_dir.mkdir()
        self.items = []
        for scenario, data in workloads.generate(workload, seed, tiny, SRC / "emt_lab" / "scenarios"):
            path = in_dir / f"{scenario['name']}.json"
            if path.exists():
                raise ValueError(f"two inputs named {scenario['name']!r}")
            path.write_bytes(data)
            self.items.append(Item(scenario, path, self.out_dir / checks.artifact_name(scenario)))
        # Set-up at the kernel's reference speed: the time up to here is
        # scaled by the first kernel, and each warm-up op like a timed op.
        self.generated_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        kernel = self.first_kernel = self.kernel()
        self.warmup_norm = 0.0
        self.warmup_failures = []
        for item in self.items:
            elapsed, problem = self.run_op(item, self.main)
            previous, kernel = kernel, self.kernel()
            self.warmup_norm += _normalized(elapsed, previous, kernel)
            if problem is not None:
                self.warmup_failures.append(f"{item.input.name}: {problem}")
        # Each timed op starts from the same collector state, as a fresh
        # `emt-lab run` process would: what set-up made is frozen out of
        # collection, and timed_phase collects the previous op's garbage
        # untimed.
        gc.collect()
        gc.freeze()

    def kernel(self) -> float:
        return _kernel_seconds(self.kernel_array, self.kernel_floats)

    def run_op(self, item: Item, call) -> tuple[float, str | None]:
        """(seconds, None) for a good op, else (seconds, what went wrong)."""
        stdout = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(stdout):
                code = call(["run", str(item.input), "--out", str(self.out_dir)])
        except Exception as exc:  # a raising op is a failed op; the loop goes on
            return perf_counter() - start, f"raised {exc!r}"
        elapsed = perf_counter() - start
        return elapsed, self._verify(item, code, stdout.getvalue())

    def _verify(self, item: Item, code, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if not stdout.startswith(f"{item.scenario['name']}: wrote "):
            return f"unexpected report line {stdout[:80]!r}"
        data = item.artifact.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if item.digest is None:
            problem = checks.check_artifact(item.scenario, data)
            if problem is None:
                item.digest = digest
            return problem
        return None if digest == item.digest else "artifact bytes differ from the first run"

    def timed_phase(self, min_seconds: float, min_ops: int, tracer: Tracer | None = None) -> Phase:
        call = self.main if tracer is None else tracer.wrap("cli", self.main)
        times, norm, failures = [], [], []
        start = perf_counter()
        kernel = self.kernel()
        while perf_counter() - start < min_seconds or len(times) < min_ops:
            for item in self.items:
                if tracer is not None:
                    tracer.op += 1
                gc.collect()
                elapsed, problem = self.run_op(item, call)
                previous, kernel = kernel, self.kernel()
                times.append(elapsed)
                norm.append(_normalized(elapsed, previous, kernel))
                if problem is not None:
                    failures.append(f"{item.input.name}: {problem}")
        return Phase(times, norm, failures, perf_counter() - start)

    def artifact_digest(self) -> str:
        lines = sorted(f"{item.artifact.name} {item.digest}" for item in self.items)
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _setup_seconds(args) -> float:
    """Seconds from starting a fresh interpreter to its having warmed up every
    input, normalized to the kernel's reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    words = out.split()
    if proc.returncode != 0 or len(words) != 4 or words[0] != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {out!r}")
    generated_at, first_kernel, warmup_norm = map(float, words[1:])
    return _normalized(generated_at - start, first_kernel, first_kernel) + warmup_norm


def _setup_probe(args) -> int:
    """Set up as a timed run would and print its timings; failures show in that run."""
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        bench = Bench(args.workload, args.seed, args.tiny, Path(tmp))
        print(f"ready {bench.generated_at!r} {bench.first_kernel!r} {bench.warmup_norm!r}", flush=True)
    return 0


def _end_to_end(phase: Phase, setup: list) -> dict:
    return {
        "norm_op_ms_p50": (phase.quantile_ms(phase.norm, 50), "ms"),
        "norm_op_ms_p90": (phase.quantile_ms(phase.norm, 90), "ms"),
        "norm_ops_per_s": (len(phase.norm) / sum(phase.norm), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _per_layer(plain: Phase, traced: Phase, tracer: Tracer) -> dict:
    n = len(traced.times)
    out = {}
    for name, unit, source in LAYER_METRICS:
        total = tracer.self_ns[source] / 1e6 if unit == "ms" else tracer.counts[source]
        out[name] = (total / n, unit)
    scanned = tracer.counts["epistemic.problems_scanned"]
    open_share = tracer.counts["epistemic.problems_open"] / scanned if scanned else 0.0
    out["epistemic.open_share"] = (open_share, "ratio")
    overhead = Phase.quantile_ms(traced.norm, 50) / Phase.quantile_ms(plain.norm, 50) - 1.0
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def _dominant_layers(metrics: dict, traced: Phase) -> str:
    mean_ms = 1e3 * sum(traced.times) / len(traced.times)
    spans = sorted(((v, k) for k, (v, unit) in metrics.items() if unit == "ms"), reverse=True)
    return ", ".join(f"{k} {v:.3f} ms ({v / mean_ms:.0%})" for v, k in spans[:3])


def _machine() -> str:
    import numpy
    import scipy

    return (f"nproc={os.cpu_count()} affinity={sorted(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes of every generated workload, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "emt_lab" / "__init__.py").is_file():
        print(f"error: {SRC / 'emt_lab'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.setup_probe:
        return _setup_probe(args)

    setup = [] if args.trace else [_setup_seconds(args) for _ in range(SETUP_REPEATS)]
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        bench = Bench(args.workload, args.seed, args.tiny, Path(tmp))
        if args.trace:
            # Untraced and traced passes alternate, so that both see the
            # same stretch of the host's changing speed.
            plain, traced, tracer = Phase([], [], [], 0.0), Phase([], [], [], 0.0), Tracer()
            start = perf_counter()
            while perf_counter() - start < args.seconds:
                plain.extend(bench.timed_phase(0, 1))
                tracer.install()
                try:
                    traced.extend(bench.timed_phase(0, 1, tracer))
                finally:
                    tracer.restore()
            phases = [plain, traced]
            metrics = _per_layer(plain, traced, tracer)
            trace_path = WORK / f"trace_{args.workload}_seed{args.seed}.tsv"
            tracer.write(trace_path)
        else:
            phases = [bench.timed_phase(args.seconds, MIN_OPS)]
            metrics = _end_to_end(phases[0], setup)
        digest = bench.artifact_digest()

    attempted = sum(len(p.times) for p in phases)
    failures = bench.warmup_failures + [f for p in phases for f in p.failures]
    failed = sum(len(p.failures) for p in phases)
    for message in failures[:10]:
        print(f"failed: {message}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed}: {attempted} ops, {failed} failed "
          f"(fail_frac {failed / attempted:.4g}), warm-up failures {len(bench.warmup_failures)}")
    for phase in phases:
        print(f"  phase: {len(phase.times)} ops in {phase.wall:.2f} s; not normalized: "
              f"op_ms_p50 {phase.quantile_ms(phase.times, 50):.6g} ms, "
              f"op_ms_p90 {phase.quantile_ms(phase.times, 90):.6g} ms, "
              f"ops_per_s {len(phase.times) / sum(phase.times):.6g} 1/s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    if args.trace:
        print(f"  samples: per-op means over the {len(traced.times)} traced ops")
        print(f"dominant layers: {_dominant_layers(metrics, traced)}")
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        print(f"  samples: norm_op_ms_*, norm_ops_per_s {attempted} ops; setup_s {len(setup)} set-ups; "
              f"peak_rss_mb 1 process")
    print(f"artifact digest: {digest}")
    print(f"machine: {_machine()}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

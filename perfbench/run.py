"""Pipeline benchmark for polylet: one workload, one seed, one run.

Run from the root of a polylet checkout:

    python3 perfbench/run.py --workload letchain --seed 1 --seconds 20 --trace 0

Workloads (see programs.py): letchain, wide, genfun, small.  The run
imports polylet from ./src, generates the workload's programs from the
seed, and passes every program through every path of pipeline.py, round
after round, as long as one more round fits in --seconds (at least two
rounds; every later round checks that the emitted code, the exact counts
and the failed operations repeat).  All
work happens in one worker thread with a large stack and a raised
recursion limit.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
rounds with traced ones, reports per-layer metrics from the spans, runs
`difftest.run_all` at a fixed seed, and writes the spans to
.bench_out/spans-<workload>-<seed>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `attempted` counts operations
(programs x paths) once, however many rounds ran; `failed` counts those
that raised or whose result differs from the reference; `correct` is
true when every operation's result was checked against its reference
and the exact counts repeated.  The lines before it describe the run.
The exit status is 2 when polylet's sources are missing and 1 when the
output is not deterministic; neither prints a result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

from pipeline import LAYERS, PATHS, Api, BenchmarkError, NullTracer, Runner, SpeedGauge, Tracer, growth, layer_round
from programs import WORKLOADS, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

STACK_BYTES = 512 * 1024 * 1024
RECURSION_LIMIT = 100_000
MIN_ROUNDS = 2
SETUPS = 15  # set-ups per untraced run, about; at least one per round
DIFFTEST_SEED = 0
DIFFTEST_COUNT = 100
DIFFTEST_REPS = 3

def in_worker_thread(fn, *args):
    """Run fn(*args) in one thread with STACK_BYTES of stack and the
    recursion limit raised to RECURSION_LIMIT; return or raise its result."""
    box: dict = {}

    def target() -> None:
        try:
            box["value"] = fn(*args)
        except BaseException as exc:  # handed to the calling thread
            box["error"] = exc

    sys.setrecursionlimit(RECURSION_LIMIT)
    previous = threading.stack_size(STACK_BYTES)
    try:
        worker = threading.Thread(target=target, name="bench-worker")
        worker.start()
    finally:
        threading.stack_size(previous)
    worker.join()
    if "error" in box:
        raise box["error"]
    return box["value"]


def _polylet_modules() -> list[str]:
    return [m for m in sys.modules if m == "polylet" or m.startswith("polylet.")]


def setup(workload: str, seed: int, gauge: SpeedGauge):
    """Import polylet afresh and build the workload: the `setup_s` work.
    Returns its time over the calibration sample before it, and the runner."""
    for name in _polylet_modules():
        del sys.modules[name]
    speed = gauge.current()
    start = time.perf_counter()
    importlib.import_module("polylet")
    runner = Runner(Api(), build(workload, seed), gauge)
    return (time.perf_counter() - start) / speed, runner


def setup_again(workload: str, seed: int, gauge: SpeedGauge) -> float:
    """Time one more set-up, then restore the modules the runner uses."""
    kept = {name: sys.modules[name] for name in _polylet_modules()}
    took, _ = setup(workload, seed, gauge)
    for name in _polylet_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    return took


def polylet_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "polylet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "recursion_limit": sys.getrecursionlimit(),
        "thread_stack_bytes": STACK_BYTES,
        "polylet_commit": polylet_commit(),
        "polylet_source_sha256": source_digest(),
    }


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    took, runner = setup(workload, seed, SpeedGauge())
    setups = [took]
    if Path(runner.api.module_file).resolve().parent != SRC / "polylet":
        raise BenchmarkError(f"imported polylet from {runner.api.module_file}, not {SRC}")

    env = environment(workload, seed, seconds, trace)
    walls: dict[bool, list[float]] = {False: [], True: []}
    traced_rounds = []
    spans = []
    deadline = time.perf_counter() + seconds
    last = 0.0  # seconds the previous round took, set-up included
    while runner.rounds < MIN_ROUNDS or time.perf_counter() + last <= deadline:
        began = time.perf_counter()
        if not trace:
            # Set-ups spread over the run, so their median is not one moment's.
            for _ in range(max(1, math.ceil(SETUPS * last / seconds))):
                setups.append(setup_again(workload, seed, runner.gauge))
        traced = bool(trace) and runner.rounds % 2 == 1
        tracer = Tracer() if traced else NullTracer()
        round_no = runner.rounds
        walls[traced].append(runner.round(tracer))
        if traced:
            traced_rounds.append(layer_round(tracer, runner.mismatches))
            spans.append({"round": round_no, "spans": tracer.spans})
        last = time.perf_counter() - began
    env["rounds"] = runner.rounds
    calibrations = runner.gauge.samples
    env["calibration_s"] = {
        "samples": len(calibrations),
        "min": min(calibrations),
        "median": statistics.median(calibrations),
    }
    env["round_walls_s"] = {"untraced": walls[False], "traced": walls[True]}

    if trace:
        metrics = per_layer(runner, traced_rounds, walls)
        metrics.update(difftest_metrics(spans))
        write_spans(env, spans)
    else:
        metrics = end_to_end(runner, setups)
    return {
        "env": env,
        "metrics": metrics,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "examples": runner.examples,
    }


def end_to_end(runner, setups: list[float]) -> dict:
    """What a user of each subcommand sees, from the untraced rounds;
    times are seconds at the nominal CPU speed (see SpeedGauge)."""
    metrics = {"setup_s": (runner.gauge.seconds(setups), "s")}
    for path in PATHS:
        metrics[f"{path}_s"] = (runner.path_seconds(path), "s")
    metrics["code_chars"] = (runner.code_chars(), "chars")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["ok_share"] = (1 - runner.failed / runner.attempted, "share")
    return metrics


def per_layer(runner, traced_rounds: list[dict], walls: dict) -> dict:
    """Per-layer self time, throughput, failures and growth, as medians
    over the traced rounds, and the cost of tracing itself."""
    med = statistics.median
    metrics = {}
    for layer in LAYERS:
        rates = [r["nodes"][layer] / r["seconds"][layer] for r in traced_rounds if r["seconds"][layer]]
        metrics[f"{layer}.s"] = (med(r["seconds"][layer] for r in traced_rounds), "s")
        metrics[f"{layer}.nodes_per_s"] = (med(rates) if rates else 0.0, "nodes/s")
        metrics[f"{layer}.failed"] = (med(r["failed"][layer] for r in traced_rounds), "count")
        points = [
            (size.source, med(r["per_program"][(layer, str(i))] for r in traced_rounds))
            for i, size in enumerate(runner.sizes)
        ]
        metrics[f"{layer}.growth"] = (growth(points), "exponent")
    metrics["unstage.out_nodes"] = (runner.out_nodes(), "count")
    metrics["backends.let_insertions"] = (runner.let_insertions(), "count")
    metrics["trace.overhead_s"] = (med(walls[True]) - med(walls[False]), "s")
    return metrics


def difftest_metrics(spans: list) -> dict:
    """`difftest.run_all` at a fixed seed and count, as its own layer."""
    from polylet import difftest

    tracer = Tracer()
    tracer.program = "difftest"
    took, checks, failed = [], 0, 0
    for _ in range(DIFFTEST_REPS):
        start = time.perf_counter()
        results = tracer.call("difftest", 0, difftest.run_all, DIFFTEST_SEED, DIFFTEST_COUNT)
        took.append(time.perf_counter() - start)
        checks, failed = len(results), difftest.failed_count(results)
    spans.append({"round": "difftest", "spans": tracer.spans})
    seconds = statistics.median(took)
    return {
        "difftest.run_all_s": (seconds, "s"),
        "difftest.checks_per_s": (checks / seconds, "checks/s"),
        "difftest.failed": (failed, "count"),
    }


def write_spans(env: dict, spans: list) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{env['workload']}-{env['seed']}.json"
    doc = {
        "env": env,
        "span_fields": ["id", "program", "name", "start_ns", "end_ns", "parent", "nodes", "raised"],
        "rounds": spans,
    }
    path.write_text(json.dumps(doc))


def report(outcome: dict) -> list[str]:
    lines = ["# env " + json.dumps(outcome["env"], sort_keys=True)]
    workload = outcome["env"]["workload"]
    for name, (value, unit) in outcome["metrics"].items():
        lines.append(f"# {workload:<9} {name:<30} {value:>16.6g} {unit}")
    attempted, failed = outcome["attempted"], outcome["failed"]
    lines.append(f"# {workload:<9} {'failed_share':<30} {failed / attempted:>16.6g} share")
    lines.append(f"# operations {attempted}, failed {failed}")
    for (path, kind), count in sorted(outcome["failures"].items()):
        lines.append(f"#   {path} {kind} x{count}: {outcome['examples'][(path, kind)]}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "polylet" / "__init__.py").is_file():
        print(f"error: polylet sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        outcome = in_worker_thread(measure, args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in report(outcome):
        print(line)
    result = {
        "correct": True,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

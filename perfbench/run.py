#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each is there):
  dataset    all bundled records through the paper-tables path, in-process
  large_det  obstruct --strong --json payloads for prime determinants 151..331
             (runnable, but not listed in BENCHMARK.json; see BASELINE.md)
  plumbing   plumbing-check on star plumbings of dimension 6..8
  cli        cold ``python -m unknotone.cli`` runs of a fixed command mix

A run warms up, then makes as many whole rounds (every input of the seed
once, in a seeded order) as fit in S seconds at the reference speed, checks
every output, and scales every time by the machine speed measured around it
(speed.py; the readable table also gives the raw figures),
and prints, before the result, a ``meta`` line (machine, versions, load),
a ``counts`` line (deterministic work counts and digests of round 0) and a
readable table.  The last line is the JSON result.  With ``--trace 0`` it
holds the end-to-end metrics; with ``--trace 1`` a separate traced run
gives the per-layer metrics and writes its spans to perfbench/out/.
The exit code is 0 when every output check passed, 1 when one failed, and
2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs
import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("dataset", "large_det", "plumbing", "cli")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
WALL_LIMIT = 1.6
# Seconds of one round at the reference speed, as the seed program runs it:
# a run makes seconds // ROUND_S rounds, so 30 s gives 8 rounds of
# ``dataset``, 3 of ``plumbing`` and 1 of ``cli``.
ROUND_S = {"dataset": 3.6, "large_det": 16.0, "plumbing": 8.4, "cli": 26.0}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_per_op_ms": "ms",
    "peak_rss_mb": "MB",
}

CLI_LABELS = tuple(dict.fromkeys(label for label, _, _ in inputs.CLI_COMMANDS))
PER_LAYER = {
    "catalog.parse_ms": "ms",
    "catalog.records": "count",
    "lattice.form_ms": "ms",
    "lattice.cokernel_ms": "ms",
    "lattice.sympy_import_ms": "ms",
    "lattice.box_candidates": "count",
    "corrections.ms": "ms",
    "corrections.cosets": "count",
    "gamma.ms": "ms",
    "matching.enumerate_ms": "ms",
    "matching.obstruct_ms": "ms",
    "matching.pairs": "count",
    "matching.distinct": "count",
    "matching.distinct_ratio": "ratio",
    "matching.even": "count",
    "matching.even_positive": "count",
    "matching.symmetric": "count",
    "matching.staircase": "count",
    "plumbing.class_count_ms": "ms",
    "plumbing.class_count_calls": "count",
    "plumbing.classes": "count",
    "alexander.ms": "ms",
    "alexander.companions": "count",
    "report.analyze_ms": "ms",
    "report.json_ms": "ms",
    "report.json_bytes": "bytes",
    "cli.interpreter_ms": "ms",
    **{f"cli.{label}_ms": "ms" for label in CLI_LABELS},
    "trace.overhead_ms": "ms",
    "trace.spans": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def loadavg_1min():
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return float(handle.read().split()[0])
    except OSError:
        return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def measure_setup(workload: str, seed: int) -> tuple[float, list[float]]:
    """Median of SETUP_REPEATS fresh-interpreter set-ups, after one warm-up.

    The set-ups are cold processes, so the median is scaled by the factor of
    the kernel readings taken between them.  Returns it and the raw times.
    """
    log = speed.SpeedLog()
    log.warm_up()
    log.read()
    raw = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        log.read()
        if i:
            raw.append(float(done.stdout.split()[-1]))
    return statistics.median(raw) * log.whole_run(), raw


def warm_up_items(workload: str, wl, items: list) -> list:
    """Untimed operations before the loop: every distinct command of ``cli``,
    one whole round of ``dataset``, the cheapest input of the others."""
    if workload == "cli":
        return list(dict.fromkeys(items))
    if workload == "dataset":
        return items
    return [min(items, key=lambda item: inputs.box_candidates(wl.entries[item]["goeritz"]))]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  With too few samples the
    maximum is returned, with the number of samples beyond it (zero).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


class Loop:
    """A fixed number of whole rounds, from the seconds and ROUND_S."""

    def __init__(self, workload: str, seed: int, items: list, seconds: float):
        self.workload, self.seed, self.items, self.seconds = workload, seed, items, seconds
        self.planned = max(1, int(seconds / ROUND_S[workload]))
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.round0_counts: dict[str, int] = {}
        self.round0_digests: list[str] = []

    def rounds_of_items(self):
        """Yield the planned rounds (at least one).

        The count depends only on the seconds, so every run of a workload
        takes the same number of samples whatever the machine's speed.  Wall
        time may not pass WALL_LIMIT times the seconds: a very slow machine
        runs fewer rounds instead of running long.
        """
        wall_start = time.perf_counter()
        while True:
            yield inputs.round_order(self.workload, self.seed, self.rounds, self.items)
            self.rounds += 1
            wall = time.perf_counter() - wall_start
            if self.rounds == self.planned or wall * (self.rounds + 1) / self.rounds > WALL_LIMIT * self.seconds:
                return

    def record(self, problems: list[str], counts: dict | None, digest: str | None):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        if self.rounds == 0:
            for name, value in (counts or {}).items():
                self.round0_counts[name] = self.round0_counts.get(name, 0) + value
            self.round0_digests.append(digest or "failed")


def run_untraced(wl, items, args, log) -> dict:
    import workloads

    log.warm_up()
    for item in warm_up_items(args.workload, wl, items):
        wl.op(item)
    loop = Loop(args.workload, args.seed, items, args.seconds)
    raw: list[float] = []
    raw_cpu: list[float] = []
    spans: list[tuple[float, float]] = []
    log.read()
    for order in loop.rounds_of_items():
        for item in order:
            children = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu_start = time.process_time() + children.ru_utime + children.ru_stime
            start = time.perf_counter()
            try:
                output = wl.op(item)
                error = None
            except Exception:  # a failed operation is counted, never fatal
                output, error = None, traceback.format_exc(limit=3)
            end = time.perf_counter()
            raw.append(end - start)
            spans.append((start, end))
            children = resource.getrusage(resource.RUSAGE_CHILDREN)
            raw_cpu.append(time.process_time() + children.ru_utime + children.ru_stime - cpu_start)
            log.read_after(end - start)
            if error is not None:
                loop.record([f"{wl.key(item)}: {error}"], None, None)
                continue
            try:
                problems = wl.check(item, output)
                counts = wl.counts(item, output) if loop.rounds == 0 else None
                digest = workloads.sha256(wl.text(output))
            except Exception:
                problems, counts, digest = [f"{wl.key(item)}: {traceback.format_exc(limit=3)}"], None, None
            loop.record(problems, counts, digest)
            output = None  # free it before the next operation, so peak RSS is one operation's
    factors = [log.around(*span) for span in spans]
    samples = [t * f for t, f in zip(raw, factors)]
    cpu = sum(t * f for t, f in zip(raw_cpu, factors))
    value, pct, beyond = tail(samples)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    n = len(samples)
    return {
        "loop": loop,
        "metrics": {
            "ops_per_s": n / sum(samples),
            "op_p50_ms": statistics.median(samples) * 1000,
            "op_tail_ms": value * 1000,
            "cpu_per_op_ms": cpu / n * 1000,
            "peak_rss_mb": peak_kb / 1024,
        },
        "notes": {
            "op_tail_ms": f"p{pct:.1f} of {n} samples, {beyond} beyond; "
            f"raw {tail(raw)[0] * 1000:.2f}",
            "ops_per_s": f"{n} ops in {loop.rounds} rounds; raw {n / sum(raw):.4f}",
            "op_p50_ms": f"raw {statistics.median(raw) * 1000:.2f}",
            "cpu_per_op_ms": "user+system of this process and its children; "
            f"raw {sum(raw_cpu) / n * 1000:.2f}",
            "peak_rss_mb": "ru_maxrss of this process and of its largest child",
        },
        "speed": log.factors(),
    }


def run_traced(wl, items, args, log) -> dict:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    parse_times = []
    for _ in range(3):
        start = time.perf_counter()
        records = workloads.parse_inputs(wl)
        parse_times.append(time.perf_counter() - start)
    traced_op = tracing.TRACED_OPS[args.workload]
    untraced_round_s = None
    log.warm_up()
    for item in warm_up_items(args.workload, wl, items):  # as in the untraced run
        wl.op(item)
    if args.workload == "cli":
        untraced_round_s = tracing.cli_untraced_round_s(wl, items)
    loop = Loop(args.workload, args.seed, items, args.seconds)
    totals: dict[str, float] = {}
    log.read()

    for order in loop.rounds_of_items():
        for item in order:
            tracer.op_id = loop.attempted
            try:
                problems, counts = traced_op(tracer, wl, item, reference_first=loop.attempted % 2 == 0)
            except Exception:
                problems, counts = [f"{wl.key(item)}: {traceback.format_exc(limit=3)}"], {}
            for name, value in counts.items():
                totals[name] = totals.get(name, 0) + value
            loop.record(problems, counts, None)
            log.read()
    ops = loop.attempted
    self_times = tracer.self_times()

    def per_op_ms(name):
        return self_times.get(name, 0.0) / ops * 1000

    def per_op(name):
        return totals.get(name, 0) / ops

    if args.workload == "cli":
        untraced_ms = untraced_round_s / len(items) * 1000
        traced_ms = sum(tracer.durations("op")) / ops * 1000
    else:
        reference = sum(tracer.durations("report.analyze")) + sum(tracer.durations("reference"))
        untraced_ms = reference / ops * 1000
        traced_ms = sum(tracer.durations("composed")) / ops * 1000
    overhead_ms = traced_ms - untraced_ms
    metrics = {
        "catalog.parse_ms": statistics.median(parse_times) * 1000,
        "catalog.records": records,
        "lattice.form_ms": per_op_ms("lattice.form"),
        "lattice.cokernel_ms": per_op_ms("lattice.cokernel"),
        "lattice.sympy_import_ms": tracing.sympy_import_ms(),
        "lattice.box_candidates": per_op("box_candidates"),
        "corrections.ms": per_op_ms("corrections"),
        "corrections.cosets": per_op("cosets"),
        "gamma.ms": per_op_ms("gamma"),
        "matching.enumerate_ms": per_op_ms("matching.enumerate"),
        "matching.obstruct_ms": per_op_ms("matching.obstruct"),
        "matching.pairs": per_op("pairs"),
        "matching.distinct": per_op("distinct"),
        "matching.distinct_ratio": totals.get("distinct", 0) / totals["pairs"]
        if totals.get("pairs") else 0.0,
        "matching.even": per_op("even"),
        "matching.even_positive": per_op("even_positive"),
        "matching.symmetric": per_op("symmetric"),
        "matching.staircase": per_op("staircase"),
        "plumbing.class_count_ms": per_op_ms("plumbing.class_count"),
        "plumbing.class_count_calls": len(tracer.durations("plumbing.class_count")) / ops,
        "plumbing.classes": per_op("classes"),
        "alexander.ms": per_op_ms("alexander"),
        "alexander.companions": per_op("companions"),
        "report.analyze_ms": sum(tracer.durations("report.analyze")) / ops * 1000,
        "report.json_ms": per_op_ms("report.json"),
        "report.json_bytes": per_op("json_bytes"),
        "cli.interpreter_ms": tracing.interpreter_ms() if args.workload == "cli" else 0.0,
        "trace.overhead_ms": overhead_ms,
        "trace.spans": len(tracer.spans) / ops,
    }
    for label in CLI_LABELS:
        spans = tracer.durations(f"cli.{label}")
        metrics[f"cli.{label}_ms"] = sum(spans) / len(spans) * 1000 if spans else 0.0
    # One scale for the whole traced run: the median of its kernel readings.
    scale = log.whole_run()
    metrics = {
        name: metrics[name] * scale if unit == "ms" else metrics[name]
        for name, unit in PER_LAYER.items()
    }
    overhead_ms *= scale
    untraced_ms *= scale
    modules = {m: s / ops * 1000 * scale for m, s in tracer.module_self_times().items()}
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "module_self_ms_per_op": modules,
                "overhead_ms_per_op": overhead_ms,
                "spans": tracer.records(),
            },
            handle,
        )
    return {
        "loop": loop,
        "metrics": metrics,
        "modules": modules,
        "overhead": (overhead_ms, untraced_ms),
        "speed": log.factors(),
        "out_path": out_path,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "unknotone" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'unknotone'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    load_start = loadavg_1min()
    cpus = speed.pin()
    setup_s = None
    if not args.trace:
        setup_s, setup_samples = measure_setup(args.workload, args.seed)

    import sympy
    import workloads

    wl, items = workloads.make(args.workload, args.seed, workloads.load_expected(), cpus)
    log = speed.SpeedLog()
    result = (run_traced if args.trace else run_untraced)(wl, items, args, log)
    loop = result["loop"]
    metrics = result["metrics"]
    if setup_s is not None:
        metrics = {"setup_s": setup_s, **metrics}
        result["notes"]["setup_s"] = f"median of {SETUP_REPEATS}; raw " + ", ".join(
            f"{t:.3f}" for t in setup_samples
        )
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "git_commit": git_commit(),
        "loadavg_1min_start": load_start,
        "loadavg_1min_end": loadavg_1min(),
        "cpu": cpus[-1],
        "cpus": cpus,
        "times": "scaled to the reference speed, see perfbench/speed.py",
        "speed_factor": {
            "median": statistics.median(result["speed"]),
            "min": min(result["speed"]),
            "max": max(result["speed"]),
        },
        "clients": "1, closed loop",
        "affinity": "client and children on one CPU; the CLI worker pool on every CPU",
        "max_processes": "4 (client, CLI child, 2 pool workers)"
        if args.workload == "cli" else "2 (client, one set-up probe)",
    }
    counts = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": [wl.key(item) for item in items],
        "inputs_digest": workloads.sha256(json.dumps([wl.key(item) for item in items])),
        "round0_counts": dict(sorted(loop.round0_counts.items())),
        "round0_outputs_digest": workloads.sha256("".join(loop.round0_digests))
        if loop.round0_digests and "failed" not in loop.round0_digests else None,
    }
    print("meta " + json.dumps(meta))
    print("counts " + json.dumps(counts))
    for problem in loop.problems[:10]:
        print("CHECK FAILED: " + problem, file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(
        f"{args.workload} seed {args.seed}: {loop.attempted} operations in "
        f"{loop.rounds} rounds, {loop.failed} failed"
    )
    if args.trace:
        print("spans written to " + str(result["out_path"].relative_to(ROOT)))
        print("self time per operation by module (ms): " + ", ".join(
            f"{m} {v:.2f}" for m, v in result["modules"].items()
        ))
        overhead_ms, untraced_ms = result["overhead"]
        print(
            f"tracing overhead: {overhead_ms:.3f} ms per operation "
            f"({overhead_ms / untraced_ms * 100 if untraced_ms else 0.0:.2f}% of the "
            f"untraced {untraced_ms:.2f} ms)"
        )
    notes = result.get("notes", {})
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<28} {value:>14.4f} {units[name]}{note}")
    failed_ratio = loop.failed / loop.attempted if loop.attempted else 1.0
    print(f"  {'failed_ratio':<28} {failed_ratio:>14.4f} ratio  ({loop.failed}/{loop.attempted})")
    print(
        json.dumps(
            {
                "correct": loop.failed == 0 and loop.attempted > 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if loop.failed == 0 and loop.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())

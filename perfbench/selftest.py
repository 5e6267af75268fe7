#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in order:
  1. the generators stay in their bounds: large_det forms have odd prime
     D in 151..351; plumbings are negative-definite stars of dimension <= 8
     with odd |det|, cyclic cokernel and no bad vertex;
  2. every input a workload can draw has a stored output digest;
  3. one seed always gives the same inputs, and another seed different ones;
     the speed kernel repeats its work and an operation's speed factor comes
     from the right readings;
  4. two one-round runs with one seed print identical deterministic counts
     and output digests, and pass every check; BENCHMARK.json names the
     metrics run.py prints.
Exits 1 on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402


def fail(message: str) -> None:
    sys.exit(f"selftest FAILED: {message}")


def check_large_det_bounds() -> None:
    lo, hi = inputs.LARGE_DET_RANGE
    for stratum, (D, count) in zip(inputs.catalogue("large_det"), inputs.LARGE_DET_STRATA):
        if len(stratum) < count:
            fail(f"large_det stratum D={D} has fewer than {count} shapes")
        for entry in stratum:
            rows = entry["goeritz"]
            d = abs(inputs.det(rows))
            if d != D or d % 2 == 0 or not lo <= d <= hi or not inputs.is_prime(d):
                fail(f"{entry['name']}: |det| = {d}, wanted the odd prime {D} in {lo}..{hi}")
            if not inputs.is_negative_definite(rows):
                fail(f"{entry['name']}: not negative definite")


def check_plumbing_bounds() -> None:
    for stratum, ((dim, centre, threes), count) in zip(
        inputs.catalogue("plumbing"), inputs.PLUMBING_STRATA
    ):
        if len(stratum) < count:
            fail(f"plumbing stratum {(dim, centre, threes)} has fewer than {count} shapes")
        for entry in stratum:
            rows = entry["goeritz"]
            n = len(rows)
            degrees = [sum(1 for j in range(n) if j != i and rows[i][j]) for i in range(n)]
            edges = sum(degrees) // 2
            if not 6 <= n <= inputs.PLUMBING_MAX_DIM or n != dim:
                fail(f"{entry['name']}: dimension {n}")
            if edges != n - 1 or sorted(degrees)[-1] != 3 or degrees.count(3) != 1:
                fail(f"{entry['name']}: not a star with three legs")
            if rows[0][0] != centre or centre > -3:
                fail(f"{entry['name']}: centre weight {rows[0][0]}")
            if any(rows[i][i] not in (-2, -3) for i in range(1, n)):
                fail(f"{entry['name']}: a leg weight is not -2 or -3")
            if any(-rows[i][i] < degrees[i] for i in range(n)):
                fail(f"{entry['name']}: has a bad vertex")
            if inputs.det(rows) % 2 == 0 or not inputs.has_cyclic_cokernel(rows):
                fail(f"{entry['name']}: even |det| or non-cyclic cokernel")
            if not inputs.is_negative_definite(rows):
                fail(f"{entry['name']}: not negative definite")


def check_digests_stored() -> None:
    expected = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))
    for workload in ("large_det", "plumbing"):
        for stratum in inputs.catalogue(workload):
            for entry in stratum:
                if entry["name"] not in expected[workload]:
                    fail(f"no stored digest for {workload} {entry['name']}")
    if len(expected["dataset"]) != 54:
        fail(f"{len(expected['dataset'])} dataset digests, expected all 54 records")
    for _, argv, _ in inputs.CLI_COMMANDS:
        if " ".join(argv) not in expected["cli"]:
            fail(f"no stored digest for cli {' '.join(argv)}")


def check_seeds() -> None:
    names = [f"r{i}" for i in range(54)]
    for workload in run.WORKLOADS:
        def draw(seed):
            return json.dumps(inputs.round_inputs(workload, seed, names))

        if draw(1) != draw(1):
            fail(f"{workload}: seed 1 gave two different input sets")
        if draw(1) == draw(2):
            fail(f"{workload}: seeds 1 and 2 gave the same inputs")


def one_round(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.001", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        fail(f"{workload} seed {seed}: output checks failed\n{done.stderr}")
    if set(result["metrics"]) != set(run.END_TO_END):
        fail(f"{workload}: metrics {sorted(result['metrics'])}")
    counts = next(line for line in lines if line.startswith("counts "))
    return json.loads(counts[len("counts "):])


def check_repeatable_runs() -> None:
    for workload in run.WORKLOADS:
        first, second = one_round(workload, 1), one_round(workload, 1)
        if first != second:
            fail(f"{workload}: two runs with seed 1 differ:\n{first}\n{second}")
        if first["round0_outputs_digest"] is None:
            fail(f"{workload}: no output digest")
        print(f"{workload}: seed 1 repeats: {first['round0_counts']}", flush=True)


def check_speed() -> None:
    if speed.kernel() != speed.kernel():
        fail("the speed kernel does not repeat its work")
    log = speed.SpeedLog()
    log.times, log.seconds = [0.0, 1.0, 2.0, 9.0], [0.004, 0.002, 0.008, 0.001]
    # Within 1 s of 1.5..1.6 s are the readings at 1 s and 2 s.
    if abs(log.around(1.5, 1.6) - 0.8) > 1e-9 or abs(log.whole_run() - 4 / 3) > 1e-9:
        fail("SpeedLog picks the wrong readings")


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS):
        fail("BENCHMARK.json names a workload run.py does not have")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        named = {m["name"]: m["unit"] for m in spec[key]}
        if named != table:
            fail(f"BENCHMARK.json {key} differs from run.py")


def main() -> None:
    check_large_det_bounds()
    check_plumbing_bounds()
    check_digests_stored()
    check_seeds()
    check_speed()
    check_benchmark_json()
    print("generators, digests, seeds, speed scaling and BENCHMARK.json: ok", flush=True)
    check_repeatable_runs()
    print("selftest passed")


if __name__ == "__main__":
    main()

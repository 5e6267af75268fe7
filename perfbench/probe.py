"""One set-up in a fresh interpreter, timed; prints the seconds.

Set-up is importing ``unknotone`` and parsing the workload's inputs through
the program, up to the first timed operation.  Run as
``python3 perfbench/probe.py WORKLOAD SEED``; ``run.py`` starts several,
scales each to the reference speed (see speed.py) and reports the median as
``setup_s``.
"""

import hashlib  # noqa: F401  (stdlib used by workloads; loaded before the clock starts)
import json
import os  # noqa: F401
import subprocess  # noqa: F401
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import inputs  # noqa: E402  (benchmark code only; imports nothing of the program)


def main(workload: str, seed: int) -> None:
    with open(BENCH_DIR / "expected.json", encoding="utf-8") as handle:
        expected = json.load(handle)
    if workload in ("large_det", "plumbing"):
        inputs.catalogue(workload)  # the generator is benchmark work, not set-up
    start = time.perf_counter()
    import workloads

    workloads.make(workload, seed, expected)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))

#!/usr/bin/env python3
"""Write expected.json: the output digest of every input a workload can draw.

    python3 perfbench/make_expected.py

Run it only on a commit whose outputs are the reference (the outputs are
meant to stay byte-identical).  Every output must first pass the
workload's oracle checks; the digests are written only if all of them do.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import inputs  # noqa: E402
import workloads  # noqa: E402
from unknotone import catalog  # noqa: E402


def digests(wl, items) -> dict:
    out = {}
    for item in items:
        output = wl.op(item)
        problems = [p for p in wl.check(item, output) if "digest" not in p]
        if problems:
            sys.exit("oracle check failed: " + "; ".join(problems))
        out[wl.key(item)] = workloads.sha256(wl.text(output))
        print(f"{wl.name} {wl.key(item)}", flush=True)
    return out


def main() -> None:
    table = {}
    entries = [catalog.record_to_dict(r) for r in catalog.builtin_dataset()]
    table["dataset"] = digests(
        workloads.AnalysisWorkload("dataset", entries, {}), [e["name"] for e in entries]
    )
    for name, cls in (("large_det", workloads.AnalysisWorkload), ("plumbing", workloads.PlumbingWorkload)):
        entries = [entry for stratum in inputs.catalogue(name) for entry in stratum]
        table[name] = digests(cls(name, entries, {}), [e["name"] for e in entries])
    table["cli"] = digests(workloads.CliWorkload({}), range(len(inputs.CLI_COMMANDS)))
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()

"""Operations, output checks and work counts of the four workloads.

Import this only after the repository's ``src`` directory is on sys.path.
Each workload turns one input item into one operation's output (``op``),
checks that output against stored digests and independent oracles
(``check``, which returns a list of problems), and reports the output's
deterministic work counts (``counts``).  Checks and counts run outside the
timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from unknotone import catalog, report
from unknotone import plumbing as plumbing_mod

import inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_PATH = BENCH_DIR / "expected.json"
CLI_TIMEOUT_S = 150


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def symmetric_of_length(values, D: int) -> bool:
    return len(values) == D and all(values[i] == values[(D - i) % D] for i in range(D))


class AnalysisWorkload:
    """``dataset`` and ``large_det``: a record through ``analyze_record``.

    ``dataset`` mirrors one record of ``report --paper-tables`` run
    in-process with one worker: parse the record dict, analyse it, and
    render the summary without the matching listing.  ``large_det`` mirrors
    ``obstruct --strong --json``: the strong verdict and the full listing,
    serialised the way the CLI prints it.
    """

    def __init__(self, name: str, entries: list[dict], expected: dict):
        self.name = name
        self.entries = {entry["name"]: entry for entry in entries}
        self.expected = expected
        self.strong = name == "large_det"
        self.listing = name == "large_det"

    def key(self, item: str) -> str:
        return item

    def op(self, item: str):
        record = catalog.record_from_dict(self.entries[item])
        rep = report.analyze_record(record, strong=self.strong)
        payload = report.report_to_json(rep, include_matchings=self.listing)
        if self.listing:
            return rep, json.dumps(payload, indent=2, sort_keys=True)
        return rep, payload

    def text(self, output) -> str:
        _, payload = output
        return payload if self.listing else json.dumps(payload, sort_keys=True)

    def check(self, item: str, output) -> list[str]:
        rep, _ = output
        problems = []
        if sha256(self.text(output)) != self.expected.get(item):
            problems.append(f"{item}: output digest differs from the stored one")
        gram = catalog.record_from_dict(self.entries[item]).form.gram
        D = abs(inputs.det(gram))
        if rep.D != D:
            problems.append(f"{item}: D = {rep.D}, integer determinant gives {D}")
        if rep.A is not None and not symmetric_of_length(rep.A.values, D):
            problems.append(f"{item}: A is not a symmetric vector of length {D}")
        if rep.B is not None:
            if rep.B.values[0] != inputs.spin_reference(D):
                problems.append(f"{item}: B_0 = {rep.B.values[0]} disagrees with the closed form")
            pairs = sum(len(m.provenance) for m in rep.matchings)
            if pairs != 2 * inputs.units_count(D):
                problems.append(f"{item}: {pairs} (unit, sign) pairs, expected 2*phi({D})")
        return problems

    def counts(self, item: str, output) -> dict:
        rep, _ = output
        gram = catalog.record_from_dict(self.entries[item]).form.gram
        ms = rep.matchings
        even = [m for m in ms if m.even]
        even_positive = [m for m in even if m.positive]
        symmetric = [m for m in even_positive if m.symmetric]
        return {
            "box_candidates": inputs.box_candidates(gram),
            "cosets": rep.A.D if rep.A is not None else 0,
            "pairs": sum(len(m.provenance) for m in ms),
            "distinct": len(ms),
            "even": len(even),
            "even_positive": len(even_positive),
            "symmetric": len(symmetric),
            "staircase": sum(1 for m in symmetric if m.staircase),
            "json_bytes": len(self.text(output).encode("utf-8")),
        }


class PlumbingWorkload:
    """The ``plumbing-check --json`` path: class count, then corrections."""

    def __init__(self, name: str, entries: list[dict], expected: dict):
        self.name = name
        self.entries = {entry["name"]: entry for entry in entries}
        self.expected = expected

    def key(self, item: str) -> str:
        return item

    def op(self, item: str):
        record = catalog.record_from_dict(self.entries[item])
        plumbing = plumbing_mod.PlumbingForm(record.form)
        counted = plumbing_mod.class_count(plumbing)
        payload: dict = {
            "knot": record.name,
            "classes": counted.count,
            "determinant": counted.determinant,
            "is_lspace": counted.is_lspace,
        }
        A = None
        if counted.is_lspace:
            A = plumbing_mod.plumbing_corrections(plumbing)
            payload["A"] = [str(a) for a in A.values]
        return counted, A, json.dumps(payload, indent=2, sort_keys=True)

    def text(self, output) -> str:
        return output[2]

    def check(self, item: str, output) -> list[str]:
        counted, A, text = output
        problems = []
        if sha256(text) != self.expected.get(item):
            problems.append(f"{item}: output digest differs from the stored one")
        D = abs(inputs.det(self.entries[item]["goeritz"]))
        # No bad vertex makes the boundary an L-space: the count is |det|.
        if counted.count != D or counted.determinant != D:
            problems.append(f"{item}: {counted.count} classes, integer |det| = {D}")
        if A is None or not symmetric_of_length(A.values, D):
            problems.append(f"{item}: A is not a symmetric vector of length {D}")
        return problems

    def counts(self, item: str, output) -> dict:
        counted, A, text = output
        return {
            "box_candidates": inputs.box_candidates(self.entries[item]["goeritz"]),
            "classes": counted.count,
            "cosets": A.D if A is not None else 0,
            "json_bytes": len(text.encode("utf-8")),
        }


def cli_environment(extra: dict) -> dict:
    env = dict(os.environ)
    env.pop("UNKNOT_THREADS", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


class CliWorkload:
    """Cold ``python -m unknotone.cli`` runs of a fixed command mix."""

    name = "cli"

    def __init__(self, expected: dict, cpus: list[int]):
        self.expected = expected
        self.cpus = cpus

    def key(self, item: int) -> str:
        return " ".join(inputs.CLI_COMMANDS[item][1])

    def label(self, item: int) -> str:
        return inputs.CLI_COMMANDS[item][0]

    def op(self, item: int):
        _, argv, extra = inputs.CLI_COMMANDS[item]
        done = subprocess.run(
            [sys.executable, "-m", "unknotone.cli", *argv],
            cwd=ROOT,
            env=cli_environment(extra),
            stdin=subprocess.DEVNULL,
            capture_output=True,
            timeout=CLI_TIMEOUT_S,
            # The benchmark runs on one CPU and its children inherit that;
            # a pool gets every CPU the benchmark was given.
            preexec_fn=self._widen if "UNKNOT_THREADS" in extra else None,
        )
        return done.returncode, done.stdout

    def _widen(self) -> None:
        os.sched_setaffinity(0, self.cpus)

    def text(self, output) -> bytes:
        return output[1]

    def check(self, item: int, output) -> list[str]:
        code, stdout = output
        problems = []
        if code != 0:
            problems.append(f"{self.key(item)}: exit code {code}")
        if sha256(stdout) != self.expected.get(self.key(item)):
            problems.append(f"{self.key(item)}: output digest differs from the stored one")
        return problems

    def counts(self, item: int, output) -> dict:
        return {"json_bytes": len(output[1])}


def make(workload: str, seed: int, expected: dict, cpus=None):
    """The workload object and its round-0 items for one seed.

    This is the set-up that ``setup_s`` times: it parses every input through
    the program's record reader once.  ``cpus`` are the CPUs a ``cli``
    worker pool may use (default: those of this process).
    """
    table = expected[workload]
    if workload == "cli":
        catalog.builtin_dataset()
        cpus = cpus or sorted(os.sched_getaffinity(0))
        return CliWorkload(table, cpus), inputs.round_inputs("cli", seed)
    if workload == "dataset":
        entries = [catalog.record_to_dict(r) for r in catalog.builtin_dataset()]
        return AnalysisWorkload("dataset", entries, table), inputs.round_inputs(
            "dataset", seed, [entry["name"] for entry in entries]
        )
    entries = inputs.round_inputs(workload, seed)
    catalog.parse_knot_records(json.dumps(entries))
    cls = AnalysisWorkload if workload == "large_det" else PlumbingWorkload
    return cls(workload, entries, table), [entry["name"] for entry in entries]


def parse_inputs(wl) -> int:
    """Parse the workload's inputs again; returns the number of records."""
    if wl.name in ("dataset", "cli"):
        return len(catalog.builtin_dataset())
    return len(catalog.parse_knot_records(json.dumps(list(wl.entries.values()))))

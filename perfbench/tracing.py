"""The traced run: spans around calls into each module of ``unknotone``.

Spans are recorded from the benchmark's side only.  The in-process
workloads drive ``analyze_record``'s stages (or the plumbing check) through
their public functions, with a span per call; calls the program makes
internally (``cokernel`` inside ``correction_vector``, ``class_count``
inside ``plumbing_corrections``) are seen by swapping the module attribute
the caller looks up for a spanned wrapper while the composed pipeline runs.
Each operation also runs the untraced program call; the two results must be
equal, and their wall-time difference is the tracing overhead.
"""

from __future__ import annotations

import functools
import json
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

from unknotone import alexander, catalog, corrections, gamma, matching, report
from unknotone import plumbing as plumbing_mod
from unknotone.errors import NonCyclicCokernelError

import workloads

# Spans that stand for a module's own work; "op", "composed" and the
# untraced reference calls are bookkeeping and belong to no module.
MODULES = (
    "catalog", "lattice", "corrections", "gamma", "matching",
    "alexander", "plumbing", "report", "cli",
)
REFERENCE_SPANS = ("report.analyze", "reference")


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, operation id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    @contextmanager
    def patched(self, targets):
        """Swap (module, attribute, span name) functions for spanned wrappers."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        for module, attr, name in targets:
            setattr(module, attr, self._wrap(getattr(module, attr), name))
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return spanned

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def module_self_times(self) -> dict[str, float]:
        out = {module: 0.0 for module in MODULES}
        for name, seconds in self.self_times().items():
            module = name.split(".")[0]
            if module in out and name not in REFERENCE_SPANS:
                out[module] += seconds
        return out

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]


def _force_form(form) -> None:
    """Det, adjugate and definiteness: the cached linear algebra of a form."""
    form.det
    form.adjugate
    form.is_negative_definite


def composed_analysis(tr: Tracer, record, strong: bool):
    """``analyze_record`` rebuilt from its stages, one span per stage."""
    with tr.span("composed"), tr.patched([(corrections, "cokernel", "lattice.cokernel")]):
        form = record.form
        with tr.span("lattice.form"):
            _force_form(form)
        try:
            with tr.span("corrections"):
                A = corrections.correction_vector(form)
        except NonCyclicCokernelError as exc:
            return report.RecordReport(
                name=record.name,
                D=abs(form.det),
                verdict=matching.Verdict(matching.Outcome.NON_CYCLIC_H1, (), gate_applied=False),
                invariant_factors=exc.invariant_factors,
            )
        if A.D == 1:
            return report.RecordReport(
                name=record.name,
                D=1,
                verdict=matching.Verdict(
                    matching.Outcome.UNKNOT_DETERMINANT, (), gate_applied=False
                ),
                A=A,
            )
        with tr.span("gamma"):
            B = gamma.gamma_vector(A.D)
        with tr.span("matching.enumerate"):
            found = matching.enumerate_matchings(A, B)
        with tr.span("matching.obstruct"):
            verdict = matching.obstruct(A, B, strong=strong, matchings=found)
        return report.RecordReport(
            name=record.name, D=A.D, verdict=verdict, A=A, B=B, matchings=found
        )


def companions(tr: Tracer, rep) -> int:
    """Torsion and polynomial of every even positive symmetric C_0 = 0 matching."""
    if rep.B is None:
        return 0
    count = 0
    with tr.span("alexander"):
        for m in rep.matchings:
            if m.even and m.positive and m.symmetric and m.C[0] == 0:
                poly = alexander.polynomial_from_torsion(alexander.torsion_from_matching(m, rep.B))
                alexander.lspace_coefficient_check(poly)
                count += 1
    return count


def traced_analysis_op(tr: Tracer, wl, item: str, reference_first: bool) -> tuple:
    """One traced ``dataset`` / ``large_det`` operation; returns (problems, counts)."""
    entry = wl.entries[item]
    with tr.span("op"):
        with tr.span("catalog.record"):
            ref_record = catalog.record_from_dict(entry)
            record = catalog.record_from_dict(entry)

        def reference():
            with tr.span("report.analyze"):
                return report.analyze_record(ref_record, strong=wl.strong)

        if reference_first:
            expected = reference()
            rep = composed_analysis(tr, record, wl.strong)
        else:
            rep = composed_analysis(tr, record, wl.strong)
            expected = reference()
        with tr.span("report.json"):
            payload = report.report_to_json(rep, include_matchings=wl.listing)
            if wl.listing:
                payload = json.dumps(payload, indent=2, sort_keys=True)
    extra = {"companions": companions(tr, rep)} if wl.name == "dataset" else {}
    output = (rep, payload)
    problems = wl.check(item, output)
    if rep != expected:
        problems.append(f"{item}: composed stages disagree with analyze_record")
    return problems, {**wl.counts(item, output), **extra}


def traced_plumbing_op(tr: Tracer, wl, item: str, reference_first: bool) -> tuple:
    entry = wl.entries[item]
    with tr.span("op"):
        with tr.span("catalog.record"):
            ref_record = catalog.record_from_dict(entry)
            record = catalog.record_from_dict(entry)

        def reference():
            with tr.span("reference"):
                plumbing = plumbing_mod.PlumbingForm(ref_record.form)
                return plumbing_mod.class_count(plumbing), plumbing_mod.plumbing_corrections(plumbing)

        def composed():
            targets = [
                (plumbing_mod, "class_count", "plumbing.class_count"),
                (plumbing_mod, "correction_vector", "corrections"),
                (corrections, "cokernel", "lattice.cokernel"),
            ]
            with tr.span("composed"), tr.patched(targets):
                with tr.span("lattice.form"):
                    _force_form(record.form)
                    plumbing = plumbing_mod.PlumbingForm(record.form)
                counted = plumbing_mod.class_count(plumbing)
                with tr.span("plumbing.corrections"):
                    A = plumbing_mod.plumbing_corrections(plumbing)
                return counted, A

        if reference_first:
            expected = reference()
            counted, A = composed()
        else:
            counted, A = composed()
            expected = reference()
        with tr.span("report.json"):
            payload = {
                "knot": record.name,
                "classes": counted.count,
                "determinant": counted.determinant,
                "is_lspace": counted.is_lspace,
                "A": [str(a) for a in A.values],
            }
            text = json.dumps(payload, indent=2, sort_keys=True)
    output = (counted, A, text)
    problems = wl.check(item, output)
    if (counted, A) != expected:
        problems.append(f"{item}: traced plumbing check disagrees with the untraced one")
    return problems, wl.counts(item, output)


def traced_cli_op(tr: Tracer, wl, item: int, reference_first: bool) -> tuple:
    with tr.span("op"), tr.span("cli." + wl.label(item)):
        output = wl.op(item)
    return wl.check(item, output), wl.counts(item, output)


TRACED_OPS = {
    "dataset": traced_analysis_op,
    "large_det": traced_analysis_op,
    "plumbing": traced_plumbing_op,
    "cli": traced_cli_op,
}


def interpreter_ms(repeats: int = 5) -> float:
    """Median wall time of a bare ``python -c pass``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


def sympy_import_ms(repeats: int = 3) -> float:
    """sympy's cumulative import time under ``-X importtime``, median of runs."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import unknotone"],
            env=workloads.cli_environment({}),
            capture_output=True,
            text=True,
            check=True,
        )
        for line in done.stderr.splitlines():
            fields = [field.strip() for field in line.split("|")]
            if len(fields) == 3 and fields[2] == "sympy":
                times.append(int(fields[1]) / 1000)
    return statistics.median(times) if times else 0.0


def cli_untraced_round_s(wl, items) -> float:
    start = time.perf_counter()
    for item in items:
        wl.op(item)
    return time.perf_counter() - start

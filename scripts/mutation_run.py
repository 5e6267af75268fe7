#!/usr/bin/env python3
"""Score the oracle and engine tests against named source mutations.

    python scripts/mutation_run.py [TIMEOUT_S] [NAME ...]

Each mutant in ``MUTANTS`` is one text substitution in one module of
``src/unknotone``; its text must occur exactly once in ``src/``.  For each
mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml`` of
this checkout to a temporary directory, applies the substitution there
and runs the plumbing, gamma, alexander, verdict-scan, oracle,
matching-engine and box-scan tests, cheapest first, with ``pytest -x``,
stopping at the first failure, under a per-mutant timeout (default
120 s).  It prints one line per mutant: killed (with the first failing
test and the seconds it took), survived or timed out.  An
unmutated run goes first and must pass, or the script exits 2.  Naming
mutants runs only those.  The checkout itself is never written.

The tests run one mutant at a time in one child interpreter, limited to
2 GiB of address space, so a mutant that loops or grows stops there.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "unknotone"

# cheapest first, so a mutant that only a quick file kills does not wait for the slow ones
TESTS = [
    "tests/test_plumbing.py",
    "tests/test_gamma.py",
    "tests/test_alexander.py",
    "tests/test_verdict_scan.py",
    "tests/test_oracles.py",
    "tests/test_matching_engine.py",
    "tests/test_box_scan.py",
]

# name: (module, text, replacement)
MUTANTS = {
    # 4 as a numerator over 4D: the verdict scan's test for an even entry
    "evenness-modulus": (
        "matching.py",
        "two = 8 * D  # 2 as a numerator over 4D\n    a_mod",
        "two = 4 * D  # 2 as a numerator over 4D\n    a_mod",
    ),
    # |A_0| < 1/2 instead of |A_0| <= 1/2
    "gate": (
        "corrections.py",
        "return abs(self.numerators[0]) <= 2 * self.D",
        "return abs(self.numerators[0]) < 2 * self.D",
    ),
    # staircase steps of at most four
    "staircase-step": (
        "matching.py",
        "C[i] <= C[i + 1] <= C[i] + two",
        "C[i] <= C[i + 1] <= C[i] + 2 * two",
    ),
    # the evenness target of the opposite sign
    "sign-epsilon": (
        "matching.py",
        "target = [epsilon * neg_b[i] % two for i in half]",
        "target = [-epsilon * neg_b[i] % two for i in half]",
    ),
    # the symmetric filter's start index swapped between D = 4k - 1 and 4k + 1
    "symmetric-start": (
        "matching.py",
        "sym_start = 1 if D % 4 == 3 else 0",
        "sym_start = 0 if D % 4 == 3 else 1",
    ),
    # N_aa x instead of N_aa x^2 for a head coordinate
    "head-square": (
        "corrections.py",
        "(2 * x, num[a][a] * x * x, [c * x",
        "(2 * x, num[a][a] * x, [c * x",
    ),
    # the cross term N_kl y of the two inner axes with the wrong sign
    "middle-cross": (
        "corrections.py",
        "num[k][l] * y, weights[l] * y",
        "-num[k][l] * y, weights[l] * y",
    ),
    # the top of each pushed slab left out of the closure's moves
    "closure-bound": (
        "plumbing.py",
        "_slab(0, b - 1, step,",
        "_slab(0, b - 2, step,",
    ),
    # a failing filter reports the whole pool instead of what passed before it
    "witnesses-rule": (
        "matching.py",
        "return Verdict(outcome, witnesses,",
        "return Verdict(outcome, pool,",
    ),
    # the generator pick's fallback returns a coset label, not a covector in the coset
    "generator-fallback": (
        "lattice.py",
        "    return reps[label]\n",
        "    return label\n",
    ),
    # the model form accepts D = 2 (mod 4)
    "gamma-even-determinant": (
        "gamma.py",
        "D < 3 or D % 2 == 0",
        "D < 3 or D % 4 == 0",
    ),
    # the class count's moves built from G itself, not from S G S: no sign flip
    "class-count-flip": (
        "plumbing.py",
        "[[s * t * g for t, g in zip(signs, row)]",
        "[[g for t, g in zip(signs, row)]",
    ),
    # the scan's reduced ranges start at G_ii + 4, so they miss x_i = G_ii + 2
    # (G_ii + 0 would be equivalent: the full box has the same maxima)
    "reduced-range-start": (
        "corrections.py",
        "range(form.gram[i][i] + 2, 1 - form.gram[i][i], 2)",
        "range(form.gram[i][i] + 4, 1 - form.gram[i][i], 2)",
    ),
    # each place stride of the class count includes its own axis
    "class-count-strides": (
        "plumbing.py",
        "prod(sizes[j + 1 :])",
        "prod(sizes[j:])",
    ),
    # the plumbing-forest check skips every vertex already reached, so a
    # cycle goes through
    "forest-cycle": (
        "plumbing.py",
        "if j == parent:",
        "if signs[j]:",
    ),
    # a matching's representative unit read from its last provenance pair
    "unit-last-pair": (
        "matching.py",
        "return self.provenance[0][0]",
        "return self.provenance[-1][0]",
    ),
    # a zero entry fails the positive filter
    "positive-strict": (
        "matching.py",
        "min(self.numerators[: self.D // 2 + 1]) >= 0",
        "min(self.numerators[: self.D // 2 + 1]) > 0",
    ),
    # more classes than |det| also certify an L-space
    "lspace-at-least": (
        "plumbing.py",
        "return self.count == self.determinant",
        "return self.count >= self.determinant",
    ),
    # the vector symmetry compares entry i + 1 with entry D - i, so every
    # vector of D >= 2 is refused
    "symmetry-offset": (
        "lattice.py",
        "if self.numerators[1:] != self.numerators[:0:-1]:",
        "if self.numerators[2:] != self.numerators[:0:-1]:",
    ),
    # torsion index j read one position too low, at k - j - 1
    "torsion-read-shift": (
        "alexander.py",
        "matching.numerators[k - j] // two",
        "matching.numerators[k - j - 1] // two",
    ),
}


def limit_memory() -> None:
    size = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (size, size))


def run_tests(mutant: tuple[str, str, str] | None, timeout: float) -> tuple[str, str, float]:
    """Run the tests on a copy of the checkout, mutated by ``mutant``: (status, detail, seconds)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", work / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work)
        if mutant is not None:
            module, text, replacement = mutant
            path = work / "src" / "unknotone" / module
            source = path.read_text()
            if source.count(text) != 1:
                raise SystemExit(f"{module}: the mutant's text occurs {source.count(text)} times")
            path.write_text(source.replace(text, replacement))
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
        start = time.monotonic()
        try:
            proc = subprocess.run(
                command, cwd=work, env=env, capture_output=True, text=True,
                timeout=timeout, preexec_fn=limit_memory,
            )
        except subprocess.TimeoutExpired:
            return "timed out", "", time.monotonic() - start
        seconds = time.monotonic() - start
    if proc.returncode == 0:
        return "survived", "", seconds
    failed = re.search(r"^FAILED (\S+)", proc.stdout, re.MULTILINE)
    return "killed", failed.group(1) if failed else f"exit {proc.returncode}", seconds


def main() -> int:
    args = sys.argv[1:]
    timeout = float(args.pop(0)) if args and args[0] not in MUTANTS else 120.0
    unknown = [name for name in args if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    status, detail, seconds = run_tests(None, timeout)
    if status != "survived":
        print(f"the unmutated tests do not pass: {status} {detail}", file=sys.stderr)
        return 2
    print(f"{'(unmutated)':<22} {'passed':<10} {seconds:6.1f} s", flush=True)
    for name in args or MUTANTS:
        status, detail, seconds = run_tests(MUTANTS[name], timeout)
        print(f"{name:<22} {status:<10} {seconds:6.1f} s  {detail}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: corrections, gamma, match, obstruct, alexander,
plumbing-check, report.  Input records come from the bundled dataset,
builtin.json (--knot NAME), a JSON file (--input PATH), or standard input,
each read as strict UTF-8.  All rationals are printed exactly as p/q;
there is no decimal output.  Each handler imports the modules it calls, so
a cold run loads only those of its own subcommand.

Each handler returns what its command prints, the JSON payload and the
text, and prints nothing itself.  ``main`` alone prints: the payload under
--json, else the text (an empty text prints nothing), then in text the
``PARSE ERROR`` lines of a batch's ``parse_errors`` on standard error; it
sets the exit code.

Exit codes: 0 computation completed (obstructed verdicts included),
2 usage errors, 3 invalid input (a batch record that fails to parse
included), 141 standard output closed before everything was written (a
reader such as ``head`` stopped early).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__
from .errors import UnknotOneError, ValidationError

if TYPE_CHECKING:
    from .catalog import KnotRecord
    from .matching import Verdict

# Ten-crossing knots whose published unknotting number is "two or three";
# the verdict here only rules out one, and no two-step unknotting is known.
TWO_OR_THREE = ("10_51", "10_54", "10_77", "10_79")

# the name lists of the paper tables: payload key and text label
PAPER_LISTS = {
    "no_even_matching": "no even matching",
    "no_even_positive_matching": "no even positive matching",
    "asymmetric_only": "asymmetric only",
    "ten_crossing_unknotting_two": "ten-crossing, unknotting number two",
    "ten_crossing_unknotting_two_or_three": "ten-crossing, unknotting number two or three",
}

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unknotone",
        description="Obstructions to unknotting number one from Goeritz forms.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def record_command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--knot", metavar="NAME", help="a bundled record by name")
        p.add_argument("--input", metavar="PATH", help="JSON record file ('-' for stdin)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = record_command("corrections", "correction-term vector of a record")
    p.add_argument("--generator", type=int, metavar="N", help="reindex by the unit N")
    p = sub.add_parser("gamma", help="model comparison vector for a determinant")
    p.add_argument("--D", type=int, required=True, metavar="N", help="odd determinant >= 3")
    p.add_argument("--json", action="store_true")
    record_command("match", "all deduplicated matchings of a record")
    p = record_command("obstruct", "run the obstruction verdict")
    p.add_argument("--strong", action="store_true", help="apply the staircase filter")
    p.add_argument(
        "--sign-refined",
        action="store_true",
        help="single-sign test for both crossing signs (needs a signature)",
    )
    record_command("alexander", "torsion and polynomial from symmetric matchings")
    record_command("plumbing-check", "class-count L-space certificate")
    p = sub.add_parser("report", help="batch verdicts and table reproduction")
    p.add_argument("--input", metavar="PATH", help="JSON record file ('-' for stdin)")
    p.add_argument("--all", action="store_true", help="process every bundled record")
    p.add_argument(
        "--paper-tables",
        action="store_true",
        help="regenerate the published matching tables and verdict lists",
    )
    p.add_argument("--strong", action="store_true")
    p.add_argument("--json", action="store_true")
    return parser


def _load_single_record(args: argparse.Namespace) -> KnotRecord:
    from .catalog import builtin_record, parse_knot_records

    if args.knot and args.input:
        raise ValidationError("give exactly one of --knot and --input")
    if args.knot:
        return builtin_record(args.knot)
    if not args.input and sys.stdin.isatty():
        raise ValidationError("no input: pass --knot, --input, or pipe a record")
    records = parse_knot_records(_read_text(args.input or "-"))
    if len(records) != 1:
        raise ValidationError(f"expected exactly one record, got {len(records)}")
    return records[0]


def _read_text(path: str) -> str:
    """A record file's text, decoded as strict UTF-8; '-' reads standard input."""
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        where = "standard input" if path == "-" else path
        raise ValidationError(f"cannot read {where}: {exc}") from exc


def _witness_text(verdict: Verdict) -> str:
    from .matching import format_compact

    return "; ".join(format_compact(m) for m in verdict.witnesses)


def cmd_corrections(args: argparse.Namespace) -> tuple[dict, str]:
    from .corrections import correction_vector

    record = _load_single_record(args)
    A = correction_vector(record.form)
    if args.generator is not None:
        A = A.reindexed(args.generator)
    texts = A.texts()
    payload = dict(knot=record.name, D=A.D, A=texts, generator=list(A.generator), gate=A.gate)
    text = (
        f"{record.name}: D = {A.D}\nA = {', '.join(texts)}\n"
        f"spin value A_0 = {texts[0]}; symmetry gate: {A.gate}"
    )
    return payload, text


def cmd_gamma(args: argparse.Namespace) -> tuple[dict, str]:
    from .gamma import gamma_vector

    B = gamma_vector(args.D)
    texts = B.texts()
    # the covector data is derived only for the JSON
    payload = {
        "D": B.D,
        "B": texts,
        "kappas": [list(kappa) for kappa in B.kappas],
        "v_index": list(B.v_index),
    } if args.json else {}
    return payload, f"D = {B.D}\nB = " + ", ".join(texts)


def cmd_match(args: argparse.Namespace) -> tuple[dict, str]:
    from .matching import FLAGS, format_compact
    from .report import analyze_record, report_to_json

    record = _load_single_record(args)
    report = analyze_record(record, listing=True)
    # each output renders the whole listing: build only the one printed
    if args.json:
        return report_to_json(report), ""
    lines = [f"{record.name}: D = {report.D}, {len(report.matchings)} matchings"]
    for m in report.matchings:
        flags = "".join(tag if getattr(m, flag) else "-" for tag, flag in zip("EPSt", FLAGS))
        lines.append(f"  unit {m.unit:>3} eps {m.epsilon:+d} [{flags}]  {format_compact(m)}")
    return {}, "\n".join(lines)


def cmd_obstruct(args: argparse.Namespace) -> tuple[dict, str]:
    from .report import analyze_record, report_to_json, sign_refined_record, verdict_to_json

    if args.sign_refined and args.strong:
        raise ValidationError("--sign-refined takes no --strong")
    record = _load_single_record(args)
    if args.sign_refined:
        signed = sign_refined_record(record)
        payload = {"knot": signed.name, "signature": signed.signature}
        lines = [f"{signed.name}: signature {signed.signature}"]
        for field in ("negative_to_positive", "positive_to_negative"):
            verdict = getattr(signed, field)
            payload[field] = verdict_to_json(verdict)
            witnesses = _witness_text(verdict)
            lines.append(
                f"  {field.replace('_to_', '->')}: {verdict.outcome.value}"
                + (f"  [{witnesses}]" if witnesses else "")
            )
        return payload, "\n".join(lines)
    report = analyze_record(record, strong=args.strong, listing=args.json)
    # the JSON carries the full matching listing; the text needs the verdict only
    if args.json:
        return report_to_json(report), ""
    witnesses = _witness_text(report.verdict)
    text = f"{record.name}: D = {report.D}, verdict {report.outcome.value}"
    return {}, text + (f"\n  witnesses: {witnesses}" if witnesses else "")


def cmd_alexander(args: argparse.Namespace) -> tuple[dict, str]:
    from .matching import format_compact
    from .report import alexander_reports, matching_to_json

    record = _load_single_record(args)
    lines = [f"{record.name}:"]
    companions = []
    for rep in alexander_reports(record):
        lines.append(f"  matching: {format_compact(rep.matching)}")
        lines.append(f"  torsion:  {', '.join(str(t) for t in rep.torsion)}")
        lines.append(f"  Delta(T) = {rep.polynomial.terms()}")
        lines.append(f"  coefficient shape admissible: {rep.coefficient_check}")
        companions.append(
            {
                "matching": matching_to_json(rep.matching),
                "torsion": list(rep.torsion),
                "polynomial": {
                    "a0": rep.polynomial.a0,
                    "higher": list(rep.polynomial.higher),
                    "terms": rep.polynomial.terms(),
                },
                "coefficient_check": rep.coefficient_check,
            }
        )
    if not companions:
        lines = [f"{record.name}: no symmetric even positive matching with C_0 = 0"]
    return {"knot": record.name, "companions": companions}, "\n".join(lines)


def cmd_plumbing_check(args: argparse.Namespace) -> tuple[dict, str]:
    from .lattice import cokernel
    from .plumbing import PlumbingForm, class_count, plumbing_corrections

    record = _load_single_record(args)
    plumbing = PlumbingForm(record.form)
    counted = class_count(plumbing)
    payload: dict = {
        "knot": record.name,
        "classes": counted.count,
        "determinant": counted.determinant,
        "is_lspace": counted.is_lspace,
    }
    lines = [
        f"{record.name}: {counted.count} bounded classes, |det| = {counted.determinant}",
        f"  L-space certificate: {'yes' if counted.is_lspace else 'no'}",
    ]
    # PlumbingForm refuses any form but a forest of trees with at most one bad
    # vertex each, where the count certifies (Ozsvath-Szabo).  A needs an odd
    # cyclic cokernel
    if counted.is_lspace and counted.determinant % 2 and len(cokernel(plumbing.form)) < 2:
        payload["A"] = plumbing_corrections(plumbing).texts()
        lines.append("  A = " + ", ".join(payload["A"]))
    return payload, "\n".join(lines)


def _knot_sort_key(name: str) -> tuple[int, int]:
    head, _, tail = name.partition("_")
    return (int(head), int(tail))


def _paper_tables_payload(strong: bool) -> dict:
    from .catalog import builtin_dataset
    from .report import batch_reports

    reports = batch_reports(builtin_dataset(), strong=strong)
    by_name = {entry["knot"]: entry for entry in reports}
    names = sorted(by_name, key=_knot_sort_key)

    def with_verdict(verdict: str) -> list[str]:
        return [n for n in names if by_name[n].get("verdict") == verdict]

    return {
        "records": sorted(reports, key=lambda e: _knot_sort_key(e["knot"])),
        "no_even_matching": with_verdict("NoEvenMatching"),
        "no_even_positive_matching": with_verdict("NoEvenPositiveMatching"),
        "asymmetric_only": with_verdict("NoSymmetricMatching"),
        "witness_rows": {n: by_name[n].get("witnesses", []) for n in sorted(by_name)},
        # the obstructed alternating ten-crossing knots (10_1 to 10_123)
        "ten_crossing_unknotting_two": [
            n
            for n in names
            if n.startswith("10_") and int(n.split("_")[1]) <= 123
            and by_name[n].get("obstructed") and n not in TWO_OR_THREE
        ],
        "ten_crossing_unknotting_two_or_three": [n for n in TWO_OR_THREE if n in by_name],
    }


def _report_row(entry: dict) -> str:
    """One text line of a batch report entry."""
    if "error" in entry:
        return f"{entry['knot']:>8}  ERROR {entry['error']}"
    witnesses = "; ".join(entry["witnesses"])
    return f"{entry['knot']:>8}  D={entry['D']:>3}  {entry['verdict']:<26} {witnesses}"


def cmd_report(args: argparse.Namespace) -> tuple[dict, str]:
    """The tables, or a batch whose ``parse_errors`` lists the records that failed to parse."""
    from .catalog import builtin_dataset, decode_record_entries, record_from_dict
    from .report import batch_reports

    if args.all and args.input:
        raise ValidationError("give only one of --all and --input")
    if args.paper_tables and args.input:
        raise ValidationError("--paper-tables reads the bundled records; give no --input")
    if args.paper_tables:
        payload = _paper_tables_payload(strong=args.strong)
        lines = [f"{label}: " + ", ".join(payload[key]) for key, label in PAPER_LISTS.items()]
        return payload, "\n".join([*lines, "", *map(_report_row, payload["records"])])

    # piped standard input is read as with --input -
    path = args.input or (None if args.all or sys.stdin.isatty() else "-")
    records: list[KnotRecord] = []
    parse_failures: list[dict] = []
    if path is None:
        records = builtin_dataset()
    else:
        # Bad records are reported beside the verdicts of the good ones.
        for i, entry in enumerate(decode_record_entries(_read_text(path))):
            try:
                records.append(record_from_dict(entry, where=f"record {i}"))
            except ValidationError as exc:
                parse_failures.append({"index": i, "error": str(exc)})
    reports = batch_reports(records, strong=args.strong)
    payload = {"records": reports, "parse_errors": parse_failures}
    return payload, "\n".join(map(_report_row, reports))


COMMANDS = {
    "corrections": cmd_corrections,
    "gamma": cmd_gamma,
    "match": cmd_match,
    "obstruct": cmd_obstruct,
    "alexander": cmd_alexander,
    "plumbing-check": cmd_plumbing_check,
    "report": cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, text = COMMANDS[args.command](args)
        if args.json:
            try:
                text = json.dumps(payload, indent=2, sort_keys=True)
            except ValueError as exc:
                # CPython's int-string limit, met by a corrections --generator unit of
                # thousands of digits
                raise ValidationError(
                    "the JSON output needs an integer of more than "
                    f"{sys.get_int_max_str_digits()} digits"
                ) from exc
        # a text report with no records prints nothing, not an empty line
        if text:
            print(text)
        failures = payload.get("parse_errors", [])
        if not args.json:
            for failure in failures:
                print(f"PARSE ERROR: {failure['error']}", file=sys.stderr)
        # write what is buffered now, so that a reader that stopped early is seen here
        sys.stdout.flush()
        return 3 if failures else 0
    except BrokenPipeError:
        # the reader closed standard output early: the rest goes to the null
        # device, so that the flush at exit raises nothing either
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        # 128 + SIGPIPE, the status a shell reports for a writer its reader stopped
        return 141
    except UnknotOneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

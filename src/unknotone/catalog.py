"""Knot records: named Goeritz data with validation and (de)serialisation.

A record carries a knot name and a presentation of (the relevant invariants
of) its double branched cover: either a Goeritz matrix directly, or a
signed white graph from which the matrix is built.  Optional metadata:
the knot signature (needed only by the sign-refined test) and the knot
determinant, kept purely as a cross-check against |det| of the matrix.

The external format is a UTF-8 JSON array of objects with keys

    name        (string, required)
    goeritz     (array of arrays of integers)        } at least one
    white_graph ({"vertices": n, "edges": [[u, v, s], ...]})  } of the two
    signature   (even integer, optional)
    determinant (integer, optional cross-check)
"""

from __future__ import annotations

import json
import os
import sys
from functools import cached_property
from typing import Optional

from .errors import ValidationError
from .lattice import QuadraticForm, Value, check_dimension, check_gram_entries


class WhiteGraph(Value):
    """A multigraph on checkerboard regions with signed edges, no loops."""

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]

    def _validate(self) -> None:
        if self.vertex_count < 1:
            raise ValidationError("white graph needs at least one vertex")
        for u, v, sign in self.edges:
            if u == v:
                raise ValidationError(f"white graph has a loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValidationError(f"edge ({u}, {v}) leaves the vertex range")
            if sign not in (1, -1):
                raise ValidationError(f"edge sign must be +-1, got {sign}")


def goeritz_from_white_graph(graph: WhiteGraph) -> QuadraticForm:
    """The Goeritz form of a signed white graph.

    On the lattice spanned by the vertices modulo the sum relation: the
    pairing of distinct vertices is the signed count of connecting edges,
    and each vertex pairs with itself as minus its signed degree.  The
    quotient is realised by deleting the last vertex; any other deletion
    gives a congruent form.
    """
    n = graph.vertex_count
    full = [[0] * n for _ in range(n)]
    for u, v, sign in graph.edges:
        full[u][v] += sign
        full[v][u] += sign
        full[u][u] -= sign
        full[v][v] -= sign
    rows = [row[: n - 1] for row in full[: n - 1]]
    return QuadraticForm.from_rows(rows)


class KnotRecord(Value):
    name: str
    goeritz: Optional[QuadraticForm] = None
    white_graph: Optional[WhiteGraph] = None
    signature: Optional[int] = None
    determinant: Optional[int] = None

    def _validate(self) -> None:
        if self.goeritz is None and self.white_graph is None:
            raise ValidationError(f"record {self.name!r} has neither matrix nor white graph")
        if self.goeritz is not None and self.white_graph is not None:
            # unequal dimensions disagree before the graph's form is built
            same = self.white_graph.vertex_count - 1 == self.goeritz.dim
            if not same or goeritz_from_white_graph(self.white_graph) != self.goeritz:
                raise ValidationError(
                    f"record {self.name!r}: white graph and stored matrix disagree"
                )
        if self.signature is not None and self.signature % 2 != 0:
            raise ValidationError(f"record {self.name!r}: signature must be even")
        if self.determinant is None:
            return
        try:
            check_gram_entries(self.form)
        except ValidationError:
            # refused before the elimination, as without a determinant, by the analysis
            return
        if abs(self.form.det) != self.determinant:
            raise ValidationError(
                f"record {self.name!r}: |det| = {abs(self.form.det)} does not match "
                f"declared determinant {self.determinant}"
            )

    @cached_property
    def form(self) -> QuadraticForm:
        if self.goeritz is not None:
            return self.goeritz
        # refused before its (n - 1)^2 entries are built, with the message of the analysis
        check_dimension(self.white_graph.vertex_count - 1)
        return goeritz_from_white_graph(self.white_graph)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def record_from_dict(entry: dict, where: str = "") -> KnotRecord:
    if not isinstance(entry, dict):
        raise ValidationError(f"{where}: record entries must be objects")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise ValidationError(f"{where}: missing or invalid 'name'")
    context = f"{where} ({name})" if where else name
    for field in ("signature", "determinant"):
        if entry.get(field) is not None and not _is_int(entry[field]):
            raise ValidationError(f"{context}: '{field}' must be an integer, got {entry[field]!r}")
    goeritz = None
    if "goeritz" in entry and entry["goeritz"] is not None:
        try:
            goeritz = QuadraticForm.from_rows(entry["goeritz"])
        except (ValidationError, TypeError) as exc:
            raise ValidationError(f"{context}: bad Goeritz matrix: {exc}") from exc
    white_graph = None
    if "white_graph" in entry and entry["white_graph"] is not None:
        wg = entry["white_graph"]
        if not isinstance(wg, dict) or "vertices" not in wg or "edges" not in wg:
            raise ValidationError(f"{context}: white_graph needs 'vertices' and 'edges'")
        if not _is_int(wg["vertices"]):
            raise ValidationError(
                f"{context}: white_graph 'vertices' must be an integer, got {wg['vertices']!r}"
            )
        edges = wg["edges"]
        if not isinstance(edges, (list, tuple)):
            raise ValidationError(f"{context}: white_graph 'edges' must be an array")
        for edge in edges:
            if not (isinstance(edge, (list, tuple)) and len(edge) == 3 and all(map(_is_int, edge))):
                raise ValidationError(
                    f"{context}: white_graph 'edges' entries must be [u, v, sign] integers, "
                    f"got {edge!r}"
                )
        try:
            white_graph = WhiteGraph(wg["vertices"], tuple(tuple(edge) for edge in edges))
        except ValidationError as exc:
            raise ValidationError(f"{context}: bad white graph: {exc}") from exc
    try:
        return KnotRecord(
            name=name,
            goeritz=goeritz,
            white_graph=white_graph,
            signature=entry.get("signature"),
            determinant=entry.get("determinant"),
        )
    except ValidationError as exc:
        raise ValidationError(f"{context}: {exc}") from exc


def record_to_dict(record: KnotRecord) -> dict:
    out: dict = {"name": record.name}
    if record.goeritz is not None:
        out["goeritz"] = [list(row) for row in record.goeritz.gram]
    if record.white_graph is not None:
        out["white_graph"] = {
            "vertices": record.white_graph.vertex_count,
            "edges": [list(edge) for edge in record.white_graph.edges],
        }
    if record.signature is not None:
        out["signature"] = record.signature
    if record.determinant is not None:
        out["determinant"] = record.determinant
    return out


def decode_record_entries(text: str) -> list:
    """The unvalidated entries of a JSON array of records, or of one record object."""
    if not text.strip():
        return []
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:
        # CPython's int-string limit; no form the box budget admits needs such an integer
        raise ValidationError(
            f"JSON integer literal above {sys.get_int_max_str_digits()} digits"
        ) from exc
    except RecursionError as exc:
        raise ValidationError("JSON nested too deeply") from exc
    if isinstance(payload, dict):
        return [payload]
    if not isinstance(payload, list):
        raise ValidationError("expected a JSON array of knot records")
    return payload


def parse_knot_records(text: str) -> list[KnotRecord]:
    """Parse a JSON array of records (or a single record object)."""
    entries = decode_record_entries(text)
    return [record_from_dict(entry, where=f"record {i}") for i, entry in enumerate(entries)]


def _builtin_entries() -> list:
    """The unvalidated entries of ``builtin.json``, the file beside this module."""
    path = os.path.join(os.path.dirname(__file__), "builtin.json")
    with open(path, "r", encoding="utf-8") as handle:
        return decode_record_entries(handle.read())


def builtin_dataset() -> list[KnotRecord]:
    """All bundled records, validated through the same path as external files.

    The records and their provenance are described in README.md, under the
    bundled dataset.
    """
    return [record_from_dict(entry, where="builtin") for entry in _builtin_entries()]


def builtin_record(name: str) -> KnotRecord:
    """The bundled record called ``name``; only that entry is validated."""
    for entry in _builtin_entries():
        if entry.get("name") == name:
            return record_from_dict(entry, where="builtin")
    raise ValidationError(f"no builtin record named {name!r}")

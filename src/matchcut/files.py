"""Text formats of the graph commands: edge-list graph files, and the
2-CNF DIMACS text and JSON sidecar of solve --emit-2cnf.

Graph files: a header line "n m" followed by m lines "u v"; lines whose
first non-blank character is '#' are comments.  reduce's CNF reader and
layout sidecar live in matchcut.reduction, off the other commands' path.
"""

from __future__ import annotations

import json
from array import array
from typing import TYPE_CHECKING, Sequence, TextIO

from .graphs import MAX_VERTICES, Graph, GraphError, graph_from_ends

if TYPE_CHECKING:
    from .pmc import Relation


class ParseError(ValueError):
    """Malformed input text."""


def parse_graph(text: str) -> Graph:
    n, ends = _graph_ends(text)
    try:
        return graph_from_ends(n, ends)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


def _graph_ends(text: str) -> tuple[int, array | list[int]]:
    """The header's vertex count and the edge lines' endpoints, end to
    end in one buffer.  A header fault is raised at once; an edge-line
    fault only after every line is counted, as a wrong edge count is
    reported first, and only the first such fault is kept."""
    header = None
    ends: array | list[int] = array("q")
    count = 0
    fault = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if header is None:
            header = line.split()
            if len(header) != 2:
                raise ParseError(f"header must be 'n m', got {line!r}")
            try:
                n, m = int(header[0]), int(header[1])
            except ValueError as exc:
                raise ParseError(f"non-numeric header {line!r}") from exc
            if n > MAX_VERTICES:
                raise ParseError(f"header declares {n} vertices, the limit is {MAX_VERTICES}")
            continue
        count += 1
        if fault is not None:
            continue
        parts = line.split()
        if len(parts) != 2:
            fault = ParseError(f"edge line must be 'u v', got {line!r}")
            continue
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            fault = ParseError(f"non-numeric edge line {line!r}")
            continue
        try:
            ends.append(u)
            ends.append(v)
        except OverflowError:
            # an endpoint beyond 64 bits, out of range for any graph:
            # the rest go to a list, which the build reports in order
            ends = ends.tolist()[: 2 * count - 2] + [u, v]
    if header is None:
        raise ParseError("missing graph header line")
    if count != m:
        raise ParseError(f"header promises {m} edges, found {count}")
    if fault is not None:
        raise fault
    return n, ends


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def format_twosat_dimacs(var_count: int, relations: Sequence[Relation], out: TextIO) -> None:
    """Write the 2-CNF of relations to out in DIMACS form: clause for
    clause that of pmc.relation_clauses, so a relation (a, b, differ)
    gives "a b 0" and "-a -b 0", b negated when differ is False.
    Variable i+1 stands for vertex i.

    Raises ValueError, before anything is written, on an endpoint
    outside 0..var_count-1.
    """
    for a, b, _ in relations:
        if not (0 <= a < var_count and 0 <= b < var_count):
            bad = b if 0 <= a < var_count else a
            raise ValueError(f"literal variable {bad} out of range")
    out.write(f"p cnf {var_count} {2 * len(relations)}\n")
    out.writelines(
        f"{a + 1} {b + 1 if differ else -b - 1} 0\n{-a - 1} {-b - 1 if differ else b + 1} 0\n"
        for a, b, differ in relations
    )


def twosat_sidecar(blocked: list[int], out: TextIO) -> None:
    """Write the JSON sidecar: the vertex that blocked each component's
    sweep, whose component the encoding leaves out."""
    json.dump({"blocked_vertices": blocked}, out, indent=2)
    out.write("\n")

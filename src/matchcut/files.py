"""Text formats: edge-list graph files, DIMACS CNF, and JSON sidecars.

Graph files: a header line "n m" followed by m lines "u v"; lines whose
first non-blank character is '#' are comments.  CNF files are positive
1-in-3 formulas in DIMACS form ('c' comments, "p cnf <vars> <clauses>",
zero-terminated clauses), each clause three distinct positive literals.
"""

from __future__ import annotations

import json
from array import array
from typing import TYPE_CHECKING, Iterator, Sequence, TextIO

from .graphs import MAX_VERTICES, Graph, GraphError, graph_from_ends

if TYPE_CHECKING:
    from .pmc import Relation
    from .reduction import Formula13, GadgetLayout


class ParseError(ValueError):
    """Malformed input text."""


# build_reduction allocates one slot list per declared variable, so a
# CNF header is capped like a graph header
MAX_VARIABLES = MAX_VERTICES


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


def formula_from_dimacs(text: str) -> Formula13:
    """Parse a positive 1-in-3 formula from DIMACS CNF text: the whole
    text is read before each clause, in order, is refused for a negative
    literal, a length other than three or a repeated variable."""
    from .reduction import Formula13

    var_count = None
    promised = None
    clauses: list[list[int]] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"bad problem line {line!r}")
            try:
                var_count, promised = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise ParseError(f"non-numeric problem line {line!r}") from exc
            if var_count < 0:
                raise ParseError(f"problem line declares {var_count} variables")
            if var_count > MAX_VARIABLES:
                raise ParseError(
                    f"problem line declares {var_count} variables, the limit is {MAX_VARIABLES}"
                )
            continue
        if var_count is None:
            raise ParseError("clause before the problem line")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise ParseError(f"non-numeric literal {tok!r}") from exc
            if lit == 0:
                clauses.append(pending)
                pending = []
            else:
                if abs(lit) > var_count:
                    raise ParseError(f"literal {lit} out of range")
                pending.append(lit)
    if pending:
        raise ParseError("unterminated clause at end of input")
    if var_count is None:
        raise ParseError("missing problem line")
    if len(clauses) != promised:
        raise ParseError(f"problem line promises {promised} clauses, found {len(clauses)}")
    for clause in clauses:
        if any(lit < 0 for lit in clause):
            raise ParseError(f"negative literal in clause {clause}")
        if len(clause) != 3:
            raise ParseError(f"clause {clause} must have exactly three literals")
        if len(set(clause)) != 3:
            raise ParseError(f"clause {clause} repeats a variable")
    return Formula13(var_count, tuple(tuple(lit - 1 for lit in clause) for clause in clauses))


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


def twosat_sidecar(var_count: int, shallow: list[int], blocked: list[int], out: TextIO) -> None:
    """Write the JSON sidecar mapping DIMACS variables to vertex ids,
    with the vertices of components the encoding leaves out: too
    shallow to sweep, or the vertex that blocked a component's sweep.

    The bytes are those of json.dump(indent=2, sort_keys=True); the
    variable map, the last key, is written a line at a time in its
    sorted key order, which is decimal string order.
    """
    head = {"blocked_vertices": blocked, "unencoded_shallow_vertices": shallow}
    # the two lists, without the closing brace
    out.write(json.dumps(head, indent=2, sort_keys=True)[:-2])
    out.write(',\n  "variable_to_vertex": ')
    if not var_count:
        out.write("{}\n}\n")
        return
    keys = _decimal_order(var_count)
    next(keys)
    out.write('{\n    "1": 0')
    out.writelines(f',\n    "{k}": {k - 1}' for k in keys)
    out.write("\n  }\n}\n")


def _decimal_order(count: int) -> Iterator[int]:
    """1..count in the order of their decimal strings: "1", "10",
    "100", ..., "11", ..., "2", ..."""
    k = 1
    for _ in range(count):
        yield k
        if k * 10 <= count:
            k *= 10
        else:
            while k % 10 == 9 or k == count:
                k //= 10
            k += 1


def layout_sidecar(layout: GadgetLayout, out: TextIO) -> None:
    """Write the JSON sidecar mapping gadget roles to vertex ids."""
    payload = {
        "c": list(layout.c),
        "c_prime": list(layout.c_prime),
        "cjk": [list(t) for t in layout.cjk],
        "ajk": [list(t) for t in layout.ajk],
        "bjk": [list(t) for t in layout.bjk],
        "cjk_prime": [list(t) for t in layout.cjk_prime],
        "Q": {str(x): sorted(q) for x, q in layout.q_cliques.items()},
        "F": sorted(layout.f_clique),
        "T": sorted(layout.t_clique),
    }
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")

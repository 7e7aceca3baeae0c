"""Hardness gadgets: from positive 1-in-3 formulas to perfect-matching-cut
instances, and the two formats only reduce uses: the formula in DIMACS
CNF, three distinct positive literals a clause, and a JSON role sidecar.

Every clause becomes a fixed 14-vertex block; same-variable slots, the
hub vertices of all blocks, and the guard vertices of all blocks are
completed into cliques.  Matching cuts of the result are forced to be
perfect and correspond exactly to the assignments satisfying one
variable per clause.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import NamedTuple, TextIO

from .files import ParseError
from .graphs import MAX_VERTICES, Graph, GraphError, build_graph

# a CNF header is outside input: its variable count is capped like a
# graph header's vertex count, and its clause count m so that a gadget's
# 8m^2 or so edges, mostly hub and guard cliques, stay under 10^6
MAX_VARIABLES = MAX_VERTICES
MAX_CLAUSES = 350


class _Formula13Fields(NamedTuple):
    var_count: int
    clauses: tuple[tuple[int, int, int], ...]


class Formula13(_Formula13Fields):
    """A positive 1-in-3 formula: ordered triples of distinct variables."""

    __slots__ = ()

    def __new__(cls, var_count: int, clauses: tuple[tuple[int, int, int], ...]) -> Formula13:
        if var_count < 0:
            raise ValueError("variable count must be nonnegative")
        for clause in clauses:
            if len(clause) != 3:
                raise ValueError(f"clause {clause} must have exactly three variables")
            if len(set(clause)) != 3:
                raise ValueError(f"clause {clause} repeats a variable")
            for var in clause:
                if not (0 <= var < var_count):
                    raise ValueError(f"variable {var} out of range")
        return super().__new__(cls, var_count, clauses)


def formula_from_dimacs(text: str) -> Formula13:
    """Parse a positive 1-in-3 formula from DIMACS CNF text: the whole
    text is read before each clause, in order, is refused for a negative
    literal, a length other than three or a repeated variable."""
    var_count = None
    promised = None
    clauses: list[list[int]] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if var_count is not None:
                raise ParseError(f"second problem line {line!r}")
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
            if promised > MAX_CLAUSES:
                raise ParseError(
                    f"problem line declares {promised} clauses, the limit is {MAX_CLAUSES}"
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


# block offsets: hub, three variable slots, three guards, three links,
# three opposite slots, opposite hub
_OFF_C = 0
_OFF_CJK = (1, 2, 3)
_OFF_AJK = (4, 5, 6)
_OFF_BJK = (7, 8, 9)
_OFF_PRIME = (10, 11, 12)
_OFF_CPRIME = 13
_BLOCK = 14
# which opposite slots each link vertex reaches
_B_PRIME = ((0, 1), (0, 2), (1, 2))

_GADGET_EDGES = (
    [(_OFF_C, k) for k in _OFF_CJK]
    + [(_OFF_CJK[k], _OFF_AJK[k]) for k in range(3)]
    + [(_OFF_AJK[k], _OFF_BJK[k]) for k in range(3)]
    + [(_OFF_AJK[0], _OFF_AJK[1]), (_OFF_AJK[0], _OFF_AJK[2]), (_OFF_AJK[1], _OFF_AJK[2])]
    + [(_OFF_BJK[k], _OFF_PRIME[l]) for k in range(3) for l in _B_PRIME[k]]
    + [(_OFF_PRIME[l], _OFF_CPRIME) for l in range(3)]
)


def _slot_cliques(formula: Formula13) -> dict[int, frozenset[int]]:
    """Per variable that occurs, in variable order, the slot vertices
    of its occurrences; a variable in no clause has no slot."""
    slots: dict[int, set[int]] = {}
    for j, clause in enumerate(formula.clauses):
        for k, var in enumerate(clause):
            slots.setdefault(var, set()).add(_BLOCK * j + _OFF_CJK[k])
    return {x: frozenset(slots[x]) for x in sorted(slots)}


class GadgetLayout(NamedTuple):
    """A reduction instance plus role maps back into the formula."""

    graph: Graph
    formula: Formula13
    c: tuple[int, ...]
    c_prime: tuple[int, ...]
    cjk: tuple[tuple[int, int, int], ...]
    ajk: tuple[tuple[int, int, int], ...]
    bjk: tuple[tuple[int, int, int], ...]
    cjk_prime: tuple[tuple[int, int, int], ...]
    f_clique: frozenset[int]
    t_clique: frozenset[int]

    @property
    def q_cliques(self) -> dict[int, frozenset[int]]:
        """Per variable that occurs, its slot clique; built from formula
        on each access."""
        return _slot_cliques(self.formula)


def build_reduction(formula: Formula13) -> GadgetLayout:
    """Assemble the instance graph for a non-empty 1-in-3 formula."""
    m = len(formula.clauses)
    if m == 0:
        raise GraphError("the formula needs at least one clause")
    edges: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> None:
        edges.add((min(u, v), max(u, v)))

    for j in range(m):
        base = _BLOCK * j
        for u, v in _GADGET_EDGES:
            add(base + u, base + v)

    f_members = [v for j in range(m) for v in (_BLOCK * j + _OFF_C, _BLOCK * j + _OFF_CPRIME)]
    t_members = [_BLOCK * j + off for j in range(m) for off in _OFF_AJK]
    for u, v in combinations(sorted(f_members), 2):
        add(u, v)
    for u, v in combinations(sorted(t_members), 2):
        add(u, v)
    for slots in _slot_cliques(formula).values():
        for u, v in combinations(sorted(slots), 2):
            add(u, v)

    graph = build_graph(_BLOCK * m, sorted(edges))
    return GadgetLayout(
        graph=graph,
        formula=formula,
        c=tuple(_BLOCK * j + _OFF_C for j in range(m)),
        c_prime=tuple(_BLOCK * j + _OFF_CPRIME for j in range(m)),
        cjk=tuple(tuple(_BLOCK * j + off for off in _OFF_CJK) for j in range(m)),
        ajk=tuple(tuple(_BLOCK * j + off for off in _OFF_AJK) for j in range(m)),
        bjk=tuple(tuple(_BLOCK * j + off for off in _OFF_BJK) for j in range(m)),
        cjk_prime=tuple(tuple(_BLOCK * j + off for off in _OFF_PRIME) for j in range(m)),
        f_clique=frozenset(f_members),
        t_clique=frozenset(t_members),
    )


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

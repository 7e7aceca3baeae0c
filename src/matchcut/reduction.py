"""Hardness gadgets: from positive 1-in-3 formulas to perfect-matching-cut
instances.

Every clause becomes a fixed 14-vertex block; same-variable slots, the
hub vertices of all blocks, and the guard vertices of all blocks are
completed into cliques.  Matching cuts of the result are forced to be
perfect and correspond exactly to the assignments satisfying one
variable per clause.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .graphs import Graph, GraphError, build_graph


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
    """Per variable, the slot vertices of its occurrences.  Sets are
    built only for the variables that occur; the others share one empty
    set, so a large declared count with few clauses stays small."""
    slots: dict[int, set[int]] = {}
    for j, clause in enumerate(formula.clauses):
        for k, var in enumerate(clause):
            slots.setdefault(var, set()).add(_BLOCK * j + _OFF_CJK[k])
    empty: frozenset[int] = frozenset()
    return {
        x: frozenset(slots[x]) if x in slots else empty for x in range(formula.var_count)
    }


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
    f_clique: frozenset[int] = frozenset()
    t_clique: frozenset[int] = frozenset()

    @property
    def q_cliques(self) -> dict[int, frozenset[int]]:
        """Per variable, its slot clique; built from formula on each access."""
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

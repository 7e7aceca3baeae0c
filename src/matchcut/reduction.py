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

from .graphs import (
    Cut,
    Graph,
    GraphError,
    OracleBudgetError,
    OracleLimits,
    OracleSizeError,
    build_graph,
    disjoint_union,
    is_matching_cut,
    is_perfect_matching_cut,
    make_cut,
    path_graph,
)


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


def is_one_in_three(formula: Formula13, assignment: tuple[bool, ...]) -> bool:
    """True when each clause has exactly one true variable."""
    if len(assignment) != formula.var_count:
        return False
    return all(
        sum(1 for var in clause if assignment[var]) == 1
        for clause in formula.clauses
    )


def assignment_to_pmc(layout: GadgetLayout, assignment: tuple[bool, ...]) -> Cut:
    """The perfect matching cut induced by a satisfying assignment.

    X collects both hub cliques, the slot cliques of the false
    variables, and per clause the link vertex of its true slot together
    with that link's two opposite slots; Y is the rest.
    """
    formula = layout.formula
    if not is_one_in_three(formula, assignment):
        raise GraphError("assignment does not satisfy exactly one variable per clause")
    x: set[int] = set(layout.f_clique)
    for var, q in layout.q_cliques.items():
        if not assignment[var]:
            x |= q
    for j, clause in enumerate(formula.clauses):
        k = next(pos for pos, var in enumerate(clause) if assignment[var])
        x.add(layout.bjk[j][k])
        x.update(layout.cjk_prime[j][l] for l in _B_PRIME[k])
    return make_cut(layout.graph, x)


def cut_to_assignment(layout: GadgetLayout, cut: Cut) -> tuple[bool, ...]:
    """Read the variable assignment off a matching cut of the instance.

    The side not containing the hub clique marks the true variables.
    Raises GraphError when the cut is not a matching cut, when a clique
    that must be monochromatic is split, or when the decoded assignment
    fails the one-per-clause check (any of these breaks a structural
    guarantee of the construction).
    """
    g = layout.graph
    if not is_matching_cut(g, cut.x):
        raise GraphError("not a matching cut of the instance graph")
    x, y = set(cut.x), set(cut.y)
    if layout.f_clique <= y:
        x, y = y, x
    elif not layout.f_clique <= x:
        raise GraphError("hub clique is split by the cut")
    assignment = []
    for var, q in layout.q_cliques.items():
        if not q:
            # a variable with no occurrence carries no signal; pin it False
            assignment.append(False)
        elif q <= y:
            assignment.append(True)
        elif q <= x:
            assignment.append(False)
        else:
            raise GraphError(f"variable clique {var} is split by the cut")
    result = tuple(assignment)
    if not is_one_in_three(layout.formula, result):
        raise GraphError("decoded assignment violates the one-per-clause rule")
    return result


class CheckResult(NamedTuple):
    name: str
    passed: bool | None
    detail: str
    completed: bool


class ReductionReport(NamedTuple):
    checks: tuple[CheckResult, ...]

    @property
    def partial(self) -> bool:
        return any(not c.completed for c in self.checks)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.completed)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "SKIP" if not c.completed else ("ok" if c.passed else "FAIL")
            lines.append(f"{status:4} {c.name}: {c.detail}")
        return "\n".join(lines)


def _is_clique(g: Graph, members: frozenset[int]) -> bool:
    return all(g.has_edge(u, v) for u, v in combinations(sorted(members), 2))


def _expected_edge_count(layout: GadgetLayout) -> int:
    m = len(layout.formula.clauses)
    per_gadget = len(_GADGET_EDGES) * m
    f_extra = len(layout.f_clique) * (len(layout.f_clique) - 1) // 2
    t = len(layout.t_clique)
    t_extra = t * (t - 1) // 2 - 3 * m
    q_extra = sum(len(q) * (len(q) - 1) // 2 for q in layout.q_cliques.values())
    return per_gadget + f_extra + t_extra + q_extra


def verify_reduction(
    formula: Formula13,
    layout: GadgetLayout,
    limits: OracleLimits | None = None,
) -> ReductionReport:
    """Check the structural guarantees of one reduction instance.

    Counting and clique checks are exact.  Exhaustive checks (all
    matching cuts perfect, cut existence matching 1-in-3 solvability,
    induced path and cycle bounds) run under the oracle limits; a check
    that exceeds its bound or budget is reported as incomplete rather
    than failed.
    """
    from .oracle import (
        contains_induced,
        enumerate_matching_cuts,
        enumerate_one_in_three,
        has_pmc,
        longest_induced_cycle,
        longest_induced_path,
    )

    g = layout.graph
    m = len(formula.clauses)
    checks: list[CheckResult] = []

    def exact(name: str, passed: bool, detail: str) -> None:
        checks.append(CheckResult(name, passed, detail, True))

    def bounded(name: str, thunk) -> None:
        try:
            passed, detail = thunk()
            checks.append(CheckResult(name, passed, detail, True))
        except (OracleBudgetError, OracleSizeError) as exc:
            checks.append(CheckResult(name, None, str(exc), False))

    exact("vertex-count", g.n == 14 * m, f"n={g.n}, expected {14 * m}")
    exact(
        "edge-count",
        g.m == _expected_edge_count(layout),
        f"m={g.m}, expected {_expected_edge_count(layout)}",
    )
    exact(
        "hub-clique",
        len(layout.f_clique) == 2 * m and _is_clique(g, layout.f_clique),
        f"size {len(layout.f_clique)}, expected {2 * m}",
    )
    exact(
        "guard-clique",
        len(layout.t_clique) == 3 * m and _is_clique(g, layout.t_clique),
        f"size {len(layout.t_clique)}, expected {3 * m}",
    )
    exact(
        "variable-cliques",
        all(_is_clique(g, q) for q in layout.q_cliques.values()),
        f"{len(layout.q_cliques)} cliques",
    )
    exact(
        "hub-guard-nonadjacent",
        all(not g.has_edge(u, v) for u in layout.f_clique for v in layout.t_clique),
        "no edge between the hub and guard cliques",
    )

    def cuts_check() -> tuple[bool, str]:
        cuts = enumerate_matching_cuts(g, "matching_only", limits)
        bad = [c for c in cuts if not is_perfect_matching_cut(g, c.x)]
        return not bad, f"{len(cuts)} matching cuts, {len(bad)} imperfect"

    bounded("matching-cuts-all-perfect", cuts_check)

    def equiv_check() -> tuple[bool, str]:
        sat = bool(enumerate_one_in_three(formula, limits))
        cut = has_pmc(g, limits)
        return sat == cut, f"one-in-three {sat}, perfect matching cut {cut}"

    bounded("pmc-iff-one-in-three", equiv_check)

    def classes_check() -> tuple[bool, str]:
        lp = longest_induced_path(g, limits)
        lc = longest_induced_cycle(g, limits)
        ok = lp < 14 and (lc is None or lc <= 8)
        return ok, f"longest induced path {lp}, longest induced cycle {lc}"

    bounded("p14-free-and-8-chordal", classes_check)

    def forbidden_unions_check() -> tuple[bool, str]:
        triple = disjoint_union(path_graph(6), path_graph(6), path_graph(6))
        pair = disjoint_union(path_graph(7), path_graph(7))
        has_triple = contains_induced(g, triple, limits)
        has_pair = contains_induced(g, pair, limits)
        return not has_triple and not has_pair, (
            f"3xP6 {has_triple}, 2xP7 {has_pair}"
        )

    bounded("no-induced-3P6-or-2P7", forbidden_unions_check)

    return ReductionReport(tuple(checks))

"""Test tooling for the hardness gadget: the exhaustive construction
checker, the assignment and cut translations, and the budgeted 1-in-3
enumerator.

No command runs any of this; the acceptance and reduction tests use it
to check the instances that matchcut.reduction builds.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from conftest import disjoint_union, has_pmc, path_graph
from matchcut.graphs import (
    Cut,
    Graph,
    GraphError,
    OracleBudgetError,
    OracleLimits,
    OracleSizeError,
    check_matching_cut,
    check_perfect_matching_cut,
    make_cut,
)
from matchcut.oracle import (
    DEFAULT_LIMITS,
    _Deadline,
    contains_induced,
    enumerate_matching_cuts,
    longest_induced_cycle,
    longest_induced_path,
)
from matchcut.reduction import _B_PRIME, _GADGET_EDGES, Formula13, GadgetLayout


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
    if check_matching_cut(g, cut.x)[0] is None:
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


def enumerate_one_in_three(formula, limits: OracleLimits | None = None) -> list[tuple[bool, ...]]:
    """All assignments where each clause has exactly one true variable.

    Output is lexicographic with False ordered before True.  The formula
    only needs var_count and clauses attributes (ordered triples of
    distinct variable ids).
    """
    limits = limits or DEFAULT_LIMITS
    if formula.var_count > 25:
        raise OracleSizeError(
            f"{formula.var_count} variables exceeds the 1-in-3 enumeration bound of 25"
        )
    deadline = _Deadline(limits.budget_seconds)
    nv = formula.var_count
    clauses = list(formula.clauses)
    clauses_of: list[list[int]] = [[] for _ in range(nv)]
    for ci, clause in enumerate(clauses):
        for var in clause:
            clauses_of[var].append(ci)
    true_count = [0] * len(clauses)
    seen_count = [0] * len(clauses)
    value = [False] * nv
    out: list[tuple[bool, ...]] = []

    def viable(ci: int) -> bool:
        if true_count[ci] > 1:
            return False
        if seen_count[ci] == 3 and true_count[ci] != 1:
            return False
        return True

    def choose(v: int) -> None:
        deadline.check()
        if v == nv:
            out.append(tuple(value))
            return
        for val in (False, True):
            value[v] = val
            ok = True
            for ci in clauses_of[v]:
                seen_count[ci] += 1
                if val:
                    true_count[ci] += 1
                if not viable(ci):
                    ok = False
            if ok:
                choose(v + 1)
            for ci in clauses_of[v]:
                seen_count[ci] -= 1
                if val:
                    true_count[ci] -= 1
        value[v] = False

    choose(0)
    return out


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
        bad = [c for c in cuts if check_perfect_matching_cut(g, c.x)[0] is None]
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

"""Perfect matching cut solver for graphs without long chordless cycles.

The graph is layered by breadth-first distance from a root.  Sweeping
the layers deepest first, each undetermined vertex is classified by how
it attaches to the layer below; the classification names its forced
cross partner and pins every other neighbor to its own side.  Each such
constraint relates two vertices, which lie on different sides or on the
same side, so the perfect matching cuts (side X) are exactly the
2-colourings of these relations, and one parity pass decides them.
Written as two complementary clauses each, the same relations form the
2-CNF that --emit-2cnf writes; the general 2-SAT solver that the tests
keep as their reference (tests/twosat_reference.py) finds the same
model on it as the parity pass.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .graphs import (
    BfsLevels,
    Cut,
    Graph,
    check_perfect_matching_cut,
    component_levels,
    component_roots,
    connected_components,
)

if TYPE_CHECKING:
    from .twosat import Clause, TwoSatInstance

# (a, b, differ): a and b lie on different sides when differ is True,
# on the same side otherwise
Relation = tuple[int, int, bool]


class TraceEntry(NamedTuple):
    """One determination step: vertex, rule kind, partners, and the
    range of the step's clause ids, which are contiguous."""

    vertex: int
    rule: str
    partners: tuple[int, ...]
    clause_ids: range


def classify_leaf(
    g: Graph, levels: BfsLevels, determined: set[int], v: int
) -> tuple[str, tuple[int, ...]]:
    """Classify v against the undetermined part of the layer below it;
    determined holds the vertices whose cross partner is encoded.

    Returns the (rule, partners) pair that v's TraceEntry records:
    ("c1", (u,)): exactly one undetermined neighbor below, u.
    ("c2", (u1, u2, w)): exactly two, non-adjacent, with a common
        undetermined vertex w two layers down closing a chordless square.
    ("c3", (u,)): three or more, exactly one of which, u, lies in its
        own component of the undetermined part of the layer below.
    ("none", ()): no rule applies; no perfect matching cut exists.
    """
    level_of = levels.level_of
    i = level_of[v]
    below = sorted(u for u in g.adj[v] - determined if level_of[u] == i - 1)
    if not below:
        return "none", ()
    if len(below) == 1:
        return "c1", (below[0],)
    if len(below) == 2:
        u1, u2 = below
        if i >= 2 and not g.has_edge(u1, u2):
            common = sorted(
                w
                for w in g.adj[u1] & g.adj[u2]
                if levels.level_of[w] == i - 2 and w not in determined
            )
            if common:
                return "c2", (u1, u2, common[0])
        return "none", ()
    open_below = [u for u in levels.levels[i - 1] if u not in determined]
    # c lies in the open layer below, so c & adj[v] is c's share of below
    groups = [hit for c in connected_components(g, open_below) if (hit := c & g.adj[v])]
    if len(groups) == 2:
        single = min(groups, key=len)
        if len(single) == 1:
            return "c3", tuple(single)
    return "none", ()


class PmcEncoding(NamedTuple):
    """Sweep outcome: the relations over g's vertices, or the vertex
    that blocked the sweep (relations None), and the trace of the
    determination steps made."""

    var_count: int
    relations: tuple[Relation, ...] | None
    trace: list[TraceEntry]
    blocked: int | None

    @property
    def formula(self) -> TwoSatInstance | None:
        """The relations as a 2-CNF, built on each access."""
        if self.relations is None:
            return None
        from .twosat import TwoSatInstance

        return TwoSatInstance(self.var_count, relation_clauses(self.relations))


def relation_clauses(relations: Sequence[Relation]) -> tuple[Clause, ...]:
    """Two complementary clauses per relation, in relation order: clauses
    2i and 2i+1 state relation i."""
    clauses: list[Clause] = []
    for a, b, differ in relations:
        # literals are (variable, polarity) pairs (twosat.Lit); the tests'
        # reference 2-SAT solver finds solve_parity's model
        clauses.append(((a, True), (b, differ)))
        clauses.append(((a, False), (b, not differ)))
    return tuple(clauses)


def build_pmc_formula(g: Graph, levels: BfsLevels) -> PmcEncoding:
    """Sweep the layers from deepest to the root, emitting relations.

    Per determined pair: the pair straddles the cut; every neighbor of a
    freshly determined vertex that is still undetermined sits on that
    vertex's own side.  Each trace entry names the clause ids of its
    relations (see relation_clauses).  levels is one component of g
    layered from its root (graphs.component_levels), and only that
    component is swept, each layer in the order levels lists it; the
    verdict depends on neither the root nor that order.
    """
    adj = g.adj
    determined: set[int] = set()
    trace: list[TraceEntry] = []
    relations: list[Relation] = []

    for i in range(levels.h, 0, -1):
        for v in levels.levels[i]:
            if v in determined:
                continue
            rule, partners = classify_leaf(g, levels, determined, v)
            if rule == "none":
                return PmcEncoding(g.n, None, trace, v)
            first = len(relations)
            if rule == "c2":
                u1, u2, w = partners
                relations.append((v, w, True))
                relations.append((u1, u2, True))
                anchors = (v, w, u1, u2)
            else:
                relations.append((v, partners[0], True))
                anchors = (v, *partners)
            # the anchors are distinct and were all undetermined: v sits on
            # layer i, u (or u1 != u2) on layer i-1, w on layer i-2
            determined.update(anchors)
            for anchor in anchors:
                rest = sorted(adj[anchor] - determined)
                relations += [(anchor, x, False) for x in rest]
            trace.append(TraceEntry(v, rule, partners, range(2 * first, 2 * len(relations))))
    if levels.root not in determined:
        # nothing paired the root, so no perfect pairing across the cut
        # can exist; a 2-colouring here would leave the root with zero
        # cross neighbors
        return PmcEncoding(g.n, None, trace, levels.root)
    return PmcEncoding(g.n, tuple(relations), trace, None)


def solve_parity(var_count: int, relations: Iterable[Relation]) -> tuple[bool, ...] | None:
    """2-colour the relations, or None when they hold an odd cycle.

    The smallest vertex of each component of the relations (an
    unrelated vertex alone included) is True.  That is the model the
    tests' reference 2-SAT solver (tests/twosat_reference.py) finds on
    relation_clauses.  Each relation gives a complementary clause pair,
    so the implication graph is symmetric and its strongly connected
    components are its connected ones: per component of the relations,
    the literals true together with its smallest vertex, and their
    negations (one component when the relations hold an odd cycle).
    Tarjan's search starts at the smallest vertex's positive literal
    and pops that component first, which sets the vertex True.
    """
    # each vertex's partners and differ flags, alternating in one list
    partners: list[list] = [[] for _ in range(var_count)]
    for a, b, differ in relations:
        partners[a] += (b, differ)
        partners[b] += (a, differ)
    side: list[bool | None] = [None] * var_count
    for start in range(var_count):
        if side[start] is not None:
            continue
        side[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            sv = side[v]
            pairs = iter(partners[v])
            for u, differ in zip(pairs, pairs):
                want = sv != differ
                su = side[u]
                if su is None:
                    side[u] = want
                    stack.append(u)
                elif su != want:
                    return None
    return tuple(side)


class PmcSweep(NamedTuple):
    """Every component's sweep, over the graph's own vertex ids, each
    field in connected_components order: the relations of the
    components swept to the root; the ascending vertices of each
    shallow component, whose root is adjacent to every other vertex
    (breadth-first height at most one); and the vertex that blocked
    each blocked sweep.  A shallow component is recorded, not swept,
    because that costs less: swept from its root, every such component
    but K2 would block and K2 would be paired, the verdict and
    certificate that solve_pmc_sweeps reads off the record."""

    relations: list[Relation]
    shallow: list[tuple[int, ...]]
    blocked: list[int]


def sweep_components(g: Graph, comps: Iterable[tuple[int, int]] | None = None) -> PmcSweep:
    """Sweep each component of g, or each of comps, from its lowest
    vertex into one PmcSweep; comps names components of g in
    connected_components order by their (lowest vertex, order) pairs
    (graphs.component_roots).

    Every component is swept in place on g: one level_of list serves
    all their layerings, so a component costs only its own size.
    """
    sweep = PmcSweep([], [], [])
    level_of = [-1] * g.n
    for low, order in component_roots(g) if comps is None else comps:
        if g.degree(low) == order - 1:
            # a shallow component is its root and the root's neighbours
            sweep.shallow.append(tuple(sorted((low, *g.adj[low]))))
            continue
        levels = component_levels(g, low, level_of)
        encoding = build_pmc_formula(g, levels)
        if encoding.relations is None:
            sweep.blocked.append(encoding.blocked)
        else:
            sweep.relations.extend(encoding.relations)
    return sweep


def solve_pmc_sweeps(
    g: Graph, comps: Iterable[tuple[int, int]] | None = None
) -> tuple[Cut | None, PmcSweep]:
    """A perfect matching cut of g, or None when none exists, with the
    PmcSweep of every component that the verdict is read off; comps,
    when given, are g's components as sweep_components takes them.

    Every component must admit a perfect matching cut.  A component of
    breadth-first height at most one has a universal root, and then
    only K2 has a perfect matching cut: every other neighbor of the root
    shares its side, which leaves the root's partner with no partner of
    its own.  So a blocked sweep or a shallow component other than K2
    answers NO; otherwise one parity pass reads the relations and one
    relation across each K2.  Where the K2 relations sit does not change
    the model: each relation component's smallest vertex is True.
    Complete on graphs without chordless cycles longer than four; the
    cut returned has passed check_perfect_matching_cut regardless.
    Nothing here is exhaustive: each component costs at most one
    layering and one sweep, and the graph one parity pass and one
    certificate check.
    """
    sweep = sweep_components(g, comps)
    if sweep.blocked or any(len(comp) != 2 for comp in sweep.shallow):
        return None, sweep
    k2 = ((u, v, True) for u, v in sweep.shallow)
    model = solve_parity(g.n, chain(sweep.relations, k2))
    if model is None:
        return None, sweep
    # only a broken no-long-chordless-cycle promise can make this check
    # fail; never return an invalid cut
    cut, _ = check_perfect_matching_cut(g, compress(range(g.n), model))
    return cut, sweep

"""Perfect matching cut solver for graphs without long chordless cycles.

Each component, whatever its shape, is layered by breadth-first
distance from its lowest vertex.  Sweeping the layers deepest first,
each undetermined vertex is classified by how it attaches to the layer
below; the classification names its forced cross partner and pins every
other neighbor to its own side.  Each such constraint relates two
vertices, which lie on different sides or on the same side, so the
perfect matching cuts (side X) are exactly the 2-colourings of these
relations, and one parity pass decides them.  Written as two
complementary clauses each, the same relations form the 2-CNF that
--emit-2cnf writes; the general 2-SAT solver that the tests keep as
their reference (tests/twosat_reference.py) finds the same model on it
as the parity pass.
"""

from __future__ import annotations

from itertools import compress
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .graphs import (
    BfsLevels,
    Cut,
    Graph,
    check_perfect_matching_cut,
    component_levels,
    connected_components,
)

if TYPE_CHECKING:
    from .twosat import Clause, TwoSatInstance

# (a, b, differ): a and b lie on different sides when differ is True,
# on the same side otherwise
Relation = tuple[int, int, bool]


def classify_leaf(
    g: Graph, levels: BfsLevels, determined: set[int], v: int
) -> tuple[str, tuple[int, ...]]:
    """Classify v against the undetermined part of the layer below it,
    read off adj[v] unsorted; determined holds the vertices whose cross
    partner is encoded.  Only c2, with two neighbors below, orders them.

    Returns v's rule and its partners:
    ("c1", (u,)): exactly one undetermined neighbor below, u.
    ("c2", (u1, u2, w)): exactly two, non-adjacent, with a common
        undetermined vertex w two layers down closing a chordless square.
    ("c3", (u,)): three or more, exactly one of which, u, lies in its
        own component of the undetermined part of the layer below.
    ("none", ()): no rule applies; no perfect matching cut exists.
    """
    adj = g.adj
    level_of = levels.level_of
    j = level_of[v] - 1
    below = [u for u in adj[v] if level_of[u] == j and u not in determined]
    if not below:
        return "none", ()
    if len(below) == 1:
        return "c1", (below[0],)
    if len(below) == 2:
        u1, u2 = below
        if u1 > u2:
            u1, u2 = u2, u1
        if j >= 1 and u2 not in adj[u1]:
            common = [w for w in adj[u1] & adj[u2] if level_of[w] == j - 1 and w not in determined]
            if common:
                return "c2", (u1, u2, min(common))
        return "none", ()
    open_below = [u for u in levels.levels[j] if u not in determined]
    # c lies in the open layer below, so c & adj[v] is c's share of below
    groups = [hit for c in connected_components(g, open_below) if (hit := c & adj[v])]
    if len(groups) == 2:
        single = min(groups, key=len)
        if len(single) == 1:
            return "c3", tuple(single)
    return "none", ()


class PmcEncoding(NamedTuple):
    """Sweep outcome: the relations over g's vertices, or the vertex
    that blocked the sweep (relations None)."""

    var_count: int
    relations: tuple[Relation, ...] | None
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
    vertex's own side.  Each vertex met undetermined, the blocking one
    included, is classified by one call of the module's classify_leaf.
    levels is one component of g layered from its root
    (graphs.component_levels), and only that component is swept, each
    layer in the order levels lists it; the verdict depends on neither
    the root nor that order.
    """
    adj = g.adj
    determined: set[int] = set()
    relations: list[Relation] = []

    for i in range(levels.h, 0, -1):
        for v in levels.levels[i]:
            if v in determined:
                continue
            rule, partners = classify_leaf(g, levels, determined, v)
            if rule == "none":
                return PmcEncoding(g.n, None, v)
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
                # in ascending order, sorted only when two or more
                start = len(relations)
                for x in adj[anchor]:
                    if x not in determined:
                        relations.append((anchor, x, False))
                if len(relations) - start > 1:
                    relations[start:] = sorted(relations[start:])
    if levels.root not in determined:
        # nothing paired the root, so no perfect pairing across the cut
        # can exist; a 2-colouring here would leave the root with zero
        # cross neighbors
        return PmcEncoding(g.n, None, levels.root)
    return PmcEncoding(g.n, tuple(relations), None)


def solve_parity(var_count: int, relations: Iterable[Relation]) -> tuple[bool, ...] | None:
    """2-colour the relations, or None when they hold an odd cycle.

    Each vertex keeps one list of signed partners: ~u, which is
    negative, for a partner u across a differ relation, and u for a
    same-side one; ~0 is -1, so vertex 0 stays apart from its
    complement.  The smallest vertex of each component of the relations
    (an unrelated vertex alone included) is True: the model the tests'
    reference 2-SAT solver (tests/twosat_reference.py) finds on
    relation_clauses.  Each relation gives a complementary clause pair,
    so the implication graph is symmetric and its strongly connected
    components are its connected ones; Tarjan's search starts at the
    smallest vertex's positive literal and pops that component first,
    which sets the vertex True.
    """
    partners: list[list[int]] = [[] for _ in range(var_count)]
    for a, b, differ in relations:
        partners[a].append(~b if differ else b)
        partners[b].append(~a if differ else a)
    side: list[bool | None] = [None] * var_count
    for start in range(var_count):
        if side[start] is not None:
            continue
        side[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            sv = side[v]
            for u in partners[v]:
                want = sv
                if u < 0:
                    u, want = ~u, not sv
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
    components swept to the root, and the vertex that blocked each
    blocked sweep."""

    relations: list[Relation]
    blocked: list[int]


def sweep_components(g: Graph) -> PmcSweep:
    """Sweep each component of g from its lowest vertex into one
    PmcSweep, in place on g: one level_of list serves all their
    layerings, so a component costs only its own size, and the next
    root is the lowest vertex that no layering has reached."""
    sweep = PmcSweep([], [])
    level_of = [-1] * g.n
    for root in range(g.n):
        if level_of[root] != -1:
            continue
        encoding = build_pmc_formula(g, component_levels(g, root, level_of))
        if encoding.relations is None:
            sweep.blocked.append(encoding.blocked)
        else:
            sweep.relations.extend(encoding.relations)
    return sweep


def solve_pmc_sweeps(g: Graph) -> tuple[Cut | None, PmcSweep]:
    """A perfect matching cut of g, or None when none exists, with the
    PmcSweep of every component that the verdict is read off.

    Every component must admit a perfect matching cut, so a blocked
    sweep answers NO; otherwise one parity pass reads the relations.
    Complete on graphs without chordless cycles longer than four; the
    cut returned has passed check_perfect_matching_cut regardless.
    Nothing here is exhaustive: each component costs one layering and
    one sweep, and the graph one parity pass and one certificate check.
    """
    sweep = sweep_components(g)
    if sweep.blocked:
        return None, sweep
    model = solve_parity(g.n, sweep.relations)
    if model is None:
        return None, sweep
    # only a broken no-long-chordless-cycle promise can make this check
    # fail; never return an invalid cut
    cut, _ = check_perfect_matching_cut(g, compress(range(g.n), model))
    return cut, sweep

"""Perfect matching cut solver for graphs without long chordless cycles.

The graph is layered by breadth-first distance from a root.  Sweeping
the layers deepest first, each undetermined vertex is classified by how
it attaches to the layer below; the classification names its forced
cross partner and pins every other neighbor to its own side.  The
resulting constraints form a 2-CNF formula whose models are exactly the
perfect matching cuts (side X = true variables).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import (
    BfsLevels,
    Cut,
    Graph,
    bfs_levels,
    connected_components,
    induced_subgraph,
    is_perfect_matching_cut,
    make_cut,
)
from .twosat import Clause, TwoSatInstance, neg, pos, solve_2sat


@dataclass(frozen=True)
class TraceEntry:
    """One determination step: vertex, rule kind, partners, clause ids."""

    vertex: int
    rule: str
    partners: tuple[int, ...]
    clause_ids: tuple[int, ...]


class DeterminedSet:
    """Vertices whose cross partner is already encoded, plus the trace."""

    def __init__(self) -> None:
        self._members: set[int] = set()
        self.trace: list[TraceEntry] = []

    def __contains__(self, v: int) -> bool:
        return v in self._members

    def __len__(self) -> int:
        return len(self._members)

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self._members)

    def add(self, vertices: tuple[int, ...]) -> None:
        for v in vertices:
            if v in self._members:
                raise ValueError(f"vertex {v} determined twice")
            self._members.add(v)

    def log(self, vertex: int, rule: str, partners: tuple[int, ...], clause_ids: tuple[int, ...]) -> None:
        self.trace.append(TraceEntry(vertex, rule, partners, clause_ids))


@dataclass(frozen=True)
class LeafClassification:
    """How an undetermined vertex attaches to the layer below.

    kind "c1": exactly one undetermined neighbor below (u).
    kind "c2": exactly two, non-adjacent, with a common undetermined
               vertex w two layers down closing a chordless square.
    kind "c3": three or more, exactly one of which (u) lies in its own
               component of the undetermined part of the layer below.
    kind "none": no rule applies; no perfect matching cut exists.
    """

    kind: str
    u: int | None = None
    u1: int | None = None
    u2: int | None = None
    w: int | None = None


_NONE = LeafClassification("none")


def classify_leaf(
    g: Graph, levels: BfsLevels, determined: DeterminedSet, v: int
) -> LeafClassification:
    """Classify v against the undetermined part of the layer below it."""
    i = levels.level_of[v]
    below = sorted(
        u
        for u in g.adj[v]
        if levels.level_of[u] == i - 1 and u not in determined
    )
    if not below:
        return _NONE
    if len(below) == 1:
        return LeafClassification("c1", u=below[0])
    if len(below) == 2:
        u1, u2 = below
        if i >= 2 and not g.has_edge(u1, u2):
            common = sorted(
                w
                for w in g.adj[u1] & g.adj[u2]
                if levels.level_of[w] == i - 2 and w not in determined
            )
            if common:
                return LeafClassification("c2", u1=u1, u2=u2, w=common[0])
        return _NONE
    open_below = [
        u
        for u in levels.levels[i - 1]
        if u not in determined
    ]
    comps = connected_components(g, open_below)
    comp_of = {}
    for idx, comp in enumerate(comps):
        for u in comp:
            comp_of[u] = idx
    groups: dict[int, list[int]] = {}
    for u in below:
        groups.setdefault(comp_of[u], []).append(u)
    if len(groups) == 2:
        sizes = sorted(groups.values(), key=len)
        if len(sizes[0]) == 1:
            return LeafClassification("c3", u=sizes[0][0])
    return _NONE


@dataclass(frozen=True)
class PmcEncoding:
    """Sweep outcome: a 2-CNF formula, or the vertex that blocked it."""

    formula: TwoSatInstance | None
    determined: DeterminedSet
    blocked: int | None


def build_pmc_formula(
    g: Graph, root: int, *, reverse_scan: bool = False
) -> PmcEncoding:
    """Sweep the layers from deepest to the root, emitting constraints.

    Per determined pair: the pair straddles the cut; every neighbor of a
    freshly determined vertex that is still undetermined sits on that
    vertex's own side.  reverse_scan processes each layer's vertices in
    descending id order instead of ascending (the verdict must not
    depend on it).
    """
    levels = bfs_levels(g, root)
    determined = DeterminedSet()
    clauses: list[Clause] = []

    def same_side(anchor: int) -> list[int]:
        ids = []
        for x in sorted(g.adj[anchor]):
            if x not in determined:
                ids.append(len(clauses))
                clauses.append((pos(anchor), neg(x)))
                ids.append(len(clauses))
                clauses.append((neg(anchor), pos(x)))
        return ids

    for i in range(levels.h, 0, -1):
        layer = sorted(levels.levels[i], reverse=reverse_scan)
        for v in layer:
            if v in determined:
                continue
            cls = classify_leaf(g, levels, determined, v)
            if cls.kind == "none":
                return PmcEncoding(None, determined, v)
            ids: list[int] = []
            if cls.kind in ("c1", "c3"):
                u = cls.u
                ids.extend((len(clauses), len(clauses) + 1))
                clauses.append((pos(v), pos(u)))
                clauses.append((neg(v), neg(u)))
                determined.add((v, u))
                ids.extend(same_side(v))
                ids.extend(same_side(u))
                determined.log(v, cls.kind, (u,), tuple(ids))
            else:
                u1, u2, w = cls.u1, cls.u2, cls.w
                ids.extend(range(len(clauses), len(clauses) + 4))
                clauses.append((pos(v), pos(w)))
                clauses.append((neg(v), neg(w)))
                clauses.append((pos(u1), pos(u2)))
                clauses.append((neg(u1), neg(u2)))
                determined.add((v, u1, u2, w))
                for anchor in (v, w, u1, u2):
                    ids.extend(same_side(anchor))
                determined.log(v, "c2", (u1, u2, w), tuple(ids))
    if root not in determined:
        # nothing paired the root, so no perfect pairing across the cut
        # can exist; a satisfying assignment here would leave the root
        # with zero cross neighbors
        return PmcEncoding(None, determined, root)
    return PmcEncoding(TwoSatInstance(g.n, tuple(clauses)), determined, None)


def _component_encodings(
    g: Graph, root: int | None = None, reverse_scan: bool = False
) -> Iterator[tuple[Graph, tuple[int, ...], PmcEncoding | None]]:
    """Yield (subgraph, old_ids, encoding) for each component of g.

    encoding is None for a component whose root is adjacent to every
    other vertex: its breadth-first height is at most one, which the
    sweep cannot layer.  Components are swept lazily, so a caller that
    stops early sweeps no more.
    """
    for comp in connected_components(g):
        sub, old_ids = induced_subgraph(g, comp)
        local_root = old_ids.index(root) if root in comp else 0
        if sub.degree(local_root) == sub.n - 1:
            yield sub, old_ids, None
        else:
            yield sub, old_ids, build_pmc_formula(sub, local_root, reverse_scan=reverse_scan)


def build_merged_formula(g: Graph) -> tuple[TwoSatInstance, list[int], list[int]]:
    """The 2-CNF of every component, over g's own vertex ids.

    Returns (instance, shallow, blocked): the merged clauses, the
    vertices of components too shallow for the sweep, and the vertex
    that blocked each blocked sweep; neither adds clauses.
    """
    clauses: list[Clause] = []
    shallow: list[int] = []
    blocked: list[int] = []
    for _, old_ids, encoding in _component_encodings(g):
        if encoding is None:
            shallow.extend(old_ids)
        elif encoding.formula is None:
            blocked.append(old_ids[encoding.blocked])
        else:
            for (v1, p1), (v2, p2) in encoding.formula.clauses:
                clauses.append(((old_ids[v1], p1), (old_ids[v2], p2)))
    return TwoSatInstance(g.n, tuple(clauses)), shallow, blocked


def solve_pmc_4chordal(
    g: Graph,
    *,
    root: int | None = None,
    reverse_scan: bool = False,
) -> Cut | None:
    """Find a perfect matching cut, or None when none exists.

    Components are handled independently; every component must admit a
    perfect matching cut.  A component of breadth-first height at most
    one has a universal root, and then only K2 has a perfect matching
    cut: every other neighbor of the root shares its side, which leaves
    the root's partner with no partner of its own.  Such a component is
    answered in closed form, X = its lower vertex.  root picks the
    layering root for its component (lowest vertex elsewhere); together
    with reverse_scan it varies the sweep order, which must never change
    the verdict.  Complete on graphs without chordless cycles longer
    than four; any cut returned is a valid perfect matching cut
    regardless.  Nothing here is exhaustive: each component costs at
    most one layering, one sweep and one 2-SAT solve.
    """
    if g.n < 2:
        return None
    x_all: set[int] = set()
    for sub, old_ids, encoding in _component_encodings(g, root, reverse_scan):
        if encoding is None:
            if sub.n != 2:
                return None
            x_side = frozenset({0})
        else:
            if encoding.formula is None:
                return None
            model = solve_2sat(encoding.formula)
            if model is None:
                return None
            x_side = frozenset(v for v in range(sub.n) if model[v])
            if not is_perfect_matching_cut(sub, x_side):
                # only reachable when the no-long-chordless-cycle promise
                # is broken; never return an invalid cut
                return None
        x_all.update(old_ids[v] for v in x_side)
    return make_cut(g, x_all)

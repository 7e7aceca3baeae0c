"""Seed-pair forcing for matching cuts.

Starting from a matched seed edge (a on the X side, b on the Y side),
rules R1..R5 grow the forced sides to a fixed point.  A and B hold the
cross-matched vertices; X and Y hold everything forced to a side.  On
graphs without chordless cycles longer than four, every free component
of a stable state attaches to exactly one side, which yields polynomial
solvers for matching cuts and for perfect matchings containing one.
The free components one search from Y reaches join Y, the rest X; each
cut is checked as a matching cut before _stable_seeds yields it.
solver.solve returns the first such cut for mc, and for dpm hands them
to matching.first_completion.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush
from typing import Iterator, NamedTuple

from .graphs import Cut, Graph, GraphError, check_matching_cut


class ForcingState(NamedTuple):
    """Stable outcome of rule propagation for one seed edge."""

    a: frozenset[int]
    b: frozenset[int]
    x: frozenset[int]
    y: frozenset[int]
    free: frozenset[int]


class Refutation(NamedTuple):
    """Proof that no matching cut separates the seed pair.

    rule names the refutation rule that fired; vertex is the free vertex
    it fired on.
    """

    rule: str
    vertex: int


def propagate(g: Graph, a: int, b: int) -> ForcingState | Refutation:
    """Run rules R1..R5 to a fixed point for the seed edge (a, b).

    R1: a free vertex adjacent to A and to B, or to A and twice to Y\\B,
        cannot be placed; likewise R2 with the sides swapped and R3 for
        two neighbors on each forced side.  R4/R5 place a vertex whose
        neighborhood pins it to X or Y; when it has exactly one neighbor
        on the opposite forced side outside the matched core, the pair
        joins A and B as matched partners.  Growth rules apply only when
        no refutation rule fires anywhere, and the lowest applicable
        vertex moves first.

    Cost follows what the seed touches, not n.  Each forced vertex has a
    class code: 0 for A, 1 for B, 2 for X\\A and 3 for Y\\B, so a code's
    parity is its side.  Counters per class code live only for free
    vertices next to a forced one.  After each step only the vertices
    whose counters changed are rescanned: the previous scan found
    nothing refutable, so the lowest refutable vertex is one of them.
    Placeable vertices wait in a min-heap; a vertex placeable toward a
    side stays so, and one placeable toward both is refutable, so the
    heap's lowest free entry is the vertex the rules move next.  A seed
    is refuted in O(d log d) for the d vertices it touches; only a
    surviving seed pays O(n) to build its ForcingState.
    """
    if not (0 <= a < g.n and 0 <= b < g.n) or not g.has_edge(a, b):
        raise GraphError(f"seed pair ({a}, {b}) must be an edge")
    adj = g.adj
    cls: dict[int, int] = {a: 0, b: 1}  # forced vertex -> class code
    # touched free vertex -> its neighbors per class code
    count: defaultdict[int, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    dirty: set[int] = set()
    placeable: list[int] = []  # min-heap; entries go stale once forced

    def move(v: int, old: int | None, new: int) -> None:
        # v leaves class old (None when v was free) for class new
        cls[v] = new
        for u in adj[v]:
            if u not in cls:
                c = count[u]
                if old is not None:
                    c[old] -= 1
                c[new] += 1
                dirty.add(u)

    move(a, None, 0)
    move(b, None, 1)
    while True:
        for v in sorted(dirty):
            ca, cb, cx, cy = count[v]
            if ca and (cb or cy >= 2):
                return Refutation("R1", v)
            if cb and (ca or cx >= 2):
                return Refutation("R2", v)
            if cx >= 2 and cy >= 2:
                return Refutation("R3", v)
            if ca or cb or cx >= 2 or cy >= 2:
                heappush(placeable, v)
        dirty.clear()
        while placeable and placeable[0] in cls:
            heappop(placeable)
        if not placeable:
            break
        v = heappop(placeable)
        c = count[v]
        s = 0 if c[0] or c[2] >= 2 else 1
        if c[3 - s] == 1:
            # v's one neighbor in class 3 - s is its partner; the pair
            # joins the matched core, v in A or B by its side s
            partner = next(u for u in adj[v] if cls.get(u) == 3 - s)
            move(v, None, s)
            move(partner, 3 - s, 1 - s)
        else:
            move(v, None, 2 + s)
    return ForcingState(
        a=frozenset(v for v, k in cls.items() if k == 0),
        b=frozenset(v for v, k in cls.items() if k == 1),
        x=frozenset(v for v, k in cls.items() if not k & 1),
        y=frozenset(v for v, k in cls.items() if k & 1),
        free=frozenset(v for v in range(g.n) if v not in cls),
    )


def _x_side(g: Graph, state: ForcingState) -> frozenset[int] | None:
    """X with the free vertices that one search from Y through free
    vertices leaves unreached: on a connected graph, the free components
    that see only X.  None when a reached vertex sees X, as its component
    then sees both sides, which needs a chordless cycle longer than four.
    """
    adj, x, free = g.adj, state.x, state.free
    found = list(state.y)
    reached: set[int] = set()
    for v in found:
        for u in adj[v]:
            if u in free and u not in reached:
                if not x.isdisjoint(adj[u]):
                    return None
                reached.add(u)
                found.append(u)
    return x | free.difference(reached)


def _seed_cut(g: Graph, a: int, b: int) -> Cut | None:
    """The matching cut of seed edge (a, b): None when propagation
    refutes it, a free component sees both sides (_x_side) or the cut
    fails the matching-cut check.  A seed edge on a triangle is refuted
    here without propagation (R1 would refute it): the triangle's third
    vertex lies on one side, so the edge's end on the other side would
    have two neighbors across."""
    if not g.adj[a].isdisjoint(g.adj[b]):
        return None
    state = propagate(g, a, b)
    if isinstance(state, Refutation):
        return None
    x = _x_side(g, state)
    return None if x is None else check_matching_cut(g, x)[0]


def _stable_seeds(g: Graph) -> Iterator[Cut]:
    """Yield the matching cut of each seed edge of the connected graph
    g that _seed_cut finds, in g.edges() order.  Each vertex's higher
    neighbours are read as the loop reaches it, and each seed's state
    is freed before its cut is yielded."""
    for a, nbrs in enumerate(g.adj):
        for b in sorted(nbrs):
            if a < b and (cut := _seed_cut(g, a, b)) is not None:
                yield cut

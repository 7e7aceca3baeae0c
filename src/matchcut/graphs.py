"""Immutable simple-graph core: construction, traversal, and cut predicates.

Vertices are dense integer ids 0..n-1.  A matching is represented as a
plain list of (u, v) pairs with u < v; helpers below validate the shape.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence


class GraphError(ValueError):
    """Malformed graph input or a violated precondition."""


# The oracle's bounds and refusals live here, beside GraphError, because
# every CLI call builds limits and handles refusals while most never load
# the oracle itself; matchcut.oracle re-exports all four.


class OracleLimits(NamedTuple):
    max_vertices: int = 30
    budget_seconds: float = 60.0


class OracleError(Exception):
    """Base class for oracle guard failures."""


class OracleSizeError(OracleError):
    """The instance exceeds the configured vertex bound."""


class OracleBudgetError(OracleError):
    """The wall-clock budget ran out before the search finished."""


class Graph:
    """Simple undirected graph, immutable after construction.

    Build instances through build_graph(), which validates the edge list.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[frozenset[int], ...]):
        self.n = n
        self.adj = adj

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (min, max) pairs in ascending order."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbor sets packed into integer bitmasks."""
        masks = []
        for v in range(self.n):
            mask = 0
            for u in self.adj[v]:
                mask |= 1 << u
            masks.append(mask)
        return masks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# build_graph allocates two list slots per vertex before it reads an
# edge, so graph headers and generated instances are capped first
MAX_VERTICES = 10**6

# the adjacency of every vertex without an edge
_NO_NEIGHBOURS: frozenset[int] = frozenset()


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate an edge list and return the graph it describes.

    Raises GraphError on a self-loop, a duplicate edge, or an endpoint
    outside 0..n-1.
    """
    return graph_from_ends(n, [x for u, v in edges for x in (u, v)])


def graph_from_ends(n: int, ends: Sequence[int]) -> Graph:
    """build_graph on the edges' endpoints laid end to end: edge i is
    ends[2i], ends[2i+1].

    Only a vertex with an edge gets a set of its own; the others share
    one empty frozenset.  Every adjacency set holds one int object per
    vertex id.  A simple graph has 2m adjacency entries, so the edges
    are added unchecked and walked again only when the count falls
    short or an endpoint lies out of range, to report the first fault.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    touched = set(ends)
    if touched and (min(touched) < 0 or max(touched) >= n):
        raise _first_fault(n, ends)
    # ids[v] is the int object every adjacency set holds for v, or None
    # when v has no edge
    ids: list = [None] * n
    for v in touched:
        ids[v] = v
    del touched
    adj: list = [_NO_NEIGHBOURS if v is None else set() for v in ids]
    pairs = iter(ends)
    for u, v in zip(pairs, pairs):
        adj[u].add(ids[v])
        adj[v].add(ids[u])
    if sum(map(len, adj)) != len(ends):
        raise _first_fault(n, ends)
    # frozen in place, so each set is freed as its frozenset is made and
    # the adjacency is never held twice
    for v, nbrs in enumerate(adj):
        if nbrs:
            adj[v] = frozenset(nbrs)
    return Graph(n, tuple(adj))


def _first_fault(n: int, ends: Sequence[int]) -> GraphError:
    """The error of the first edge, in input order, that is out of
    range, a self-loop or a repeat of an earlier edge."""
    seen: set[tuple[int, int]] = set()
    pairs = iter(ends)
    for u, v in zip(pairs, pairs):
        if not (0 <= u < n and 0 <= v < n):
            return GraphError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            return GraphError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return GraphError(f"duplicate edge ({u}, {v})")
        seen.add(key)
    raise AssertionError("the edges hold no fault")


def connected_components(g: Graph, subset: Iterable[int] | None = None) -> list[frozenset[int]]:
    """Components of g, or of g[subset], ordered by smallest member.

    Each component's list grows while it is read, breadth first.  Seen
    vertices are taken out of the pool of unseen ones.
    """
    adj = g.adj
    comps: list[frozenset[int]] = []
    pool = set(range(g.n) if subset is None else subset)
    for start in sorted(pool):
        if start not in pool:
            continue
        pool.discard(start)
        found = [start]
        for v in found:
            for u in adj[v]:
                if u in pool:
                    pool.discard(u)
                    found.append(u)
        comps.append(frozenset(found))
    return comps


def component_roots(g: Graph) -> Iterator[tuple[int, int]]:
    """(lowest vertex, order) of each component of g, in
    connected_components order, each walked only when it is asked for;
    seen vertices are marked in one list on g."""
    adj = g.adj
    marked = [False] * g.n
    for start in range(g.n):
        if marked[start]:
            continue
        marked[start] = True
        found = [start]
        for v in found:
            for u in adj[v]:
                if not marked[u]:
                    marked[u] = True
                    found.append(u)
        yield start, len(found)


class BfsLevels(NamedTuple):
    """Breadth-first distance layers from a root vertex, each in the
    order a pmc sweep scans it (ascending as component_levels lists
    them); level_of[v] is v's layer for v in the root's component, and
    means nothing elsewhere."""

    root: int
    level_of: Sequence[int]
    levels: tuple[tuple[int, ...], ...]

    @property
    def h(self) -> int:
        """Index of the deepest layer."""
        return len(self.levels) - 1


def component_levels(g: Graph, root: int, level_of: list[int]) -> BfsLevels:
    """Layer root's component of g by distance from root.

    level_of is a list of g.n entries, each -1 on root's component; it
    is filled in there and becomes the layering's level_of, so one list
    serves every component of a graph and each layering costs only its
    component's size.
    """
    adj = g.adj
    level_of[root] = 0
    layer = [root]
    levels: list[tuple[int, ...]] = []
    while layer:
        layer.sort()
        levels.append(tuple(layer))
        depth = len(levels)
        below: list[int] = []
        for v in layer:
            for u in adj[v]:
                if level_of[u] == -1:
                    level_of[u] = depth
                    below.append(u)
        layer = below
    return BfsLevels(root, level_of, tuple(levels))


class Cut(NamedTuple):
    """A bipartition of the vertex set with its crossing edges.

    side[v] is True when v lies in the X part.  crossing lists the edges
    with one endpoint on each side, oriented (x_vertex, y_vertex) and
    sorted ascending.
    """

    side: tuple[bool, ...]
    crossing: tuple[tuple[int, int], ...]

    @property
    def x(self) -> frozenset[int]:
        return frozenset(v for v, s in enumerate(self.side) if s)

    @property
    def y(self) -> frozenset[int]:
        return frozenset(v for v, s in enumerate(self.side) if not s)


def _walk_cut(
    g: Graph, x_side: Iterable[int], low: int, high: int
) -> tuple[Cut | None, int | None]:
    """The cut with X = x_side, built in one ascending pass over the
    vertices.  A vertex of x_side outside g raises GraphError; an empty
    side gives (None, None); otherwise the walk gives (None, v) for the
    first vertex v whose cross degree lies outside low..high.

    A vertex of X has its cross neighbors in adj[v] - x, a vertex of Y
    in adj[v] & x.  The X vertices come in ascending order, and each
    one's pairs are sorted when there are two or more (a lone pair, as
    in a perfect matching cut, is not), so the crossing list is sorted.
    """
    x = set(x_side)
    side = tuple(map(x.__contains__, range(g.n)))
    if sum(side) != len(x):
        raise GraphError("cut side contains an unknown vertex")
    if not x or len(x) == g.n:
        return None, None
    adj = g.adj
    crossing: list[tuple[int, int]] = []
    for v, in_x in enumerate(side):
        if in_x:
            across = adj[v] - x
            if not low <= len(across) <= high:
                return None, v
            if len(across) == 1:
                (u,) = across
                crossing.append((v, u))
            elif across:
                crossing += [(v, u) for u in sorted(across)]
        elif not low <= len(adj[v] & x) <= high:
            return None, v
    return Cut(side, tuple(crossing)), None


def make_cut(g: Graph, x_side: Iterable[int]) -> Cut:
    """Build the cut with X = x_side; both parts must be non-empty."""
    cut, _ = _walk_cut(g, x_side, 0, g.n)
    if cut is None:
        raise GraphError("both sides of a cut must be non-empty")
    return cut


def check_matching_cut(g: Graph, x_side: Iterable[int]) -> tuple[Cut | None, int | None]:
    """Test whether the bipartition (x_side, rest) is a matching cut.

    Every vertex may have at most one neighbor across the cut.  Returns
    (cut, None) on success and (None, witness) on failure, where witness
    is the smallest vertex with two cross neighbors, or None when the
    failure is an empty side.
    """
    return _walk_cut(g, x_side, 0, 1)


def check_perfect_matching_cut(g: Graph, x_side: Iterable[int]) -> tuple[Cut | None, int | None]:
    """Test whether the bipartition is a perfect matching cut.

    Every vertex must have exactly one neighbor across the cut.  Same
    return convention as check_matching_cut; the witness is the smallest
    vertex whose cross degree differs from one.
    """
    return _walk_cut(g, x_side, 1, 1)


def is_matching(edges: Iterable[tuple[int, int]]) -> bool:
    """True when no vertex is repeated across the edge list."""
    seen: set[int] = set()
    for u, v in edges:
        if u == v or u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def is_perfect_matching(g: Graph, matching: Iterable[tuple[int, int]]) -> bool:
    """True when the edges form a matching of g covering every vertex."""
    edges = list(matching)
    for u, v in edges:
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            raise GraphError(f"({u}, {v}) is not an edge of the graph")
    return is_matching(edges) and 2 * len(edges) == g.n


def part_without(g: Graph, matching: Iterable[tuple[int, int]]) -> list[int]:
    """The vertices vertex 0 reaches in g without the matching's edges:
    one breadth-first search that skips each vertex's matched edge."""
    mate = [-1] * g.n
    for u, v in matching:
        mate[u], mate[v] = v, u
    adj = g.adj
    marked = [False] * g.n
    marked[0] = True
    found = [0]
    for v in found:
        for u in adj[v]:
            if not marked[u] and u != mate[v]:
                marked[u] = True
                found.append(u)
    return found


def is_disconnected_perfect_matching(g: Graph, matching: Iterable[tuple[int, int]]) -> bool:
    """True when the matching is perfect and removing its edges disconnects g."""
    edges = list(matching)
    if not is_perfect_matching(g, edges) or g.n == 0:
        return False
    return len(part_without(g, edges)) < g.n

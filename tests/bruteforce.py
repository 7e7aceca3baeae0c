"""Independent brute-force reference implementations for the test suite.

Everything here recomputes answers from first principles, sharing no
search logic with the package under test: bipartition scans instead of
pruned backtracking, subset scans instead of bitmask DFS, and explicit
enumeration instead of augmenting paths.  Ten references are kept as
specifications instead: propagate_reference, the plain sorted-rescan
form of the forcing loop that the incremental forcing.propagate must
match; split_free_vertices, the free-side split that lists every free
component of a stable seed and the sides each one touches, whose X
sides and skipped seeds the one search from Y in forcing._stable_seeds
must reproduce on connected graphs;
random_connected_4chordal_reference, the generator that checks every
square splice with the exhaustive oracle cycle search, whose output
the one-search splice check must reproduce;
find_dpm_reference, the dpm search that lists perfect matchings until
one disconnects, whose answer oracle.find_dpm must reproduce after
deciding by matching cuts; sweep_components_reference, the pmc
component sweep made on induced copies, whose merged PmcSweep the
in-place pmc.sweep_components must reproduce, ids included;
build_pmc_formula_reference, the pmc sweep that keeps its determined
vertices in a DeterminedSet class and refuses to determine one twice,
whose relations, blocked vertex and trace the plain-set sweep of
pmc.build_pmc_formula must reproduce, with bfs_levels, which layers a
connected graph for either sweep and refuses any other; cut_reference,
the per-edge cut builder whose cuts and witnesses the one-pass
certificate predicates must reproduce; solve_dpm_reference, the
4-chordal dpm seed loop that pairs the matched core's A-B partners and
matches the rest, whose certificates the completion of each seed's cut
by matching.perfect_matching_through must reproduce;
maximum_matching_reference, the blossom search that marks with an
n-entry list per blossom, whose pairs the set-marking
matching.maximum_matching must reproduce; and
perfect_matching_through_reference, the completion of a matching cut
that matches an induced copy of the graph without the crossing ends,
whose pairs matching.perfect_matching_through, searching in the
graph's own ids, must reproduce.  induced_subgraph, which builds those
copies, lives here too: the package itself never copies a graph; so
does is_connected, which no command runs.  Last come the five oracle
searches as they were first written, recursing once per vertex they
place: enumerate_pruned_recursive, perfect_matchings_recursive,
longest_induced_path_recursive, longest_induced_cycle_recursive and
contains_induced_recursive, whose outputs and deadline ticks the loops
of matchcut.oracle must reproduce.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations, product
from typing import Iterator

from matchcut import Cut, Graph, GraphError, build_graph, oracle
from matchcut.forcing import ForcingState, Refutation, propagate
from matchcut.graphs import (
    BfsLevels,
    component_levels,
    connected_components,
    make_cut,
    part_without,
)
from matchcut.matching import has_perfect_matching, maximum_matching
from matchcut.oracle import DEFAULT_LIMITS, OracleLimits, _Deadline, _guard
from matchcut.pmc import (
    PmcEncoding,
    PmcSweep,
    Relation,
    TraceEntry,
    build_pmc_formula,
)


def induced_subgraph(g: Graph, subset) -> tuple[Graph, tuple[int, ...]]:
    """Materialize g[subset] with dense ids.

    Returns (subgraph, old_ids) where old_ids[new] is the original id;
    ids are remapped in ascending order.
    """
    old_ids = tuple(sorted(set(subset)))
    if old_ids and not (0 <= old_ids[0] and old_ids[-1] < g.n):
        raise GraphError("subset vertex out of range")
    new_of = {old: new for new, old in enumerate(old_ids)}
    keep = set(old_ids)
    edges = [
        (new_of[u], new_of[v])
        for u in old_ids
        for v in g.adj[u]
        if u < v and v in keep
    ]
    return build_graph(len(old_ids), edges), old_ids


def is_connected(g: Graph) -> bool:
    return g.n == 0 or len(part_without(g, ())) == g.n


def perfect_matching_through_reference(g: Graph, cut: Cut) -> list[tuple[int, int]] | None:
    """matching.perfect_matching_through on a copy: g without the
    crossing ends is built as its own graph, matched, and its pairs are
    mapped back to g's ids."""
    if (sum(cut.side) - len(cut.crossing)) % 2:
        return None
    ends = {v for edge in cut.crossing for v in edge}
    rest, old_ids = induced_subgraph(g, (v for v in range(g.n) if v not in ends))
    inner = maximum_matching(rest)
    if 2 * len(inner) != rest.n:
        return None
    pairs = [(old_ids[u], old_ids[v]) for u, v in inner]
    return sorted(pairs + [(min(edge), max(edge)) for edge in cut.crossing])


def cross_degrees(g: Graph, x: set[int]) -> list[int]:
    return [sum((u in x) != (v in x) for u in g.adj[v]) for v in range(g.n)]


def cut_reference(g: Graph, x_side, low: int, high: int) -> tuple[Cut | None, int | None]:
    """The cut with X = x_side when every vertex has low..high neighbors
    across it, else (None, w) for the smallest vertex w that has not;
    (None, None) when a side is empty.  Each edge of g.edges() is looked
    at once, and the crossing list is sorted at the end."""
    x = set(x_side)
    if not x or len(x) == g.n:
        return None, None
    degree = [0] * g.n
    crossing = []
    for u, v in g.edges():
        if (u in x) != (v in x):
            degree[u] += 1
            degree[v] += 1
            crossing.append((u, v) if u in x else (v, u))
    for v in range(g.n):
        if not low <= degree[v] <= high:
            return None, v
    return Cut(tuple(v in x for v in range(g.n)), tuple(sorted(crossing))), None


def sweep_components_reference(g: Graph, comps=None) -> PmcSweep:
    """The pmc component sweep made on copies: a component that is not
    all of g is swept from its lowest vertex on its induced subgraph,
    with ids renumbered in ascending order, and its relations and
    blocked vertex are mapped back to g's ids before they join the
    merged record."""
    out = PmcSweep([], [], [])
    for comp in connected_components(g) if comps is None else comps:
        if len(comp) == g.n:
            sub, old_ids = g, range(g.n)
        else:
            sub, old_ids = induced_subgraph(g, comp)
        if sub.degree(0) == sub.n - 1:
            out.shallow.append(tuple(old_ids))
            continue
        encoding = build_pmc_formula(sub, bfs_levels(sub, 0))
        if encoding.relations is None:
            out.blocked.append(old_ids[encoding.blocked])
        else:
            out.relations.extend((old_ids[a], old_ids[b], d) for a, b, d in encoding.relations)
    return out


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

    def undetermined(self, vertices: frozenset[int]) -> frozenset[int]:
        """The vertices among vertices that are not determined yet."""
        return vertices - self._members

    def add(self, vertices: tuple[int, ...]) -> None:
        for v in vertices:
            if v in self._members:
                raise ValueError(f"vertex {v} determined twice")
            self._members.add(v)

    def log(self, vertex: int, rule: str, partners: tuple[int, ...], clause_ids: range) -> None:
        self.trace.append(TraceEntry(vertex, rule, partners, clause_ids))


def classify_leaf_reference(
    g: Graph, levels: BfsLevels, determined: DeterminedSet, v: int
) -> tuple[str, tuple[int, ...]]:
    """Classify v against the undetermined part of the layer below it,
    as a (rule, partners) pair."""
    level_of = levels.level_of
    i = level_of[v]
    below = sorted(u for u in determined.undetermined(g.adj[v]) if level_of[u] == i - 1)
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
            return "c3", (sizes[0][0],)
    return "none", ()


def bfs_levels(g: Graph, root: int) -> BfsLevels:
    """Layer the graph by distance from root; every vertex must be reachable."""
    if not (0 <= root < g.n):
        raise GraphError(f"root {root} out of range")
    level_of = [-1] * g.n
    levels = component_levels(g, root, level_of).levels
    if sum(map(len, levels)) != g.n:
        raise GraphError("graph is disconnected; every vertex must be reachable from the root")
    return BfsLevels(root, tuple(level_of), levels)


def reversed_layers(levels: BfsLevels) -> BfsLevels:
    """The same layering with each layer listed in reverse, so that a pmc
    sweep scans every layer in the opposite order."""
    return levels._replace(levels=tuple(layer[::-1] for layer in levels.levels))


def build_pmc_formula_reference(
    g: Graph, root: int, *, reverse_scan: bool = False, levels: BfsLevels | None = None
) -> PmcEncoding:
    """The pmc sweep with its determined vertices kept in a DeterminedSet
    that refuses to determine a vertex twice and logs the trace; its
    encoding carries that set's trace."""
    if levels is None:
        levels = bfs_levels(g, root)
    adj = g.adj
    determined = DeterminedSet()
    relations: list[Relation] = []

    for i in range(levels.h, 0, -1):
        layer = levels.levels[i]
        for v in reversed(layer) if reverse_scan else layer:
            if v in determined:
                continue
            rule, partners = classify_leaf_reference(g, levels, determined, v)
            if rule == "none":
                return PmcEncoding(g.n, None, determined.trace, v)
            first = len(relations)
            if rule in ("c1", "c3"):
                (u,) = partners
                relations.append((v, u, True))
                anchors = (v, u)
            else:
                u1, u2, w = partners
                relations.append((v, w, True))
                relations.append((u1, u2, True))
                anchors = (v, w, u1, u2)
            determined.add(anchors)
            for anchor in anchors:
                rest = sorted(determined.undetermined(adj[anchor]))
                relations += [(anchor, x, False) for x in rest]
            # one step's relations are contiguous
            determined.log(v, rule, partners, range(2 * first, 2 * len(relations)))
    if root not in determined:
        return PmcEncoding(g.n, None, determined.trace, root)
    return PmcEncoding(g.n, tuple(relations), determined.trace, None)


def all_matching_cuts(g: Graph) -> list[frozenset[int]]:
    """Every matching cut as the side containing vertex 0."""
    out = []
    for bits in range(2 ** (g.n - 1)):
        x = {0} | {v for v in range(1, g.n) if bits >> (v - 1) & 1}
        if len(x) == g.n:
            continue
        if all(d <= 1 for d in cross_degrees(g, x)):
            out.append(frozenset(x))
    return out


def all_bipartitions(g: Graph) -> list[Cut]:
    """Every nontrivial bipartition once, vertex 0 on the X side, in
    lexicographic order of the side vector."""
    n = g.n
    if n < 2:
        return []
    out = []
    for k in range(1, 1 << (n - 1)):
        # k's bits mark Y vertices, high bit first, so k ascending is
        # lexicographic on the side vector
        x = {0} | {v for v in range(1, n) if (k >> (n - 1 - v)) & 1 == 0}
        out.append(make_cut(g, x))
    return out


def all_perfect_matching_cuts(g: Graph) -> list[frozenset[int]]:
    out = []
    for x in all_matching_cuts(g):
        if all(d == 1 for d in cross_degrees(g, set(x))):
            out.append(x)
    return out


def has_mc(g: Graph) -> bool:
    return bool(all_matching_cuts(g))


def has_pmc(g: Graph) -> bool:
    return bool(all_perfect_matching_cuts(g))


def perfect_matchings(g: Graph) -> list[frozenset[tuple[int, int]]]:
    """All perfect matchings, found by scanning edge subsets."""
    if g.n % 2:
        return []
    edges = list(g.edges())
    out = []
    for chosen in combinations(edges, g.n // 2):
        covered = [v for e in chosen for v in e]
        if len(set(covered)) == g.n:
            out.append(frozenset(chosen))
    return out


def removal_disconnects(g: Graph, matching) -> bool:
    dropped = {frozenset(e) for e in matching}
    kept = [e for e in g.edges() if frozenset(e) not in dropped]
    return not is_connected(build_graph(g.n, kept))


def has_dpm(g: Graph) -> bool:
    return any(removal_disconnects(g, m) for m in perfect_matchings(g))


def find_dpm_reference(g: Graph, limits: OracleLimits | None = None):
    """The first perfect matching, in oracle.perfect_matchings order,
    whose removal disconnects g, with the cut around the part vertex 0
    still reaches; None when there is none."""
    n = g.n
    if n == 0:
        return None
    masks = g.adjacency_masks()
    full = (1 << n) - 1
    for matching in oracle.perfect_matchings(g, limits):
        # neighbours without the matched partner, as bitmasks
        rest = masks[:]
        for u, v in matching:
            rest[u] ^= 1 << v
            rest[v] ^= 1 << u
        # grow vertex 0's part of g minus the matching a layer at a time
        seen = frontier = 1
        while frontier and seen != full:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= rest[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
        if seen != full:
            return matching, make_cut(g, (v for v in range(n) if seen >> v & 1))
    return None


def max_matching_size(g: Graph) -> int:
    edges = list(g.edges())
    best = 0

    def rec(idx: int, used: frozenset[int], count: int) -> None:
        nonlocal best
        best = max(best, count)
        for i in range(idx, len(edges)):
            u, v = edges[i]
            if u not in used and v not in used:
                rec(i + 1, used | {u, v}, count + 1)

    rec(0, frozenset(), 0)
    return best


def maximum_matching_reference(g: Graph) -> list[tuple[int, int]]:
    """matching.maximum_matching with a list of n marks per blossom, in
    lca and in the contraction, where the package marks in sets; the
    pairs must be the same."""
    n = g.n
    adj = [sorted(g.adj[v]) for v in range(n)]
    mate = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    touched: list[int] = []  # vertices the current search has written

    def lca(a: int, b: int) -> int:
        marked = [False] * n
        v = a
        while True:
            v = base[v]
            marked[v] = True
            if mate[v] == -1:
                break
            v = parent[mate[v]]
        v = b
        while True:
            v = base[v]
            if marked[v]:
                return v
            v = parent[mate[v]]

    def mark_path(v: int, stem: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != stem:
            in_blossom[base[v]] = True
            in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def find_augmenting_path(root: int) -> int:
        # undo only what the previous search wrote: it recorded each
        # vertex it marked used or gave a parent, and it rewrites the
        # parent or base of tree vertices alone
        for v in touched:
            used[v] = False
            parent[v] = -1
            base[v] = v
        touched.clear()
        used[root] = True
        touched.append(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    # odd cycle found: shrink the blossom around its stem
                    stem = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, stem, to, in_blossom)
                    mark_path(to, stem, v, in_blossom)
                    # only vertices of this search's tree can lie in
                    # the blossom; visit them in ascending id order
                    for i in sorted(set(touched)):
                        if in_blossom[base[i]]:
                            base[i] = stem
                            if not used[i]:
                                used[i] = True
                                touched.append(i)
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    touched.append(to)
                    if mate[to] == -1:
                        return to
                    used[mate[to]] = True
                    touched.append(mate[to])
                    queue.append(mate[to])
        return -1

    for seed in range(n):
        if mate[seed] != -1:
            continue
        end = find_augmenting_path(seed)
        if end == -1:
            continue
        while end != -1:
            prev = parent[end]
            nxt = mate[prev]
            mate[end] = prev
            mate[prev] = end
            end = nxt

    return sorted((v, mate[v]) for v in range(n) if mate[v] > v)


def longest_induced_path(g: Graph) -> int:
    """Longest induced path in vertices, by induced-subgraph scan."""
    best = 1 if g.n else 0
    for k in range(2, g.n + 1):
        hit = False
        for sub in combinations(range(g.n), k):
            sg, _ = induced_subgraph(g, sub)
            degs = sorted(sg.degree(v) for v in range(k))
            if degs == [1, 1] + [2] * (k - 2) and is_connected(sg):
                hit = True
                break
        if hit:
            best = k
    return best


def longest_induced_cycle(g: Graph) -> int | None:
    best = None
    for k in range(3, g.n + 1):
        for sub in combinations(range(g.n), k):
            sg, _ = induced_subgraph(g, sub)
            if all(sg.degree(v) == 2 for v in range(k)) and is_connected(sg):
                best = k
                break
    return best


def solve_2sat(var_count: int, clauses) -> tuple[bool, ...] | None:
    for bits in product((False, True), repeat=var_count):
        if all(
            bits[v1] == p1 or bits[v2] == p2
            for (v1, p1), (v2, p2) in clauses
        ):
            return bits
    return None


def one_in_three_assignments(var_count: int, clauses) -> list[tuple[bool, ...]]:
    out = []
    for bits in product((False, True), repeat=var_count):
        if all(sum(bits[v] for v in c) == 1 for c in clauses):
            out.append(bits)
    return out


def is_induced_path_sequence(g: Graph, seq) -> bool:
    if len(set(seq)) != len(seq) or not seq:
        return False
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if g.has_edge(seq[i], seq[j]) != (j == i + 1):
                return False
    return True


def is_induced_cycle_sequence(g: Graph, seq) -> bool:
    k = len(seq)
    if len(set(seq)) != k or k < 3:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            expect = j == i + 1 or (i == 0 and j == k - 1)
            if g.has_edge(seq[i], seq[j]) != expect:
                return False
    return True


def propagate_reference(g: Graph, a: int, b: int) -> ForcingState | Refutation:
    """Run rules R1..R5 to a fixed point for the seed edge (a, b).

    R1: a free vertex adjacent to A and to B, or to A and twice to Y\\B,
        cannot be placed; likewise R2 with the sides swapped and R3 for
        two neighbors on each forced side.  R4/R5 place a vertex whose
        neighborhood pins it to X or Y; when it has exactly one neighbor
        on the opposite forced side outside the matched core, the pair
        joins A and B as matched partners.  Growth rules apply only when
        no refutation rule fires anywhere, and the lowest applicable
        vertex moves first.
    """
    if not (0 <= a < g.n and 0 <= b < g.n) or not g.has_edge(a, b):
        raise GraphError(f"seed pair ({a}, {b}) must be an edge")
    in_a = [False] * g.n
    in_b = [False] * g.n
    side = [-1] * g.n  # 0 for X, 1 for Y
    in_a[a] = in_b[b] = True
    side[a] = 0
    side[b] = 1
    free = set(range(g.n)) - {a, b}
    # per free vertex: neighbors in A, in B, in X\A, in Y\B
    na = [0] * g.n
    nb = [0] * g.n
    nx = [0] * g.n
    ny = [0] * g.n
    for v in g.adj[a]:
        na[v] += 1
    for v in g.adj[b]:
        nb[v] += 1

    def place(v: int, s: int) -> None:
        free.discard(v)
        side[v] = s
        counter = nx if s == 0 else ny
        for u in g.adj[v]:
            if side[u] == -1:
                counter[u] += 1

    def match_pair(v: int, w: int) -> None:
        # v on the X side joins A, its unique cross partner w joins B
        in_a[v] = True
        in_b[w] = True
        for u in g.adj[v]:
            if side[u] == -1:
                nx[u] -= 1
                na[u] += 1
        for u in g.adj[w]:
            if side[u] == -1:
                ny[u] -= 1
                nb[u] += 1

    while True:
        for v in sorted(free):
            if na[v] and (nb[v] or ny[v] >= 2):
                return Refutation("R1", v)
            if nb[v] and (na[v] or nx[v] >= 2):
                return Refutation("R2", v)
            if nx[v] >= 2 and ny[v] >= 2:
                return Refutation("R3", v)
        for v in sorted(free):
            if na[v] or nx[v] >= 2:
                partner = -1
                if ny[v] == 1:
                    partner = next(
                        u for u in g.adj[v] if side[u] == 1 and not in_b[u]
                    )
                place(v, 0)
                if partner != -1:
                    match_pair(v, partner)
                break
            if nb[v] or ny[v] >= 2:
                partner = -1
                if nx[v] == 1:
                    partner = next(
                        u for u in g.adj[v] if side[u] == 0 and not in_a[u]
                    )
                place(v, 1)
                if partner != -1:
                    match_pair(partner, v)
                break
        else:
            return ForcingState(
                a=frozenset(v for v in range(g.n) if in_a[v]),
                b=frozenset(v for v in range(g.n) if in_b[v]),
                x=frozenset(v for v in range(g.n) if side[v] == 0),
                y=frozenset(v for v in range(g.n) if side[v] == 1),
                free=frozenset(free),
            )


def split_free_vertices(
    g: Graph, state: ForcingState
) -> tuple[frozenset[int] | None, frozenset[int] | None, frozenset[int] | None]:
    """Assign each free component to the side it attaches to.

    Returns (f_x, f_y, None) when every free component has neighbors on
    only one forced side, and (None, None, component) for the first
    component seeing both sides.  Components seeing both sides cannot
    occur when the graph has no chordless cycle longer than four.

    Every free component of a connected graph has a forced neighbor; one
    without shows that g is disconnected (GraphError), so all of them
    are looked at before a mixed one is reported.
    """
    f_x: set[int] = set()
    f_y: set[int] = set()
    mixed = None
    for comp in connected_components(g, state.free):
        touches_x = any(u in state.x for v in comp for u in g.adj[v])
        touches_y = any(u in state.y for v in comp for u in g.adj[v])
        if not (touches_x or touches_y):
            raise GraphError("free-side split requires a connected graph")
        if touches_x and touches_y:
            if mixed is None:
                mixed = comp
        elif touches_y:
            f_y |= comp
        else:
            f_x |= comp
    if mixed is not None:
        return None, None, mixed
    return frozenset(f_x), frozenset(f_y), None


def solve_dpm_reference(g: Graph) -> tuple[list[tuple[int, int]], Cut] | None:
    """The first seed edge, in g.edges() order, whose propagation is not
    refuted, whose free components each attach to one side, and whose
    vertices outside the matched core are perfectly matchable; the
    matching adds each A vertex's partner in B, and the cut is
    state.x | f_x.  None when there is no such seed."""
    if not is_connected(g):
        raise GraphError("disconnected-perfect-matching search requires a connected graph")
    if g.n % 2 or not has_perfect_matching(g):
        return None
    for a, b in g.edges():
        state = propagate(g, a, b)
        if isinstance(state, Refutation):
            continue
        f_x, _, mixed = split_free_vertices(g, state)
        if mixed is not None:
            continue
        rest = sorted(set(range(g.n)) - state.a - state.b)
        sub, old_ids = induced_subgraph(g, rest)
        inner = maximum_matching(sub)
        if 2 * len(inner) != sub.n:
            continue
        matching = [(old_ids[u], old_ids[v]) for u, v in inner]
        for v in sorted(state.a):
            partner = sorted(u for u in g.adj[v] if u in state.b)
            # each matched-core vertex has exactly one partner across
            matching.append((min(v, partner[0]), max(v, partner[0])))
        return sorted(matching), make_cut(g, state.x | f_x)
    return None


def random_connected_4chordal_reference(
    rng: random.Random,
    n: int,
    *,
    clique_growth: float = 0.45,
    square_chance: float = 0.25,
    limits: OracleLimits | None = None,
) -> Graph:
    """Sample a connected n-vertex graph with all chordless cycles short.

    Deterministic for a given rng state.  clique_growth tunes density;
    square_chance is the per-vertex probability of attempting a
    chordless-square splice (verified, reverted on failure).
    """
    if n < 1:
        raise GraphError("need at least one vertex")
    if limits is None:
        # splice checks must be able to see the whole instance
        limits = OracleLimits(
            max_vertices=max(n, DEFAULT_LIMITS.max_vertices),
            budget_seconds=DEFAULT_LIMITS.budget_seconds,
        )
    adj: list[set[int]] = [set() for _ in range(n)]

    def add_edge(u: int, v: int) -> None:
        adj[u].add(v)
        adj[v].add(u)

    def snapshot() -> Graph:
        return build_graph(
            n, [(u, v) for u in range(n) for v in adj[u] if u < v]
        )

    def attach_to_clique(v: int) -> None:
        anchor = rng.randrange(v)
        clique = [anchor]
        candidates = set(adj[anchor]) & set(range(v))
        while candidates and rng.random() < clique_growth:
            w = rng.choice(sorted(candidates))
            clique.append(w)
            candidates &= adj[w]
        for w in clique:
            add_edge(v, w)

    def try_square(v: int) -> bool:
        # attach v to a non-adjacent pair sharing a neighbor, creating a
        # chordless square; verify no longer chordless cycle appeared
        pairs = [
            (x, z)
            for x in range(v)
            for z in range(x + 1, v)
            if z not in adj[x] and (adj[x] & adj[z] & set(range(v)))
        ]
        if not pairs:
            return False
        x, z = pairs[rng.randrange(len(pairs))]
        add_edge(v, x)
        add_edge(v, z)
        built = build_graph(
            v + 1, [(a, b) for a in range(v + 1) for b in adj[a] if a < b]
        )
        cycle = oracle.longest_induced_cycle(built, limits)
        if cycle is not None and cycle > 4:
            adj[v].discard(x)
            adj[v].discard(z)
            adj[x].discard(v)
            adj[z].discard(v)
            return False
        return True

    for v in range(1, n):
        if v >= 3 and rng.random() < square_chance and try_square(v):
            continue
        attach_to_clique(v)
    return snapshot()


# The oracle's five searches as they were written first, recursing once
# per vertex they place, with self-referencing closures.  The loops in
# matchcut.oracle must reproduce their outputs and their deadline ticks.


def enumerate_pruned_recursive(g: Graph, perfect: bool, deadline: _Deadline) -> Iterator[Cut]:
    """Yield each cut in lexicographic order of the side vector; a graph
    of fewer than two vertices has none."""
    n = g.n
    if n < 2:
        return
    adj = [sorted(g.adj[v]) for v in range(n)]
    side = [-1] * n
    cross = [0] * n
    open_nbrs = [g.degree(v) for v in range(n)]

    def assign(v: int, s: int, trail: list[int]) -> bool:
        side[v] = s
        trail.append(v)
        for u in adj[v]:
            open_nbrs[u] -= 1
            su = side[u]
            if su != -1 and su != s:
                cross[u] += 1
                cross[v] += 1
        if cross[v] >= 2:
            return False
        if perfect and open_nbrs[v] == 0 and cross[v] == 0:
            return False
        for u in adj[v]:
            su = side[u]
            if su != -1:
                if cross[u] >= 2:
                    return False
                if perfect and open_nbrs[u] == 0 and cross[u] == 0:
                    return False
        return True

    def assign_forced(v: int, s: int, trail: list[int]) -> bool:
        # propagate the single-cross rule: once an assigned vertex has a
        # cross neighbor, its remaining neighbors must join its own side
        if not assign(v, s, trail):
            return False
        queue = [v] + [u for u in adj[v] if side[u] != -1]
        while queue:
            deadline.check()
            u = queue.pop()
            su = side[u]
            if cross[u] == 1 and open_nbrs[u] > 0:
                for w in adj[u]:
                    if side[w] == -1:
                        if not assign(w, su, trail):
                            return False
                        queue.append(w)
                        queue.extend(t for t in adj[w] if side[t] != -1)
            elif perfect and cross[u] == 0 and open_nbrs[u] == 1:
                w = next(t for t in adj[u] if side[t] == -1)
                if not assign(w, 1 - su, trail):
                    return False
                queue.append(w)
                queue.extend(t for t in adj[w] if side[t] != -1)
        return True

    def undo(trail: list[int]) -> None:
        while trail:
            v = trail.pop()
            s = side[v]
            side[v] = -1
            cross[v] = 0
            for u in adj[v]:
                open_nbrs[u] += 1
                if side[u] != -1 and side[u] != s:
                    cross[u] -= 1

    def search() -> Iterator[Cut]:
        deadline.check()
        v = next((u for u in range(n) if side[u] == -1), -1)
        if v == -1:
            if any(s == 1 for s in side):
                yield make_cut(g, {u for u in range(n) if side[u] == 0})
            return
        for s in (0, 1):
            trail: list[int] = []
            if assign_forced(v, s, trail):
                yield from search()
            undo(trail)

    if assign_forced(0, 0, []):
        yield from search()


def perfect_matchings_recursive(
    g: Graph, limits: OracleLimits | None = None
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield every perfect matching as a sorted tuple of (min, max) pairs.

    Backtracks over the lowest uncovered vertex, so output order is
    lexicographic on the partner choices.
    """
    deadline = _guard(g, limits)
    n = g.n
    if n % 2:
        return
    adj = [sorted(g.adj[v]) for v in range(n)]
    mate = [-1] * n
    chosen: list[tuple[int, int]] = []

    def extend(v: int) -> Iterator[tuple[tuple[int, int], ...]]:
        # v is the lowest unmatched vertex, n once every vertex is matched
        if v == n:
            yield tuple(chosen)
            return
        for u in adj[v]:
            if mate[u] == -1:
                mate[v], mate[u] = u, v
                chosen.append((v, u))
                deadline.check()
                w = v + 1
                while w < n and mate[w] != -1:
                    w += 1
                yield from extend(w)
                chosen.pop()
                mate[v] = mate[u] = -1

    deadline.check()
    yield from extend(0)


def longest_induced_path_recursive(g: Graph, limits: OracleLimits | None = None) -> int:
    """Vertex count of a longest induced path (0 for the empty graph)."""
    deadline = _guard(g, limits)
    n = g.n
    if n == 0:
        return 0
    masks = g.adjacency_masks()
    full = (1 << n) - 1
    best = 1

    def extend(tip: int, length: int, allowed: int) -> bool:
        nonlocal best
        if length > best:
            best = length
            if best == n:
                return True
        cands = masks[tip] & allowed
        while cands:
            bit = cands & -cands
            cands ^= bit
            w = bit.bit_length() - 1
            nxt = allowed & ~masks[tip] & ~bit
            if length + 1 + nxt.bit_count() <= best:
                continue
            deadline.check()
            if extend(w, length + 1, nxt):
                return True
        return False

    for s in range(n):
        if extend(s, 1, full & ~(1 << s)):
            break
    return best


def longest_induced_cycle_recursive(g: Graph, limits: OracleLimits | None = None) -> int | None:
    """Vertex count of a longest induced cycle, or None when g is acyclic."""
    deadline = _guard(g, limits)
    n = g.n
    masks = g.adjacency_masks()
    best = 0

    def extend(s: int, tip: int, length: int, allowed: int, first: int) -> None:
        nonlocal best
        if length + allowed.bit_count() <= best:
            return
        cands = masks[tip] & allowed
        closers = cands & masks[s]
        while closers:
            bit = closers & -closers
            closers ^= bit
            w = bit.bit_length() - 1
            # w > first keeps one traversal direction per cycle
            if w > first and length + 1 > best:
                best = length + 1
        ext = cands & ~masks[s]
        while ext:
            bit = ext & -ext
            ext ^= bit
            w = bit.bit_length() - 1
            deadline.check()
            extend(s, w, length + 1, allowed & ~masks[tip] & ~bit, first)

    for s in range(n):
        higher = ((1 << n) - 1) & ~((1 << (s + 1)) - 1)
        starts = masks[s] & higher
        while starts:
            bit = starts & -starts
            starts ^= bit
            v1 = bit.bit_length() - 1
            extend(s, v1, 2, higher & ~bit, v1)
    return best if best else None


def contains_induced_recursive(
    g: Graph, pattern: Graph, limits: OracleLimits | None = None
) -> bool:
    """True when g has an induced subgraph isomorphic to pattern.

    Backtracks over pattern vertices component by component (largest
    component first), each ordered layer by layer from its lowest vertex.
    Runs of structurally identical path components are deduplicated by
    requiring their images to appear in ascending order.
    """
    deadline = _guard(g, limits)
    if pattern.n == 0:
        return True
    if pattern.n > g.n:
        return False

    comps = sorted(
        connected_components(pattern), key=lambda c: (-len(c), min(c))
    )

    def is_path_comp(comp: frozenset[int]) -> bool:
        degs = sorted(pattern.degree(v) for v in comp)
        if len(comp) == 1:
            return True
        return degs[:2] == [1, 1] and all(d == 2 for d in degs[2:])

    level_of = [-1] * pattern.n
    order: list[int] = []
    ranges: list[tuple[int, int]] = []
    for comp in comps:
        first = len(order)
        for layer in component_levels(pattern, min(comp), level_of).levels:
            order += layer
        ranges.append((first, len(order) - 1))

    # where a path component duplicates its predecessor, force component
    # images into ascending order (checked once the component completes)
    sym_check: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
    for i in range(1, len(comps)):
        a, b = comps[i - 1], comps[i]
        if len(a) == len(b) and is_path_comp(a) and is_path_comp(b):
            sym_check[ranges[i][1]] = (ranges[i - 1], ranges[i])

    gmasks = g.adjacency_masks()
    full = (1 << g.n) - 1
    images = [-1] * pattern.n

    def place(k: int, used: int) -> bool:
        deadline.check()
        if k == pattern.n:
            return True
        pv = order[k]
        cand = full & ~used
        for j in range(k):
            pu = order[j]
            if pu in pattern.adj[pv]:
                cand &= gmasks[images[pu]]
            else:
                cand &= ~gmasks[images[pu]]
        while cand:
            bit = cand & -cand
            cand ^= bit
            images[pv] = bit.bit_length() - 1
            if k in sym_check:
                (pa, pb), (ca, cb) = sym_check[k]
                prev_min = min(images[order[i]] for i in range(pa, pb + 1))
                this_min = min(images[order[i]] for i in range(ca, cb + 1))
                if this_min < prev_min:
                    images[pv] = -1
                    continue
            if place(k + 1, used | bit):
                return True
            images[pv] = -1
        return False

    return place(0, 0)

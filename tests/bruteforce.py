"""Independent brute-force reference implementations for the test suite.

Everything here recomputes answers from first principles, sharing no
search logic with the package under test: bipartition scans instead of
pruned backtracking, subset scans instead of bitmask DFS, and explicit
enumeration instead of augmenting paths.  Two references are kept as
specifications instead: propagate_reference, the plain sorted-rescan
form of the forcing loop that the incremental forcing.propagate must
match, and random_connected_4chordal_reference, the generator that
checks every square splice with the exhaustive oracle cycle search,
whose output the one-search splice check must reproduce.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from matchcut import Cut, Graph, GraphError, build_graph, oracle
from matchcut.forcing import ForcingState, Refutation
from matchcut.graphs import induced_subgraph, is_connected, make_cut
from matchcut.oracle import DEFAULT_LIMITS, OracleLimits


def cross_degrees(g: Graph, x: set[int]) -> list[int]:
    return [sum((u in x) != (v in x) for u in g.adj[v]) for v in range(g.n)]


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

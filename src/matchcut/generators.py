"""Seeded random generation of connected graphs with no chordless cycle
longer than four.

The base construction attaches each new vertex to a clique of the graph
built so far, which keeps the graph chordal.  Optionally, some vertices
are attached to a non-adjacent pair with a common neighbor instead,
splicing in a chordless square; each splice is kept only when exhaustive
search confirms no longer chordless cycle appeared.
"""

from __future__ import annotations

import random

from .graphs import Graph, GraphError, build_graph
from .oracle import DEFAULT_LIMITS, OracleLimits, longest_induced_cycle


def random_connected_4chordal(
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
        cycle = longest_induced_cycle(built, limits)
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


def sample_instances(
    seed: int,
    count: int,
    max_n: int,
    *,
    min_n: int = 4,
    limits: OracleLimits | None = None,
) -> list[Graph]:
    """A reproducible batch of random instances derived from one seed."""
    if min_n > max_n:
        raise GraphError(f"instance sizes need min_n <= max_n, got {min_n} > {max_n}")
    master = random.Random(seed)
    out = []
    for _ in range(count):
        child = random.Random(master.randrange(2**32))
        n = child.randint(min_n, max_n)
        density = child.uniform(0.25, 0.6)
        out.append(
            random_connected_4chordal(
                child, n, clique_growth=density, limits=limits
            )
        )
    return out

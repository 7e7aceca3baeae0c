"""Seeded random generation of connected graphs with no chordless cycle
longer than four.

The base construction attaches each new vertex to a clique of the graph
built so far, which keeps the graph chordal.  Optionally, some vertices
are attached to a non-adjacent pair with a common neighbor instead,
splicing in a chordless square.  The graph before the splice has no
chordless cycle longer than four, so the splice creates one exactly
when the pair stays connected once its common neighbors are removed;
one breadth-first search decides that, and such a splice is skipped.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterator

from .graphs import MAX_VERTICES, Graph, GraphError, build_graph

# the per-vertex probability of attempting a chordless-square splice
SQUARE_CHANCE = 0.25

# the smallest instance size iter_instances draws
MIN_INSTANCE_N = 4


def random_connected_4chordal(
    rng: random.Random,
    n: int,
    *,
    clique_growth: float = 0.45,
) -> Graph:
    """Sample a connected n-vertex graph with all chordless cycles short.

    Deterministic for a given rng state.  clique_growth tunes density;
    a vertex attempts a chordless-square splice with probability
    SQUARE_CHANCE (skipped when it would create a longer chordless
    cycle).
    """
    if n < 1:
        raise GraphError("need at least one vertex")
    adj: list[set[int]] = [set() for _ in range(n)]

    def add_edge(u: int, v: int) -> None:
        adj[u].add(v)
        adj[v].add(u)

    # while v is placed, only vertices below v have edges, so every
    # neighbor set below is already a subset of range(v)

    def attach_to_clique(v: int) -> None:
        anchor = rng.randrange(v)
        clique = [anchor]
        candidates = set(adj[anchor])
        while candidates and rng.random() < clique_growth:
            w = rng.choice(sorted(candidates))
            clique.append(w)
            candidates &= adj[w]
        for w in clique:
            add_edge(v, w)

    def try_square(v: int) -> bool:
        # attach v to a non-adjacent pair at distance two, creating a
        # chordless square
        pairs = sorted(
            {
                (x, z)
                for x in range(v)
                for c in adj[x]
                for z in adj[c]
                if z > x and z not in adj[x]
            }
        )
        if not pairs:
            return False
        x, z = pairs[rng.randrange(len(pairs))]
        # an x-z path avoiding their common neighbors has three or more
        # edges; its shortest form closes a chordless cycle through v
        seen = (adj[x] & adj[z]) | {x}
        queue = deque([x])
        while queue:
            for w in adj[queue.popleft()]:
                if w == z:
                    return False
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        add_edge(v, x)
        add_edge(v, z)
        return True

    for v in range(1, n):
        if v >= 3 and rng.random() < SQUARE_CHANCE and try_square(v):
            continue
        attach_to_clique(v)
    return build_graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def iter_instances(
    seed: int,
    count: int,
    max_n: int,
    *,
    min_n: int = MIN_INSTANCE_N,
) -> Iterator[Graph]:
    """A reproducible stream of random instances derived from one seed,
    drawn one at a time."""
    if min_n > max_n:
        raise GraphError(f"instance sizes need min_n <= max_n, got {min_n} > {max_n}")
    if max_n > MAX_VERTICES:
        raise GraphError(f"instance size {max_n} exceeds the limit of {MAX_VERTICES}")
    master = random.Random(seed)
    for _ in range(count):
        child = random.Random(master.randrange(2**32))
        n = child.randint(min_n, max_n)
        density = child.uniform(0.25, 0.6)
        yield random_connected_4chordal(child, n, clique_growth=density)

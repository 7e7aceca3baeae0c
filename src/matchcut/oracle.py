"""Exhaustive ground-truth procedures: cut enumeration, perfect matchings,
induced path/cycle search and induced-subgraph containment.

Every search is guarded by an instance-size bound and a wall-clock
budget (OracleLimits).  All procedures are deterministic.
"""

from __future__ import annotations

import time
from itertools import islice
from typing import Iterator

from .graphs import (
    Cut,
    Graph,
    OracleBudgetError,
    OracleError,
    OracleLimits,
    OracleSizeError,
    make_cut,
    part_without,
)

DEFAULT_LIMITS = OracleLimits()


class _Deadline:
    __slots__ = ("expiry", "ticks")

    def __init__(self, seconds: float):
        self.expiry = time.monotonic() + seconds
        self.ticks = 0

    def check(self) -> None:
        # the clock is read on the first tick and every 1024th after it,
        # so a spent budget stops even a search shorter than 1024 ticks
        self.ticks += 1
        if self.ticks & 1023 == 1 and time.monotonic() >= self.expiry:
            raise OracleBudgetError("oracle budget exhausted")


def _guard(g: Graph, limits: OracleLimits | None) -> _Deadline:
    limits = limits or DEFAULT_LIMITS
    if g.n > limits.max_vertices:
        raise OracleSizeError(
            f"instance has {g.n} vertices, oracle bound is {limits.max_vertices}"
        )
    return _Deadline(limits.budget_seconds)


def enumerate_matching_cuts(
    g: Graph,
    mode: str = "matching_only",
    limits: OracleLimits | None = None,
    stop_after: int | None = None,
) -> list[Cut]:
    """Enumerate cuts of g, one representative per unordered bipartition.

    mode selects the predicate: "matching_only" keeps matching cuts
    (every vertex has at most one cross neighbor), "perfect_only" keeps
    perfect matching cuts (exactly one cross neighbor each).
    Representatives put vertex 0 on the X side; output is ordered
    lexicographically by side vector.  stop_after, None or >= 0, keeps
    only that many of the first cuts; a negative value is a ValueError.
    """
    if mode not in ("matching_only", "perfect_only"):
        raise ValueError(f"unknown enumeration mode {mode!r}")
    deadline = _guard(g, limits)
    return list(islice(_enumerate_pruned(g, mode == "perfect_only", deadline), stop_after))


def _enumerate_pruned(g: Graph, perfect: bool, deadline: _Deadline) -> Iterator[Cut]:
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


def perfect_matchings(
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


def find_dpm(
    g: Graph, limits: OracleLimits | None = None
) -> tuple[tuple[tuple[int, int], ...], Cut] | None:
    """The first perfect matching, in perfect_matchings order, whose
    removal disconnects g, with the cut around the part vertex 0 still
    reaches (its crossing edges are matched); None when there is none.

    has_dpm decides first, so only a YES lists perfect matchings; the
    listing gets what the decision left of the budget.
    """
    limits = limits or DEFAULT_LIMITS
    start = time.monotonic()
    if not has_dpm(g, limits):
        return None
    spent = time.monotonic() - start
    left = OracleLimits(limits.max_vertices, max(0.0, limits.budget_seconds - spent))
    for matching in perfect_matchings(g, left):
        part = part_without(g, matching)
        if len(part) < g.n:
            return matching, make_cut(g, part)
    return None


def has_dpm(g: Graph, limits: OracleLimits | None = None) -> bool:
    """True when some perfect matching's removal disconnects the graph.

    Such a matching holds the crossing edges of a matching cut and
    perfectly matches the graph without their ends; conversely, any
    matching cut whose crossing edges' ends leave a perfectly matchable
    rest extends to one.  So matching.first_completion runs over the
    matching cuts, and no perfect matching is listed.
    """
    deadline = _guard(g, limits)
    from .matching import first_completion

    return first_completion(g, _enumerate_pruned(g, False, deadline)) is not None


def longest_induced_path(g: Graph, limits: OracleLimits | None = None) -> int:
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


def longest_induced_cycle(g: Graph, limits: OracleLimits | None = None) -> int | None:
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


def contains_induced(
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

    from .graphs import component_levels, connected_components

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

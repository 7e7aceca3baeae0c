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
        # each assigned vertex keeps at most one cross neighbor, and at
        # least one in perfect mode once all its neighbors are assigned
        for u in (v, *adj[v]):
            if side[u] != -1 and (
                cross[u] >= 2 or perfect and open_nbrs[u] == 0 and cross[u] == 0
            ):
                return False
        return True

    def assign_forced(v: int, s: int, trail: list[int]) -> bool:
        # propagate the single-cross rule: once an assigned vertex has a
        # cross neighbor, its remaining neighbors must join its own side;
        # in perfect mode, one with none sends its last open one across
        if not assign(v, s, trail):
            return False
        queue = [v] + [u for u in adj[v] if side[u] != -1]
        while queue:
            deadline.check()
            u = queue.pop()
            if cross[u] == 1:
                forced, to = [w for w in adj[u] if side[w] == -1], side[u]
            elif perfect and cross[u] == 0 and open_nbrs[u] == 1:
                forced, to = [next(w for w in adj[u] if side[w] == -1)], 1 - side[u]
            else:
                continue
            for w in forced:
                if not assign(w, to, trail):
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

    # the branch under way at each level; vertex 0 takes side 0 only
    taken: list[tuple[int, int, list[int]]] = []
    v, s = 0, 0
    while True:
        if s < (2 if v else 1):
            trail: list[int] = []
            if assign_forced(v, s, trail):
                taken.append((v, s, trail))
                deadline.check()
                v = next((u for u in range(n) if side[u] == -1), -1)
                s = 0 if v != -1 else 2
                if v == -1 and 1 in side:
                    yield make_cut(g, {u for u in range(n) if side[u] == 0})
                continue
        elif taken:
            v, s, trail = taken.pop()
        else:
            return
        undo(trail)
        s += 1


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
    masks = g.adjacency_masks()
    free = (1 << n) - 1
    chosen: list[tuple[int, int]] = []
    # the lowest free vertex's partners up to the last one tried, as bits
    spent = 0
    deadline.check()
    while True:
        if free:
            v = (free & -free).bit_length() - 1
            cands = masks[v] & free & ~spent
        else:
            yield tuple(chosen)
            cands = 0
        if cands:
            u = (cands & -cands).bit_length() - 1
            free ^= 1 << v | 1 << u
            chosen.append((v, u))
            deadline.check()
            spent = 0
        elif chosen:
            v, u = chosen.pop()
            free |= 1 << v | 1 << u
            spent = (2 << u) - 1
        else:
            return


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
    masks = g.adjacency_masks()
    full = (1 << n) - 1
    best = 1 if n else 0
    for s in range(n):
        # tip, the vertices it may take and its untried extensions; the
        # stack holds the same for each earlier vertex of the path
        tip, allowed = s, full & ~(1 << s)
        cands = masks[s] & allowed
        stack: list[tuple[int, int, int]] = []
        while True:
            if cands:
                bit = cands & -cands
                cands ^= bit
                nxt = allowed & ~masks[tip] & ~bit
                length = len(stack) + 2
                if length + nxt.bit_count() <= best:
                    continue
                deadline.check()
                if length > best:
                    best = length
                    if best == n:
                        return best
                stack.append((tip, allowed, cands))
                tip, allowed = bit.bit_length() - 1, nxt
                cands = masks[tip] & allowed
            elif stack:
                tip, allowed, cands = stack.pop()
            else:
                break
    return best


def longest_induced_cycle(g: Graph, limits: OracleLimits | None = None) -> int | None:
    """Vertex count of a longest induced cycle, or None when g is acyclic."""
    deadline = _guard(g, limits)
    n = g.n
    masks = g.adjacency_masks()
    best = 0
    for s in range(n):
        higher = ((1 << n) - 1) & ~((1 << (s + 1)) - 1)
        starts = masks[s] & higher
        while starts:
            bit = starts & -starts
            starts ^= bit
            first = bit.bit_length() - 1
            # grow induced paths s, first, ..., tip as longest_induced_path
            # does, while a cycle closing one could beat best
            tip, allowed = first, higher & ~bit
            stack: list[tuple[int, int, int]] = []
            while True:
                length = len(stack) + 2
                ext = 0
                if length + allowed.bit_count() > best:
                    cands = masks[tip] & allowed
                    # a closer above first keeps one direction per cycle
                    if (cands & masks[s]) >> (first + 1) and length + 1 > best:
                        best = length + 1
                    ext = cands & ~masks[s]
                while not ext and stack:
                    tip, allowed, ext = stack.pop()
                if not ext:
                    break
                bit = ext & -ext
                stack.append((tip, allowed, ext ^ bit))
                deadline.check()
                allowed &= ~masks[tip] & ~bit
                tip = bit.bit_length() - 1
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
        degs = [pattern.degree(v) for v in comp]
        return max(degs) <= 2 and sum(degs) == 2 * len(comp) - 2

    level_of = [-1] * pattern.n
    order: list[int] = []
    # where a path component duplicates its predecessor, its least image
    # must exceed the predecessor's (checked once its last vertex is placed)
    sym_check: dict[int, tuple[frozenset[int], frozenset[int]]] = {}
    for i, comp in enumerate(comps):
        for layer in component_levels(pattern, min(comp), level_of).levels:
            order += layer
        prev = comps[i - 1]
        if i and len(prev) == len(comp) and is_path_comp(prev) and is_path_comp(comp):
            sym_check[order[-1]] = (prev, comp)

    gmasks = g.adjacency_masks()
    full = (1 << g.n) - 1
    images = [-1] * pattern.n
    # the untried candidates of each placed pattern vertex
    cands: list[int] = []
    while True:
        deadline.check()
        k = len(cands)
        if k == pattern.n:
            return True
        # unused host vertices adjacent exactly to the images of pv's
        # placed pattern neighbors (an image is not its own neighbor)
        pv = order[k]
        cand = full
        for j in range(k):
            pu = order[j]
            if pu in pattern.adj[pv]:
                cand &= gmasks[images[pu]]
            else:
                cand &= ~(gmasks[images[pu]] | 1 << images[pu])
        while True:
            if cand:
                bit = cand & -cand
                cand ^= bit
                images[pv] = bit.bit_length() - 1
                if pv in sym_check:
                    prev, comp = sym_check[pv]
                    if min(images[u] for u in comp) < min(images[u] for u in prev):
                        continue
                cands.append(cand)
                break
            if not cands:
                return False
            cand = cands.pop()
            pv = order[len(cands)]

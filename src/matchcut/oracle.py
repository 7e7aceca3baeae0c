"""Exhaustive ground-truth procedures: cut enumeration, perfect matchings,
induced path/cycle search, induced-subgraph containment, and 1-in-3
assignment enumeration.

Every entry point is guarded by an instance-size bound and a wall-clock
budget (OracleLimits).  All procedures are deterministic.
"""

from __future__ import annotations

import time
from typing import Iterator

from .graphs import (
    Cut,
    Graph,
    OracleBudgetError,
    OracleError,
    OracleLimits,
    OracleSizeError,
    make_cut,
)

DEFAULT_LIMITS = OracleLimits()


class _Deadline:
    __slots__ = ("expiry", "ticks")

    def __init__(self, seconds: float):
        self.expiry = time.monotonic() + seconds
        self.ticks = 0

    def check(self) -> None:
        self.ticks += 1
        if self.ticks & 1023 == 0 and time.monotonic() > self.expiry:
            raise OracleBudgetError("oracle budget exhausted")


def _guard(g: Graph, limits: OracleLimits | None) -> tuple[OracleLimits, _Deadline]:
    limits = limits or DEFAULT_LIMITS
    if g.n > limits.max_vertices:
        raise OracleSizeError(
            f"instance has {g.n} vertices, oracle bound is {limits.max_vertices}"
        )
    return limits, _Deadline(limits.budget_seconds)


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
    lexicographically by side vector.
    """
    if mode not in ("matching_only", "perfect_only"):
        raise ValueError(f"unknown enumeration mode {mode!r}")
    _, deadline = _guard(g, limits)
    if g.n < 2:
        return []
    return _enumerate_pruned(g, mode == "perfect_only", deadline, stop_after)


def _enumerate_pruned(
    g: Graph, perfect: bool, deadline: _Deadline, stop_after: int | None
) -> list[Cut]:
    n = g.n
    adj = [sorted(g.adj[v]) for v in range(n)]
    side = [-1] * n
    cross = [0] * n
    open_nbrs = [g.degree(v) for v in range(n)]
    out: list[Cut] = []

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
            if side[u] == -1:
                continue
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

    def search() -> bool:
        deadline.check()
        v = next((u for u in range(n) if side[u] == -1), -1)
        if v == -1:
            if any(s == 1 for s in side):
                out.append(make_cut(g, {u for u in range(n) if side[u] == 0}))
                if stop_after is not None and len(out) >= stop_after:
                    return True
            return False
        for s in (0, 1):
            trail: list[int] = []
            if assign_forced(v, s, trail) and search():
                undo(trail)
                return True
            undo(trail)
        return False

    root_trail: list[int] = []
    if assign_forced(0, 0, root_trail):
        search()
    return out


def has_mc(g: Graph, limits: OracleLimits | None = None) -> bool:
    return bool(enumerate_matching_cuts(g, "matching_only", limits, stop_after=1))


def has_pmc(g: Graph, limits: OracleLimits | None = None) -> bool:
    return bool(enumerate_matching_cuts(g, "perfect_only", limits, stop_after=1))


def perfect_matchings(
    g: Graph, limits: OracleLimits | None = None
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield every perfect matching as a sorted tuple of (min, max) pairs.

    Backtracks over the lowest uncovered vertex, so output order is
    lexicographic on the partner choices.
    """
    _, deadline = _guard(g, limits)
    n = g.n
    if n % 2:
        return
    adj = [sorted(g.adj[v]) for v in range(n)]
    mate = [-1] * n
    chosen: list[tuple[int, int]] = []
    deadline.check()
    if n == 0:
        yield ()
        return
    # one [vertex, index of its next partner in adj] per matched pair
    stack = [[0, 0]]
    while stack:
        frame = stack[-1]
        v, i = frame
        if i:
            # undo this level's previous choice
            u = chosen.pop()[1]
            mate[v] = mate[u] = -1
        nbrs = adj[v]
        while i < len(nbrs) and mate[nbrs[i]] != -1:
            i += 1
        if i == len(nbrs):
            stack.pop()
            continue
        u = nbrs[i]
        frame[1] = i + 1
        mate[v] = u
        mate[u] = v
        chosen.append((v, u))
        deadline.check()
        w = v + 1
        while w < n and mate[w] != -1:
            w += 1
        if w == n:
            yield tuple(chosen)
        else:
            stack.append([w, 0])


def find_dpm(
    g: Graph, limits: OracleLimits | None = None
) -> tuple[tuple[tuple[int, int], ...], Cut] | None:
    """The first perfect matching, in perfect_matchings order, whose
    removal disconnects g, with the cut around the part vertex 0 still
    reaches (its crossing edges are matched); None when there is none."""
    n = g.n
    if n == 0:
        return None
    masks = g.adjacency_masks()
    full = (1 << n) - 1
    for matching in perfect_matchings(g, limits):
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


def has_dpm(g: Graph, limits: OracleLimits | None = None) -> bool:
    """True when some perfect matching's removal disconnects the graph."""
    return find_dpm(g, limits) is not None


def longest_induced_path(g: Graph, limits: OracleLimits | None = None) -> int:
    """Vertex count of a longest induced path (0 for the empty graph)."""
    _, deadline = _guard(g, limits)
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
    _, deadline = _guard(g, limits)
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
    component first, breadth-first inside each).  Runs of structurally
    identical path components are deduplicated by requiring their images
    to appear in ascending order.
    """
    _, deadline = _guard(g, limits)
    if pattern.n == 0:
        return True
    if pattern.n > g.n:
        return False

    from .graphs import connected_components

    comps = sorted(
        connected_components(pattern), key=lambda c: (-len(c), min(c))
    )

    def is_path_comp(comp: frozenset[int]) -> bool:
        degs = sorted(pattern.degree(v) for v in comp)
        if len(comp) == 1:
            return True
        return degs[:2] == [1, 1] and all(d == 2 for d in degs[2:])

    order: list[int] = []
    ranges: list[tuple[int, int]] = []
    for comp in comps:
        first = len(order)
        start = min(comp)
        seen = {start}
        queue = [start]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in sorted(pattern.adj[v]):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
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


def enumerate_one_in_three(formula, limits: OracleLimits | None = None) -> list[tuple[bool, ...]]:
    """All assignments where each clause has exactly one true variable.

    Output is lexicographic with False ordered before True.  The formula
    only needs var_count and clauses attributes (ordered triples of
    distinct variable ids).
    """
    limits = limits or DEFAULT_LIMITS
    if formula.var_count > 25:
        raise OracleSizeError(
            f"{formula.var_count} variables exceeds the 1-in-3 enumeration bound of 25"
        )
    deadline = _Deadline(limits.budget_seconds)
    nv = formula.var_count
    clauses = list(formula.clauses)
    clauses_of: list[list[int]] = [[] for _ in range(nv)]
    for ci, clause in enumerate(clauses):
        for var in clause:
            clauses_of[var].append(ci)
    true_count = [0] * len(clauses)
    seen_count = [0] * len(clauses)
    value = [False] * nv
    out: list[tuple[bool, ...]] = []

    def viable(ci: int) -> bool:
        if true_count[ci] > 1:
            return False
        if seen_count[ci] == 3 and true_count[ci] != 1:
            return False
        return True

    def choose(v: int) -> None:
        deadline.check()
        if v == nv:
            out.append(tuple(value))
            return
        for val in (False, True):
            value[v] = val
            ok = True
            for ci in clauses_of[v]:
                seen_count[ci] += 1
                if val:
                    true_count[ci] += 1
                if not viable(ci):
                    ok = False
            if ok:
                choose(v + 1)
            for ci in clauses_of[v]:
                seen_count[ci] -= 1
                if val:
                    true_count[ci] -= 1
        value[v] = False

    choose(0)
    return out

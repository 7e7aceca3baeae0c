"""Maximum matching in general graphs by blossom shrinking, and the
completion of a matching cut to a perfect matching.

Cubic in the vertex count at worst, deterministic: augmenting searches
are seeded from vertices in ascending id order and neighbors scanned
ascending.  Every search runs in the graph's own vertex ids; none
copies the graph.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .graphs import Cut, Graph


def maximum_matching(g: Graph) -> list[tuple[int, int]]:
    """A maximum-cardinality matching as sorted (min, max) pairs."""
    return _blossom([sorted(nbrs) for nbrs in g.adj])


def _blossom(adj: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """A maximum-cardinality matching of the graph whose ascending
    neighbor lists are adj, as sorted (min, max) pairs; a vertex with
    no neighbors is never matched.

    Each augmenting search undoes only the entries the previous search
    wrote, in place of an O(n) reset per root.  A blossom costs what
    its search touched, not O(n): lca and the contraction mark vertices
    in sets, and the contraction relabels by scanning only the current
    tree's k vertices, in O(k log k).
    """
    n = len(adj)
    mate = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    touched: list[int] = []  # vertices the current search has written

    def lca(a: int, b: int) -> int:
        marked: set[int] = set()
        v = a
        while True:
            v = base[v]
            marked.add(v)
            if mate[v] == -1:
                break
            v = parent[mate[v]]
        v = b
        while True:
            v = base[v]
            if v in marked:
                return v
            v = parent[mate[v]]

    def mark_path(v: int, stem: int, child: int, in_blossom: set[int]) -> None:
        while base[v] != stem:
            in_blossom.add(base[v])
            in_blossom.add(base[mate[v]])
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
                    in_blossom: set[int] = set()
                    mark_path(v, stem, to, in_blossom)
                    mark_path(to, stem, v, in_blossom)
                    # only vertices of this search's tree can lie in
                    # the blossom; visit them in ascending id order
                    for i in sorted(set(touched)):
                        if base[i] in in_blossom:
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


def has_perfect_matching(g: Graph) -> bool:
    """True when a matching covers every vertex; the empty graph
    qualifies, and a graph of odd order fails without a blossom run."""
    return g.n % 2 == 0 and 2 * len(maximum_matching(g)) == g.n


def perfect_matching_through(g: Graph, cut: Cut) -> list[tuple[int, int]] | None:
    """A perfect matching of g holding every crossing edge of the
    matching cut, as sorted (min, max) pairs, or None when there is none.

    The crossing edges match their ends, and no edge joins what is left
    of the two sides: X keeps one vertex per crossing edge fewer, which
    must leave it even, and one blossom run on g without the crossing
    ends decides the rest.  It runs on g's own neighbor lists with the
    ends left out, so it pairs what a copy of g without them would.
    """
    if (sum(cut.side) - len(cut.crossing)) % 2:
        return None
    ends = {v for edge in cut.crossing for v in edge}
    # the ends share one empty tuple, which costs no list per end
    adj = [() if v in ends else sorted(nbrs - ends) for v, nbrs in enumerate(g.adj)]
    inner = _blossom(adj)
    if 2 * len(inner) != g.n - len(ends):
        return None
    return sorted(inner + [(min(edge), max(edge)) for edge in cut.crossing])


def first_completion(
    g: Graph, cuts: Iterable[Cut]
) -> tuple[list[tuple[int, int]], Cut] | None:
    """(matching, cut) for the first of the matching cuts that
    perfect_matching_through completes, or None.

    A graph without a perfect matching answers None before any cut is
    drawn: one blossom run in place of one per cut.
    """
    if not has_perfect_matching(g):
        return None
    for cut in cuts:
        matching = perfect_matching_through(g, cut)
        if matching is not None:
            return matching, cut
    return None

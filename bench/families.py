"""Seeded graph and formula families with answers known by construction.

Every builder returns a ``Family``: a simple undirected graph on
vertices 0..n-1 plus the verdicts its construction fixes.  Nothing here
imports ``matchcut``; the graphs reach the package only as files.

Known verdicts (``True`` = YES, ``False`` = NO, absent = not fixed):

- k-trees (k >= 2), among them strips (the square of a path) and other
  path powers: every edge lies in a triangle and the triangles are
  glued along edges, so one side of any bipartition swallows the graph:
  no mc, hence no dpm and no pmc.
- ladders and tree prisms (tree x K2): top copy versus bottom copy is a
  perfect matching cut, so pmc, dpm and mc are all YES.
- a ladder plus one pendant has odd order: no pmc, no dpm; the pendant
  edge is a matching cut.
- a ladder with pendants on two corners of the same colour class has
  even order but no perfect matching (both pendants take their corner,
  which leaves the bipartite rest unbalanced); the pendant edge is a
  matching cut.  Its pmc and dpm NO is left to networkx to confirm.
- a connected graph on n > 2 vertices with a universal vertex u has no
  pmc: u's one neighbour across, w, is alone on its side, so every other
  vertex needs w as its neighbour across, and w then has n - 1 >= 2.
- the cycle C_k: mc YES for k >= 4, dpm YES exactly when k is even,
  pmc YES exactly when 4 divides k (sides must come in pairs).
- the grid P_a x P_b (a, b >= 2): mc YES (cut between two columns); dpm
  YES exactly when ab is even (match the first two rows by rungs, the
  rest perfectly; the first row is then cut off).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

Edge = tuple[int, int]


@dataclass(frozen=True)
class Family:
    """A graph with the verdicts and measures its construction fixes."""

    name: str
    n: int
    edges: tuple[Edge, ...]
    verdicts: dict[str, bool] = field(default_factory=dict)
    # longest induced path (vertex count), when the construction fixes it
    longest_path: int | None = None


def _norm(edges) -> tuple[Edge, ...]:
    return tuple(sorted({(min(u, v), max(u, v)) for u, v in edges}))


NO_CUT = {"mc": False, "dpm": False, "pmc": False}
ALL_CUTS = {"mc": True, "dpm": True, "pmc": True}


def strip(n: int) -> Family:
    """The square of the path on n vertices (a 2-tree)."""
    edges = [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)]
    return Family(f"strip{n}", n, _norm(edges), dict(NO_CUT))


def path_power(n: int, k: int) -> Family:
    """The k-th power of the path on n vertices (a k-tree: vertex i joins
    the clique i-k..i-1)."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, min(n, i + k + 1))]
    return Family(f"path{n}^{k}", n, _norm(edges), dict(NO_CUT))


def ktree(n: int, k: int, rng: random.Random) -> Family:
    """A random k-tree: K_{k+1}, then each vertex joins a random k-clique."""
    edges = [(u, v) for u in range(k + 1) for v in range(u + 1, k + 1)]
    cliques = [tuple(c for c in range(k + 1) if c != skip) for skip in range(k + 1)]
    for v in range(k + 1, n):
        base = cliques[rng.randrange(len(cliques))]
        edges.extend((u, v) for u in base)
        cliques.extend(tuple(sorted(set(base) - {u} | {v})) for u in base)
    return Family(f"{k}tree{n}", n, _norm(edges), dict(NO_CUT))


def _ladder_edges(k: int) -> list[Edge]:
    # top rail 0..k-1, bottom rail k..2k-1, rung i -- k+i
    return (
        [(i, i + 1) for i in range(k - 1)]
        + [(k + i, k + i + 1) for i in range(k - 1)]
        + [(i, k + i) for i in range(k)]
    )


def ladder(k: int) -> Family:
    """P_2 x P_k on 2k vertices."""
    return Family(f"ladder{2 * k}", 2 * k, _norm(_ladder_edges(k)), dict(ALL_CUTS))


def odd_ladder(k: int) -> Family:
    """A ladder on 2k vertices plus one pendant on corner 0."""
    edges = _ladder_edges(k) + [(0, 2 * k)]
    return Family(f"oddladder{2 * k + 1}", 2 * k + 1, _norm(edges), {"mc": True, "dpm": False, "pmc": False})


def pendant_ladder(k: int) -> Family:
    """A ladder with pendants on two corners of the same colour class."""
    # top i has colour i % 2 and bottom i colour (i + 1) % 2, so corner 0
    # shares its class with top k-1 (k odd) or bottom k-1 (k even)
    other = k - 1 if k % 2 else 2 * k - 1
    edges = _ladder_edges(k) + [(0, 2 * k), (other, 2 * k + 1)]
    return Family(f"pendladder{2 * k + 2}", 2 * k + 2, _norm(edges), {"mc": True})


def layered_tree(t: int, width: int, rng: random.Random) -> list[Edge]:
    """A random tree on t vertices whose BFS layers are about width wide.

    Vertex 0 is the root; each later layer attaches its vertices to
    random parents in the layer above.
    """
    edges: list[Edge] = []
    prev = [0]
    v = 1
    while v < t:
        size = min(t - v, max(1, width + rng.randint(-width // 3, width // 3)))
        layer = list(range(v, v + size))
        edges.extend((rng.choice(prev), w) for w in layer)
        prev = layer
        v += size
    return edges


def tree_prism(t: int, width: int, rng: random.Random) -> Family:
    """T x K2 for a random layered tree T on t vertices (2t vertices).

    Tree vertex v becomes the rung 2v -- 2v+1, so the lowest edge is a
    rung: the mc solver's first seed then propagates over the whole
    prism before it answers YES.
    """
    tree = layered_tree(t, width, rng)
    edges = [(2 * u + s, 2 * v + s) for u, v in tree for s in (0, 1)]
    edges += [(2 * v, 2 * v + 1) for v in range(t)]
    return Family(f"prism{2 * t}", 2 * t, _norm(edges), dict(ALL_CUTS))


def disjoint_union(name: str, parts: list[Family]) -> Family:
    """Components side by side; pmc holds when it holds on every part."""
    edges: list[Edge] = []
    shift = 0
    for part in parts:
        edges.extend((u + shift, v + shift) for u, v in part.edges)
        shift += part.n
    pmc = all(p.verdicts.get("pmc") for p in parts)
    odd = any(p.n % 2 for p in parts)
    verdicts = {"pmc": False} if odd else ({"pmc": True} if pmc else {})
    return Family(name, shift, _norm(edges), verdicts)


def star(n: int) -> Family:
    """K_{1,n-1} with the centre at 0."""
    edges = [(0, v) for v in range(1, n)]
    return Family(f"star{n}", n, _norm(edges), {"pmc": False}, longest_path=min(n, 3))


def clique_with_pendants(q: int, pendants: int) -> Family:
    """K_q with every pendant attached to vertex 0, which is universal."""
    n = q + pendants
    edges = [(u, v) for u in range(q) for v in range(u + 1, q)]
    edges += [(0, v) for v in range(q, n)]
    return Family(f"clique{q}+{pendants}", n, _norm(edges), {"pmc": False})


def cycle(k: int) -> Family:
    edges = [(i, (i + 1) % k) for i in range(k)]
    verdicts = {"mc": True, "dpm": k % 2 == 0, "pmc": k % 4 == 0}
    return Family(f"cycle{k}", k, _norm(edges), verdicts, longest_path=k - 1)


def path(n: int) -> Family:
    edges = [(i, i + 1) for i in range(n - 1)]
    return Family(f"path{n}", n, _norm(edges), {}, longest_path=n)


def complete(n: int) -> Family:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Family(f"complete{n}", n, _norm(edges), {})


def complete_bipartite(a: int, b: int) -> Family:
    edges = [(u, a + v) for u in range(a) for v in range(b)]
    return Family(f"k{a},{b}", a + b, _norm(edges), {}, longest_path=3)


def claw() -> Family:
    return Family("claw", 4, ((0, 1), (0, 2), (0, 3)), {}, longest_path=3)


def grid(a: int, b: int) -> Family:
    """P_a x P_b, vertex (i, j) numbered i * b + j."""
    edges = [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
    edges += [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
    verdicts = {"mc": True, "dpm": (a * b) % 2 == 0}
    return Family(f"grid{a}x{b}", a * b, _norm(edges), verdicts)


def format_graph(fam: Family) -> str:
    """The package's graph file format: 'n m' then one 'u v' per line."""
    lines = [f"{fam.n} {len(fam.edges)}"]
    lines.extend(f"{u} {v}" for u, v in fam.edges)
    return "\n".join(lines) + "\n"


def random_formula(rng: random.Random, clauses: int, variables: int) -> list[tuple[int, int, int]]:
    """Positive 1-in-3 clauses over 1..variables, three distinct each."""
    return [tuple(rng.sample(range(1, variables + 1), 3)) for _ in range(clauses)]


def format_dimacs(variables: int, clauses: list[tuple[int, int, int]]) -> str:
    lines = [f"p cnf {variables} {len(clauses)}"]
    lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
    return "\n".join(lines) + "\n"

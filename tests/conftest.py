import random
from itertools import compress

import pytest
from hypothesis import HealthCheck, settings

from matchcut import Graph, GraphError, build_graph
from matchcut.generators import MIN_INSTANCE_N, iter_instances
from matchcut.graphs import BfsLevels
from matchcut.oracle import OracleLimits, enumerate_matching_cuts
from matchcut.pmc import build_pmc_formula, solve_parity
from matchcut.reduction import _BLOCK, _GADGET_EDGES, Formula13
from matchcut.twosat import TwoSatInstance

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def two_triangles() -> Graph:
    """Two triangles joined by two disjoint edges; has a matching cut,
    a perfect matching, but neither a disconnected perfect matching nor
    a perfect matching cut."""
    return build_graph(6, [(0, 1), (1, 4), (4, 5), (2, 5), (2, 3), (0, 3), (0, 4), (3, 5)])


@pytest.fixture
def domino() -> Graph:
    """The 2x3 grid; its unique perfect matching cut has X = {0, 3, 4},
    and {(0,1),(3,4),(2,5)} is a disconnected perfect matching that is
    not a perfect matching cut."""
    return build_graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (2, 5)])


@pytest.fixture
def two_squares() -> Graph:
    """Two squares joined by an edge (the sweep-trace example rooted at
    vertex 0); admits the perfect matching cut X = {0, 1, 4}."""
    return build_graph(6, [(0, 2), (0, 1), (1, 3), (2, 3), (3, 5), (4, 5), (1, 4)])


@pytest.fixture
def braced_hexagon() -> Graph:
    """Hexagon with two chords (the no-answer sweep-trace example rooted
    at vertex 2); has no perfect matching cut."""
    return build_graph(6, [(0, 1), (0, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 2), (3, 5)])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return build_graph(n, edges)


def cycle_graph(k: int) -> Graph:
    """Cycle on k >= 3 vertices."""
    if k < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    return build_graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(t: int) -> Graph:
    """Path on t vertices, 0-1-...-(t-1)."""
    return build_graph(t, [(i, i + 1) for i in range(t - 1)])


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union with vertex ids shifted left to right."""
    n = 0
    edges: list[tuple[int, int]] = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges())
        n += g.n
    return build_graph(n, edges)


def clause_gadget() -> Graph:
    """The 14-vertex block used for a single clause."""
    return build_graph(_BLOCK, _GADGET_EDGES)


def has_mc(g: Graph, limits: OracleLimits | None = None) -> bool:
    return bool(enumerate_matching_cuts(g, "matching_only", limits, stop_after=1))


def has_pmc(g: Graph, limits: OracleLimits | None = None) -> bool:
    return bool(enumerate_matching_cuts(g, "perfect_only", limits, stop_after=1))


def sample_instances(
    seed: int,
    count: int,
    max_n: int,
    *,
    min_n: int = MIN_INSTANCE_N,
) -> list[Graph]:
    """A reproducible batch of random instances derived from one seed."""
    return list(iter_instances(seed, count, max_n, min_n=min_n))


def verify_assignment(inst: TwoSatInstance, assignment: tuple[bool, ...]) -> bool:
    """True when every clause has at least one satisfied literal."""
    if len(assignment) != inst.var_count:
        return False
    return all(
        any(assignment[var] == polarity for var, polarity in clause)
        for clause in inst.clauses
    )


def sweep_side(g: Graph, levels: BfsLevels) -> frozenset[int] | None:
    """The X side that one pmc sweep of the connected graph g along the
    layering levels, and one parity pass on its relations give; None
    when the sweep leaves the root unpaired or the relations hold an
    odd cycle."""
    enc = build_pmc_formula(g, levels)
    if enc.relations is None:
        return None
    model = solve_parity(g.n, enc.relations)
    return None if model is None else frozenset(compress(range(g.n), model))


def format_formula_dimacs(formula: Formula13) -> str:
    lines = [f"p cnf {formula.var_count} {len(formula.clauses)}"]
    lines.extend(
        " ".join(str(var + 1) for var in clause) + " 0" for clause in formula.clauses
    )
    return "\n".join(lines) + "\n"


def ladder(k: int, pendants: tuple[int, ...] = ()) -> Graph:
    """P_2 x P_k (rails 0..k-1 and k..2k-1, rung i -- k+i), plus one
    pendant vertex on each listed corner."""
    edges = (
        [(i, i + 1) for i in range(k - 1)]
        + [(k + i, k + i + 1) for i in range(k - 1)]
        + [(i, k + i) for i in range(k)]
        + [(corner, 2 * k + j) for j, corner in enumerate(pendants)]
    )
    return build_graph(2 * k + len(pendants), edges)


def tree_prism(t: int, rng: random.Random) -> Graph:
    """T x K2 for a random tree T on t vertices: tree vertex v is the rung 2v -- 2v+1."""
    tree = [(rng.randrange(v), v) for v in range(1, t)]
    edges = [(2 * u + s, 2 * v + s) for u, v in tree for s in (0, 1)]
    return build_graph(2 * t, edges + [(2 * v, 2 * v + 1) for v in range(t)])


def fan(k: int, m: int) -> Graph:
    """Root 0; layer 1 is a clique K = 1..k, singletons s_j = k+1+j and
    one pendant k+m+1; layer 2 has v_j = k+m+2+j, joined to s_j and to
    the consecutive clique vertices K[j mod k] and K[(j+1) mod k]."""
    edges = [(0, v) for v in range(1, k + m + 2)]
    edges += [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
    for j in range(m):
        v = k + m + 2 + j
        edges += [(k + 1 + j, v), (1 + j % k, v), (1 + (j + 1) % k, v)]
    return build_graph(k + 2 * m + 2, edges)


def relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def cube_graph() -> Graph:
    """The 3-dimensional hypercube; vertices are 3-bit ids."""
    return build_graph(
        8, [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)]
    )


def petersen_graph() -> Graph:
    """Outer 5-cycle 0..4, inner 5-cycle at distance two, spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return build_graph(10, edges)


def heggernes_telle_graph() -> Graph:
    """A 9-cycle plus a hub adjacent to every third cycle vertex."""
    edges = [(i, (i + 1) % 9) for i in range(9)]
    edges += [(9, 0), (9, 3), (9, 6)]
    return build_graph(10, edges)


def build_g_h_v(h: Graph, v: int) -> Graph:
    """Splice a 7-vertex attachment in place of a degree-3 vertex v of h.

    The neighbors b1 < b2 < b3 of v keep their edges into h - v; v and
    its edges are removed and replaced by a triangle a1 a2 a3 with
    ak adjacent to bk, a pendant path ck from each ak, and an apex c
    adjacent to every ck.  The result has h.n + 6 vertices: h - v keeps
    ascending order as ids 0..h.n-2, then a1 a2 a3, c1 c2 c3, c.
    """
    if not (0 <= v < h.n) or h.degree(v) != 3:
        raise GraphError("the replaced vertex must exist and have degree exactly 3")
    anchors = sorted(h.adj[v])
    old_ids = [u for u in range(h.n) if u != v]
    new_of = {old: new for new, old in enumerate(old_ids)}
    base = h.n - 1
    a = [base, base + 1, base + 2]
    c = [base + 3, base + 4, base + 5]
    apex = base + 6
    edges = [
        (new_of[p], new_of[q]) for p, q in h.edges() if p != v and q != v
    ]
    edges += [(a[k], new_of[anchors[k]]) for k in range(3)]
    edges += [(a[0], a[1]), (a[0], a[2]), (a[1], a[2])]
    edges += [(c[k], a[k]) for k in range(3)]
    edges += [(apex, c[k]) for k in range(3)]
    return build_graph(h.n + 6, edges)

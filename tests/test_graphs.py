import random

import pytest
from hypothesis import given, strategies as st

import bruteforce
from bruteforce import bfs_levels
from matchcut import (
    GraphError,
    build_graph,
    check_matching_cut,
    check_perfect_matching_cut,
    is_disconnected_perfect_matching,
    is_matching,
    is_perfect_matching,
)
from matchcut.graphs import (
    component_levels,
    connected_components,
    make_cut,
)
from conftest import complete_graph, cycle_graph, disjoint_union, path_graph, random_graph


class TestBuildGraph:
    def test_basic(self):
        g = build_graph(3, [(0, 1), (2, 1)])
        assert g.n == 3 and g.m == 2
        assert g.has_edge(1, 2) and not g.has_edge(0, 2)
        assert g.degree(1) == 2

    def test_edges_sorted_min_max(self):
        g = build_graph(4, [(3, 2), (1, 0), (3, 0)])
        assert list(g.edges()) == [(0, 1), (0, 3), (2, 3)]

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            build_graph(2, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(GraphError):
            build_graph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            build_graph(2, [(0, 2)])

    def test_equality_and_hash(self):
        a = build_graph(3, [(0, 1)])
        b = build_graph(3, [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != build_graph(3, [(0, 2)])

    def test_families(self):
        assert path_graph(4).m == 3
        assert cycle_graph(5).m == 5
        assert complete_graph(4).m == 6
        u = disjoint_union(path_graph(2), cycle_graph(3))
        assert u.n == 5 and u.m == 4
        assert u.has_edge(0, 1) and u.has_edge(2, 3) and not u.has_edge(1, 2)


class TestComponentsAndLevels:
    def test_components_ordered_by_minimum(self):
        g = build_graph(6, [(4, 5), (0, 1), (2, 3)])
        comps = connected_components(g)
        assert [min(c) for c in comps] == [0, 2, 4]

    def test_components_within_subset(self):
        g = path_graph(5)
        comps = connected_components(g, [0, 1, 3])
        assert sorted(sorted(c) for c in comps) == [[0, 1], [3]]

    def test_is_connected(self):
        assert bruteforce.is_connected(path_graph(4))
        assert not bruteforce.is_connected(build_graph(3, [(0, 1)]))

    def test_bfs_levels(self):
        g = path_graph(4)
        lv = bfs_levels(g, 1)
        assert lv.level_of == (1, 0, 1, 2)
        assert lv.h == 2
        assert lv.levels[0] == (1,)
        assert lv.levels[1] == (0, 2)
        assert lv.levels[2] == (3,)

    def test_layerings_match_distances(self):
        # every component layered on one shared list, in a relabelled
        # union, equals the distances found by relaxing every edge;
        # layers list their vertices in ascending order
        rng = random.Random(31)
        for _ in range(60):
            g = disjoint_union(*(random_graph(rng, rng.randint(1, 9), 0.35) for _ in range(3)))
            perm = rng.sample(range(g.n), g.n)
            g = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            level_of = [-1] * g.n
            for comp in connected_components(g):
                root = rng.choice(sorted(comp))
                dist = {root: 0}
                for _ in range(g.n):
                    for u, v in g.edges():
                        for a, b in ((u, v), (v, u)):
                            if a in dist and dist.get(b, g.n) > dist[a] + 1:
                                dist[b] = dist[a] + 1
                levels = component_levels(g, root, level_of)
                depth = max(dist.values())
                assert levels.levels == tuple(
                    tuple(v for v in range(g.n) if dist.get(v) == i) for i in range(depth + 1)
                )
                assert all(levels.level_of[v] == d for v, d in dist.items())

    def test_bfs_unreachable_raises(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            bfs_levels(g, 0)

    def test_induced_subgraph_mapping(self):
        g = cycle_graph(5)
        sub, old = bruteforce.induced_subgraph(g, [1, 2, 4])
        assert old == (1, 2, 4)
        assert sub.n == 3 and list(sub.edges()) == [(0, 1)]


class TestCuts:
    def test_make_cut_crossing_oriented(self):
        g = cycle_graph(4)
        cut = make_cut(g, {0, 1})
        assert cut.x == frozenset({0, 1}) and cut.y == frozenset({2, 3})
        assert cut.crossing == ((0, 3), (1, 2))
        flipped = make_cut(g, cut.y)
        assert flipped.x == frozenset({2, 3})
        assert flipped.crossing == ((2, 1), (3, 0))

    def test_make_cut_rejects_empty_side(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            make_cut(g, set())
        with pytest.raises(GraphError):
            make_cut(g, {0, 1, 2})

    def test_check_matching_cut_witness(self):
        g = complete_graph(4)
        cut, witness = check_matching_cut(g, {0})
        assert cut is None and witness == 0

    def test_check_perfect_cut_witness_smallest(self):
        g = path_graph(4)
        cut, witness = check_perfect_matching_cut(g, {0, 1})
        assert cut is None and witness == 0

    def test_perfect_cut_accepts(self):
        g = cycle_graph(4)
        cut, witness = check_perfect_matching_cut(g, {0, 1})
        assert witness is None
        assert cut is not None and set(cut.crossing) == {(0, 3), (1, 2)}

    def test_matching_predicates(self):
        assert is_matching([(0, 1), (2, 3)])
        assert not is_matching([(0, 1), (1, 2)])
        g = cycle_graph(4)
        assert is_perfect_matching(g, [(0, 1), (2, 3)])
        assert not is_perfect_matching(g, [(0, 1)])
        with pytest.raises(GraphError):
            is_perfect_matching(g, [(0, 2), (1, 3)])

    def test_disconnected_perfect_matching(self, domino, two_triangles):
        assert is_disconnected_perfect_matching(domino, [(0, 1), (3, 4), (2, 5)])
        # same pairs perfectly match the prism but leave it connected
        assert not is_disconnected_perfect_matching(two_triangles, [(0, 1), (2, 3), (4, 5)])

    def test_disconnected_perfect_matching_matches_reference(self):
        # every perfect matching of random graphs, and the matching less
        # one pair, against removing the matching and testing the rest
        rng = random.Random(31)
        verdicts = set()
        for _ in range(300):
            g = random_graph(rng, 2 * rng.randint(1, 4), rng.uniform(0.3, 0.9))
            for m in bruteforce.perfect_matchings(g):
                pairs = sorted(m)
                got = is_disconnected_perfect_matching(g, pairs)
                assert got == bruteforce.removal_disconnects(g, pairs), (g, pairs)
                assert not is_disconnected_perfect_matching(g, pairs[1:])
                verdicts.add(got)
        assert verdicts == {True, False}
        assert not is_disconnected_perfect_matching(build_graph(0, []), [])

    def test_predicates_match_per_edge_reference(self):
        # random bipartitions, an empty and a full side, and planted
        # perfect matching cuts: random edges inside each side plus a
        # perfect matching across
        rng = random.Random(29)
        outcomes = set()
        for _ in range(600):
            n = rng.randint(1, 14)
            g = random_graph(rng, n, rng.uniform(0.05, 0.7))
            sides = [set(), set(range(n)), {v for v in range(n) if rng.random() < 0.5}]
            if n % 2 == 0:
                order = rng.sample(range(n), n)
                half = set(order[: n // 2])
                edges = {e for e in g.edges() if (e[0] in half) == (e[1] in half)}
                edges |= {(min(u, v), max(u, v)) for u, v in zip(order[: n // 2], order[n // 2 :])}
                g = build_graph(n, sorted(edges))
                sides.append(half)
            for x in sides:
                for check, low, high in (
                    (check_matching_cut, 0, 1),
                    (check_perfect_matching_cut, 1, 1),
                ):
                    got = check(g, x)
                    assert got == bruteforce.cut_reference(g, x, low, high)
                    outcomes.add((check.__name__, got[0] is not None, got[1] is not None))
                if not x or len(x) == n:
                    with pytest.raises(GraphError):
                        make_cut(g, x)
                else:
                    assert make_cut(g, x) == bruteforce.cut_reference(g, x, 0, n)[0]
        # every outcome of both predicates occurred: a cut, a witness,
        # and an empty side
        assert outcomes == {
            (name, cut, witness)
            for name in ("check_matching_cut", "check_perfect_matching_cut")
            for cut, witness in ((True, False), (False, True), (False, False))
        }

    def test_unknown_vertex_rejected(self):
        # membership is checked before the walk and the empty-side test:
        # on the triangle, vertex 0 is the first bad cross degree of
        # {0, 7}, and {1, 2, 99} has as many elements as the graph
        triangle = complete_graph(3)
        for g, x in ((path_graph(3), {0, 7}), (triangle, {0, 7}), (triangle, {1, 2, 99})):
            for build in (make_cut, check_matching_cut, check_perfect_matching_cut):
                with pytest.raises(GraphError):
                    build(g, x)

    @given(st.integers(0, 10_000), st.integers(4, 8), st.floats(0.2, 0.8))
    def test_matching_cut_check_matches_definition(self, seed, n, p):
        g = random_graph(random.Random(seed), n, p)
        x = {v for v in range(g.n) if random.Random(seed + 1).random() < 0.5} or {0}
        if len(x) == g.n:
            x.discard(g.n - 1)
        degs = bruteforce.cross_degrees(g, x)
        assert (check_matching_cut(g, x)[0] is not None) == all(d <= 1 for d in degs)
        assert (check_perfect_matching_cut(g, x)[0] is not None) == all(d == 1 for d in degs)

    @given(st.integers(0, 10_000), st.integers(4, 8), st.floats(0.2, 0.8))
    def test_crossing_recomputable_and_matching(self, seed, n, p):
        g = random_graph(random.Random(seed), n, p)
        x = {0, 1}
        cut = make_cut(g, x)
        expect = {(min(u, v), max(u, v)) for u in x for v in g.adj[u] if v not in x}
        assert {(min(a, b), max(a, b)) for a, b in cut.crossing} == expect
        if check_matching_cut(g, x)[0] is not None:
            assert is_matching(cut.crossing)

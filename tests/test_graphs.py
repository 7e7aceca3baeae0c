import random

import pytest
from hypothesis import given, strategies as st

import bruteforce
from matchcut import (
    GraphError,
    build_graph,
    check_matching_cut,
    check_perfect_matching_cut,
    is_disconnected_perfect_matching,
    is_matching,
    is_matching_cut,
    is_perfect_matching,
    is_perfect_matching_cut,
)
from matchcut.graphs import (
    bfs_levels,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    induced_subgraph,
    is_connected,
    make_cut,
    path_graph,
)
from conftest import random_graph


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
        assert is_connected(path_graph(4))
        assert not is_connected(build_graph(3, [(0, 1)]))

    def test_bfs_levels(self):
        g = path_graph(4)
        lv = bfs_levels(g, 1)
        assert lv.level_of == (1, 0, 1, 2)
        assert lv.h == 2
        assert lv.levels[0] == (1,)
        assert lv.levels[1] == (0, 2)
        assert lv.levels[2] == (3,)

    def test_bfs_unreachable_raises(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            bfs_levels(g, 0)

    def test_induced_subgraph_mapping(self):
        g = cycle_graph(5)
        sub, old = induced_subgraph(g, [1, 2, 4])
        assert old == (1, 2, 4)
        assert sub.n == 3 and list(sub.edges()) == [(0, 1)]


class TestCuts:
    def test_make_cut_crossing_oriented(self):
        g = cycle_graph(4)
        cut = make_cut(g, {0, 1})
        assert cut.x == frozenset({0, 1}) and cut.y == frozenset({2, 3})
        assert cut.crossing == ((0, 3), (1, 2))
        flipped = cut.flipped()
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

    @given(st.integers(0, 10_000), st.integers(4, 8), st.floats(0.2, 0.8))
    def test_matching_cut_check_matches_definition(self, seed, n, p):
        g = random_graph(random.Random(seed), n, p)
        x = {v for v in range(g.n) if random.Random(seed + 1).random() < 0.5} or {0}
        if len(x) == g.n:
            x.discard(g.n - 1)
        degs = bruteforce.cross_degrees(g, x)
        assert is_matching_cut(g, x) == all(d <= 1 for d in degs)
        assert is_perfect_matching_cut(g, x) == all(d == 1 for d in degs)

    @given(st.integers(0, 10_000), st.integers(4, 8), st.floats(0.2, 0.8))
    def test_crossing_recomputable_and_matching(self, seed, n, p):
        g = random_graph(random.Random(seed), n, p)
        x = {0, 1}
        cut = make_cut(g, x)
        expect = {(min(u, v), max(u, v)) for u in x for v in g.adj[u] if v not in x}
        assert {(min(a, b), max(a, b)) for a, b in cut.crossing} == expect
        if is_matching_cut(g, x):
            assert is_matching(cut.crossing)

import random

import networkx as nx
from hypothesis import given, strategies as st

import bruteforce
from matchcut import build_graph, is_matching
from matchcut.graphs import complete_graph, cycle_graph, path_graph
from matchcut.matching import has_perfect_matching, maximum_matching
from conftest import petersen_graph, random_graph


class TestKnownSizes:
    def test_paths_and_cycles(self):
        assert len(maximum_matching(path_graph(4))) == 2
        assert len(maximum_matching(path_graph(5))) == 2
        assert len(maximum_matching(cycle_graph(5))) == 2
        assert len(maximum_matching(cycle_graph(6))) == 3

    def test_empty_graph(self):
        assert maximum_matching(build_graph(3, [])) == []

    def test_petersen_is_five(self):
        assert len(maximum_matching(petersen_graph())) == 5

    def test_blossom_needed(self):
        # triangle with a pendant on each corner: matching must pair
        # each corner with its pendant after shrinking the odd cycle
        g = build_graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
        assert len(maximum_matching(g)) == 3

    def test_perfect_matching_predicate(self):
        assert has_perfect_matching(cycle_graph(4))
        assert not has_perfect_matching(cycle_graph(5))
        assert not has_perfect_matching(path_graph(3))
        assert has_perfect_matching(complete_graph(4))


class TestOutputContract:
    def test_pairs_sorted(self):
        mm = maximum_matching(cycle_graph(6))
        assert mm == sorted(mm)
        assert all(u < v for u, v in mm)

    def test_deterministic(self):
        g = random_graph(random.Random(7), 9, 0.5)
        assert maximum_matching(g) == maximum_matching(g)

    @given(st.integers(0, 100_000), st.integers(1, 9), st.floats(0.1, 0.9))
    def test_against_exhaustive(self, seed, n, p):
        g = random_graph(random.Random(seed), n, p)
        mm = maximum_matching(g)
        assert is_matching(mm)
        assert all(g.has_edge(u, v) for u, v in mm)
        assert len(mm) == bruteforce.max_matching_size(g)

    @given(st.integers(0, 100_000), st.integers(0, 40), st.floats(0.02, 0.9))
    def test_against_networkx(self, seed, n, p):
        g = random_graph(random.Random(seed), n, p)
        mm = maximum_matching(g)
        assert is_matching(mm)
        assert all(g.has_edge(u, v) for u, v in mm)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        assert len(mm) == len(nx.max_weight_matching(h, maxcardinality=True))

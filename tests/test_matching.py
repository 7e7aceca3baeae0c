import random

import networkx as nx
from hypothesis import given, strategies as st

import bruteforce
from matchcut import build_graph, is_matching
import matchcut.matching
from matchcut.matching import (
    first_completion,
    has_perfect_matching,
    maximum_matching,
    perfect_matching_through,
)
from matchcut.oracle import enumerate_matching_cuts
from conftest import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    petersen_graph,
    random_graph,
    sample_instances,
)


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

    def test_odd_order_needs_no_blossom(self, monkeypatch):
        def refuse(g):
            raise AssertionError("blossom ran")

        monkeypatch.setattr(matchcut.matching, "maximum_matching", refuse)
        assert not has_perfect_matching(cycle_graph(5))
        assert not has_perfect_matching(path_graph(1))


def refusing(*cuts):
    """The given cuts, then an AssertionError when one more is drawn."""
    yield from cuts
    raise AssertionError("a cut was drawn")


class TestFirstCompletion:
    def test_no_perfect_matching_draws_no_cut(self):
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        for g in (cycle_graph(5), path_graph(3), star):
            assert first_completion(g, refusing()) is None

    def test_first_completing_cut(self, domino):
        cuts = enumerate_matching_cuts(domino)[::-1]
        assert sorted(cuts[0].x) == [0, 3, 4]
        assert first_completion(domino, refusing(*cuts)) == ([(0, 1), (2, 3), (4, 5)], cuts[0])

    def test_no_cut_completes(self, two_triangles):
        cuts = enumerate_matching_cuts(two_triangles)
        assert len(cuts) == 1
        assert first_completion(two_triangles, iter(cuts)) is None


class TestPerfectMatchingThrough:
    def test_same_pairs_as_copy_reference(self):
        # every matching cut of random graphs, generator draws and unions
        # of both: searched in g's own ids, each completion must pair
        # what the completion of an induced copy pairs
        rng = random.Random(31)
        graphs = [
            random_graph(rng, rng.randint(2, 11), rng.uniform(0.15, 0.7)) for _ in range(150)
        ]
        graphs += sample_instances(5, 40, 12)
        graphs += [disjoint_union(a, b) for a, b in zip(graphs[::3], graphs[1::3])]
        kinds = set()
        count = 0
        for g in graphs:
            for cut in enumerate_matching_cuts(g):
                got = perfect_matching_through(g, cut)
                assert got == bruteforce.perfect_matching_through_reference(g, cut), (g, cut)
                count += 1
                kinds.add("uncrossed" if not cut.crossing else "crossed")
                kinds.add("odd" if (sum(cut.side) - len(cut.crossing)) % 2 else "even")
                kinds.add("completed" if got is not None else "none")
        assert count >= 2000
        assert kinds == {"uncrossed", "crossed", "odd", "even", "completed", "none"}


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

    def test_same_pairs_as_list_marking_reference(self):
        # random graphs, generator draws, and path squares, whose
        # augmenting searches from the second seed on each shrink a blossom
        rng = random.Random(23)
        graphs = [random_graph(rng, rng.randint(0, 40), rng.uniform(0.02, 0.9)) for _ in range(400)]
        graphs += sample_instances(3, 60, 120)
        for n in (2, 3, 7, 50, 301, 1000):
            graphs.append(build_graph(n, [(i, j) for i in range(n) for j in (i + 1, i + 2) if j < n]))
        for g in graphs:
            assert maximum_matching(g) == bruteforce.maximum_matching_reference(g)

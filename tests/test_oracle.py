import random

import pytest
from hypothesis import given, strategies as st

import bruteforce
from matchcut import (
    OracleBudgetError,
    OracleLimits,
    OracleSizeError,
    build_graph,
    is_perfect_matching_cut,
)
from matchcut.graphs import complete_graph, cycle_graph, disjoint_union, path_graph
from matchcut.oracle import (
    contains_induced,
    enumerate_matching_cuts,
    enumerate_one_in_three,
    has_dpm,
    has_mc,
    has_pmc,
    longest_induced_cycle,
    longest_induced_path,
    perfect_matchings,
)
from matchcut.reduction import Formula13
from conftest import petersen_graph, random_graph

WIDE = OracleLimits(max_vertices=30, budget_seconds=300)


class TestLimits:
    def test_size_guard(self):
        g = path_graph(31)
        with pytest.raises(OracleSizeError):
            has_mc(g)

    def test_budget_guard(self):
        g = random_graph(random.Random(3), 18, 0.4)
        with pytest.raises(OracleBudgetError):
            list(perfect_matchings(g, OracleLimits(30, 0.0)))

    def test_custom_limits_allow(self):
        g = path_graph(31)
        assert has_mc(g, OracleLimits(max_vertices=40, budget_seconds=60))


class TestEnumerateCuts:
    def test_modes_nest(self):
        g = cycle_graph(6)
        every = bruteforce.all_bipartitions(g)
        matching = enumerate_matching_cuts(g, "matching_only", WIDE)
        perfect = enumerate_matching_cuts(g, "perfect_only", WIDE)
        sides = lambda cuts: {c.x for c in cuts}
        assert sides(matching) <= sides(every)
        assert sides(perfect) <= sides(matching)
        # every nontrivial bipartition once, vertex 0 on the X side
        assert len(every) == 2 ** (g.n - 1) - 1
        assert all(0 in c.x for c in every)

    def test_stop_after(self):
        g = cycle_graph(8)
        cuts = enumerate_matching_cuts(g, "matching_only", WIDE, stop_after=1)
        assert len(cuts) == 1

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            enumerate_matching_cuts(cycle_graph(4), "bogus", WIDE)

    def test_classics(self):
        assert has_mc(cycle_graph(4)) and has_pmc(cycle_graph(4))
        assert not has_mc(complete_graph(4))
        assert has_mc(cycle_graph(5)) and not has_pmc(cycle_graph(5))
        assert not has_pmc(cycle_graph(6))

    @given(st.integers(0, 100_000), st.integers(2, 8), st.floats(0.15, 0.85))
    def test_against_bipartition_scan(self, seed, n, p):
        g = random_graph(random.Random(seed), n, p)
        got = {c.x for c in enumerate_matching_cuts(g, "matching_only", WIDE)}
        want = set(bruteforce.all_matching_cuts(g))
        assert got == want
        gotp = {c.x for c in enumerate_matching_cuts(g, "perfect_only", WIDE)}
        assert gotp == set(bruteforce.all_perfect_matching_cuts(g))

    @given(st.integers(0, 100_000), st.integers(4, 8), st.floats(0.2, 0.7))
    def test_perfect_cuts_are_disconnected_perfect_matchings(self, seed, n, p):
        # the crossing of a perfect matching cut always extends the cut
        # to a disconnected perfect matching of its graph
        g = random_graph(random.Random(seed), n, p)
        for cut in enumerate_matching_cuts(g, "perfect_only", WIDE):
            assert is_perfect_matching_cut(g, set(cut.x))
            assert bruteforce.removal_disconnects(g, cut.crossing)

    @given(st.integers(0, 100_000), st.integers(4, 8), st.floats(0.2, 0.7))
    def test_private_neighbor_involution(self, seed, n, p):
        g = random_graph(random.Random(seed), n, p)
        for cut in enumerate_matching_cuts(g, "perfect_only", WIDE):
            partner = {}
            for u, v in cut.crossing:
                partner[u] = v
                partner[v] = u
            assert all(partner[partner[v]] == v for v in range(g.n))


class TestPerfectMatchingsAndDpm:
    def test_enumeration_matches_brute(self):
        for seed in range(40):
            g = random_graph(random.Random(seed), 6, 0.5)
            got = {frozenset(map(tuple, m)) for m in perfect_matchings(g, WIDE)}
            assert got == set(bruteforce.perfect_matchings(g))

    def test_has_dpm_examples(self, two_triangles, domino):
        assert not has_dpm(two_triangles)
        assert has_dpm(domino)

    @given(st.integers(0, 100_000), st.integers(2, 8), st.floats(0.2, 0.8))
    def test_has_dpm_against_brute(self, seed, n, p):
        g = random_graph(random.Random(seed), n, p)
        assert has_dpm(g, WIDE) == bruteforce.has_dpm(g)


class TestInducedPathsAndCycles:
    def test_known_values(self, two_triangles):
        assert longest_induced_path(path_graph(6)) == 6
        assert longest_induced_path(complete_graph(5)) == 2
        assert longest_induced_path(two_triangles) == 4
        assert longest_induced_cycle(cycle_graph(7)) == 7
        assert longest_induced_cycle(path_graph(5)) is None
        assert longest_induced_cycle(complete_graph(4)) == 3
        assert longest_induced_cycle(two_triangles) == 4

    def test_petersen(self):
        p = petersen_graph()
        assert longest_induced_path(p) == 5
        assert longest_induced_cycle(p) == 6

    @given(st.integers(0, 100_000), st.integers(1, 8), st.floats(0.1, 0.9))
    def test_path_against_subset_scan(self, seed, n, p):
        g = random_graph(random.Random(seed), n, p)
        assert longest_induced_path(g, WIDE) == bruteforce.longest_induced_path(g)

    @given(st.integers(0, 100_000), st.integers(3, 8), st.floats(0.1, 0.9))
    def test_cycle_against_subset_scan(self, seed, n, p):
        g = random_graph(random.Random(seed), n, p)
        assert longest_induced_cycle(g, WIDE) == bruteforce.longest_induced_cycle(g)


class TestContainsInduced:
    def test_path_pattern(self):
        assert contains_induced(cycle_graph(6), path_graph(4))
        assert not contains_induced(complete_graph(5), path_graph(3))

    def test_pattern_larger_than_host(self):
        assert not contains_induced(path_graph(3), path_graph(4))

    def test_cycle_pattern(self):
        assert contains_induced(petersen_graph(), cycle_graph(5))
        assert not contains_induced(petersen_graph(), cycle_graph(4))

    def test_disconnected_pattern(self):
        two_p2 = disjoint_union(path_graph(2), path_graph(2))
        assert contains_induced(cycle_graph(6), two_p2)
        assert not contains_induced(path_graph(3), two_p2)
        assert not contains_induced(complete_graph(6), two_p2)

    @given(st.integers(0, 100_000))
    def test_against_networkx(self, seed):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        rng = random.Random(seed)
        host = random_graph(rng, rng.randint(2, 8), rng.uniform(0.2, 0.8))
        pat = random_graph(rng, rng.randint(1, 4), rng.uniform(0.2, 0.8))
        h = nx.Graph(); h.add_nodes_from(range(host.n)); h.add_edges_from(host.edges())
        q = nx.Graph(); q.add_nodes_from(range(pat.n)); q.add_edges_from(pat.edges())
        # networkx subgraph isomorphism is node-induced, same notion
        want = any(True for _ in GraphMatcher(h, q).subgraph_isomorphisms_iter())
        assert contains_induced(host, pat, WIDE) == want


class TestClassifyAndFormulas:
    def test_one_in_three_matches_brute(self):
        for seed in range(30):
            rng = random.Random(seed)
            nv = rng.randint(3, 6)
            clauses = tuple(
                tuple(rng.sample(range(nv), 3)) for _ in range(rng.randint(1, 4))
            )
            f = Formula13(nv, clauses)
            got = set(enumerate_one_in_three(f))
            want = set(bruteforce.one_in_three_assignments(nv, clauses))
            assert got == want

    def test_one_in_three_size_guard(self):
        f = Formula13(26, ((0, 1, 2),))
        with pytest.raises(OracleSizeError):
            enumerate_one_in_three(f)

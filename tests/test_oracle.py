import gc
import random

import pytest
from hypothesis import given, strategies as st

import bruteforce
import matchcut.oracle
from matchcut import (
    OracleBudgetError,
    OracleLimits,
    OracleSizeError,
    build_graph,
    check_perfect_matching_cut,
)
from matchcut.oracle import (
    contains_induced,
    enumerate_matching_cuts,
    find_dpm,
    has_dpm,
    longest_induced_cycle,
    longest_induced_path,
    perfect_matchings,
)
from matchcut.generators import iter_instances
from matchcut.reduction import Formula13
from matchcut.solver import solve
from conftest import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    oracle_has_mc,
    oracle_has_pmc,
    path_graph,
    petersen_graph,
    random_graph,
    relabelled,
)
from gadget import enumerate_one_in_three

WIDE = OracleLimits(max_vertices=30, budget_seconds=300)


class TestLimits:
    def test_size_guard(self):
        g = path_graph(31)
        with pytest.raises(OracleSizeError):
            oracle_has_mc(g)

    def test_budget_guard(self):
        g = random_graph(random.Random(3), 18, 0.4)
        with pytest.raises(OracleBudgetError):
            list(perfect_matchings(g, OracleLimits(30, 0.0)))

    def test_budget_guard_dpm(self):
        # a NO found in fewer than 1024 search steps still meets the budget
        g = random_graph(random.Random(3), 18, 0.4)
        with pytest.raises(OracleBudgetError):
            has_dpm(g, OracleLimits(30, 0.0))

    def test_custom_limits_allow(self):
        g = path_graph(31)
        assert oracle_has_mc(g, OracleLimits(max_vertices=40, budget_seconds=60))


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

    def test_stop_after_keeps_a_prefix(self):
        g = cycle_graph(8)
        for mode in ("matching_only", "perfect_only"):
            every = enumerate_matching_cuts(g, mode, WIDE)
            for k in range(len(every) + 2):
                assert enumerate_matching_cuts(g, mode, WIDE, stop_after=k) == every[:k]

    def test_negative_stop_after(self):
        with pytest.raises(ValueError):
            enumerate_matching_cuts(cycle_graph(8), "matching_only", WIDE, stop_after=-1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            enumerate_matching_cuts(cycle_graph(4), "bogus", WIDE)

    def test_classics(self):
        assert oracle_has_mc(cycle_graph(4)) and oracle_has_pmc(cycle_graph(4))
        assert not oracle_has_mc(complete_graph(4))
        assert oracle_has_mc(cycle_graph(5)) and not oracle_has_pmc(cycle_graph(5))
        assert not oracle_has_pmc(cycle_graph(6))

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
            assert check_perfect_matching_cut(g, set(cut.x))[0] is not None
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

    def test_listing_order(self):
        # lexicographic on the partner choices is the sorted order of the
        # matchings as sorted pair tuples
        graphs = [build_graph(0, []), path_graph(5), complete_graph(6)]
        graphs += [random_graph(random.Random(seed), 2 + seed % 7, 0.6) for seed in range(60)]
        for g in graphs:
            want = sorted(tuple(sorted(m)) for m in bruteforce.perfect_matchings(g))
            assert list(perfect_matchings(g, WIDE)) == want, g
        assert list(perfect_matchings(build_graph(0, []), WIDE)) == [()]

    def test_zero_budget_stops_before_the_first_matching(self):
        for g in (build_graph(0, []), complete_graph(4)):
            listing = perfect_matchings(g, OracleLimits(30, 0.0))
            with pytest.raises(OracleBudgetError):
                next(listing)

    def test_has_dpm_examples(self, two_triangles, domino):
        assert not has_dpm(two_triangles)
        assert has_dpm(domino)
        # g's one matching cut, X = {0, 1, 3, 4} with crossing edges 0-2
        # and 4-5, leaves {1, 3} of X and nothing of Y: even, but 1 and 3
        # are not adjacent
        g = build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 5), (3, 4), (4, 5)])
        assert not has_dpm(g) and not bruteforce.has_dpm(g)

    @given(st.integers(0, 100_000), st.integers(2, 8), st.floats(0.2, 0.8))
    def test_has_dpm_against_brute(self, seed, n, p):
        g = random_graph(random.Random(seed), n, p)
        assert has_dpm(g, WIDE) == bruteforce.has_dpm(g)

    def test_path_power_no_lists_no_matching(self, monkeypatch):
        # the k-th power of a path is a k-tree; for k >= 2 every edge lies
        # in a triangle and the triangles chain, so no matching cut exists
        # and the NO needs no perfect matching listed
        def refuse(*args, **kwargs):
            raise AssertionError("perfect matchings were listed")

        monkeypatch.setattr(matchcut.oracle, "perfect_matchings", refuse)
        for k in (2, 3, 4):
            for n in range(3, 31):
                edges = [(i, j) for i in range(n) for j in range(i + 1, min(n, i + k + 1))]
                assert find_dpm(build_graph(n, edges)) is None, (n, k)


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

    def test_larger_patterns_against_networkx(self):
        # patterns of 5-7 vertices, ordered layer by layer from each
        # component's lowest vertex: the tree 0-1, 0-2, 1-4, 2-3 comes out
        # 0, 1, 2, 3, 4, and relabelled equal path components put the
        # ascending-image check on orders other than their numbering
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        def nx_graph(g):
            out = nx.Graph()
            out.add_nodes_from(range(g.n))
            out.add_edges_from(g.edges())
            return out

        rng = random.Random(43)
        p2, p3 = path_graph(2), path_graph(3)
        patterns = [build_graph(5, [(0, 1), (0, 2), (1, 4), (2, 3)])]
        patterns += [relabelled(disjoint_union(p3, p3), rng) for _ in range(4)]
        patterns += [relabelled(disjoint_union(p2, p2, p2), rng) for _ in range(4)]
        patterns += [random_graph(rng, rng.randint(5, 7), rng.uniform(0.2, 0.6)) for _ in range(12)]
        answers = set()
        for pat in patterns:
            for _ in range(15):
                host = random_graph(rng, rng.randint(5, 10), rng.uniform(0.2, 0.7))
                want = any(True for _ in GraphMatcher(nx_graph(host), nx_graph(pat)).subgraph_isomorphisms_iter())
                assert contains_induced(host, pat, WIDE) == want, (host.edges(), pat.edges())
                answers.add(want)
        assert answers == {True, False}


# the loop searches and the recursive references they replace
RECURSIVE = {
    "_enumerate_pruned": bruteforce.enumerate_pruned_recursive,
    "perfect_matchings": bruteforce.perfect_matchings_recursive,
    "longest_induced_path": bruteforce.longest_induced_path_recursive,
    "longest_induced_cycle": bruteforce.longest_induced_cycle_recursive,
    "contains_induced": bruteforce.contains_induced_recursive,
}


def oracle_outputs(g, patterns):
    """Each oracle output on g, by name, as a function of no arguments."""
    o = matchcut.oracle
    calls = {
        "matching_only": lambda: o.enumerate_matching_cuts(g, "matching_only", WIDE),
        "perfect_only": lambda: o.enumerate_matching_cuts(g, "perfect_only", WIDE),
        "perfect_matchings": lambda: list(o.perfect_matchings(g, WIDE)),
        "find_dpm": lambda: o.find_dpm(g, WIDE),
        "has_dpm": lambda: o.has_dpm(g, WIDE),
        "longest_induced_path": lambda: o.longest_induced_path(g, WIDE),
        "longest_induced_cycle": lambda: o.longest_induced_cycle(g, WIDE),
    }
    for i, pattern in enumerate(patterns):
        calls[f"contains_induced {i}"] = lambda p=pattern: o.contains_induced(g, p, WIDE)
    return calls


class TestLoopsAgainstRecursion:
    """The searches run as loops over explicit stacks; on a pinned corpus
    every output and every deadline tick equals the recursive
    reference's."""

    def test_pinned_corpus(self, monkeypatch):
        made = []

        class CountingDeadline(matchcut.oracle._Deadline):
            def __init__(self, seconds):
                super().__init__(seconds)
                made.append(self)

        def run(calls):
            out = {}
            for name, call in calls.items():
                made.clear()
                out[name] = call(), sum(d.ticks for d in made)
            return out

        monkeypatch.setattr(matchcut.oracle, "_Deadline", CountingDeadline)
        rng = random.Random(28)
        # two equal path components: the pattern search's symmetry rule
        two_p3 = disjoint_union(path_graph(3), path_graph(3))
        found = set()
        for i in range(400):
            g = random_graph(rng, rng.randint(0, 13), rng.uniform(0.1, 0.9))
            pattern = random_graph(rng, rng.randint(1, 5), rng.uniform(0.2, 0.8))
            calls = oracle_outputs(g, [two_p3, pattern])
            loops = run(calls)
            with monkeypatch.context() as m:
                for name, reference in RECURSIVE.items():
                    m.setattr(matchcut.oracle, name, reference)
                want = run(calls)
            assert loops == want, (i, g.edges())
            found.add(loops["contains_induced 0"][0])
        assert found == {True, False}


class TestNoReferenceCycles:
    """No search leaves a reference cycle, so runs of many searches
    need no cyclic collector."""

    @pytest.fixture(autouse=True)
    def paused(self):
        was = gc.isenabled()
        gc.disable()
        gc.collect()
        yield
        (gc.enable if was else gc.disable)()

    def test_each_search(self):
        g = random_graph(random.Random(5), 12, 0.35)
        two_p2 = disjoint_union(path_graph(2), path_graph(2))
        for name, call in oracle_outputs(g, [two_p2]).items():
            call()
            assert gc.collect() == 0, name

    def test_crosscheck_instances(self):
        for g in iter_instances(0, 6, 14):
            for problem in ("mc", "dpm", "pmc"):
                found = solve(g, problem, "fourchordal").cut is not None
                assert found == (solve(g, problem, "oracle", WIDE).cut is not None)
        assert gc.collect() == 0


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

import random

import pytest
from hypothesis import given, strategies as st

import bruteforce
import matchcut.forcing
from conftest import (
    complete_graph,
    cycle_graph,
    ladder,
    path_graph,
    random_graph,
    relabelled,
    sample_instances,
    tree_prism,
)
from matchcut import (
    Graph,
    GraphError,
    build_graph,
    check_matching_cut,
    check_perfect_matching_cut,
    is_disconnected_perfect_matching,
    is_perfect_matching,
    propagate,
)
from matchcut.forcing import ForcingState, Refutation, _stable_seeds, _x_side
from matchcut.solver import solve


def fourchordal_mc(g: Graph):
    """The 4-chordal mc solver's cut, or None."""
    return solve(g, "mc", "fourchordal").cut


def fourchordal_dpm(g: Graph):
    """The 4-chordal dpm solver's (matching, cut), or None."""
    r = solve(g, "dpm", "fourchordal")
    return None if r.cut is None else (list(r.matching), r.cut)


def path_power(n: int, k: int) -> Graph:
    """The k-th power of the path on n vertices: a k-tree."""
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, min(n, i + k + 1))])


def random_ktree(n: int, k: int, rng: random.Random) -> Graph:
    """K_{k+1}, then each further vertex joined to a random k-clique."""
    edges = [(u, v) for u in range(k + 1) for v in range(u + 1, k + 1)]
    cliques = [tuple(c for c in range(k + 1) if c != skip) for skip in range(k + 1)]
    for v in range(k + 1, n):
        base = cliques[rng.randrange(len(cliques))]
        edges += [(u, v) for u in base]
        cliques += [tuple(sorted(set(base) - {u} | {v})) for u in base]
    return build_graph(n, edges)


def grid(rows: int, cols: int) -> Graph:
    """The rows x cols grid, vertex r * cols + c at row r, column c."""
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    return build_graph(rows * cols, edges)


def reference_seed_stream(g, tally):
    """_stable_seeds' cuts built with bruteforce.split_free_vertices;
    tally counts the stable seeds whose free split is mixed or clean."""
    for a, b in g.edges():
        state = propagate(g, a, b)
        if isinstance(state, Refutation):
            continue
        f_x, _, mixed = bruteforce.split_free_vertices(g, state)
        tally["clean" if mixed is None else "mixed"] += 1
        if mixed is None:
            cut, _ = check_matching_cut(g, state.x | f_x)
            if cut is not None:
                yield cut


def both_orientations(g):
    for u, v in g.edges():
        yield u, v
        yield v, u


class TestPropagate:
    def test_requires_seed_edge(self):
        with pytest.raises(GraphError):
            propagate(path_graph(3), 0, 2)

    def test_two_triangles_example(self, two_triangles):
        state = propagate(two_triangles, 4, 5)
        assert isinstance(state, ForcingState)
        assert state.x == frozenset({0, 1, 4})
        assert state.y == frozenset({2, 3, 5})
        assert state.a == frozenset({0, 4})
        assert state.b == frozenset({3, 5})
        assert state.free == frozenset()

    def test_triangle_refutes(self):
        result = propagate(complete_graph(3), 0, 1)
        assert isinstance(result, Refutation)
        assert result.rule == "R1" and result.vertex == 2

    def test_square_splits_on_opposite_edges(self):
        state = propagate(cycle_graph(4), 0, 1)
        assert isinstance(state, ForcingState)
        assert state.x == frozenset({0, 3})
        assert state.y == frozenset({1, 2})

    def test_pentagon_leaves_mixed_vertex(self):
        state = propagate(cycle_graph(5), 0, 1)
        assert isinstance(state, ForcingState)
        assert state.free == frozenset({3})

    def test_refutation_when_neighbor_sees_both_seeds(self):
        # both seeds adjacent to v: R1 fires
        g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
        result = propagate(g, 0, 1)
        assert isinstance(result, Refutation)

    def test_matched_pairs_consistent(self, two_triangles):
        state = propagate(two_triangles, 0, 3)
        assert isinstance(state, ForcingState)
        assert state.a <= state.x and state.b <= state.y
        # every vertex of A has exactly one cross neighbor, inside B
        for v in state.a:
            cross = [u for u in two_triangles.adj[v] if u in state.y]
            assert len(cross) == 1 and cross[0] in state.b

    def test_r2_fires(self):
        # 1 and 2 join X\A from A = {0}, so 3 sees B = {4} and X\A twice
        g = build_graph(5, [(0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (3, 4)])
        assert propagate(g, 0, 4) == Refutation("R2", 3)
        assert bruteforce.propagate_reference(g, 0, 4) == Refutation("R2", 3)

    def test_r3_fires(self):
        # R3 is rare: random graphs of at most 14 vertices almost never reach it
        edges = (
            "0-2 0-3 0-4 0-8 1-11 2-5 2-6 2-7 2-8 2-11 3-6 3-8 4-8 "
            "7-9 7-10 8-12 9-12 10-12 11-12"
        )
        g = build_graph(13, [tuple(map(int, e.split("-"))) for e in edges.split()])
        assert propagate(g, 2, 7) == Refutation("R3", 12)
        assert bruteforce.propagate_reference(g, 2, 7) == Refutation("R3", 12)

    def test_matches_reference_on_fixed_corpus(self):
        rng = random.Random(18)
        graphs = [ladder(k) for k in range(2, 12)]
        graphs += [ladder(k, (0,)) for k in range(2, 8)]
        graphs += [ladder(k, (0, 2 * k - 1)) for k in range(2, 8)]
        graphs += [tree_prism(t, rng) for t in range(2, 12)]
        graphs += sample_instances(18, 10, 60, min_n=20)
        graphs += [relabelled(g, rng) for g in list(graphs)]
        seen = set()
        for g in graphs:
            for a, b in both_orientations(g):
                got = propagate(g, a, b)
                assert got == bruteforce.propagate_reference(g, a, b), (g, a, b)
                if isinstance(got, Refutation):
                    seen.add(got.rule)
                elif len(got.a) >= 2:
                    seen.add("paired")
        # the corpus reaches both refutation rules and the pairing step
        assert {"R1", "R2", "paired"} <= seen

    @given(st.integers(0, 100_000), st.integers(2, 12), st.floats(0.1, 0.9))
    def test_matches_reference_on_random_graphs(self, seed, n, p):
        g = random_graph(random.Random(seed), n, p)
        for a, b in both_orientations(g):
            assert propagate(g, a, b) == bruteforce.propagate_reference(g, a, b)

    @given(st.integers(0, 100_000))
    def test_matches_reference_on_sample_instances(self, seed):
        for g in sample_instances(seed, 2, 14):
            for a, b in both_orientations(g):
                assert propagate(g, a, b) == bruteforce.propagate_reference(g, a, b)


class TestSplitFree:
    def test_mixed_component_reported(self):
        # free vertex 3 of C5 seeded on 0-1 sees X = {0, 4} and Y = {1, 2}
        g = cycle_graph(5)
        state = propagate(g, 0, 1)
        assert state.free == frozenset({3})
        assert _x_side(g, state) is None
        assert list(_stable_seeds(g)) == []

    def test_clean_split(self):
        # two squares hanging off the seed edge
        g = build_graph(
            7, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4), (4, 5), (4, 6), (5, 6)]
        )
        state = propagate(g, 0, 1)
        assert isinstance(state, ForcingState)
        assert state.free == frozenset({5, 6})
        assert _x_side(g, state) == state.x | {5, 6}

    def test_stream_equals_component_split_reference(self):
        # on connected graphs the one search from Y yields every cut the
        # component listing yields, and skips the same seeds
        rng = random.Random(20261019)
        graphs = [cycle_graph(n) for n in range(3, 16)]
        graphs += [grid(r, c) for r in range(1, 6) for c in range(r, 7) if r * c > 1]
        graphs += [ladder(k, (0,)) for k in range(2, 8)]
        graphs += [tree_prism(t, rng) for t in range(2, 10)]
        while len(graphs) < 1100:
            g = random_graph(rng, rng.randint(2, 14), rng.uniform(0.15, 0.5))
            if bruteforce.is_connected(g):
                graphs.append(g)
        graphs += [relabelled(g, rng) for g in list(graphs)]
        tally = {"clean": 0, "mixed": 0}
        cuts = 0
        for g in graphs:
            want = list(reference_seed_stream(g, tally))
            assert list(_stable_seeds(g)) == want, g
            cuts += len(want)
        assert len(graphs) >= 2000
        assert tally["clean"] >= 500 and tally["mixed"] >= 500 and cuts >= 1000, (tally, cuts)

    def test_no_component_listing(self, monkeypatch):
        # seeds that survive propagation, clean and mixed, are split
        # without listing a free component
        graphs = [cycle_graph(4), cycle_graph(5), ladder(6), ladder(5, (0,)), grid(3, 4)]
        graphs += [tree_prism(8, random.Random(3))]
        runs = [(g, p) for g in graphs for p in ("mc", "dpm")]
        answers = [solve(g, p, "fourchordal") for g, p in runs]
        assert all(
            any(isinstance(propagate(g, a, b), ForcingState) for a, b in g.edges())
            for g in graphs
        )

        def refuse(*args):
            raise AssertionError("components were listed")

        monkeypatch.setattr("matchcut.graphs.connected_components", refuse)
        monkeypatch.setattr("matchcut.forcing.connected_components", refuse, raising=False)
        assert [solve(g, p, "fourchordal") for g, p in runs] == answers
        assert any(a.cut is not None for a in answers)


class TestSolveMc:
    def test_triangle_pair_cut(self, two_triangles):
        cut = fourchordal_mc(two_triangles)
        assert cut is not None
        assert set(cut.x) == {0, 1, 4}
        assert check_matching_cut(two_triangles, set(cut.x))[0] is not None

    def test_no_cases(self):
        assert fourchordal_mc(complete_graph(4)) is None
        assert fourchordal_mc(complete_graph(3)) is None
        assert fourchordal_mc(path_graph(1)) is None

    def test_yes_cases(self):
        assert fourchordal_mc(path_graph(2)) is not None
        assert fourchordal_mc(cycle_graph(4)) is not None

    def test_invalid_cut_is_not_returned(self, monkeypatch):
        g = cycle_graph(4)
        assert fourchordal_mc(g) is not None
        # Y = {min B} gives that vertex two cross neighbors; the
        # matching-cut check must turn every seed's cut into a skip
        monkeypatch.setattr(
            matchcut.forcing,
            "_x_side",
            lambda g, state: frozenset(range(g.n)) - {min(state.b)},
        )
        assert fourchordal_mc(g) is None

    def test_triangle_edges_are_not_propagated(self, monkeypatch):
        # every edge of a k-tree (k >= 2) lies on a triangle, so no cut
        # crosses one: strips (path squares), path cubes and random
        # k-trees answer NO for mc and dpm without propagating a seed
        rng = random.Random(29)
        graphs = [path_power(n, k) for k in (2, 3) for n in (k + 1, 10, 101, 400)]
        graphs += [random_ktree(n, k, rng) for k in (2, 3, 4) for n in (k + 1, 30, 200)]
        graphs += [relabelled(g, rng) for g in list(graphs)]
        calls = []
        real = matchcut.forcing.propagate
        monkeypatch.setattr(
            matchcut.forcing, "propagate", lambda g, a, b: calls.append((a, b)) or real(g, a, b)
        )
        for g in graphs:
            assert fourchordal_mc(g) is None
            assert fourchordal_dpm(g) is None
        assert calls == []
        # the count is live: the seeds of a square are propagated
        assert fourchordal_mc(cycle_graph(4)) is not None and calls

    @given(st.integers(0, 100_000))
    def test_matches_oracle_on_fourchordal(self, seed):
        g = sample_instances(seed, 1, 11)[0]
        cut = fourchordal_mc(g)
        if cut is not None:
            assert check_matching_cut(g, set(cut.x))[0] is not None
        assert (cut is not None) == bruteforce.has_mc(g)


class TestSolveDpm:
    def test_domino(self, domino):
        matching, cut = fourchordal_dpm(domino)
        assert is_perfect_matching(domino, matching)
        assert check_matching_cut(domino, set(cut.x))[0] is not None
        assert set(map(frozenset, cut.crossing)) <= set(map(frozenset, matching))
        assert is_disconnected_perfect_matching(domino, matching)

    def test_no_cases(self, two_triangles):
        assert fourchordal_dpm(two_triangles) is None
        assert fourchordal_dpm(cycle_graph(4)) is not None
        assert fourchordal_dpm(path_graph(3)) is None
        assert fourchordal_dpm(complete_graph(4)) is None

    @pytest.mark.parametrize(
        "g",
        [ladder(20, (0,)), ladder(20, (0, 39)), ladder(21, (0, 20))],
        ids=["odd-ladder", "pendant-ladder-even-k", "pendant-ladder-odd-k"],
    )
    def test_pre_checks_answer_before_any_seed(self, monkeypatch, g):
        def no_seeds(*args):
            raise AssertionError("a seed was propagated")

        monkeypatch.setattr(matchcut.forcing, "propagate", no_seeds)
        assert fourchordal_dpm(g) is None
        # the patch is live: a ladder with a perfect matching reaches it
        with pytest.raises(AssertionError, match="seed was propagated"):
            fourchordal_dpm(ladder(4))

    def test_certificates_equal_reference(self):
        # completing each seed's cut leaves every certificate as pairing
        # the matched core's partners gives it: same matching, same cut
        rng = random.Random(20261018)
        graphs = [g for seed in range(300) for g in sample_instances(seed, 3, 40)]
        graphs += [ladder(k) for k in range(2, 40)]
        graphs += [tree_prism(t, rng) for t in range(2, 20)]
        graphs += [relabelled(g, rng) for g in list(graphs)]
        yes = 0
        for g in graphs:
            want = bruteforce.solve_dpm_reference(g)
            assert fourchordal_dpm(g) == want, g
            yes += want is not None
        assert yes >= 100

    @given(st.integers(0, 100_000))
    def test_matches_oracle_on_fourchordal(self, seed):
        g = sample_instances(seed, 1, 10)[0]
        got = fourchordal_dpm(g)
        if got is not None:
            matching, cut = got
            assert is_disconnected_perfect_matching(g, matching)
            assert set(map(frozenset, cut.crossing)) <= set(map(frozenset, matching))
        assert (got is not None) == bruteforce.has_dpm(g)


# connected 4-chordal graphs of 31-60 vertices, past the oracles' reach
BEYOND_ORACLE = (
    sample_instances(1, 8, 60, min_n=31)
    + [ladder(k) for k in (16, 23, 30)]
    + [ladder(16, (0,)), ladder(16, (0, 31)), ladder(23, (0, 22)), ladder(30, (0, 59))]
)


def verdicts(g: Graph) -> tuple[bool, bool, bool]:
    """pmc, dpm and mc verdicts, each YES certificate checked."""
    pmc = solve(g, "pmc", "fourchordal").cut
    if pmc is not None:
        assert check_perfect_matching_cut(g, pmc.x)[0] == pmc
    dpm = fourchordal_dpm(g)
    if dpm is not None:
        matching, cut = dpm
        assert is_disconnected_perfect_matching(g, matching)
        assert set(map(frozenset, cut.crossing)) <= set(map(frozenset, matching))
        assert check_matching_cut(g, cut.x)[0] == cut
    mc = fourchordal_mc(g)
    if mc is not None:
        assert check_matching_cut(g, mc.x)[0] == mc
    return pmc is not None, dpm is not None, mc is not None


@pytest.mark.parametrize("idx", range(len(BEYOND_ORACLE)))
def test_solvers_agree_beyond_oracle_range(idx):
    g = BEYOND_ORACLE[idx]
    pmc, dpm, mc = verdicts(g)
    # a perfect matching cut is a disconnected perfect matching, whose
    # crossing edges are a matching cut
    assert dpm or not pmc
    assert mc or not dpm
    assert verdicts(relabelled(g, random.Random(idx))) == (pmc, dpm, mc)


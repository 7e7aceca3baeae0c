import random

import pytest
from hypothesis import given, strategies as st

import bruteforce
import matchcut.forcing
from conftest import random_graph
from matchcut import (
    Graph,
    GraphError,
    build_graph,
    check_matching_cut,
    check_perfect_matching_cut,
    is_disconnected_perfect_matching,
    is_matching_cut,
    is_perfect_matching,
    propagate,
)
from matchcut.forcing import (
    ForcingState,
    Refutation,
    solve_dpm_4chordal,
    solve_mc_4chordal,
    split_free_vertices,
)
from matchcut.generators import sample_instances
from matchcut.graphs import complete_graph, cycle_graph, path_graph
from matchcut.pmc import solve_pmc_4chordal


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
    def test_requires_connected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        state = propagate(g, 0, 1)
        assert isinstance(state, ForcingState)
        with pytest.raises(GraphError):
            split_free_vertices(g, state)

    def test_mixed_component_reported(self):
        g = cycle_graph(5)
        state = propagate(g, 0, 1)
        fx, fy, mixed = split_free_vertices(g, state)
        assert fx is None and fy is None and mixed == frozenset({3})

    def test_clean_split(self):
        # two squares hanging off the seed edge
        g = build_graph(
            7, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4), (4, 5), (4, 6), (5, 6)]
        )
        state = propagate(g, 0, 1)
        assert isinstance(state, ForcingState)
        fx, fy, mixed = split_free_vertices(g, state)
        assert mixed is None
        assert fx == frozenset({5, 6}) and fy == frozenset()


class TestSolveMc:
    def test_triangle_pair_cut(self, two_triangles):
        cut = solve_mc_4chordal(two_triangles)
        assert cut is not None
        assert set(cut.x) == {0, 1, 4}
        assert is_matching_cut(two_triangles, set(cut.x))

    def test_no_cases(self):
        assert solve_mc_4chordal(complete_graph(4)) is None
        assert solve_mc_4chordal(complete_graph(3)) is None
        assert solve_mc_4chordal(path_graph(1)) is None

    def test_yes_cases(self):
        assert solve_mc_4chordal(path_graph(2)) is not None
        assert solve_mc_4chordal(cycle_graph(4)) is not None

    @given(st.integers(0, 100_000))
    def test_matches_oracle_on_fourchordal(self, seed):
        g = sample_instances(seed, 1, 11)[0]
        cut = solve_mc_4chordal(g)
        if cut is not None:
            assert is_matching_cut(g, set(cut.x))
        assert (cut is not None) == bruteforce.has_mc(g)


class TestSolveDpm:
    def test_domino(self, domino):
        matching, cut = solve_dpm_4chordal(domino)
        assert is_perfect_matching(domino, matching)
        assert is_matching_cut(domino, set(cut.x))
        assert set(map(frozenset, cut.crossing)) <= set(map(frozenset, matching))
        assert is_disconnected_perfect_matching(domino, matching)

    def test_no_cases(self, two_triangles):
        assert solve_dpm_4chordal(two_triangles) is None
        assert solve_dpm_4chordal(cycle_graph(4)) is not None
        assert solve_dpm_4chordal(path_graph(3)) is None
        assert solve_dpm_4chordal(complete_graph(4)) is None

    @pytest.mark.parametrize(
        "g",
        [ladder(20, (0,)), ladder(20, (0, 39)), ladder(21, (0, 20))],
        ids=["odd-ladder", "pendant-ladder-even-k", "pendant-ladder-odd-k"],
    )
    def test_pre_checks_answer_before_any_seed(self, monkeypatch, g):
        def no_seeds(*args):
            raise AssertionError("a seed was propagated")

        monkeypatch.setattr(matchcut.forcing, "propagate", no_seeds)
        assert solve_dpm_4chordal(g) is None
        # the patch is live: a ladder with a perfect matching reaches it
        with pytest.raises(AssertionError, match="seed was propagated"):
            solve_dpm_4chordal(ladder(4))

    @given(st.integers(0, 100_000))
    def test_matches_oracle_on_fourchordal(self, seed):
        g = sample_instances(seed, 1, 10)[0]
        got = solve_dpm_4chordal(g)
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
    pmc = solve_pmc_4chordal(g)
    if pmc is not None:
        assert check_perfect_matching_cut(g, pmc.x)[0] == pmc
    dpm = solve_dpm_4chordal(g)
    if dpm is not None:
        matching, cut = dpm
        assert is_disconnected_perfect_matching(g, matching)
        assert set(map(frozenset, cut.crossing)) <= set(map(frozenset, matching))
        assert check_matching_cut(g, cut.x)[0] == cut
    mc = solve_mc_4chordal(g)
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
    perm = list(range(g.n))
    random.Random(idx).shuffle(perm)
    relabelled = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert verdicts(relabelled) == (pmc, dpm, mc)


import random

import pytest
from hypothesis import given, strategies as st

import bruteforce
from conftest import random_graph
from matchcut import build_graph, is_perfect_matching_cut
from matchcut.generators import sample_instances
from matchcut.graphs import bfs_levels, complete_graph, cycle_graph, path_graph
from matchcut.pmc import (
    DeterminedSet,
    TraceEntry,
    build_pmc_formula,
    classify_leaf,
    solve_pmc_4chordal,
)
from matchcut.twosat import neg, pos, solve_2sat


class TestDeterminedSet:
    def test_membership_and_growth(self):
        det = DeterminedSet()
        assert 3 not in det and len(det) == 0
        det.add((3, 1))
        assert 3 in det and 1 in det and len(det) == 2
        assert det.members == frozenset({1, 3})

    def test_duplicate_rejected(self):
        det = DeterminedSet()
        det.add((3, 1))
        with pytest.raises(ValueError):
            det.add((2, 3))

    def test_trace_logging(self):
        det = DeterminedSet()
        det.log(5, "c1", (2,), (0, 1))
        assert det.trace == [TraceEntry(5, "c1", (2,), (0, 1))]


class TestClassifyLeaf:
    def test_single_open_neighbor_below(self):
        g = path_graph(3)
        cls = classify_leaf(g, bfs_levels(g, 0), DeterminedSet(), 2)
        assert cls.kind == "c1" and cls.u == 1

    def test_square_closure(self, two_squares):
        cls = classify_leaf(two_squares, bfs_levels(two_squares, 0), DeterminedSet(), 5)
        assert cls.kind == "c2"
        assert (cls.u1, cls.u2, cls.w) == (3, 4, 1)

    def test_pair_without_open_square_vertex(self):
        # 4-cycle 0-1-3-2; once the root is determined no square closes
        g = build_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        levels = bfs_levels(g, 0)
        open_det = DeterminedSet()
        assert classify_leaf(g, levels, open_det, 3).kind == "c2"
        taken = DeterminedSet()
        taken.add((0,))
        assert classify_leaf(g, levels, taken, 3).kind == "none"

    def test_pair_adjacent_below(self):
        g = build_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        cls = classify_leaf(g, bfs_levels(g, 0), DeterminedSet(), 3)
        assert cls.kind == "none"

    def test_isolated_component_neighbor(self):
        # below layer splits as {1} + {2, 3}; vertex 1 is the private one
        g = build_graph(
            5, [(0, 1), (0, 2), (0, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
        )
        cls = classify_leaf(g, bfs_levels(g, 0), DeterminedSet(), 4)
        assert cls.kind == "c3" and cls.u == 1

    def test_triple_single_component(self):
        g = build_graph(
            5,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)],
        )
        cls = classify_leaf(g, bfs_levels(g, 0), DeterminedSet(), 4)
        assert cls.kind == "none"

    def test_two_components_both_large(self):
        g = build_graph(
            6,
            [
                (0, 1), (0, 2), (0, 3), (0, 4),
                (1, 2), (3, 4),
                (1, 5), (2, 5), (3, 5), (4, 5),
            ],
        )
        cls = classify_leaf(g, bfs_levels(g, 0), DeterminedSet(), 5)
        assert cls.kind == "none"

    def test_no_open_vertex_below(self):
        g = path_graph(2)
        det = DeterminedSet()
        det.add((0,))
        assert classify_leaf(g, bfs_levels(g, 0), det, 1).kind == "none"


class TestBuildFormula:
    def test_two_squares_clause_sequence(self, two_squares):
        enc = build_pmc_formula(two_squares, 0)
        assert enc.blocked is None
        assert enc.formula is not None
        assert enc.formula.clauses == (
            (pos(5), pos(1)),
            (neg(5), neg(1)),
            (pos(3), pos(4)),
            (neg(3), neg(4)),
            (pos(1), neg(0)),
            (neg(1), pos(0)),
            (pos(3), neg(2)),
            (neg(3), pos(2)),
            (pos(2), pos(0)),
            (neg(2), neg(0)),
        )
        assert enc.determined.trace == [
            TraceEntry(5, "c2", (3, 4, 1), tuple(range(8))),
            TraceEntry(2, "c1", (0,), (8, 9)),
        ]
        model = solve_2sat(enc.formula)
        assert model is not None
        assert {v for v in range(6) if model[v]} in ({0, 1, 4}, {2, 3, 5})

    def test_braced_hexagon_unsat_formula(self, braced_hexagon):
        enc = build_pmc_formula(braced_hexagon, 2)
        assert enc.blocked is None
        assert enc.formula is not None
        assert enc.formula.clauses == (
            (pos(4), pos(3)),
            (neg(4), neg(3)),
            (pos(4), neg(5)),
            (neg(4), pos(5)),
            (pos(3), neg(2)),
            (neg(3), pos(2)),
            (pos(3), neg(5)),
            (neg(3), pos(5)),
            (pos(5), pos(1)),
            (neg(5), neg(1)),
            (pos(1), neg(0)),
            (neg(1), pos(0)),
            (pos(1), neg(2)),
            (neg(1), pos(2)),
            (pos(0), pos(2)),
            (neg(0), neg(2)),
        )
        assert [e.vertex for e in enc.determined.trace] == [4, 5, 0]
        assert solve_2sat(enc.formula) is None

    def test_braced_hexagon_reverse_blocks(self, braced_hexagon):
        enc = build_pmc_formula(braced_hexagon, 2, reverse_scan=True)
        assert enc.formula is None and enc.blocked == 4
        assert enc.determined.trace == [
            TraceEntry(5, "c2", (1, 3, 2), tuple(range(12)))
        ]

    def test_unpaired_root_blocks(self):
        # the sweep pairs 4-3 and 2-1, leaving the root with no partner
        enc = build_pmc_formula(path_graph(5), 0)
        assert enc.formula is None and enc.blocked == 0


class TestSolvePmc:
    def test_two_squares(self, two_squares):
        cut = solve_pmc_4chordal(two_squares)
        assert cut is not None and set(cut.x) in ({0, 1, 4}, {2, 3, 5})

    def test_domino(self, domino):
        cut = solve_pmc_4chordal(domino)
        assert cut is not None and set(cut.x) in ({0, 3, 4}, {1, 2, 5})

    def test_no_answers(self, two_triangles, braced_hexagon):
        assert solve_pmc_4chordal(two_triangles) is None
        assert solve_pmc_4chordal(braced_hexagon) is None
        assert solve_pmc_4chordal(path_graph(5)) is None
        assert solve_pmc_4chordal(path_graph(1)) is None

    def test_shallow_fallback(self):
        cut = solve_pmc_4chordal(path_graph(2))
        assert cut is not None and set(cut.x) == {0}
        assert solve_pmc_4chordal(complete_graph(3)) is None
        assert solve_pmc_4chordal(complete_graph(4)) is None
        assert solve_pmc_4chordal(build_graph(4, [(0, 1), (0, 2), (0, 3)])) is None

    def test_cycles(self):
        assert solve_pmc_4chordal(cycle_graph(4)) is not None
        assert solve_pmc_4chordal(cycle_graph(5)) is None

    def test_components_must_all_split(self, two_squares, domino):
        from matchcut.graphs import disjoint_union

        both = disjoint_union(two_squares, domino)
        cut = solve_pmc_4chordal(both)
        assert cut is not None
        assert is_perfect_matching_cut(both, set(cut.x))
        assert {v for v in cut.x if v < 6} in ({0, 1, 4}, {2, 3, 5})
        assert {v - 6 for v in cut.x if v >= 6} in ({0, 3, 4}, {1, 2, 5})
        with_triangle = disjoint_union(two_squares, complete_graph(3))
        assert solve_pmc_4chordal(with_triangle) is None

    @pytest.mark.parametrize("root", range(6))
    @pytest.mark.parametrize("reverse", [False, True])
    def test_order_invariance_on_fixtures(
        self, root, reverse, two_squares, braced_hexagon, domino, two_triangles
    ):
        yes = solve_pmc_4chordal(two_squares, root=root, reverse_scan=reverse)
        assert yes is not None and set(yes.x) in ({0, 1, 4}, {2, 3, 5})
        also = solve_pmc_4chordal(domino, root=root, reverse_scan=reverse)
        assert also is not None and set(also.x) in ({0, 3, 4}, {1, 2, 5})
        assert solve_pmc_4chordal(braced_hexagon, root=root, reverse_scan=reverse) is None
        assert solve_pmc_4chordal(two_triangles, root=root, reverse_scan=reverse) is None

    @given(st.integers(0, 100_000))
    def test_matches_oracle_on_fourchordal(self, seed):
        g = sample_instances(seed, 1, 11)[0]
        cut = solve_pmc_4chordal(g)
        if cut is not None:
            assert is_perfect_matching_cut(g, set(cut.x))
        assert (cut is not None) == bruteforce.has_pmc(g)

    @given(st.integers(0, 100_000))
    def test_returned_cuts_always_valid(self, seed):
        # no short-cycle promise here; a returned cut must still verify
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 0.7))
        cut = solve_pmc_4chordal(g)
        if cut is not None:
            assert is_perfect_matching_cut(g, set(cut.x))

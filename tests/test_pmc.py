import random

import pytest
from hypothesis import given, strategies as st

import bruteforce
from conftest import fan, ladder, random_graph, relabelled, tree_prism
from matchcut import build_graph, is_perfect_matching_cut
from matchcut.generators import sample_instances
from matchcut.graphs import (
    bfs_levels,
    complete_graph,
    component_roots,
    connected_components,
    cycle_graph,
    disjoint_union,
    is_connected,
    path_graph,
)
from matchcut.pmc import (
    TraceEntry,
    build_pmc_formula,
    classify_leaf,
    relation_clauses,
    solve_parity,
    solve_pmc_4chordal,
    solve_pmc_sweeps,
    sweep_components,
)
from matchcut.twosat import TwoSatInstance, neg, pos, solve_2sat


class TestClassifyLeaf:
    def test_single_open_neighbor_below(self):
        g = path_graph(3)
        assert classify_leaf(g, bfs_levels(g, 0), set(), 2) == ("c1", (1,))

    def test_square_closure(self, two_squares):
        # partners (u1, u2, w)
        assert classify_leaf(two_squares, bfs_levels(two_squares, 0), set(), 5) == ("c2", (3, 4, 1))

    def test_pair_without_open_square_vertex(self):
        # 4-cycle 0-1-3-2; once the root is determined no square closes
        g = build_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        levels = bfs_levels(g, 0)
        open_det = set()
        assert classify_leaf(g, levels, open_det, 3) == ("c2", (1, 2, 0))
        taken = {0}
        assert classify_leaf(g, levels, taken, 3) == ("none", ())

    def test_pair_adjacent_below(self):
        g = build_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert classify_leaf(g, bfs_levels(g, 0), set(), 3) == ("none", ())

    def test_isolated_component_neighbor(self):
        # below layer splits as {1} + {2, 3}; vertex 1 is the private one
        g = build_graph(
            5, [(0, 1), (0, 2), (0, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
        )
        assert classify_leaf(g, bfs_levels(g, 0), set(), 4) == ("c3", (1,))

    def test_triple_single_component(self):
        g = build_graph(
            5,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)],
        )
        assert classify_leaf(g, bfs_levels(g, 0), set(), 4) == ("none", ())

    def test_two_components_both_large(self):
        g = build_graph(
            6,
            [
                (0, 1), (0, 2), (0, 3), (0, 4),
                (1, 2), (3, 4),
                (1, 5), (2, 5), (3, 5), (4, 5),
            ],
        )
        assert classify_leaf(g, bfs_levels(g, 0), set(), 5) == ("none", ())

    def test_three_groups_below(self):
        # 1, 2 and 3 are pairwise non-adjacent: three single groups
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        assert classify_leaf(g, bfs_levels(g, 0), set(), 4) == ("none", ())

    def test_no_open_vertex_below(self):
        g = path_graph(2)
        det = {0}
        assert classify_leaf(g, bfs_levels(g, 0), det, 1) == ("none", ())


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
        assert enc.trace == [
            TraceEntry(5, "c2", (3, 4, 1), range(8)),
            TraceEntry(2, "c1", (0,), range(8, 10)),
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
        assert [e.vertex for e in enc.trace] == [4, 5, 0]
        assert solve_2sat(enc.formula) is None

    def test_braced_hexagon_reverse_blocks(self, braced_hexagon):
        enc = build_pmc_formula(braced_hexagon, 2, reverse_scan=True)
        assert enc.formula is None and enc.blocked == 4
        assert enc.trace == [
            TraceEntry(5, "c2", (1, 3, 2), range(12))
        ]

    def test_unpaired_root_blocks(self):
        # the sweep pairs 4-3 and 2-1, leaving the root with no partner
        enc = build_pmc_formula(path_graph(5), 0)
        assert enc.formula is None and enc.blocked == 0

    def test_shallow_components_block_unless_k2(self):
        # the sweep itself answers a component of height at most one as
        # the closed form does: blocked on all but K2, whose ends it pairs
        stars = [build_graph(k + 1, [(0, v) for v in range(1, k + 1)]) for k in range(2, 6)]
        cliques = [complete_graph(k) for k in range(3, 7)]
        pendants = complete_graph(8).edges() + [(0, v) for v in range(8, 40)]
        for g in [path_graph(2), *stars, *cliques, build_graph(40, pendants)]:
            assert g.degree(0) == g.n - 1
            for reverse in (False, True):
                enc = build_pmc_formula(g, 0, reverse_scan=reverse)
                assert (enc.relations is None) == (g.n != 2), g
        assert build_pmc_formula(path_graph(2), 0).relations == ((1, 0, True),)

    def test_formula_equal_on_every_read(self, two_squares):
        # a plain property: each read builds the same 2-CNF of the relations
        enc = build_pmc_formula(two_squares, 0)
        expected = TwoSatInstance(6, relation_clauses(enc.relations))
        assert enc.formula == enc.formula == expected


class TestSweepReference:
    """build_pmc_formula keeps its determined vertices in a plain set; it
    must reproduce the relations, blocked vertex and trace of the
    DeterminedSet sweep in bruteforce."""

    @staticmethod
    def outcomes(graphs, roots) -> set[str]:
        """Compare both sweeps of each graph from each root, in both scan
        orders; return the rules applied and the outcomes reached."""
        seen = set()
        for g in graphs:
            for root in roots(g):
                for reverse in (False, True):
                    got = build_pmc_formula(g, root, reverse_scan=reverse)
                    assert got == bruteforce.build_pmc_formula_reference(g, root, reverse_scan=reverse)
                    seen.add("blocked" if got.relations is None else "swept")
                    seen.update(entry.rule for entry in got.trace)
        return seen

    def test_generated_graphs(self):
        rng = random.Random(19)
        graphs = [g for seed in range(100) for g in sample_instances(seed, 3, 30) if is_connected(g)]
        graphs += [relabelled(g, rng) for g in list(graphs)]
        seen = self.outcomes(graphs, lambda g: range(4))
        assert seen == {"c1", "c2", "c3", "swept", "blocked"}

    def test_ladders_and_prisms(self):
        rng = random.Random(23)
        graphs = [ladder(k) for k in (2, 3, 6, 25, 60)] + [tree_prism(t, rng) for t in (3, 8, 20, 40)]
        graphs += [relabelled(g, rng) for g in list(graphs)]
        seen = self.outcomes(graphs, lambda g: (0, g.n // 2, g.n - 1))
        assert seen == {"c1", "c2", "swept"}

    def test_fans(self):
        # from the root each v_j meets K and s_j below, so c3 fires on a
        # layer of many components
        rng = random.Random(37)
        graphs = [fan(k, m) for k in (3, 5, 8) for m in (2, 5, 9)]
        graphs += [relabelled(g, rng) for g in list(graphs)]
        assert "c3" in self.outcomes(graphs, lambda g: (0, g.n // 2, g.n - 1))


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
        assert solve_pmc_4chordal(build_graph(0, [])) is None

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

    @pytest.mark.parametrize("first", ["blocked", "shallow"])
    def test_no_sweeps_every_component(self, first, braced_hexagon, two_squares, domino):
        # the first component answers NO: braced_hexagon blocks from
        # vertex 0, and K4 is shallow; the later ones are swept all the same
        head = braced_hexagon if first == "blocked" else complete_graph(4)
        g = disjoint_union(head, two_squares, domino)
        cut, sweep = solve_pmc_sweeps(g)
        assert cut is None
        assert sweep == sweep_components(g)
        if first == "blocked":
            assert sweep.blocked == [4] and sweep.shallow == []
        else:
            assert sweep.blocked == [] and sweep.shallow == [(0, 1, 2, 3)]
        # the later components' relations are all there, and only theirs
        later = sweep_components(g, list(component_roots(g))[1:])
        assert later.blocked == later.shallow == []
        assert sweep.relations == later.relations
        assert {v for a, b, _ in later.relations for v in (a, b)} == set(range(head.n, g.n))

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


class TestSolveParity:
    @staticmethod
    def formulas(g, roots):
        """The unblocked sweep encodings of g's components."""
        for comp in connected_components(g):
            sub, _ = bruteforce.induced_subgraph(g, comp)
            for root in roots(sub):
                for reverse in (False, True):
                    enc = build_pmc_formula(sub, root, reverse_scan=reverse)
                    if enc.relations is not None:
                        yield enc

    def agree(self, graphs, roots=lambda sub: range(min(sub.n, 3))) -> list[bool]:
        """Compare the parity pass with 2-SAT on every encoding; return
        which formulas were satisfiable."""
        satisfiable = []
        for g in graphs:
            for enc in self.formulas(g, roots):
                model = solve_parity(enc.var_count, enc.relations)
                assert model == solve_2sat(enc.formula)
                satisfiable.append(model is not None)
        return satisfiable

    def test_same_model_as_two_sat_on_random_graphs(self):
        rng = random.Random(7)
        graphs = [random_graph(rng, rng.randint(2, 14), rng.uniform(0.15, 0.6)) for _ in range(300)]
        satisfiable = self.agree(graphs)
        # both outcomes are covered
        assert True in satisfiable and False in satisfiable

    def test_same_model_as_two_sat_on_ladders_and_prisms(self):
        rng = random.Random(11)
        graphs = [ladder(k) for k in (2, 3, 6, 25)]
        graphs += [tree_prism(t, rng) for t in (3, 8, 20, 40)]
        graphs += [relabelled(g, rng) for g in list(graphs)]
        satisfiable = self.agree(graphs, roots=lambda sub: (0, sub.n // 2, sub.n - 1))
        assert satisfiable and all(satisfiable)

    def test_odd_cycle_and_unrelated_vertices(self):
        assert solve_parity(3, [(0, 1, True), (1, 2, True), (0, 2, True)]) is None
        assert solve_parity(3, [(0, 1, True), (1, 2, True), (0, 2, False)]) == (True, False, True)
        assert solve_parity(4, [(3, 1, False)]) == (True, True, True, True)
        assert solve_parity(2, [(1, 1, True)]) is None

    def test_wrong_model_is_not_returned(self, monkeypatch, two_squares):
        import matchcut.pmc

        assert solve_pmc_4chordal(two_squares) is not None
        # X = {0} gives vertex 0 two cross neighbors; the certificate
        # check must turn the YES into None
        monkeypatch.setattr(
            matchcut.pmc, "solve_parity", lambda n, relations: tuple(v == 0 for v in range(n))
        )
        assert solve_pmc_4chordal(two_squares) is None


class TestSweepInPlace:
    """sweep_components sweeps every component on g itself; it must
    return the merged sweep of the copy-based reference, ids included."""

    @staticmethod
    def kinds(g, roots) -> set[str]:
        """Compare both sweeps of g, and of the components after its
        first (a comps list other than all of them), for each root and
        scan order; return which outcomes occurred."""
        later = list(component_roots(g))[1:]
        later_sets = connected_components(g)[1:]
        seen = set()
        for root in roots:
            for reverse in (False, True):
                for part, sets in ((None, None), (later, later_sets)):
                    got = sweep_components(g, part, root, reverse)
                    assert got == bruteforce.sweep_components_reference(g, sets, root, reverse)
                    # a component swept to the root leaves a relation
                    kinds = zip(("swept", "shallow", "blocked"), got)
                    seen.update(kind for kind, found in kinds if found)
        return seen

    @staticmethod
    def roots(g):
        return (None, 0, g.n // 2, g.n - 1)

    def test_unions_of_generated_graphs(self):
        rng = random.Random(5)
        seen = set()
        for seed in range(20):
            g = disjoint_union(*sample_instances(seed, rng.randint(2, 4), 12))
            seen |= self.kinds(g, self.roots(g))
            seen |= self.kinds(relabelled(g, rng), self.roots(g))
        assert seen == {"shallow", "blocked", "swept"}

    def test_ladders_and_prisms(self):
        rng = random.Random(13)
        graphs = [ladder(k) for k in (2, 3, 6, 25)] + [tree_prism(t, rng) for t in (3, 8, 20)]
        graphs.append(disjoint_union(*graphs))
        graphs += [relabelled(g, rng) for g in list(graphs)]
        for g in graphs:
            assert self.kinds(g, self.roots(g)) == {"swept"}

    def test_blocked_and_shallow_components(self, two_squares, braced_hexagon, domino):
        rng = random.Random(17)
        parts = [
            path_graph(2), complete_graph(3), build_graph(4, [(0, 1), (0, 2), (0, 3)]),
            path_graph(5), cycle_graph(5), braced_hexagon, two_squares, domino, path_graph(1),
        ]
        for _ in range(6):
            rng.shuffle(parts)
            g = disjoint_union(*parts)
            for h in (g, relabelled(g, rng)):
                assert self.kinds(h, range(h.n)) == {"shallow", "blocked", "swept"}

import random

import pytest
from hypothesis import given, strategies as st

import bruteforce
from bruteforce import bfs_levels, reversed_layers
from conftest import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    fan,
    ladder,
    path_graph,
    random_graph,
    relabelled,
    sample_instances,
    sweep_side,
    tree_prism,
)
from matchcut import build_graph, check_perfect_matching_cut, solve
from matchcut.graphs import (
    component_levels,
    component_roots,
    connected_components,
)
from matchcut.pmc import (
    TraceEntry,
    build_pmc_formula,
    classify_leaf,
    relation_clauses,
    solve_parity,
    solve_pmc_sweeps,
    sweep_components,
)
from matchcut.twosat import TwoSatInstance
from twosat_reference import solve_2sat


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
        enc = build_pmc_formula(two_squares, bfs_levels(two_squares, 0))
        assert enc.blocked is None
        assert enc.formula is not None
        assert enc.formula.clauses == (
            ((5, True), (1, True)),
            ((5, False), (1, False)),
            ((3, True), (4, True)),
            ((3, False), (4, False)),
            ((1, True), (0, False)),
            ((1, False), (0, True)),
            ((3, True), (2, False)),
            ((3, False), (2, True)),
            ((2, True), (0, True)),
            ((2, False), (0, False)),
        )
        assert enc.trace == [
            TraceEntry(5, "c2", (3, 4, 1), range(8)),
            TraceEntry(2, "c1", (0,), range(8, 10)),
        ]
        model = solve_2sat(enc.formula)
        assert model is not None
        assert {v for v in range(6) if model[v]} in ({0, 1, 4}, {2, 3, 5})

    def test_braced_hexagon_unsat_formula(self, braced_hexagon):
        enc = build_pmc_formula(braced_hexagon, bfs_levels(braced_hexagon, 2))
        assert enc.blocked is None
        assert enc.formula is not None
        assert enc.formula.clauses == (
            ((4, True), (3, True)),
            ((4, False), (3, False)),
            ((4, True), (5, False)),
            ((4, False), (5, True)),
            ((3, True), (2, False)),
            ((3, False), (2, True)),
            ((3, True), (5, False)),
            ((3, False), (5, True)),
            ((5, True), (1, True)),
            ((5, False), (1, False)),
            ((1, True), (0, False)),
            ((1, False), (0, True)),
            ((1, True), (2, False)),
            ((1, False), (2, True)),
            ((0, True), (2, True)),
            ((0, False), (2, False)),
        )
        assert [e.vertex for e in enc.trace] == [4, 5, 0]
        assert solve_2sat(enc.formula) is None

    def test_braced_hexagon_reverse_blocks(self, braced_hexagon):
        enc = build_pmc_formula(braced_hexagon, reversed_layers(bfs_levels(braced_hexagon, 2)))
        assert enc.formula is None and enc.blocked == 4
        assert enc.trace == [
            TraceEntry(5, "c2", (1, 3, 2), range(12))
        ]

    def test_unpaired_root_blocks(self):
        # the sweep pairs 4-3 and 2-1, leaving the root with no partner
        g = path_graph(5)
        enc = build_pmc_formula(g, bfs_levels(g, 0))
        assert enc.formula is None and enc.blocked == 0

    def test_shallow_components_block_unless_k2(self):
        # the sweep itself answers a component of height at most one as
        # the closed form does: blocked on all but K2, whose ends it pairs
        stars = [build_graph(k + 1, [(0, v) for v in range(1, k + 1)]) for k in range(2, 6)]
        cliques = [complete_graph(k) for k in range(3, 7)]
        pendants = complete_graph(8).edges() + [(0, v) for v in range(8, 40)]
        for g in [path_graph(2), *stars, *cliques, build_graph(40, pendants)]:
            assert g.degree(0) == g.n - 1
            levels = bfs_levels(g, 0)
            for scan in (levels, reversed_layers(levels)):
                enc = build_pmc_formula(g, scan)
                assert (enc.relations is None) == (g.n != 2), g
        k2 = path_graph(2)
        assert build_pmc_formula(k2, bfs_levels(k2, 0)).relations == ((1, 0, True),)

    def test_formula_equal_on_every_read(self, two_squares):
        # a plain property: each read builds the same 2-CNF of the relations
        enc = build_pmc_formula(two_squares, bfs_levels(two_squares, 0))
        expected = TwoSatInstance(6, relation_clauses(enc.relations))
        assert enc.formula == enc.formula == expected


    def test_formula_is_none_or_the_relation_clauses(self, two_squares, braced_hexagon):
        # what a traced bench run reads off each sweep: .formula is None
        # on a blocked sweep, else the relations' clauses as a 2-CNF
        g = disjoint_union(two_squares, braced_hexagon, path_graph(5), ladder(6), fan(3, 2))
        level_of = [-1] * g.n
        blocked = set()
        for low, _ in component_roots(g):
            enc = build_pmc_formula(g, component_levels(g, low, level_of))
            blocked.add(enc.relations is None)
            if enc.relations is None:
                assert enc.formula is None
            else:
                assert isinstance(enc.formula, TwoSatInstance) and enc.formula.var_count == g.n
                assert enc.formula.clauses == relation_clauses(enc.relations)
                assert len(enc.formula.clauses) == 2 * len(enc.relations)
        assert blocked == {True, False}


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
                levels = bfs_levels(g, root)
                for reverse, scan in ((False, levels), (True, reversed_layers(levels))):
                    got = build_pmc_formula(g, scan)
                    assert got == bruteforce.build_pmc_formula_reference(g, root, reverse_scan=reverse)
                    seen.add("blocked" if got.relations is None else "swept")
                    seen.update(entry.rule for entry in got.trace)
        return seen

    def test_generated_graphs(self):
        rng = random.Random(19)
        graphs = [g for seed in range(100) for g in sample_instances(seed, 3, 30) if bruteforce.is_connected(g)]
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
        cut = solve(two_squares, "pmc", "fourchordal").cut
        assert cut is not None and set(cut.x) in ({0, 1, 4}, {2, 3, 5})

    def test_domino(self, domino):
        cut = solve(domino, "pmc", "fourchordal").cut
        assert cut is not None and set(cut.x) in ({0, 3, 4}, {1, 2, 5})

    def test_no_answers(self, two_triangles, braced_hexagon):
        assert solve(two_triangles, "pmc", "fourchordal").cut is None
        assert solve(braced_hexagon, "pmc", "fourchordal").cut is None
        assert solve(path_graph(5), "pmc", "fourchordal").cut is None
        assert solve(path_graph(1), "pmc", "fourchordal").cut is None
        assert solve(build_graph(0, []), "pmc", "fourchordal").cut is None

    def test_shallow_fallback(self):
        cut = solve(path_graph(2), "pmc", "fourchordal").cut
        assert cut is not None and set(cut.x) == {0}
        assert solve(complete_graph(3), "pmc", "fourchordal").cut is None
        assert solve(complete_graph(4), "pmc", "fourchordal").cut is None
        assert solve(build_graph(4, [(0, 1), (0, 2), (0, 3)]), "pmc", "fourchordal").cut is None

    def test_cycles(self):
        assert solve(cycle_graph(4), "pmc", "fourchordal").cut is not None
        assert solve(cycle_graph(5), "pmc", "fourchordal").cut is None

    def test_components_must_all_split(self, two_squares, domino):
        from conftest import disjoint_union

        both = disjoint_union(two_squares, domino)
        cut = solve(both, "pmc", "fourchordal").cut
        assert cut is not None
        assert check_perfect_matching_cut(both, set(cut.x))[0] is not None
        assert {v for v in cut.x if v < 6} in ({0, 1, 4}, {2, 3, 5})
        assert {v - 6 for v in cut.x if v >= 6} in ({0, 3, 4}, {1, 2, 5})
        with_triangle = disjoint_union(two_squares, complete_graph(3))
        assert solve(with_triangle, "pmc", "fourchordal").cut is None

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
        def side(g):
            levels = bfs_levels(g, root)
            return sweep_side(g, reversed_layers(levels) if reverse else levels)

        assert side(two_squares) in ({0, 1, 4}, {2, 3, 5})
        assert side(domino) in ({0, 3, 4}, {1, 2, 5})
        assert side(braced_hexagon) is None
        assert side(two_triangles) is None

    @given(st.integers(0, 100_000))
    def test_matches_oracle_on_fourchordal(self, seed):
        g = sample_instances(seed, 1, 11)[0]
        cut = solve(g, "pmc", "fourchordal").cut
        if cut is not None:
            assert check_perfect_matching_cut(g, set(cut.x))[0] is not None
        assert (cut is not None) == bruteforce.has_pmc(g)

    @given(st.integers(0, 100_000))
    def test_returned_cuts_always_valid(self, seed):
        # no short-cycle promise here; a returned cut must still verify
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 0.7))
        cut = solve(g, "pmc", "fourchordal").cut
        if cut is not None:
            assert check_perfect_matching_cut(g, set(cut.x))[0] is not None


class TestSolveReadsTheKernel:
    """On a connected graph, solve()'s pmc answer is the kernel's sweep
    from vertex 0 with its parity pass.  So the checks that vary the
    kernel's root and scan order (test_order_invariance_on_fixtures,
    acceptance 02 and 10) read the verdict that solve() gives."""

    def test_generated_graphs_and_fans(self):
        rng = random.Random(41)
        graphs = [g for seed in range(100) for g in sample_instances(seed, 3, 30)]
        graphs = [g for g in graphs if bruteforce.is_connected(g)]
        graphs += [fan(k, m) for k in (3, 5, 8) for m in (2, 5, 9)]
        # ladders and prisms are YES instances, so the X sides are compared
        graphs += [ladder(k) for k in (2, 3, 6, 25)] + [tree_prism(t, rng) for t in (3, 8, 20)]
        graphs += [relabelled(g, rng) for g in list(graphs)]
        verdicts = set()
        for g in graphs:
            cut = solve(g, "pmc", "fourchordal").cut
            side = sweep_side(g, bfs_levels(g, 0))
            assert (cut is not None) == (side is not None), g
            assert cut is None or cut.x == side, g
            verdicts.add(cut is not None)
        assert verdicts == {True, False}


class TestSolveParity:
    @staticmethod
    def formulas(g, roots):
        """The unblocked sweep encodings of g's components."""
        for comp in connected_components(g):
            sub, _ = bruteforce.induced_subgraph(g, comp)
            for root in roots(sub):
                levels = bfs_levels(sub, root)
                for scan in (levels, reversed_layers(levels)):
                    enc = build_pmc_formula(sub, scan)
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

        assert solve(two_squares, "pmc", "fourchordal").cut is not None
        # X = {0} gives vertex 0 two cross neighbors; the certificate
        # check must turn the YES into None
        monkeypatch.setattr(
            matchcut.pmc, "solve_parity", lambda n, relations: tuple(v == 0 for v in range(n))
        )
        assert solve(two_squares, "pmc", "fourchordal").cut is None


class TestSweepInPlace:
    """sweep_components sweeps every component on g itself; it must
    return the merged sweep of the copy-based reference, ids included.
    So must the kernel, layered in place from any root in either scan
    order."""

    @staticmethod
    def kinds(g, roots) -> set[str]:
        """Compare both sweeps of g, and of the components after its
        first (a comps list other than all of them), and the kernel's
        sweep of each root's component, in place and on a copy, for
        each root in roots and scan order; return which outcomes of
        the component sweeps occurred."""
        later = list(component_roots(g))[1:]
        later_sets = connected_components(g)[1:]
        seen = set()
        for part, sets in ((None, None), (later, later_sets)):
            got = sweep_components(g, part)
            assert got == bruteforce.sweep_components_reference(g, sets)
            # a component swept to the root leaves a relation
            kinds = zip(("swept", "shallow", "blocked"), got)
            seen.update(kind for kind, found in kinds if found)
        for root in roots:
            comp = next(c for c in connected_components(g) if root in c)
            sub, old_ids = bruteforce.induced_subgraph(g, comp)
            for reverse in (False, True):
                levels = component_levels(g, root, [-1] * g.n)
                want_levels = bfs_levels(sub, old_ids.index(root))
                if reverse:
                    levels, want_levels = reversed_layers(levels), reversed_layers(want_levels)
                got = build_pmc_formula(g, levels)
                want = build_pmc_formula(sub, want_levels)
                if want.relations is None:
                    assert got.relations is None and got.blocked == old_ids[want.blocked]
                else:
                    assert got.relations == tuple(
                        (old_ids[a], old_ids[b], d) for a, b, d in want.relations
                    )
        return seen

    @staticmethod
    def roots(g):
        return (0, g.n // 2, g.n - 1)

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

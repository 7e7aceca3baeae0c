import random
from itertools import combinations

import networkx as nx
import pytest

import bruteforce
from matchcut import GraphError, OracleLimits, check_perfect_matching_cut
from matchcut.graphs import make_cut
from matchcut.oracle import enumerate_matching_cuts
from matchcut.reduction import _GADGET_EDGES, Formula13, build_reduction
from conftest import (
    build_g_h_v,
    clause_gadget,
    complete_graph,
    cube_graph,
    oracle_has_pmc,
    heggernes_telle_graph,
    petersen_graph,
)
from gadget import (
    _expected_edge_count,
    assignment_to_pmc,
    cut_to_assignment,
    enumerate_one_in_three,
    is_one_in_three,
    verify_reduction,
)

F1 = Formula13(3, ((0, 1, 2),))
F2 = Formula13(4, ((0, 1, 2), (3, 2, 1)))
F3 = Formula13(6, ((0, 1, 2), (3, 2, 1), (2, 4, 5)))

WIDE = OracleLimits(max_vertices=42, budget_seconds=600)


def seeded_formulas():
    """Random formulas of 3-10 clauses that each repeat one clause three
    times, so its variables lie in three or more clauses, and leave at
    least two variables absent."""
    rng = random.Random(40)
    formulas = []
    for _ in range(20):
        var_count = rng.randint(5, 10)
        pool = rng.sample(range(var_count), var_count - 2)
        clauses = [tuple(rng.sample(pool, 3)) for _ in range(rng.randint(1, 8))]
        clauses += [clauses[0], clauses[0]]
        rng.shuffle(clauses)
        formulas.append(Formula13(var_count, tuple(clauses)))
    return formulas


def nx_of(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestFormula13:
    def test_validation(self):
        with pytest.raises(ValueError):
            Formula13(-1, ())
        with pytest.raises(ValueError):
            Formula13(3, ((0, 1),))
        with pytest.raises(ValueError):
            Formula13(3, ((0, 1, 1),))
        with pytest.raises(ValueError):
            Formula13(3, ((0, 1, 3),))

    def test_is_one_in_three(self):
        assert is_one_in_three(F1, (True, False, False))
        assert not is_one_in_three(F1, (True, True, False))
        assert not is_one_in_three(F1, (False, False, False))
        assert not is_one_in_three(F1, (True, False))
        assert is_one_in_three(F3, (False, True, False, False, True, False))


class TestHosts:
    def test_cube(self):
        g = cube_graph()
        assert g.n == 8 and g.m == 12
        assert all(g.degree(v) == 3 for v in range(8))
        assert nx.is_isomorphic(nx_of(g), nx.hypercube_graph(3))

    def test_petersen(self):
        g = petersen_graph()
        assert g.n == 10 and g.m == 15
        assert nx.is_isomorphic(nx_of(g), nx.petersen_graph())

    def test_nine_cycle_with_hub(self):
        g = heggernes_telle_graph()
        assert g.n == 10 and g.m == 12
        assert sorted(v for v in range(10) if g.degree(v) == 3) == [0, 3, 6, 9]


class TestSplice:
    def test_degree_three_required(self):
        ht = heggernes_telle_graph()
        with pytest.raises(GraphError):
            build_g_h_v(ht, 1)
        with pytest.raises(GraphError):
            build_g_h_v(ht, 10)

    def test_k4_host_shape(self):
        g = build_g_h_v(complete_graph(4), 0)
        assert g.n == 10 and g.m == 3 + 3 + 3 + 3 + 3
        # surviving triangle, attachment triangle, three pendant paths, apex
        assert g.degree(9) == 3
        for anchor in (0, 1, 2):
            assert g.degree(anchor) == 3
        for a in (3, 4, 5):
            assert g.degree(a) == 4
        for c in (6, 7, 8):
            assert g.degree(c) == 2

    def test_cube_splice_is_the_block(self):
        spliced = build_g_h_v(cube_graph(), 0)
        block = clause_gadget()
        assert spliced.n == block.n == 14
        assert spliced.m == block.m == 21
        assert nx.is_isomorphic(nx_of(spliced), nx_of(block))

    def test_petersen_splice_size(self):
        g = build_g_h_v(petersen_graph(), 0)
        assert g.n == 16 and g.m == (15 - 3) + 12

    def test_spliced_hosts_admit_perfect_cuts(self):
        ht = heggernes_telle_graph()
        assert oracle_has_pmc(build_g_h_v(petersen_graph(), 0))
        assert oracle_has_pmc(build_g_h_v(ht, 0))
        assert oracle_has_pmc(build_g_h_v(ht, 9))


class TestBlock:
    def test_block_wiring(self):
        g = clause_gadget()
        assert g.n == 14 and g.m == 21
        assert sorted(g.adj[0]) == [1, 2, 3]
        for k in range(3):
            assert g.has_edge(1 + k, 4 + k)
            assert g.has_edge(4 + k, 7 + k)
        assert g.has_edge(4, 5) and g.has_edge(4, 6) and g.has_edge(5, 6)
        assert sorted(g.adj[7]) == [4, 10, 11]
        assert sorted(g.adj[8]) == [5, 10, 12]
        assert sorted(g.adj[9]) == [6, 11, 12]
        assert sorted(g.adj[13]) == [10, 11, 12]

    def test_link_six_cycle(self):
        g = clause_gadget()
        assert bruteforce.is_induced_cycle_sequence(g, [7, 10, 8, 12, 9, 11])


class TestBuildReduction:
    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            build_reduction(Formula13(0, ()))

    @pytest.mark.parametrize(
        "formula,n,m",
        [(F1, 14, 22), (F2, 28, 59), (F3, 42, 109)],
    )
    def test_sizes(self, formula, n, m):
        layout = build_reduction(formula)
        assert layout.graph.n == n and layout.graph.m == m
        blocks = len(formula.clauses)
        assert len(layout.f_clique) == 2 * blocks
        assert len(layout.t_clique) == 3 * blocks
        assert layout.c == tuple(14 * j for j in range(blocks))
        assert layout.c_prime == tuple(14 * j + 13 for j in range(blocks))

    def test_cliques_and_separation(self):
        # every block edge and every F, T and Q pair present, and no
        # more edges than they count: the edge set is exactly theirs
        for formula in (F3, *seeded_formulas()):
            layout = build_reduction(formula)
            g = layout.graph
            assert g.m == _expected_edge_count(layout)
            for j in range(len(formula.clauses)):
                assert all(g.has_edge(14 * j + u, 14 * j + v) for u, v in _GADGET_EDGES)
            for clique in (layout.f_clique, layout.t_clique, *layout.q_cliques.values()):
                assert all(g.has_edge(u, v) for u, v in combinations(sorted(clique), 2))
            assert not any(
                g.has_edge(u, v) for u in layout.f_clique for v in layout.t_clique
            )

    def test_variable_cliques_frozen_ids(self):
        layout = build_reduction(F3)
        assert layout.q_cliques[2] == frozenset({3, 16, 29})
        assert layout.q_cliques[1] == frozenset({2, 17})
        assert layout.q_cliques[0] == frozenset({1})
        two = build_reduction(F2)
        assert two.q_cliques == {
            0: frozenset({1}),
            1: frozenset({2, 17}),
            2: frozenset({3, 16}),
            3: frozenset({15}),
        }
        one = build_reduction(F1)
        assert one.q_cliques == {
            0: frozenset({1}),
            1: frozenset({2}),
            2: frozenset({3}),
        }
        # only the variables that occur, in variable order, whatever the
        # order of their first occurrence
        assert list(build_reduction(Formula13(6, ((4, 2, 0),))).q_cliques) == [0, 2, 4]

    def test_role_tuples(self):
        layout = build_reduction(F2)
        assert layout.cjk == ((1, 2, 3), (15, 16, 17))
        assert layout.ajk == ((4, 5, 6), (18, 19, 20))
        assert layout.bjk == ((7, 8, 9), (21, 22, 23))
        assert layout.cjk_prime == ((10, 11, 12), (24, 25, 26))


class TestCutCorrespondence:
    def test_one_clause_cut_census(self):
        layout = build_reduction(F1)
        cuts = enumerate_matching_cuts(layout.graph, "matching_only", WIDE)
        assert len(cuts) == 5
        perfect = [c for c in cuts if check_perfect_matching_cut(layout.graph, c.x)[0] is not None]
        imperfect = [c for c in cuts if check_perfect_matching_cut(layout.graph, c.x)[0] is None]
        assert len(perfect) == 3
        # the two-vertex hub clique can split, which breaks perfectness
        assert sorted(sorted(c.x) for c in imperfect) == [
            [0, 1, 2, 3],
            [0, 1, 2, 3, 4, 5, 6],
        ]
        for cut in imperfect:
            with pytest.raises(GraphError):
                cut_to_assignment(layout, cut)
        decoded = sorted(cut_to_assignment(layout, c) for c in perfect)
        assert decoded == enumerate_one_in_three(F1)

    def test_two_clause_cuts_all_perfect(self):
        layout = build_reduction(F2)
        g = layout.graph
        cuts = enumerate_matching_cuts(g, "matching_only", WIDE)
        assert len(cuts) == 3
        for cut in cuts:
            assert check_perfect_matching_cut(g, cut.x)[0] is not None
            x, y = set(cut.x), set(cut.y)
            if not layout.f_clique <= x:
                x, y = y, x
            assert layout.f_clique <= x and layout.t_clique <= y
            for j in range(2):
                assert sum(1 for v in layout.cjk[j] if v in y) == 1
                assert sum(1 for v in layout.bjk[j] if v in y) == 2
                assert sum(1 for v in layout.cjk_prime[j] if v in y) == 1
        decoded = sorted(cut_to_assignment(layout, c) for c in cuts)
        assert decoded == enumerate_one_in_three(F2)

    def test_round_trip(self):
        for formula in (F1, F2, F3):
            layout = build_reduction(formula)
            for assignment in enumerate_one_in_three(formula):
                cut = assignment_to_pmc(layout, assignment)
                assert check_perfect_matching_cut(layout.graph, cut.x)[0] is not None
                assert cut_to_assignment(layout, cut) == assignment
                assert cut_to_assignment(layout, make_cut(layout.graph, cut.y)) == assignment

    def test_round_trip_with_absent_variables(self):
        # variables 0, 2 and 5 occur in no clause, have no clique, and
        # are read off every cut as False
        formula = Formula13(6, ((1, 3, 4), (4, 1, 3)))
        layout = build_reduction(formula)
        found = 0
        for assignment in enumerate_one_in_three(formula):
            if any(assignment[v] for v in (0, 2, 5)):
                continue
            found += 1
            cut = assignment_to_pmc(layout, assignment)
            assert cut_to_assignment(layout, cut) == assignment
        assert found == 3

    def test_unsatisfying_assignment_rejected(self):
        layout = build_reduction(F1)
        with pytest.raises(GraphError):
            assignment_to_pmc(layout, (False, False, False))
        with pytest.raises(GraphError):
            assignment_to_pmc(layout, (True, True, False))

    @pytest.mark.parametrize(
        "second",
        [
            (0, 1, 2),
            (2, 1, 0),
            (0, 1, 3),
            (1, 3, 0),
            (0, 3, 4),
            (3, 0, 4),
            (3, 4, 5),
            (5, 4, 3),
        ],
    )
    def test_pair_formulas_have_only_perfect_cuts(self, second):
        # every variable-sharing pattern between two clauses, both orders
        formula = Formula13(6, ((0, 1, 2), second))
        used = {0, 1, 2} | set(second)
        layout = build_reduction(formula)
        cuts = enumerate_matching_cuts(layout.graph, "matching_only", WIDE)
        normalized = {
            tuple(a[v] if v in used else False for v in range(6))
            for a in enumerate_one_in_three(formula)
        }
        assert len(cuts) == len(normalized)
        for cut in cuts:
            assert check_perfect_matching_cut(layout.graph, cut.x)[0] is not None
            assert cut_to_assignment(layout, cut) in normalized


class TestVerifyReduction:
    def test_one_clause_report(self):
        layout = build_reduction(F1)
        report = verify_reduction(F1, layout, WIDE)
        assert not report.partial
        by_name = {c.name: c for c in report.checks}
        assert by_name["vertex-count"].passed
        assert by_name["edge-count"].passed
        assert by_name["hub-clique"].passed
        assert by_name["guard-clique"].passed
        assert by_name["variable-cliques"].passed
        assert by_name["hub-guard-nonadjacent"].passed
        assert by_name["pmc-iff-one-in-three"].passed
        assert by_name["p14-free-and-8-chordal"].passed
        assert by_name["no-induced-3P6-or-2P7"].passed
        # with only two hub vertices the hub clique can split, so two
        # non-perfect matching cuts exist and the exhaustive check says so
        assert by_name["matching-cuts-all-perfect"].passed is False
        assert "5 matching cuts, 2 imperfect" in by_name["matching-cuts-all-perfect"].detail
        assert not report.all_passed
        assert "FAIL matching-cuts-all-perfect" in str(report)

    def test_two_clause_report(self):
        layout = build_reduction(F2)
        report = verify_reduction(F2, layout, WIDE)
        assert not report.partial
        by_name = {c.name: c for c in report.checks}
        assert by_name["matching-cuts-all-perfect"].passed
        assert "3 matching cuts, 0 imperfect" in by_name["matching-cuts-all-perfect"].detail
        assert report.all_passed

    def test_bounded_checks_flagged_when_too_large(self):
        layout = build_reduction(F2)
        tight = OracleLimits(max_vertices=20, budget_seconds=600)
        report = verify_reduction(F2, layout, tight)
        assert report.partial
        by_name = {c.name: c for c in report.checks}
        assert by_name["vertex-count"].completed and by_name["vertex-count"].passed
        assert not by_name["matching-cuts-all-perfect"].completed
        assert by_name["matching-cuts-all-perfect"].passed is None
        assert "SKIP" in str(report)

    def test_frozen_path_and_cycle_lengths(self):
        report = verify_reduction(F1, build_reduction(F1), WIDE)
        by_name = {c.name: c for c in report.checks}
        detail = by_name["p14-free-and-8-chordal"].detail
        assert "longest induced path 9" in detail
        assert "longest induced cycle 7" in detail


class TestListedWitnesses:
    P13S = [
        [7, 10, 8, 12, 9, 6, 19, 16, 29, 28, 0, 2, 17],
        [7, 10, 8, 12, 9, 6, 18, 21, 24, 27, 41, 40, 37],
        [7, 10, 8, 12, 9, 6, 18, 21, 24, 27, 14, 17, 2],
    ]
    C8S = [
        [6, 18, 21, 24, 27, 13, 12, 9],
        [19, 33, 36, 40, 41, 28, 29, 16],
        [5, 2, 17, 14, 28, 29, 3, 6],
    ]

    def test_paths(self):
        g = build_reduction(F3).graph
        for seq in self.P13S:
            assert bruteforce.is_induced_path_sequence(g, seq)

    def test_cycles(self):
        g = build_reduction(F3).graph
        for seq in self.C8S:
            assert bruteforce.is_induced_cycle_sequence(g, seq)

"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS or
FAIL line (run pytest with -s to see the lines for passing tests).
All thresholds are exact; there are no numeric tolerances.

One criterion is expected to fail: with a single clause the hub clique
of the hardness gadget is a plain edge, which is too small to force
every matching cut to be perfect.  The test reports the counterexample
rather than weakening the check.
"""

import itertools
import random

import bruteforce
from bruteforce import bfs_levels, reversed_layers
from conftest import (
    disjoint_union,
    has_mc,
    has_pmc,
    path_graph,
    sample_instances,
    sweep_side,
    verify_assignment,
)
from gadget import assignment_to_pmc, cut_to_assignment, enumerate_one_in_three
from matchcut import (
    OracleLimits,
    build_graph,
    check_perfect_matching_cut,
    is_disconnected_perfect_matching,
    is_perfect_matching,
    solve,
)
from matchcut.matching import has_perfect_matching, maximum_matching
from matchcut.oracle import (
    contains_induced,
    enumerate_matching_cuts,
    has_dpm,
    longest_induced_cycle,
    longest_induced_path,
)
from matchcut.pmc import TraceEntry, build_pmc_formula
from matchcut.reduction import Formula13, build_reduction
from matchcut.twosat import TwoSatInstance
from twosat_reference import solve_2sat

WIDE = OracleLimits(max_vertices=42, budget_seconds=600.0)

ONE_CLAUSE = Formula13(3, ((0, 1, 2),))
TWO_CLAUSE = Formula13(4, ((0, 1, 2), (3, 2, 1)))
THREE_CLAUSE = Formula13(6, ((0, 1, 2), (3, 2, 1), (2, 4, 5)))


def report(name: str, ok: bool, detail: str = "") -> bool:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {name}: {verdict}{suffix}")
    return ok


class TestFixedInstances:
    def test_01_pmc_certificate_on_twin_squares(self, two_squares):
        cut = solve(two_squares, "pmc", "fourchordal").cut
        ok = (
            cut is not None
            and set(cut.x) in ({0, 1, 4}, {2, 3, 5})
            and set(cut.crossing) == {(0, 2), (1, 3), (4, 5)}
            and check_perfect_matching_cut(two_squares, cut.x)[0] is not None
        )
        encoding = build_pmc_formula(two_squares, bfs_levels(two_squares, 0))
        expected = (
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
        ok = ok and encoding.formula is not None
        ok = ok and encoding.formula.clauses == expected
        assert report(
            "01 twin-squares certificate",
            ok,
            "partition 014|235, ten clauses from root 0",
        )

    def test_02_braced_hexagon_rejected_under_both_scans(self, braced_hexagon):
        forward = build_pmc_formula(braced_hexagon, bfs_levels(braced_hexagon, 2))
        ok = forward.formula is not None
        ok = ok and len(forward.formula.clauses) == 16
        ok = ok and solve_2sat(forward.formula) is None
        backward_levels = reversed_layers(bfs_levels(braced_hexagon, 2))
        backward = build_pmc_formula(braced_hexagon, backward_levels)
        ok = ok and backward.formula is None and backward.blocked == 4
        ok = ok and backward.trace == [
            TraceEntry(5, "c2", (1, 3, 2), range(12))
        ]
        ok = ok and solve(braced_hexagon, "pmc", "fourchordal").cut is None
        ok = ok and sweep_side(braced_hexagon, backward_levels) is None
        assert report(
            "02 braced-hexagon refusal",
            ok,
            "16-clause encoding unsatisfiable, reverse scan blocks at vertex 4",
        )

    def test_03_prism_and_domino_separate_the_problems(self, two_triangles, domino):
        prism_ok = (
            has_mc(two_triangles) is True
            and solve(two_triangles, "mc", "fourchordal").cut is not None
            and has_perfect_matching(two_triangles)
            and has_dpm(two_triangles) is False
            and solve(two_triangles, "dpm", "fourchordal").cut is None
            and has_pmc(two_triangles) is False
            and solve(two_triangles, "pmc", "fourchordal").cut is None
        )
        pmcs = enumerate_matching_cuts(domino, "perfect_only", WIDE)
        domino_ok = len(pmcs) == 1 and sorted(pmcs[0].x) == [0, 3, 4]
        witness = [(0, 1), (3, 4), (2, 5)]
        domino_ok = (
            domino_ok
            and is_perfect_matching(domino, witness)
            and is_disconnected_perfect_matching(domino, witness)
            and set(witness) != set(pmcs[0].crossing)
            and check_perfect_matching_cut(domino, {0, 1, 2, 3})[0] is None
        )
        assert report(
            "03 prism-domino verdicts",
            prism_ok and domino_ok,
            "prism: mc only; domino: lone perfect cut 034|125, "
            "plus a disconnecting matching that is no cut crossing",
        )

    def test_07_listed_witness_sequences(self):
        g = build_reduction(THREE_CLAUSE).graph
        paths = [
            [7, 10, 8, 12, 9, 6, 19, 16, 29, 28, 0, 2, 17],
            [7, 10, 8, 12, 9, 6, 18, 21, 24, 27, 41, 40, 37],
            [7, 10, 8, 12, 9, 6, 18, 21, 24, 27, 14, 17, 2],
        ]
        cycles = [
            [6, 18, 21, 24, 27, 13, 12, 9],
            [19, 33, 36, 40, 41, 28, 29, 16],
            [5, 2, 17, 14, 28, 29, 3, 6],
        ]
        ok = all(len(p) == 13 for p in paths) and all(len(c) == 8 for c in cycles)
        ok = ok and all(bruteforce.is_induced_path_sequence(g, p) for p in paths)
        ok = ok and all(bruteforce.is_induced_cycle_sequence(g, c) for c in cycles)
        assert report(
            "07 witness sequences",
            ok,
            "three induced 13-vertex paths and three induced 8-cycles",
        )


class TestGadgetStructure:
    def test_04_block_counts_scale_with_clauses(self):
        sizes = {1: 22, 2: 59, 3: 109}
        ok = True
        for m, formula in ((1, ONE_CLAUSE), (2, TWO_CLAUSE), (3, THREE_CLAUSE)):
            layout = build_reduction(formula)
            g = layout.graph
            ok = ok and g.n == 14 * m and g.m == sizes[m]
            ok = ok and len(layout.f_clique) == 2 * m
            ok = ok and len(layout.t_clique) == 3 * m
            ok = ok and all(
                v not in g.adj[u]
                for u in layout.f_clique
                for v in layout.t_clique
            )
        assert report(
            "04 gadget growth",
            ok,
            "14m vertices, 22/59/109 edges, hub 2m and guard 3m kept apart",
        )

    def test_05_every_matching_cut_perfect(self):
        g1 = build_reduction(ONE_CLAUSE).graph
        cuts1 = enumerate_matching_cuts(g1, "matching_only", WIDE)
        imperfect1 = [c for c in cuts1 if check_perfect_matching_cut(g1, c.x)[0] is None]
        one_ok = len(cuts1) == 3 and not imperfect1

        g2 = build_reduction(TWO_CLAUSE).graph
        cuts2 = enumerate_matching_cuts(g2, "matching_only", WIDE)
        imperfect2 = [c for c in cuts2 if check_perfect_matching_cut(g2, c.x)[0] is None]
        two_ok = len(cuts2) == 3 and not imperfect2

        sides = [sorted(c.x) for c in imperfect1]
        detail = (
            f"one clause: {len(cuts1)} matching cuts, {len(imperfect1)} imperfect"
            f" with x-sides {sides}; two clauses: {len(cuts2)} cuts,"
            f" {len(imperfect2)} imperfect; a two-vertex hub clique cannot"
            " force perfection"
        )
        assert report("05 cuts-all-perfect", one_ok and two_ok, detail), detail

    def test_06_exhaustive_small_formula_correspondence(self):
        triples = list(itertools.combinations(range(6), 3))
        formulas = [(t,) for t in triples] + list(
            itertools.combinations_with_replacement(triples, 2)
        )

        def normalize(assignment, used):
            return tuple(
                v in used and assignment[v] for v in range(len(assignment))
            )

        ok = len(formulas) == 230
        cut_total = 0
        for clauses in formulas:
            formula = Formula13(6, clauses)
            layout = build_reduction(formula)
            used = {v for clause in clauses for v in clause}
            sat = {
                normalize(a, used) for a in enumerate_one_in_three(formula, WIDE)
            }
            ok = ok and has_pmc(layout.graph, WIDE) == bool(sat)
            cuts = enumerate_matching_cuts(layout.graph, "perfect_only", WIDE)
            decoded = {
                normalize(cut_to_assignment(layout, c), used) for c in cuts
            }
            ok = ok and len(decoded) == len(cuts) and decoded == sat
            for a in sat:
                back = cut_to_assignment(layout, assignment_to_pmc(layout, a))
                ok = ok and normalize(back, used) == a
            cut_total += len(cuts)
            if not ok:
                break
        assert report(
            "06 exhaustive correspondence",
            ok,
            f"230 formulas, {cut_total} perfect cuts decode one-to-one",
        )

    def test_08_gadgets_stay_in_the_target_classes(self):
        g1 = build_reduction(ONE_CLAUSE).graph
        lip1 = longest_induced_path(g1, WIDE)
        lic1 = longest_induced_cycle(g1, WIDE)
        two_p7 = disjoint_union(path_graph(7), path_graph(7))
        three_p6 = disjoint_union(
            disjoint_union(path_graph(6), path_graph(6)), path_graph(6)
        )
        ok = lip1 == 9 and lic1 == 7
        ok = ok and not contains_induced(g1, two_p7, WIDE)
        ok = ok and not contains_induced(g1, three_p6, WIDE)

        g2 = build_reduction(TWO_CLAUSE).graph
        lip2 = longest_induced_path(g2, WIDE)
        lic2 = longest_induced_cycle(g2, WIDE)
        ok = ok and lip2 == 13 and lic2 == 8
        assert report(
            "08 class membership",
            ok,
            f"induced path/cycle maxima {lip1}/{lic1} then {lip2}/{lic2},"
            " both below 14 and at most 8",
        )


class TestRandomizedAgreement:
    def test_09_solvers_match_oracles(self):
        graphs = sample_instances(20230501, 200, 16)
        bad = 0
        for g in graphs:
            for problem, oracle_has in (("mc", has_mc), ("dpm", has_dpm), ("pmc", has_pmc)):
                if (solve(g, problem, "fourchordal").cut is not None) != oracle_has(g, WIDE):
                    bad += 1
        assert report(
            "09 solver-oracle sweep",
            bad == 0,
            f"200 seeded instances up to 16 vertices, {bad} disagreements",
        )

    def test_10_pmc_verdict_ignores_root_and_scan_order(self):
        graphs = sample_instances(424242, 50, 14)
        unstable = 0
        for g in graphs:
            layerings = [bfs_levels(g, root) for root in range(g.n)]
            verdicts = {
                sweep_side(g, levels) is not None
                for levels in layerings + [reversed_layers(lv) for lv in layerings]
            }
            if len(verdicts) != 1:
                unstable += 1
        assert report(
            "10 sweep-order invariance",
            unstable == 0,
            f"50 seeded instances, every root and scan order, {unstable} unstable",
        )

    def test_11_support_routines_match_brute_force(self):
        rng = random.Random(11)
        bad_sat = 0
        for _ in range(500):
            nv = rng.randint(1, 12)
            clause_count = rng.randint(0, 3 * nv)
            clauses = tuple(
                (
                    (rng.randrange(nv), rng.random() < 0.5),
                    (rng.randrange(nv), rng.random() < 0.5),
                )
                for _ in range(clause_count)
            )
            inst = TwoSatInstance(nv, clauses)
            got = solve_2sat(inst)
            want = bruteforce.solve_2sat(nv, clauses)
            if (got is None) != (want is None):
                bad_sat += 1
            elif got is not None and not verify_assignment(inst, got):
                bad_sat += 1

        bad_matching = 0
        for i in range(200):
            local = random.Random(1000 + i)
            n = local.randint(1, 10)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if local.random() < 0.4
            ]
            g = build_graph(n, edges)
            if len(maximum_matching(g)) != bruteforce.max_matching_size(g):
                bad_matching += 1
        assert report(
            "11 support routines",
            bad_sat == 0 and bad_matching == 0,
            f"500 satisfiability and 200 matching checks,"
            f" {bad_sat + bad_matching} mismatches",
        )

"""Each answer check accepts a right answer and rejects a corrupted
certificate and a flipped verdict.

Run from the repository root: ``python3 -m pytest bench -q``.
"""

import json
import random

import pytest

import checks
import families as F

LADDER = F.ladder(3)  # top 0 1 2, bottom 3 4 5, rungs i -- i+3
PMC = {"verdict": "YES", "x": [0, 1, 2], "y": [3, 4, 5], "crossing": [[0, 3], [1, 4], [2, 5]]}
MC = {"verdict": "YES", "x": [0, 3], "y": [1, 2, 4, 5], "crossing": [[0, 1], [3, 4]]}
DPM = {**PMC, "matching": [[0, 3], [1, 4], [2, 5]]}


def solve(problem, expected, payload, fam=LADDER):
    checks.check_solve(fam.n, fam.edges, problem, expected, payload)


def test_right_answers_pass():
    solve("pmc", True, PMC)
    solve("mc", True, MC)
    solve("mc", True, PMC)
    solve("dpm", True, DPM)
    solve("dpm", False, {"verdict": "NO"}, F.odd_ladder(3))


@pytest.mark.parametrize("problem, payload", [("pmc", PMC), ("mc", MC), ("dpm", DPM)])
def test_flipped_verdict_fails(problem, payload):
    with pytest.raises(checks.CheckError):
        solve(problem, False, payload)
    with pytest.raises(checks.CheckError):
        solve(problem, True, {"verdict": "NO"})


@pytest.mark.parametrize("corrupt", [
    {"x": [0, 1], "y": [3, 4, 5]},                      # vertex 2 on no side
    {"x": [0, 1, 2, 3], "y": [3, 4, 5]},                # vertex 3 on both
    {"x": [], "y": [0, 1, 2, 3, 4, 5]},                 # empty side
    {"crossing": [[0, 3], [1, 4]]},                     # misreported crossing
])
def test_corrupted_partition_fails(corrupt):
    with pytest.raises(checks.CheckError):
        solve("pmc", True, {**PMC, **corrupt})


def test_cross_degree_limits():
    # 1 has two neighbours across (0 and 4): not a matching cut
    two = {"verdict": "YES", "x": [1, 2, 5], "y": [0, 3, 4], "crossing": [[1, 0], [1, 4], [5, 4]]}
    with pytest.raises(checks.CheckError):
        solve("mc", True, two)
    # a matching cut that is not perfect: 1, 2, 4, 5 have nobody across
    with pytest.raises(checks.CheckError):
        solve("pmc", True, MC)


@pytest.mark.parametrize("matching", [
    [[0, 3], [1, 4]],              # not perfect
    [[0, 3], [1, 5], [2, 4]],      # 1 -- 5 is not an edge
])
def test_corrupted_dpm_fails(matching):
    with pytest.raises(checks.CheckError):
        solve("dpm", True, {**DPM, "matching": matching})


def test_dpm_must_disconnect():
    # K4 minus a perfect matching is a 4-cycle, still connected
    payload = {"verdict": "YES", "x": [0, 1], "y": [2, 3], "crossing": [[0, 2], [0, 3], [1, 2], [1, 3]],
               "matching": [[0, 1], [2, 3]]}
    with pytest.raises(checks.CheckError, match="connected"):
        solve("dpm", True, payload, F.complete(4))


def test_dpm_crossing_must_lie_in_matching():
    # the 2x4 ladder: the top/bottom matching disconnects, but the
    # reported cut between columns 1 and 2 crosses rail edges outside it
    fam = F.ladder(4)
    payload = {
        "verdict": "YES", "x": [0, 1, 4, 5], "y": [2, 3, 6, 7], "crossing": [[1, 2], [5, 6]],
        "matching": [[0, 4], [1, 5], [2, 6], [3, 7]],
    }
    with pytest.raises(checks.CheckError):
        solve("dpm", True, payload, fam)


def test_twosat_assignment():
    dimacs = "p cnf 3 2\n1 -2 0\n2 3 0\n"
    checks.check_twosat(dimacs, [0, 2])           # 1 true, 2 false, 3 true
    with pytest.raises(checks.CheckError):
        checks.check_twosat(dimacs, [1])          # 1 false, 2 true: clause 1 fails
    with pytest.raises(checks.CheckError):
        checks.check_twosat("p cnf 3 3\n1 -2 0\n", [0])


def test_k_chordal_against_networkx():
    cycle = checks.longest_chordless_cycle(F.grid(3, 3).n, F.grid(3, 3).edges)
    assert cycle == 8
    checks.check_k_chordal({"verdict": "NO", "longest_induced_cycle": 8}, 4, cycle)
    with pytest.raises(checks.CheckError):
        checks.check_k_chordal({"verdict": "YES", "longest_induced_cycle": 8}, 4, cycle)
    with pytest.raises(checks.CheckError):
        checks.check_k_chordal({"verdict": "NO", "longest_induced_cycle": 6}, 4, cycle)
    assert checks.longest_chordless_cycle(F.path(5).n, F.path(5).edges) is None


def test_pt_free_and_pattern():
    checks.check_pt_free({"verdict": "NO", "longest_induced_path": 6}, 5, 6)
    with pytest.raises(checks.CheckError):
        checks.check_pt_free({"verdict": "YES", "longest_induced_path": 6}, 5, 6)
    with pytest.raises(checks.CheckError):
        checks.check_pt_free({"verdict": "NO", "longest_induced_path": 7}, 5, 6)
    c7 = F.cycle(7)
    assert checks.contains_induced(c7.n, c7.edges, 6, F.path(6).edges)
    assert not checks.contains_induced(c7.n, c7.edges, 7, F.path(7).edges)
    checks.check_pattern({"verdict": "NO", "contains_induced": True}, True)
    with pytest.raises(checks.CheckError):
        checks.check_pattern({"verdict": "YES", "contains_induced": False}, True)


def test_known_no_verdicts_hold():
    # constructions whose NO answers the workloads rely on
    assert not checks.has_perfect_matching(F.pendant_ladder(6).n, F.pendant_ladder(6).edges)
    assert not checks.has_perfect_matching(F.pendant_ladder(7).n, F.pendant_ladder(7).edges)
    assert checks.has_perfect_matching(F.ladder(7).n, F.ladder(7).edges)
    assert not checks.one_in_three_satisfiable(4, [(1, 2, 3), (1, 2, 4), (3, 4, 1), (2, 3, 4)])
    assert checks.one_in_three_satisfiable(4, [(1, 2, 3), (2, 3, 4)])


def test_crosscheck_and_generated_graph():
    checks.check_crosscheck({"count": 4, "disagreements": []}, 4)
    with pytest.raises(checks.CheckError):
        checks.check_crosscheck({"count": 4, "disagreements": [{"index": 0}]}, 4)
    prism = F.tree_prism(12, 3, random.Random(1))
    checks.check_generated(prism.n, prism.edges)
    with pytest.raises(checks.CheckError):
        checks.check_generated(5, F.cycle(5).edges)   # a chordless 5-cycle
    with pytest.raises(checks.CheckError):
        checks.check_generated(6, F.path(5).edges)    # vertex 5 isolated


def _crosscheck_run(tmp_path, code, disagreements):
    """Runner.run on a crosscheck op whose child printed ``disagreements``
    and exited with ``code``."""
    import run
    import workloads

    b = workloads.Builder(tmp_path)
    b.crosscheck(seed=1, count=4, max_n=10)
    runner = run.Runner(tmp_path)
    stdout = json.dumps({"count": 4, "disagreements": disagreements})
    runner.child = lambda argv: (workloads.Result(code, stdout), 0.1)
    runner.run(b.ops[0])
    return runner


def test_crosscheck_agreement_passes_the_runner(tmp_path):
    runner = _crosscheck_run(tmp_path, 0, [])
    assert (runner.attempted, runner.failed) == (1, 0)


@pytest.mark.parametrize("code, disagreements", [(4, [{"index": 0}]), (4, []), (0, [{"index": 0}])])
def test_crosscheck_disagreement_stops_the_runner(tmp_path, code, disagreements):
    # exit 4 is the program's own report of a disagreement: a wrong
    # answer that stops the run, not a counted failure
    with pytest.raises(checks.CheckError):
        _crosscheck_run(tmp_path, code, disagreements)


def test_last_json_reads_the_final_line():
    assert checks.last_json('noise\n{"verdict": "NO"}\n') == {"verdict": "NO"}
    with pytest.raises(checks.CheckError):
        checks.last_json("verdict: NO\n")


def test_spec_matches_benchmark_json():
    import pathlib

    import run

    committed = json.loads((pathlib.Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert committed == run.spec()

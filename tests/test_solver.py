"""solve() and oracle.find_dpm against the brute-force references."""

import random

import pytest

import bruteforce
from conftest import (
    cycle_graph,
    disjoint_union,
    labelled_graphs,
    ladder,
    random_graph,
    sample_instances,
)
from matchcut import (
    Cut,
    Result,
    build_graph,
    check_matching_cut,
    check_perfect_matching_cut,
    is_disconnected_perfect_matching,
    solve,
)
from matchcut import graphs
from matchcut.graphs import make_cut
from matchcut.matching import maximum_matching
from matchcut.oracle import OracleBudgetError, find_dpm, has_dpm
from matchcut.pmc import sweep_components
from matchcut.solver import _solve

BRUTE = {"mc": bruteforce.has_mc, "pmc": bruteforce.has_pmc, "dpm": bruteforce.has_dpm}


def random_small_graphs() -> list:
    """Seeded graphs of 1 to 10 vertices, a third of them disjoint unions."""
    rng = random.Random(20260418)
    out = [random_graph(rng, rng.randint(1, 10), rng.uniform(0.2, 0.6)) for _ in range(60)]
    for _ in range(30):
        a = rng.randint(1, 6)
        b = rng.randint(1, 10 - a)
        out.append(disjoint_union(
            random_graph(rng, a, rng.uniform(0.3, 0.8)),
            random_graph(rng, b, rng.uniform(0.3, 0.8)),
        ))
    return out


def unions_of_sample_instances() -> list:
    graphs = sample_instances(77, 40, 5, min_n=2)
    return [disjoint_union(a, b) for a, b in zip(graphs[::2], graphs[1::2])]


def assert_certified(g, result: Result) -> None:
    if result.cut is None:
        assert result.matching is None
        return
    x = result.cut.x
    if result.problem == "mc":
        assert check_matching_cut(g, x)[0] == result.cut
    elif result.problem == "pmc":
        assert check_perfect_matching_cut(g, x)[0] == result.cut
    else:
        assert is_disconnected_perfect_matching(g, result.matching)


@pytest.mark.parametrize("problem", ["mc", "pmc", "dpm"])
def test_oracle_agrees_with_bruteforce(problem):
    for g in random_small_graphs():
        result = solve(g, problem, "oracle")
        assert (result.cut is not None) == BRUTE[problem](g), g
        assert_certified(g, result)


@pytest.mark.parametrize("problem", ["mc", "pmc", "dpm"])
def test_fourchordal_on_unions_agrees_with_bruteforce(problem):
    for g in unions_of_sample_instances():
        result = solve(g, problem, "fourchordal")
        assert (result.cut is not None) == BRUTE[problem](g), g
        assert_certified(g, result)


def connected_labelled_graphs(max_n: int):
    """Every connected graph on the vertices 0..n-1, for n = 1..max_n."""
    for n in range(1, max_n + 1):
        yield from filter(bruteforce.is_connected, labelled_graphs(n))


def test_fourchordal_on_every_small_connected_graph():
    # every connected labelled graph on at most five vertices: all but
    # the twelve labelled C5s are 4-chordal, and there the 4-chordal
    # solvers must be exact; on every graph each YES must be certified
    graphs = list(connected_labelled_graphs(5))
    holed = [(bruteforce.longest_induced_cycle(g) or 0) > 4 for g in graphs]
    assert (len(graphs), sum(holed)) == (772, 12)
    for g, hole in zip(graphs, holed):
        for problem in ("mc", "pmc", "dpm"):
            result = solve(g, problem, "fourchordal")
            if not hole:
                assert (result.cut is not None) == BRUTE[problem](g), (g, problem)
            assert_certified(g, result)


def test_fourchordal_dpm_on_unions_is_the_maximum_matching():
    # the component split has no crossing edge, so its completion is one
    # blossom run on g's own neighbor lists, which pairs g as
    # maximum_matching does
    verdicts = set()
    for g in unions_of_sample_instances():
        pairs = maximum_matching(g)
        perfect = 2 * len(pairs) == g.n
        result = solve(g, "dpm", "fourchordal")
        assert result.matching == (tuple(pairs) if perfect else None), g
        verdicts.add(perfect)
    assert verdicts == {True, False}


def test_no_solve_path_builds_a_graph(monkeypatch, domino):
    # every problem under every algorithm answers on g itself: with
    # build_graph refusing, each answer is the one given beforehand,
    # dpm YES on connected and on disconnected graphs included
    graphs = random_small_graphs() + unions_of_sample_instances()
    graphs += [domino, disjoint_union(domino, build_graph(2, [(0, 1)]))]
    algos = ("auto", "fourchordal", "oracle")
    runs = [(g, p, a) for g in graphs for p in ("mc", "pmc", "dpm") for a in algos]
    answers = [solve(g, p, a) for g, p, a in runs]

    def refuse(n, edges):
        raise AssertionError("a graph was built")

    monkeypatch.setattr("matchcut.graphs.build_graph", refuse)
    dpm_yes = set()
    for (g, problem, algo), want in zip(runs, answers):
        assert solve(g, problem, algo) == want, (g, problem, algo)
        if problem == "dpm" and want.cut is not None:
            dpm_yes.add((algo, bruteforce.is_connected(g)))
    assert dpm_yes == {(a, c) for a in algos for c in (True, False)}


def test_find_dpm_certificate():
    for g in random_small_graphs():
        found = find_dpm(g)
        assert (found is not None) == bruteforce.has_dpm(g), g
        if found is not None:
            pairs, cut = found
            assert is_disconnected_perfect_matching(g, pairs)
            assert check_matching_cut(g, cut.x)[0] == cut
            assert {(min(e), max(e)) for e in cut.crossing} <= set(pairs)


def test_find_dpm_equals_enumeration_reference():
    # deciding by matching cuts first leaves every answer as listing
    # perfect matchings gives it: the same matching and the same cut
    rng = random.Random(20261018)
    graphs = [random_graph(rng, rng.randint(0, 14), rng.uniform(0.15, 0.6)) for _ in range(3000)]
    graphs += [g for seed in range(50) for g in sample_instances(seed, 6, 30)]
    verdicts = set()
    for g in graphs:
        want = bruteforce.find_dpm_reference(g)
        assert find_dpm(g) == want, g
        # the YES path lists matchings anyway; check the decision alone
        assert has_dpm(g) == (want is not None), g
        verdicts.add(want is None)
    assert verdicts == {True, False}


def test_empty_graph_and_unknown_names():
    empty = build_graph(0, [])
    assert find_dpm(empty) is None
    assert solve(empty, "dpm", "oracle") == Result("dpm", "oracle", None)
    with pytest.raises(ValueError):
        solve(empty, "tsp")
    with pytest.raises(ValueError):
        solve(empty, "mc", "guess")


@pytest.mark.parametrize(
    "g, problem, algo, decided",
    [
        (cycle_graph(5), "pmc", "fourchordal", None),  # odd component
        (disjoint_union(ladder(3), ladder(2)), "mc", "fourchordal", None),
        (disjoint_union(ladder(3), ladder(2)), "dpm", "fourchordal", None),  # YES
        (disjoint_union(cycle_graph(3), cycle_graph(3)), "dpm", "oracle", None),  # NO
        *((ladder(3), problem, algo, algo) for algo in ("fourchordal", "oracle")
          for problem in ("mc", "pmc", "dpm")),
    ],
)
def test_sweep_travels_beside_the_answer(g, problem, algo, decided):
    # decided, the answer's algo, shows the path taken; only the 4-chordal
    # pmc solver sweeps, and solve() answers what _solve() does
    result, sweep = _solve(g, problem, algo, None)
    assert result == solve(g, problem, algo) and result.algo == decided
    if (problem, decided) == ("pmc", "fourchordal"):
        assert sweep == sweep_components(g)
    else:
        assert sweep is None


DOMINO_X = {0, 3, 4}
# solve's dpm answer on the domino: matching 0-1 2-3 4-5 around X = {0, 3, 4}
DOMINO_CROSSING = ((0, 1), (3, 2), (4, 5))


@pytest.mark.parametrize(
    "pairs, crossing",
    [
        ([(0, 1), (2, 3)], DOMINO_CROSSING),  # not perfect
        ([(0, 5), (1, 2), (3, 4)], DOMINO_CROSSING),  # 0-5 is not an edge
        ([(0, 3), (1, 2), (4, 5)], DOMINO_CROSSING),  # misses crossing 0-1 and 3-2
        ([(0, 1), (2, 3), (4, 5)], ((0, 1), (4, 5))),  # not the cut of X
    ],
)
@pytest.mark.parametrize(
    "algo, solver",
    # solve() hands the seed cuts of a connected graph to first_completion
    [("fourchordal", "matchcut.matching.first_completion"), ("oracle", "matchcut.oracle.find_dpm")],
)
def test_corrupted_dpm_certificate_is_not_returned(
    monkeypatch, domino, pairs, crossing, algo, solver
):
    side = tuple(v in DOMINO_X for v in range(6))
    cut = Cut(side, crossing)
    monkeypatch.setattr(solver, lambda g, limits=None: (pairs, cut))
    with pytest.raises(RuntimeError, match="internal error: the dpm certificate"):
        solve(domino, "dpm", algo)


def test_corrupted_component_split_matching_is_not_returned(monkeypatch):
    g = disjoint_union(build_graph(2, [(0, 1)]), build_graph(4, [(0, 1), (1, 2), (2, 3)]))
    assert solve(g, "dpm").matching == ((0, 1), (2, 3), (4, 5))
    monkeypatch.setattr(
        "matchcut.matching.perfect_matching_through", lambda g, cut: [(0, 1), (2, 3)]
    )
    with pytest.raises(RuntimeError, match="internal error: the dpm certificate"):
        solve(g, "dpm")


def count_walks(monkeypatch) -> list[int]:
    """The order of each graph graphs.part_without walks from now on."""
    real = graphs.part_without
    walks: list[int] = []
    monkeypatch.setattr(graphs, "part_without", lambda g, m: walks.append(g.n) or real(g, m))
    return walks


def test_dpm_certificate_walks_no_graph(monkeypatch):
    # a connected dpm YES walks g once, to find it connected: the seed
    # loop runs without a guard walk, and the certificate is checked by
    # the cut it holds
    g = ladder(4)
    walks = count_walks(monkeypatch)
    result = solve(g, "dpm", "fourchordal")
    assert walks == [8]
    assert is_disconnected_perfect_matching(g, result.matching)


def test_mc_walks_once(monkeypatch):
    # as for dpm: the walk that finds g connected is the only one
    g = ladder(4)
    walks = count_walks(monkeypatch)
    assert solve(g, "mc", "fourchordal").cut is not None
    assert walks == [8]


@pytest.mark.parametrize(
    "problem, x",
    [("mc", {0}), ("pmc", {0, 1, 2, 3})],  # 0 has two cross edges; 0 and 1 none
)
def test_corrupted_oracle_cut_is_not_returned(monkeypatch, domino, problem, x):
    cut = make_cut(domino, x)
    monkeypatch.setattr(
        "matchcut.oracle.enumerate_matching_cuts", lambda g, mode, limits, stop_after: [cut]
    )
    with pytest.raises(RuntimeError, match=f"internal error: the {problem} certificate"):
        solve(domino, problem, "oracle")


def test_auto_recognition_out_of_budget_ends_the_solve(monkeypatch):
    # a recognition that runs out of budget is the refusal: the oracle
    # is not run on a budget of its own
    def spent(g, limits=None):
        raise OracleBudgetError("oracle budget exhausted")

    monkeypatch.setattr("matchcut.oracle.longest_induced_cycle", spent)
    with pytest.raises(OracleBudgetError, match="oracle budget exhausted"):
        solve(cycle_graph(5), "mc")

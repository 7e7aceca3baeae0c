"""solve() and oracle.find_dpm against the brute-force references."""

import random

import pytest

import bruteforce
from conftest import random_graph
from matchcut import (
    Result,
    build_graph,
    check_matching_cut,
    check_perfect_matching_cut,
    is_disconnected_perfect_matching,
    solve,
)
from matchcut.generators import sample_instances
from matchcut.graphs import disjoint_union
from matchcut.oracle import find_dpm

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


def test_find_dpm_certificate():
    for g in random_small_graphs():
        found = find_dpm(g)
        assert (found is not None) == bruteforce.has_dpm(g), g
        if found is not None:
            pairs, cut = found
            assert is_disconnected_perfect_matching(g, pairs)
            assert check_matching_cut(g, cut.x)[0] == cut
            assert {(min(e), max(e)) for e in cut.crossing} <= set(pairs)


def test_empty_graph_and_unknown_names():
    empty = build_graph(0, [])
    assert find_dpm(empty) is None
    assert solve(empty, "dpm", "oracle") == Result("dpm", "oracle", None)
    with pytest.raises(ValueError):
        solve(empty, "tsp")
    with pytest.raises(ValueError):
        solve(empty, "mc", "guess")

"""High-water marks of the parse, a CLI pmc solve, --emit-2cnf, a
reduce under a large variable count, disconnected-split, dpm
completion and text output paths, what the pmc sweep keeps, and a pmc
solve of many small components, read with tracemalloc: what the
interpreter allocates, deterministic for one interpreter.  Each bound
sits between the streaming code's ratio and that of code that holds
its data twice (a list of sets beside their frozensets, a clause tuple
per relation, the whole file text, a copy of the graph) or builds what
it does not read (a set per component, a trace entry per classified
vertex, a list of every component, an entry per declared variable)."""

import contextlib
import gc
import io
import json
import tracemalloc

import pytest

from conftest import disjoint_union, ladder
from matchcut.cli import _emit_twosat, main
from matchcut.files import format_graph, parse_graph
from matchcut.graphs import build_graph, component_levels
from matchcut.pmc import build_pmc_formula
from matchcut.reduction import build_reduction, formula_from_dimacs, layout_sidecar
from matchcut.solver import solve


@pytest.fixture(scope="module")
def big_ladder():
    # 2,000 vertices, 2,998 edges
    return ladder(1000)


def traced(call):
    """call()'s result, the bytes it left allocated, and its peak above
    what was allocated before it."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, current - base, peak - base


def test_parse_graph_peak(big_ladder):
    # the endpoints are read into one array, and the adjacency sets are
    # frozen one at a time, each freed as its frozenset is made (1.16x
    # here; 1.45x with a tuple per edge, 2.06x with every set kept alive)
    text = format_graph(big_ladder)
    g, kept, peak = traced(lambda: parse_graph(text))
    assert g == big_ladder
    assert peak <= 1.25 * kept


def test_cli_solve_pmc_peak(big_ladder, tmp_path, capsys):
    # parse, sweep and answer, each phase holding only what the next one
    # reads: 607 bytes per vertex here; 774 with a tuple per edge and an
    # int object per adjacency entry, list copies of the answer's pairs,
    # and the graph and the sweep alive while the answer is encoded
    path = tmp_path / "ladder.graph"
    path.write_text(format_graph(big_ladder))
    argv = ["solve", str(path), "--problem", "pmc", "--algo", "fourchordal", "--format", "json"]
    code, _, peak = traced(lambda: main(argv))
    assert code == 0 and json.loads(capsys.readouterr().out)["verdict"] == "YES"
    assert peak <= 690 * big_ladder.n


def test_pmc_sweep_kept(big_ladder):
    # the sweep's record holds its relations and nothing else: 72 bytes
    # per vertex here; 137 with a trace entry per classified vertex that
    # no command reads
    levels = component_levels(big_ladder, 0, [-1] * big_ladder.n)
    enc, kept, _ = traced(lambda: build_pmc_formula(big_ladder, levels))
    assert enc.relations is not None
    assert kept <= 100 * big_ladder.n


def test_pmc_flood_peak():
    # 10,000 disjoint claws, each swept and blocked at its second leaf:
    # a component's layering and sweep are freed before the next one's
    # (10 bytes per vertex here; 52 with each component's lowest vertex
    # and order kept in a list for the sweep, and each claw's vertices
    # kept in a tuple of their own instead of being swept)
    claw = [(0, 1), (0, 2), (0, 3)]
    g = build_graph(40_000, [(u + k, v + k) for k in range(0, 40_000, 4) for u, v in claw])
    result, _, peak = traced(lambda: solve(g, "pmc", "fourchordal"))
    assert result.cut is None and result.sweep.blocked == list(range(2, g.n, 4))
    assert peak <= 20 * g.n


def test_emit_twosat_peak(big_ladder, tmp_path):
    # the 2-CNF is written from the relations and both files are
    # streamed (0.89x the bytes written here; 23x with the clause tuples
    # and the file text built whole)
    result = solve(big_ladder, "pmc", "fourchordal")
    assert result.cut is not None
    prefix = str(tmp_path / "enc")
    _, _, peak = traced(lambda: _emit_twosat(big_ladder, prefix, result))
    written = sum((tmp_path / ("enc" + ext)).stat().st_size for ext in (".cnf", ".vars.json"))
    assert written > 40_000
    assert peak <= 8 * written


def test_reduce_declared_variables_peak():
    # one clause under a header of 10^6 variables: only the three that
    # occur get a slot clique (428 bytes written, a 17.6 KB peak here;
    # 17.9 MB written and a 226 MB peak with a dict entry and a
    # '"x": []' line per declared variable)
    text = "p cnf 1000000 1\n1 2 3 0\n"
    out = io.StringIO()
    _, _, peak = traced(lambda: layout_sidecar(build_reduction(formula_from_dimacs(text)), out))
    assert json.loads(out.getvalue())["Q"] == {"0": [1], "1": [2], "2": [3]}
    assert len(out.getvalue()) < 1_000
    assert peak < 1_000_000


@pytest.mark.parametrize("problem", ["mc", "dpm", "pmc"])
def test_disconnected_split_peak(problem):
    # only vertex 0's component is walked to split the graph, or to find
    # it odd: 16 bytes per vertex here for mc and dpm (two lists) and 8
    # for pmc (one), 265 with a frozenset per component
    g = build_graph(200_000, [])
    result, _, peak = traced(lambda: solve(g, problem))
    assert (result.cut is not None) == (problem == "mc")
    assert peak <= 40 * g.n


@pytest.mark.parametrize(
    "make, bound",
    [
        # 2,000 vertices: the blossom runs of the seed cuts' completions
        # (0.71x the graph's bytes here; 2.11x with g minus the crossing
        # ends built as a graph for each)
        (lambda: ladder(1000), 1.6),
        # 4,000 vertices, completed along vertex 0's component with no
        # crossing edge (0.59x here; 1.44x with the whole graph copied)
        (lambda: disjoint_union(ladder(1000), ladder(1000)), 1.0),
    ],
    ids=["ladder", "two-ladders"],
)
def test_dpm_completion_peak(make, bound):
    # each cut is completed in g's own ids: no graph is copied
    g, kept, _ = traced(make)
    result, _, peak = traced(lambda: solve(g, "dpm", "fourchordal"))
    assert result.matching is not None
    assert peak <= bound * kept


@pytest.mark.parametrize("problem", ["mc", "dpm"])
def test_seed_loop_peak(problem):
    # 2,000 vertices: the seed edges are read off each vertex's
    # neighbours as the loop goes, and a seed's state is freed before its
    # cut is yielded, so none is alive while blossom completes the cut
    # (0.62x the graph's bytes for mc and 0.71x for dpm here; 1.09x and
    # 1.42x with the edge list built whole and the last seed's state kept)
    g, kept, _ = traced(lambda: ladder(1000))
    result, _, peak = traced(lambda: solve(g, problem, "fourchordal"))
    assert result.cut is not None
    assert peak <= 0.9 * kept


def test_cli_text_output_peak(tmp_path):
    # mc on 10^5 isolated vertices lists every vertex; the text is written
    # in pieces of at most 4,096 vertices, so its peak stays below the
    # JSON one (0.56x here; 1.27x with a string per vertex joined whole)
    path = tmp_path / "isolated.graph"
    path.write_text("100000 0\n")
    peaks = {}
    for fmt in ("json", "text"):
        argv = ["solve", str(path), "--problem", "mc", "--format", fmt]
        with open(tmp_path / fmt, "w") as out, contextlib.redirect_stdout(out):
            code, _, peaks[fmt] = traced(lambda: main(argv))
        assert code == 0
    text = (tmp_path / "text").read_text()
    assert text.startswith("verdict: YES\nx: 0\ny: 1 2 3 ")
    assert text.endswith(" 99998 99999\ncrossing: \n")
    assert peaks["text"] <= 1.1 * peaks["json"]

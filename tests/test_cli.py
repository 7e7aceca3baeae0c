import argparse
import gc
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import matchcut
from matchcut import (
    build_graph,
    check_matching_cut,
    check_perfect_matching_cut,
    format_graph,
    is_disconnected_perfect_matching,
    parse_graph,
)
from matchcut.cli import _build_parser, main
from matchcut.reduction import Formula13, build_reduction, layout_sidecar
from conftest import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    format_formula_dimacs,
    ladder,
    path_graph,
)


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


@pytest.fixture
def graph_file(write):
    def _graph_file(name, g):
        return write(name, format_graph(g))

    return _graph_file


def run_json(capsys, argv):
    rc = main(argv + ["--format", "json"])
    return rc, json.loads(capsys.readouterr().out)


class TestSolve:
    def test_pmc_yes_json(self, capsys, graph_file, two_squares):
        path = graph_file("g", two_squares)
        rc, payload = run_json(capsys, ["solve", path, "--problem", "pmc"])
        assert rc == 0
        assert payload == {
            "algo": "fourchordal",
            "crossing": [[0, 2], [1, 3], [4, 5]],
            "problem": "pmc",
            "verdict": "YES",
            "x": [0, 1, 4],
            "y": [2, 3, 5],
        }

    def test_pmc_yes_text(self, capsys, graph_file, two_squares):
        path = graph_file("g", two_squares)
        rc = main(["solve", path, "--problem", "pmc"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == (
            "algo: fourchordal\n"
            "verdict: YES\n"
            "x: 0 1 4\n"
            "y: 2 3 5\n"
            "crossing: 0-2 1-3 4-5\n"
        )

    def test_pmc_no(self, capsys, graph_file, braced_hexagon):
        path = graph_file("g", braced_hexagon)
        rc, payload = run_json(capsys, ["solve", path, "--problem", "pmc"])
        assert rc == 0
        assert payload["verdict"] == "NO"

    def test_mc_yes(self, capsys, graph_file, two_triangles):
        path = graph_file("g", two_triangles)
        rc, payload = run_json(capsys, ["solve", path, "--problem", "mc"])
        assert rc == 0
        assert payload["verdict"] == "YES" and payload["x"] == [0, 1, 4]

    def test_dpm_certificate(self, capsys, graph_file, domino):
        path = graph_file("g", domino)
        rc, payload = run_json(capsys, ["solve", path, "--problem", "dpm"])
        assert rc == 0
        assert payload["verdict"] == "YES"
        assert payload["matching"] == [[0, 1], [2, 3], [4, 5]]
        assert payload["x"] == [0, 3, 4]

    def test_dpm_no(self, capsys, graph_file, two_triangles):
        path = graph_file("g", two_triangles)
        rc, payload = run_json(capsys, ["solve", path, "--problem", "dpm"])
        assert rc == 0 and payload["verdict"] == "NO"

    def test_odd_component_short_circuit(self, capsys, graph_file):
        path = graph_file("g", path_graph(3))
        rc = main(["solve", path, "--problem", "pmc"])
        assert rc == 0
        assert capsys.readouterr().out == "verdict: NO\nreason: odd component\n"

    def test_disconnected_mc_splits_components(self, capsys, graph_file):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        path = graph_file("g", g)
        rc, payload = run_json(capsys, ["solve", path, "--problem", "mc"])
        assert rc == 0
        assert payload["verdict"] == "YES"
        assert payload["x"] == [0, 1, 2] and payload["crossing"] == []

    def test_disconnected_dpm(self, capsys, graph_file):
        two_edges = build_graph(4, [(0, 1), (2, 3)])
        path = graph_file("g", two_edges)
        rc, payload = run_json(capsys, ["solve", path, "--problem", "dpm"])
        assert rc == 0
        assert payload["verdict"] == "YES"
        assert payload["matching"] == [[0, 1], [2, 3]]
        no_pm = disjoint_union(complete_graph(4), path_graph(3))
        rc, payload = run_json(
            capsys, ["solve", graph_file("h", no_pm), "--problem", "dpm"]
        )
        assert rc == 0 and payload["verdict"] == "NO"

    def test_disconnected_pmc_needs_every_component(
        self, capsys, graph_file, two_squares, two_triangles
    ):
        g = disjoint_union(two_squares, two_triangles)
        path = graph_file("g", g)
        rc, payload = run_json(capsys, ["solve", path, "--problem", "pmc"])
        assert rc == 0 and payload["verdict"] == "NO"

    def test_pmc_universal_vertex_closed_form(self, capsys, graph_file):
        # above the oracle's 30-vertex reach: answered without enumeration
        star = build_graph(40, [(0, v) for v in range(1, 40)])
        path = graph_file("g", star)
        rc = main(["solve", path, "--algo", "fourchordal", "--problem", "pmc"])
        assert rc == 0
        assert capsys.readouterr().out == "algo: fourchordal\nverdict: NO\n"

    def test_oracle_algo(self, capsys, graph_file):
        path = graph_file("g", complete_graph(4))
        rc, payload = run_json(
            capsys, ["solve", path, "--problem", "mc", "--algo", "oracle"]
        )
        assert rc == 0
        assert payload["algo"] == "oracle" and payload["verdict"] == "NO"

    def test_auto_falls_back_on_long_cycles(self, capsys, graph_file):
        path = graph_file("g", cycle_graph(5))
        rc, payload = run_json(capsys, ["solve", path, "--problem", "mc"])
        assert rc == 0
        assert payload["algo"] == "oracle" and payload["verdict"] == "YES"

    def test_odd_component_json_payload(self, capsys, graph_file):
        path = graph_file("g", path_graph(3))
        rc, payload = run_json(capsys, ["solve", path, "--problem", "pmc"])
        assert rc == 0
        assert payload == {"problem": "pmc", "reason": "odd component", "verdict": "NO"}

    def test_disconnected_mc_text(self, capsys, graph_file):
        path = graph_file("g", disjoint_union(complete_graph(3), complete_graph(3)))
        rc = main(["solve", path, "--problem", "mc"])
        assert rc == 0
        assert capsys.readouterr().out == "verdict: YES\nx: 0 1 2\ny: 3 4 5\ncrossing: \n"

    def test_disconnected_dpm_text(self, capsys, graph_file):
        path = graph_file("g", build_graph(4, [(0, 1), (2, 3)]))
        rc = main(["solve", path, "--problem", "dpm"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "verdict: YES\nx: 0 1\ny: 2 3\ncrossing: \nmatching: 0-1 2-3\n"
        )
        no_pm = disjoint_union(complete_graph(4), path_graph(3))
        rc = main(["solve", graph_file("h", no_pm), "--problem", "dpm"])
        assert rc == 0
        assert capsys.readouterr().out == "verdict: NO\n"

    def test_oracle_dpm_certificate(self, capsys, graph_file, domino):
        path = graph_file("g", domino)
        argv = ["solve", path, "--problem", "dpm", "--algo", "oracle"]
        rc, payload = run_json(capsys, argv)
        assert rc == 0
        assert payload == {
            "algo": "oracle",
            "crossing": [[0, 1], [3, 2], [4, 5]],
            "matching": [[0, 1], [2, 3], [4, 5]],
            "problem": "dpm",
            "verdict": "YES",
            "x": [0, 3, 4],
            "y": [1, 2, 5],
        }
        rc = main(argv)
        assert rc == 0
        assert capsys.readouterr().out == (
            "algo: oracle\nverdict: YES\nx: 0 3 4\ny: 1 2 5\n"
            "crossing: 0-1 3-2 4-5\nmatching: 0-1 2-3 4-5\n"
        )

    def test_oracle_dpm_empty_graph(self, capsys, graph_file):
        path = graph_file("g", build_graph(0, []))
        rc = main(["solve", path, "--problem", "dpm", "--algo", "oracle"])
        assert rc == 0
        assert capsys.readouterr().out == "algo: oracle\nverdict: NO\n"

    def test_auto_fallback_text(self, capsys, graph_file):
        path = graph_file("g", cycle_graph(5))
        rc = main(["solve", path, "--problem", "mc"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "algo: oracle\nverdict: YES\nx: 0 1 2\ny: 3 4\ncrossing: 0-4 2-3\n"
        )

    def test_emit_twosat(self, capsys, graph_file, tmp_path, two_squares):
        path = graph_file("g", two_squares)
        prefix = str(tmp_path / "enc")
        rc = main(["solve", path, "--problem", "pmc", "--emit-2cnf", prefix])
        assert rc == 0
        assert (tmp_path / "enc.cnf").read_text() == (
            "p cnf 6 10\n"
            "6 2 0\n-6 -2 0\n"
            "4 5 0\n-4 -5 0\n"
            "2 -1 0\n-2 1 0\n"
            "4 -3 0\n-4 3 0\n"
            "3 1 0\n-3 -1 0\n"
        )
        # variable k stands for vertex k-1, which the sidecar leaves unsaid
        sidecar = json.loads((tmp_path / "enc.vars.json").read_text())
        assert sidecar == {"blocked_vertices": []}

    def test_emit_twosat_blocked_component(
        self, capsys, graph_file, tmp_path, braced_hexagon
    ):
        path = graph_file("g", braced_hexagon)
        prefix = str(tmp_path / "enc")
        rc = main(["solve", path, "--problem", "pmc", "--emit-2cnf", prefix])
        assert rc == 0
        assert (tmp_path / "enc.cnf").read_text() == "p cnf 6 0\n"
        sidecar = json.loads((tmp_path / "enc.vars.json").read_text())
        assert sidecar["blocked_vertices"] == [4]

    def test_emit_twosat_shallow_component(self, capsys, graph_file, tmp_path):
        # each K2, whose lowest vertex is adjacent to the other, is swept
        # like any component: its leaf is paired across with its root
        path = graph_file("g", build_graph(4, [(0, 1), (2, 3)]))
        prefix = str(tmp_path / "enc")
        rc = main(["solve", path, "--problem", "pmc", "--emit-2cnf", prefix])
        assert rc == 0
        sidecar = json.loads((tmp_path / "enc.vars.json").read_text())
        assert sidecar["blocked_vertices"] == []
        assert (tmp_path / "enc.cnf").read_text() == (
            "p cnf 4 4\n2 1 0\n-2 -1 0\n4 3 0\n-4 -3 0\n"
        )

    def test_emit_twosat_mixed_components_bytes(
        self, capsys, graph_file, tmp_path, two_squares, braced_hexagon
    ):
        # a component swept to its root (0-5), a K2 (6-7), a star (8-11)
        # whose sweep blocks at the second leaf, 10, and a component whose
        # sweep blocks at 16 (12-17)
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        g = disjoint_union(two_squares, complete_graph(2), star, braced_hexagon)
        prefix = str(tmp_path / "enc")
        rc = main(["solve", graph_file("g", g), "--problem", "pmc", "--emit-2cnf", prefix])
        assert rc == 0
        assert capsys.readouterr().out == "algo: fourchordal\nverdict: NO\n"
        assert (tmp_path / "enc.cnf").read_text() == (
            "p cnf 18 12\n"
            "6 2 0\n-6 -2 0\n"
            "4 5 0\n-4 -5 0\n"
            "2 -1 0\n-2 1 0\n"
            "4 -3 0\n-4 3 0\n"
            "3 1 0\n-3 -1 0\n"
            "8 7 0\n-8 -7 0\n"
        )
        assert (tmp_path / "enc.vars.json").read_text() == (
            '{\n  "blocked_vertices": [\n    10,\n    16\n  ]\n}\n'
        )

    @pytest.mark.parametrize("first", ["two_squares", "braced_hexagon", "path3"])
    def test_emit_twosat_sweeps_each_component_once(
        self, request, capsys, monkeypatch, graph_file, tmp_path, first, two_squares, domino
    ):
        # the solve's sweeps are reused: after a YES (all swept), a blocked
        # first component (the rest swept for the file) or an odd one
        # (nothing swept by the solve); the file matches the oracle run's,
        # whose solve sweeps nothing.  Each component is swept once, in
        # place on the whole graph, from its lowest vertex
        import matchcut.pmc

        sweep = matchcut.pmc.build_pmc_formula
        calls = []

        def counting_sweep(g, levels, **kwargs):
            calls.append((g.n, levels.root))
            return sweep(g, levels, **kwargs)

        monkeypatch.setattr(matchcut.pmc, "build_pmc_formula", counting_sweep)
        head = path_graph(3) if first == "path3" else request.getfixturevalue(first)
        path = graph_file("g", disjoint_union(head, two_squares, domino))
        written = {}
        for algo in ("fourchordal", "oracle"):
            calls.clear()
            prefix = str(tmp_path / algo)
            rc = main(["solve", path, "--problem", "pmc", "--algo", algo, "--emit-2cnf", prefix])
            assert rc == 0
            n = head.n + 12
            assert calls == [(n, 0), (n, head.n), (n, head.n + 6)]
            written[algo] = [(tmp_path / (algo + ext)).read_text() for ext in (".cnf", ".vars.json")]
        assert written["fourchordal"] == written["oracle"]
        verdict = "YES" if first == "two_squares" else "NO"
        assert capsys.readouterr().out.count(f"verdict: {verdict}\n") == 2

    @pytest.mark.parametrize("emit", [False, True])
    def test_one_sweep_per_solve(
        self, capsys, monkeypatch, graph_file, tmp_path, emit, two_squares, braced_hexagon
    ):
        # a component swept to its root (0-5), a K2 (6-7), a star (8-11)
        # and a blocked one (12-17): the solve sweeps each once, from its
        # lowest vertex, and --emit-2cnf writes from that same sweep
        import matchcut.pmc

        sweep = matchcut.pmc.build_pmc_formula
        calls = []

        def counting_sweep(g, levels, **kwargs):
            calls.append(levels.root)
            return sweep(g, levels, **kwargs)

        monkeypatch.setattr(matchcut.pmc, "build_pmc_formula", counting_sweep)
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        g = disjoint_union(two_squares, complete_graph(2), star, braced_hexagon)
        argv = ["solve", graph_file("g", g), "--problem", "pmc", "--algo", "fourchordal"]
        if emit:
            argv += ["--emit-2cnf", str(tmp_path / "enc")]
        assert main(argv) == 0
        assert capsys.readouterr().out == "algo: fourchordal\nverdict: NO\n"
        assert calls == [0, 6, 8, 12]
        assert (tmp_path / "enc.cnf").exists() == emit

    def test_emit_twosat_requires_pmc(self, capsys, graph_file, two_squares):
        path = graph_file("g", two_squares)
        rc = main(["solve", path, "--problem", "mc", "--emit-2cnf", "unused"])
        assert rc == 2
        assert "--problem pmc" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", ["mc", "dpm"])
    def test_emit_twosat_refused_before_the_graph_is_read(self, capsys, tmp_path, problem):
        missing = str(tmp_path / "missing.graph")
        rc = main(["solve", missing, "--problem", problem, "--emit-2cnf", "unused"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == "--emit-2cnf applies to --problem pmc only\n"


class TestCheck:
    def test_pt_free(self, capsys, graph_file, two_squares):
        path = graph_file("g", two_squares)
        rc, payload = run_json(capsys, ["check", path, "--pt-free", "6"])
        assert rc == 0
        assert payload == {
            "check": "pt-free",
            "t": 6,
            "verdict": "YES",
            "longest_induced_path": 5,
        }
        rc, payload = run_json(capsys, ["check", path, "--pt-free", "5"])
        assert rc == 0 and payload["verdict"] == "NO"

    def test_k_chordal(self, capsys, graph_file, two_squares):
        path = graph_file("g", two_squares)
        rc, payload = run_json(capsys, ["check", path, "--k-chordal", "4"])
        assert rc == 0
        assert payload["verdict"] == "YES" and payload["longest_induced_cycle"] == 4

    def test_k_chordal_acyclic(self, capsys, graph_file):
        path = graph_file("g", path_graph(4))
        rc = main(["check", path, "--k-chordal", "4"])
        out = capsys.readouterr().out
        assert rc == 0 and "longest-induced-cycle: none" in out

    def test_pattern(self, capsys, graph_file, two_squares):
        host = graph_file("g", two_squares)
        p5 = graph_file("p5", path_graph(5))
        rc, payload = run_json(capsys, ["check", host, "--pattern", p5])
        assert rc == 0
        assert payload["verdict"] == "NO" and payload["contains_induced"] is True
        p6 = graph_file("p6", path_graph(6))
        rc, payload = run_json(capsys, ["check", host, "--pattern", p6])
        assert rc == 0
        assert payload["verdict"] == "YES" and payload["contains_induced"] is False

    @pytest.mark.parametrize(
        "argv, text, payload",
        [
            (
                ["G", "--pt-free", "6"],
                "check: pt-free t=6\nverdict: YES\nlongest-induced-path: 5\n",
                '{"check": "pt-free", "longest_induced_path": 5, "t": 6, "verdict": "YES"}\n',
            ),
            (
                ["G", "--pt-free", "5"],
                "check: pt-free t=5\nverdict: NO\nlongest-induced-path: 5\n",
                '{"check": "pt-free", "longest_induced_path": 5, "t": 5, "verdict": "NO"}\n',
            ),
            (
                ["G", "--k-chordal", "4"],
                "check: k-chordal k=4\nverdict: YES\nlongest-induced-cycle: 4\n",
                '{"check": "k-chordal", "k": 4, "longest_induced_cycle": 4, "verdict": "YES"}\n',
            ),
            (
                ["G", "--k-chordal", "3"],
                "check: k-chordal k=3\nverdict: NO\nlongest-induced-cycle: 4\n",
                '{"check": "k-chordal", "k": 3, "longest_induced_cycle": 4, "verdict": "NO"}\n',
            ),
            (
                ["G", "--pattern", "P5"],
                "check: pattern-free n=5\nverdict: NO\ncontains-induced: True\n",
                '{"check": "pattern-free", "contains_induced": true, "pattern_n": 5, "verdict": "NO"}\n',
            ),
            (
                ["G", "--pattern", "P6"],
                "check: pattern-free n=6\nverdict: YES\ncontains-induced: False\n",
                '{"check": "pattern-free", "contains_induced": false, "pattern_n": 6, "verdict": "YES"}\n',
            ),
            (
                ["P4", "--k-chordal", "4"],
                "check: k-chordal k=4\nverdict: YES\nlongest-induced-cycle: none\n",
                '{"check": "k-chordal", "k": 4, "longest_induced_cycle": null, "verdict": "YES"}\n',
            ),
        ],
    )
    def test_full_output(self, capsys, graph_file, two_squares, argv, text, payload):
        # G is two_squares, Pk the path on k vertices
        files = {"G": graph_file("g", two_squares)}
        files |= {f"P{k}": graph_file(f"p{k}", path_graph(k)) for k in (4, 5, 6)}
        argv = ["check"] + [files.get(a, a) for a in argv]
        assert main(argv) == 0
        assert capsys.readouterr().out == text
        assert main(argv + ["--format", "json"]) == 0
        assert capsys.readouterr().out == payload

    def test_exactly_one_kind_required(self, capsys, graph_file, two_squares):
        path = graph_file("g", two_squares)
        with pytest.raises(SystemExit) as exc:
            main(["check", path])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["check", path, "--pt-free", "5", "--k-chordal", "4"])
        assert exc.value.code == 2


class TestReduce:
    def test_writes_graph_and_sidecar(self, capsys, write, tmp_path):
        formula = Formula13(3, ((0, 1, 2),))
        cnf = write("f.cnf", format_formula_dimacs(formula))
        out = str(tmp_path / "inst")
        rc, payload = run_json(capsys, ["reduce", cnf, "--out", out])
        assert rc == 0
        assert payload["clauses"] == 1 and payload["variables"] == 3
        assert payload["n"] == 14 and payload["m"] == 22
        g = parse_graph((tmp_path / "inst.graph").read_text())
        assert g.n == 14 and g.m == 22
        expected = io.StringIO()
        layout_sidecar(build_reduction(formula), expected)
        assert (tmp_path / "inst.layout.json").read_text() == expected.getvalue()

    def test_full_output(self, capsys, write, tmp_path):
        cnf = write("f.cnf", format_formula_dimacs(Formula13(4, ((0, 1, 2), (1, 2, 3)))))
        out = str(tmp_path / "inst")
        argv = ["reduce", cnf, "--out", out]
        assert main(argv) == 0
        assert capsys.readouterr() == (
            f"clauses: 2\nvariables: 4\nn: 28\nm: 59\nwrote: {out}.graph {out}.layout.json\n",
            "",
        )
        assert main(argv + ["--format", "json"]) == 0
        assert capsys.readouterr().out == (
            f'{{"clauses": 2, "graph": "{out}.graph", "layout": "{out}.layout.json", '
            '"m": 59, "n": 28, "variables": 4}\n'
        )

    def test_rejects_bad_cnf(self, capsys, write, tmp_path):
        cnf = write("f.cnf", "p cnf 3 1\n1 2 0\n")
        rc = main(["reduce", cnf, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_variable_count_cap(self, capsys, write, tmp_path):
        cnf = write("f.cnf", "p cnf 1000001 1\n1 2 3 0\n")
        rc = main(["reduce", cnf, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "x.graph").exists()

    def test_negative_variable_count(self, capsys, write, tmp_path):
        cnf = write("f.cnf", "p cnf -1 0\n")
        rc = main(["reduce", cnf, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == "error: problem line declares -1 variables\n"
        assert not (tmp_path / "x.graph").exists()

    @pytest.mark.parametrize(
        "text, line",
        # a smaller second header crashed on the clauses it orphaned, a
        # larger one was reported as the variable count
        [("p cnf 5 1\n4 5 1 0\np cnf 3 1\n", "p cnf 3 1"),
         ("p cnf 3 1\n1 2 3 0\np cnf 9 1\n", "p cnf 9 1")],
        ids=["shrinks", "grows"],
    )
    def test_second_problem_line(self, capsys, write, tmp_path, text, line):
        cnf = write("f.cnf", text)
        rc = main(["reduce", cnf, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: second problem line {line!r}\n")
        assert not (tmp_path / "x.graph").exists()

    @pytest.mark.parametrize("option", [["--budget-seconds", "1"], ["--max-oracle-n", "5"]])
    def test_no_oracle_bounds(self, capsys, write, tmp_path, option):
        # reduce runs no exhaustive search, so it takes no bound on one
        cnf = write("f.cnf", format_formula_dimacs(Formula13(3, ((0, 1, 2),))))
        with pytest.raises(SystemExit) as exc:
            main(["reduce", cnf, "--out", str(tmp_path / "x"), *option])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        assert not (tmp_path / "x.graph").exists()


class TestCrosscheck:
    ARGS = ["crosscheck", "--seed", "0", "--count", "5", "--max-n", "10"]

    def test_agreement(self, capsys):
        rc, payload = run_json(capsys, self.ARGS)
        assert rc == 0
        assert payload["disagreements"] == []
        assert payload["seed"] == 0 and payload["count"] == 5

    def test_repeat_is_byte_identical(self, capsys):
        rc = main(self.ARGS)
        first = capsys.readouterr().out
        assert rc == 0 and first.endswith("disagreements: 0\n")
        rc = main(self.ARGS)
        assert rc == 0 and capsys.readouterr().out == first

    def test_disagreement_exit_code(self, capsys, monkeypatch):
        # solve() runs the seed loop itself on a connected graph
        monkeypatch.setattr("matchcut.forcing._stable_seeds", lambda g: iter(()))
        rc = main(self.ARGS)
        out = capsys.readouterr().out
        assert rc == 4
        assert "DISAGREE" in out and "problem=mc" in out

    def test_max_n_below_min_n(self, capsys):
        for max_n in ("3", "0"):
            rc = main(["crosscheck", "--seed", "0", "--count", "5", "--max-n", max_n])
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.out == ""
            message = f"--max-n {max_n} is below the smallest instance size, 4"
            assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("max_n", ["40", "1000000000"])
    def test_max_n_above_oracle_bound(self, capsys, max_n):
        # refused before any instance is generated
        rc = main(["crosscheck", "--seed", "2", "--count", "3", "--max-n", max_n])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == "" and captured.err.startswith("oracle limit:")

    @pytest.mark.parametrize("extra", [[], ["--seed", "7"], ["--count", "0"]])
    def test_max_n_above_graph_cap(self, capsys, monkeypatch, extra):
        # with the oracle bound raised past it, the 10^6 graph cap
        # refuses the size before any instance is generated
        import matchcut.generators

        def no_draw(*args, **kwargs):
            raise AssertionError("an instance was generated")

        monkeypatch.setattr(matchcut.generators, "random_connected_4chordal", no_draw)
        argv = ["crosscheck", "--max-n", "1000000000", "--max-oracle-n", "1000000000"]
        rc = main(argv + extra)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "" and captured.err.startswith("error:")


class TestExitCodes:
    def test_missing_file(self, capsys, tmp_path):
        rc = main(["solve", str(tmp_path / "absent"), "--problem", "mc"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_graph(self, capsys, write):
        path = write("bad", "not a graph\n")
        rc = main(["solve", path, "--problem", "mc"])
        assert rc == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "BAD", "--problem", "mc"],
            ["check", "BAD", "--k-chordal", "4"],
            ["check", "G", "--pattern", "BAD"],
            ["reduce", "BAD", "--out", "OUT"],
        ],
    )
    def test_input_not_utf8(self, capsys, tmp_path, graph_file, two_squares, argv):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe\x00")
        swap = {"BAD": str(bad), "G": graph_file("g", two_squares), "OUT": str(tmp_path / "out")}
        rc = main([swap.get(a, a) for a in argv])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode byte 0xff")

    def test_vertex_count_cap(self, capsys, write):
        path = write("huge", "1000001 0\n")
        rc = main(["solve", path, "--problem", "mc"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_usage_error(self, capsys, graph_file, two_squares):
        path = graph_file("g", two_squares)
        with pytest.raises(SystemExit) as exc:
            main(["solve", path, "--problem", "tsp"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "CNF", "--out", "OUT", "--budget-seconds", "5"],
            ["solve", "G", "--problem", "pmc", "--out", "OUT"],
        ],
        ids=["reduce", "solve"],
    )
    def test_unknown_option_under_its_command_usage(
        self, capsys, tmp_path, write, graph_file, two_squares, argv
    ):
        # an option the command does not take is reported with that
        # command's usage line, which lists the options it does take
        files = {
            "CNF": write("f.cnf", format_formula_dimacs(Formula13(3, ((0, 1, 2),)))),
            "G": graph_file("g", two_squares),
            "OUT": str(tmp_path / "out"),
        }
        argv = [files.get(a, a) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: matchcut {argv[0]} ")
        assert f"matchcut {argv[0]}: error: unrecognized arguments: {' '.join(argv[-2:])}" in err
        assert list(tmp_path.glob("out*")) == []

    def test_oracle_size_guard(self, capsys, graph_file):
        big = build_graph(31, [(i, i + 1) for i in range(30)])
        path = graph_file("g", big)
        rc = main(["solve", path, "--problem", "mc", "--algo", "oracle"])
        assert rc == 3
        assert "oracle limit:" in capsys.readouterr().err

    def test_oracle_budget_guard(self, capsys, write):
        layout = build_reduction(Formula13(4, ((0, 1, 2), (3, 2, 1))))
        path = write("g", format_graph(layout.graph))
        rc = main(["check", path, "--pt-free", "14", "--budget-seconds", "0.0"])
        assert rc == 3
        assert "oracle limit:" in capsys.readouterr().err

    @pytest.mark.parametrize("seconds", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_budget(self, capsys, graph_file, two_squares, seconds):
        # a NaN budget never runs out: time.monotonic() > nan is always false
        path = graph_file("g", two_squares)
        with pytest.raises(SystemExit) as exc:
            main(["solve", path, "--problem", "mc", "--budget-seconds", seconds])
        assert exc.value.code == 2
        assert "--budget-seconds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["crosscheck", "--count", "-2"],
            ["solve", "G", "--problem", "mc", "--algo", "oracle", "--max-oracle-n", "-1"],
        ],
    )
    def test_negative_count_or_bound(self, capsys, graph_file, two_squares, argv):
        argv = [graph_file("g", two_squares) if a == "G" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected an integer >= 0" in capsys.readouterr().err

    def test_zero_count_and_bound_stay_valid(self, capsys, graph_file, two_squares):
        assert main(["crosscheck", "--count", "0"]) == 0
        assert capsys.readouterr().out.endswith("disagreements: 0\n")
        path = graph_file("g", two_squares)
        rc = main(["solve", path, "--problem", "mc", "--algo", "oracle", "--max-oracle-n", "0"])
        assert rc == 3
        assert "oracle bound is 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["--pt-free", "0"], ["--pt-free", "-1"], ["--k-chordal", "0"], ["--k-chordal", "-3"]]
    )
    def test_non_positive_check_bound(self, capsys, graph_file, argv):
        path = graph_file("g", path_graph(4))
        with pytest.raises(SystemExit) as exc:
            main(["check", path, *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert argv[0] in err and "expected an integer >= 1" in err

    def test_smallest_check_bounds_stay_valid(self, capsys, graph_file):
        path = graph_file("g", path_graph(4))
        rc, payload = run_json(capsys, ["check", path, "--pt-free", "1"])
        assert rc == 0 and payload["verdict"] == "NO"
        rc, payload = run_json(capsys, ["check", path, "--k-chordal", "3"])
        assert rc == 0 and payload["verdict"] == "YES"

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "G", "--algo", "oracle", "--problem", "mc"],
            ["solve", "G", "--algo", "oracle", "--problem", "dpm"],
            ["check", "G", "--pt-free", "5"],
            ["check", "G", "--k-chordal", "4"],
            ["solve", "G", "--algo", "oracle", "--problem", "pmc"],
        ],
    )
    def test_search_deeper_than_recursion_limit(self, capsys, graph_file, argv):
        # each search goes a step deeper per vertex it places: 1,200 steps
        # here, past the interpreter's default recursion limit of 1,000
        graphs = {"path": path_graph(1200)}
        if argv[0] == "solve":
            graphs["ladder"] = ladder(600)
        for name, g in graphs.items():
            path = graph_file(name, g)
            rc, payload = run_json(
                capsys, [path if a == "G" else a for a in argv] + ["--max-oracle-n", "5000"]
            )
            assert rc == 0, name
            if argv[2] == "--pt-free":
                assert payload["verdict"] == "NO" and payload["longest_induced_path"] == 1200
            elif argv[2] == "--k-chordal":
                assert payload["verdict"] == "YES" and payload["longest_induced_cycle"] is None
            elif argv[-1] == "dpm":
                assert is_disconnected_perfect_matching(g, map(tuple, payload["matching"])), name
            else:
                certified = check_matching_cut if argv[-1] == "mc" else check_perfect_matching_cut
                assert payload["verdict"] == "YES" and certified(g, payload["x"])[0] is not None, name

    @pytest.mark.parametrize("problem", ["mc", "pmc", "dpm"])
    def test_auto_recognition_refused_by_size(self, capsys, graph_file, problem):
        # recognition refuses the path, and that refusal ends the solve
        path = graph_file("g", path_graph(32))
        assert main(["solve", path, "--problem", problem]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "oracle limit: instance has 32 vertices, oracle bound is 30\n"

    def test_auto_recognition_refused_by_budget(self, capsys, graph_file):
        path = graph_file("g", cycle_graph(5))
        assert main(["solve", path, "--problem", "mc", "--budget-seconds", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "oracle limit: oracle budget exhausted\n"

    def test_auto_recognition_out_of_budget_exits(self, capsys, monkeypatch, graph_file):
        # the oracle would answer C5 YES, but it gets no second budget
        def spent(g, limits=None):
            raise matchcut.oracle.OracleBudgetError("oracle budget exhausted")

        monkeypatch.setattr("matchcut.oracle.longest_induced_cycle", spent)
        path = graph_file("g", cycle_graph(5))
        assert main(["solve", path, "--problem", "mc"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "oracle limit: oracle budget exhausted\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "G", "--problem", "mc", "--budget-seconds", "abc"], "invalid float value: 'abc'"),
            (["crosscheck", "--count", "x"], "invalid int value: 'x'"),
        ],
    )
    def test_non_numeric_option(self, capsys, graph_file, two_squares, argv, message):
        argv = [graph_file("g", two_squares) if a == "G" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_raised_max_oracle_n(self, capsys, graph_file):
        big = build_graph(31, [(i, i + 1) for i in range(30)])
        path = graph_file("g", big)
        rc, payload = run_json(
            capsys,
            ["solve", path, "--problem", "mc", "--algo", "oracle", "--max-oracle-n", "31"],
        )
        assert rc == 0 and payload["verdict"] == "YES"


class TestCollector:
    """main pauses the cyclic collector while a command runs and leaves
    it as it found it, whatever the exit."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["solve", "G", "--problem", "pmc"], 0),
            (["solve", "BAD", "--problem", "pmc"], 2),
            (["solve", "PATH", "--problem", "mc", "--algo", "oracle"], 3),
            (["crosscheck", "--count", "2", "--max-n", "8"], 0),
        ],
        ids=["answer", "parse-error", "oracle-bound", "crosscheck"],
    )
    def test_collector_state_restored(
        self, capsys, monkeypatch, write, graph_file, two_squares, enabled, argv, code
    ):
        swap = {
            "G": graph_file("g", two_squares),
            "BAD": write("bad", "3 1\n0 x\n"),
            "PATH": graph_file("path", path_graph(31)),
        }
        paused = []
        real_parse = matchcut.cli.parse_graph

        def parse(text):
            paused.append(not gc.isenabled())
            return real_parse(text)

        monkeypatch.setattr(matchcut.cli, "parse_graph", parse)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            rc = main([swap.get(a, a) for a in argv])
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()
        assert rc == code
        assert all(paused)


def test_console_script_smoke(tmp_path, two_squares):
    path = tmp_path / "g"
    path.write_text(format_graph(two_squares))
    exe = shutil.which("matchcut")
    cmd = (
        [exe, "solve", str(path), "--problem", "pmc"]
        if exe
        else [sys.executable, "-m", "matchcut.cli", "solve", str(path), "--problem", "pmc"]
    )
    # the child does not inherit pytest's sys.path: hand it the
    # directory this run imported the package from
    source = os.path.dirname(os.path.dirname(matchcut.__file__))
    pythonpath = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "verdict: YES" in proc.stdout


class TestLeanCommands:
    def test_crosscheck_draws_one_instance_at_a_time(self, capsys, monkeypatch):
        import matchcut.generators
        import matchcut.oracle
        from matchcut import OracleSizeError

        drawn = []
        draw = matchcut.generators.random_connected_4chordal

        def counting_draw(*args, **kwargs):
            drawn.append(1)
            return draw(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise OracleSizeError("refused")

        monkeypatch.setattr(matchcut.generators, "random_connected_4chordal", counting_draw)
        monkeypatch.setattr(matchcut.oracle, "enumerate_matching_cuts", refuse)
        rc = main(["crosscheck", "--seed", "0", "--count", "5", "--max-n", "10"])
        captured = capsys.readouterr()
        assert rc == 3 and len(drawn) == 1
        assert captured.out == "" and captured.err == "oracle limit: refused\n"

    def test_reduce_warns_on_one_clause(self, capsys, write, tmp_path):
        from matchcut import OracleLimits
        from matchcut.oracle import enumerate_matching_cuts

        one = write("one.cnf", "p cnf 3 1\n1 2 3 0\n")
        rc = main(["reduce", one, "--out", str(tmp_path / "one")])
        captured = capsys.readouterr()
        assert rc == 0 and captured.out.startswith("clauses: 1\n")
        assert captured.err.startswith("warning: ") and captured.err.count("\n") == 1
        assert "not perfect" in captured.err and "repeat the clause" in captured.err

        # the advice holds: the repeated clause's gadget has only perfect
        # matching cuts, and its reduce prints no warning
        two = write("two.cnf", "p cnf 3 2\n1 2 3 0\n1 2 3 0\n")
        rc = main(["reduce", two, "--out", str(tmp_path / "two")])
        assert rc == 0 and capsys.readouterr().err == ""
        g = parse_graph((tmp_path / "two.graph").read_text())
        cuts = enumerate_matching_cuts(g, "matching_only", OracleLimits(max_vertices=28))
        assert cuts and all(check_perfect_matching_cut(g, c.x)[0] is not None for c in cuts)


class ReadRecorder(argparse.Namespace):
    """A namespace that records the names of the attributes read off it."""

    def __init__(self) -> None:
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# small runs of each command; check runs once per kind, because a run
# reads the options of its own kind and those tested before it
OPTION_RUNS = {
    "solve": [["solve", "G", "--problem", "pmc", "--emit-2cnf", "OUT"]],
    "check": [
        ["check", "G", "--pt-free", "4"],
        ["check", "G", "--k-chordal", "4"],
        ["check", "G", "--pattern", "G"],
    ],
    "reduce": [["reduce", "CNF", "--out", "OUT"]],
    "crosscheck": [["crosscheck", "--count", "1", "--max-n", "6"]],
}


@pytest.mark.parametrize("command", sorted(OPTION_RUNS))
def test_every_option_is_read(capsys, graph_file, write, tmp_path, two_squares, command):
    # an option that no command reads is accepted and then ignored
    files = {
        "G": graph_file("g", two_squares),
        "CNF": write("f.cnf", format_formula_dimacs(Formula13(3, ((0, 1, 2),)))),
        "OUT": str(tmp_path / "out"),
    }
    parser = _build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(commands.choices) == set(OPTION_RUNS)
    dests = {
        action.dest
        for action in commands.choices[command]._actions
        if not isinstance(action, argparse._HelpAction)
    }
    read = set()
    for argv in OPTION_RUNS[command]:
        args = parser.parse_args([files.get(a, a) for a in argv], namespace=ReadRecorder())
        # argparse reads the namespace while it fills it in
        args._reads.clear()
        assert args.func(args) == 0
        read |= args._reads
    capsys.readouterr()
    assert sorted(dests - read) == []

import json
import shutil
import subprocess
import sys

import pytest

from matchcut import build_graph, format_graph, parse_graph
from matchcut.cli import main
from matchcut.files import format_formula_dimacs, layout_sidecar
from matchcut.graphs import complete_graph, cycle_graph, disjoint_union, path_graph
from matchcut.reduction import Formula13, build_reduction


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
        sidecar = json.loads((tmp_path / "enc.vars.json").read_text())
        assert sidecar["variable_to_vertex"]["6"] == 5
        assert sidecar["unencoded_shallow_vertices"] == []
        assert sidecar["blocked_vertices"] == []

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
        path = graph_file("g", build_graph(4, [(0, 1), (2, 3)]))
        prefix = str(tmp_path / "enc")
        rc = main(["solve", path, "--problem", "pmc", "--emit-2cnf", prefix])
        assert rc == 0
        sidecar = json.loads((tmp_path / "enc.vars.json").read_text())
        assert sidecar["unencoded_shallow_vertices"] == [0, 1, 2, 3]
        assert (tmp_path / "enc.cnf").read_text() == "p cnf 4 0\n"

    def test_emit_twosat_requires_pmc(self, capsys, graph_file, two_squares):
        path = graph_file("g", two_squares)
        rc = main(["solve", path, "--problem", "mc", "--emit-2cnf", "unused"])
        assert rc == 2
        assert "--problem pmc" in capsys.readouterr().err


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
        expected = layout_sidecar(build_reduction(formula))
        assert (tmp_path / "inst.layout.json").read_text() == expected

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
        monkeypatch.setattr("matchcut.forcing.solve_mc_4chordal", lambda g: None)
        rc = main(self.ARGS)
        out = capsys.readouterr().out
        assert rc == 4
        assert "DISAGREE" in out and "problem=mc" in out

    def test_max_n_below_min_n(self, capsys):
        rc = main(["crosscheck", "--seed", "0", "--count", "5", "--max-n", "3"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("max_n", ["40", "1000000000"])
    def test_max_n_above_oracle_bound(self, capsys, max_n):
        # refused before any instance is generated
        rc = main(["crosscheck", "--seed", "2", "--count", "3", "--max-n", max_n])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == "" and captured.err.startswith("oracle limit:")


class TestExitCodes:
    def test_missing_file(self, capsys, tmp_path):
        rc = main(["solve", str(tmp_path / "absent"), "--problem", "mc"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_graph(self, capsys, write):
        path = write("bad", "not a graph\n")
        rc = main(["solve", path, "--problem", "mc"])
        assert rc == 2

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

    def test_raised_max_oracle_n(self, capsys, graph_file):
        big = build_graph(31, [(i, i + 1) for i in range(30)])
        path = graph_file("g", big)
        rc, payload = run_json(
            capsys,
            ["solve", path, "--problem", "mc", "--algo", "oracle", "--max-oracle-n", "31"],
        )
        assert rc == 0 and payload["verdict"] == "YES"


def test_console_script_smoke(tmp_path, two_squares):
    path = tmp_path / "g"
    path.write_text(format_graph(two_squares))
    exe = shutil.which("matchcut")
    cmd = (
        [exe, "solve", str(path), "--problem", "pmc"]
        if exe
        else [sys.executable, "-m", "matchcut.cli", "solve", str(path), "--problem", "pmc"]
    )
    proc = subprocess.run(cmd, capture_output=True, text=True)
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
        from matchcut import OracleLimits, is_perfect_matching_cut
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
        assert cuts and all(is_perfect_matching_cut(g, c.x) for c in cuts)

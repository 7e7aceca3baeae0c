"""What importing the package loads, and the names its root resolves.

A fresh interpreter imports only the modules a command runs: the
exhaustive oracle, the gadget builder, the pmc solver, 2-SAT and the
generator stay unloaded on the mc/dpm path, blossom matching on the mc
path too, and the mc/dpm solver, blossom matching and the oracle on the
pmc path, so start-up does not pay for them.  No command loads
dataclasses or inspect.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchcut
import matchcut.oracle
import matchcut.solver

SRC = Path(__file__).resolve().parents[1] / "src"
UNUSED_ON_MC_DPM = (
    "matchcut.oracle",
    "matchcut.reduction",
    "matchcut.pmc",
    "matchcut.twosat",
    "matchcut.generators",
)


def last_line_after(code: str) -> str:
    """The last line code prints, run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def loaded_after(code: str) -> set[str]:
    """The matchcut modules in sys.modules after code runs in a fresh
    interpreter."""
    report = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('matchcut'))))"
    )
    return set(json.loads(last_line_after(code + report)))


def test_cli_import_loads_no_solver_it_does_not_run():
    loaded = loaded_after("import matchcut.cli")
    assert "matchcut.cli" in loaded
    assert loaded.isdisjoint(UNUSED_ON_MC_DPM), sorted(loaded)
    # crosscheck decides through solve(), so no solver is bound at import
    assert loaded == {
        "matchcut",
        "matchcut.cli",
        "matchcut.files",
        "matchcut.graphs",
        "matchcut.solver",
    }


def test_fourchordal_mc_loads_no_other_solver(tmp_path):
    path = tmp_path / "ladder.graph"
    path.write_text("6 7\n0 1\n1 2\n3 4\n4 5\n0 3\n1 4\n2 5\n")
    argv = ["solve", str(path), "--problem", "mc", "--algo", "fourchordal"]
    loaded = loaded_after(
        "from matchcut.cli import main\n"
        f"assert main({argv!r}) == 0"
    )
    assert {"matchcut.forcing", "matchcut.solver"} <= loaded
    # the first seed's cut answers mc: no perfect matching is looked for
    assert loaded.isdisjoint(UNUSED_ON_MC_DPM + ("matchcut.matching",)), sorted(loaded)


def test_fourchordal_dpm_loads_no_other_solver(tmp_path):
    path = tmp_path / "ladder.graph"
    path.write_text("6 7\n0 1\n1 2\n3 4\n4 5\n0 3\n1 4\n2 5\n")
    argv = ["solve", str(path), "--problem", "dpm", "--algo", "fourchordal"]
    loaded = loaded_after(
        "from matchcut.cli import main\n"
        f"assert main({argv!r}) == 0"
    )
    assert {"matchcut.forcing", "matchcut.matching", "matchcut.solver"} <= loaded
    assert loaded.isdisjoint(UNUSED_ON_MC_DPM), sorted(loaded)


def test_fourchordal_pmc_loads_no_mc_dpm_solver_or_oracle(tmp_path):
    path = tmp_path / "ladder.graph"
    path.write_text("6 7\n0 1\n1 2\n3 4\n4 5\n0 3\n1 4\n2 5\n")
    argv = ["solve", str(path), "--problem", "pmc", "--algo", "fourchordal"]
    loaded = loaded_after(
        "from matchcut.cli import main\n"
        f"assert main({argv!r}) == 0"
    )
    assert "matchcut.pmc" in loaded
    # the parity pass decides, so 2-SAT is not loaded
    assert loaded.isdisjoint(
        {"matchcut.forcing", "matchcut.matching", "matchcut.oracle", "matchcut.twosat"}
    )


def test_emit_2cnf_loads_no_twosat(tmp_path):
    # the 2-CNF is written straight from the sweep's relations
    path = tmp_path / "ladder.graph"
    path.write_text("6 7\n0 1\n1 2\n3 4\n4 5\n0 3\n1 4\n2 5\n")
    argv = ["solve", str(path), "--problem", "pmc", "--emit-2cnf", str(tmp_path / "enc")]
    loaded = loaded_after(
        "from matchcut.cli import main\n"
        f"assert main({argv!r}) == 0"
    )
    assert "matchcut.pmc" in loaded and "matchcut.twosat" not in loaded
    assert (tmp_path / "enc.cnf").read_text().startswith("p cnf 6 ")


def test_oracle_dpm_loads_blossom_but_no_polynomial_solver(tmp_path):
    # the oracle decides dpm by matching cuts and blossom matching
    path = tmp_path / "ladder.graph"
    path.write_text("6 7\n0 1\n1 2\n3 4\n4 5\n0 3\n1 4\n2 5\n")
    argv = ["solve", str(path), "--problem", "dpm", "--algo", "oracle"]
    loaded = loaded_after(
        "from matchcut.cli import main\n"
        f"assert main({argv!r}) == 0"
    )
    assert loaded == {
        "matchcut",
        "matchcut.cli",
        "matchcut.files",
        "matchcut.graphs",
        "matchcut.matching",
        "matchcut.oracle",
        "matchcut.solver",
    }


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    # dataclasses costs about 10 ms of start-up, most of it for inspect,
    # ast, dis and tokenize.  The commands run one after another in one
    # interpreter; the first after which a module appears loaded it.
    graph = tmp_path / "ladder.graph"
    graph.write_text("6 7\n0 1\n1 2\n3 4\n4 5\n0 3\n1 4\n2 5\n")
    cnf = tmp_path / "clauses.cnf"
    cnf.write_text("p cnf 3 2\n1 2 3 0\n1 2 3 0\n")
    commands = [
        ["solve", str(graph), "--problem", problem, "--algo", algo]
        for problem in ("mc", "dpm", "pmc")
        for algo in ("fourchordal", "auto", "oracle")
    ] + [
        ["check", str(graph), "--k-chordal", "4"],
        ["check", str(graph), "--pt-free", "5"],
        ["check", str(graph), "--pattern", str(graph)],
        ["reduce", str(cnf), "--out", str(tmp_path / "gadget")],
        ["crosscheck", "--count", "3", "--max-n", "8"],
    ]
    code = (
        "import json, sys\n"
        "import matchcut.cli\n"
        "first = {}\n"
        "def note(step):\n"
        "    for name in ('dataclasses', 'inspect'):\n"
        "        if name in sys.modules:\n"
        "            first.setdefault(name, step)\n"
        "note('import matchcut.cli')\n"
        f"for argv in {commands!r}:\n"
        "    assert matchcut.cli.main(argv) == 0, argv\n"
        "    note(' '.join(argv))\n"
        "print(json.dumps(first))"
    )
    assert json.loads(last_line_after(code)) == {}


def test_package_import_loads_no_module():
    assert loaded_after("import matchcut") == {"matchcut"}


class TestLazyRoot:
    def test_every_export_is_its_modules_object(self):
        assert len(matchcut.__all__) == len(set(matchcut.__all__)) == 20
        for name in matchcut.__all__:
            obj = getattr(matchcut, name)
            assert obj.__module__.startswith("matchcut."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name

    def test_oracle_reexports_its_limit_and_error_types(self):
        for name in ("OracleLimits", "OracleError", "OracleSizeError", "OracleBudgetError"):
            assert getattr(matchcut.oracle, name) is getattr(matchcut, name)

    def test_dir_lists_every_export(self):
        assert set(matchcut.__all__) <= set(dir(matchcut))

    def test_star_import_binds_every_export(self):
        namespace: dict = {}
        exec("from matchcut import *", namespace)
        for name in matchcut.__all__:
            assert namespace[name] is getattr(matchcut, name), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            matchcut.no_such_name

    def test_lookup_follows_a_rebound_module_attribute(self, monkeypatch):
        # the root keeps no copy, so a patch on the module shows through
        sentinel = object()
        monkeypatch.setattr(matchcut.solver, "solve", sentinel)
        assert matchcut.solve is sentinel

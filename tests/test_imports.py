"""What importing the package loads, and the names its root resolves.

A fresh interpreter imports only the modules a command runs: the
exhaustive oracle, the gadget builder, the pmc solver, 2-SAT and the
generator stay unloaded on the mc/dpm path, and the mc/dpm solver,
blossom matching and the oracle on the pmc path, so start-up does not
pay for them.
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


def loaded_after(code: str) -> set[str]:
    """The matchcut modules in sys.modules after code runs in a fresh
    interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    report = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('matchcut'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code + report], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


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


@pytest.mark.parametrize("problem", ["mc", "dpm"])
def test_fourchordal_mc_dpm_loads_no_other_solver(tmp_path, problem):
    path = tmp_path / "ladder.graph"
    path.write_text("6 7\n0 1\n1 2\n3 4\n4 5\n0 3\n1 4\n2 5\n")
    argv = ["solve", str(path), "--problem", problem, "--algo", "fourchordal"]
    loaded = loaded_after(
        "from matchcut.cli import main\n"
        f"assert main({argv!r}) == 0"
    )
    assert {"matchcut.forcing", "matchcut.solver"} <= loaded
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
    assert loaded.isdisjoint({"matchcut.forcing", "matchcut.matching", "matchcut.oracle"})


def test_package_import_loads_no_module():
    assert loaded_after("import matchcut") == {"matchcut"}


class TestLazyRoot:
    def test_every_export_is_its_modules_object(self):
        assert len(matchcut.__all__) == len(set(matchcut.__all__)) == 22
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

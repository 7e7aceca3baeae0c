"""The benchmark's three workloads, built from a seed.

A workload is a list of operations, each with its own answer check.
``build(name, seed, workdir, generators)`` makes the inputs and the
expected answers and returns a ``Builder``: its ``ops`` and the input
files that ``write()`` puts into ``workdir``.  Only ``write()`` is part
of the timed set-up; the expected answers, some of them from networkx
or brute force, are computed once before it.  A run repeats the whole
list of operations in rounds.  Graph inputs come from ``families`` (the
package receives only the files).  The exceptions are the operations that exercise the
package's own builders: ``crosscheck``, ``reduce`` and
``random_connected_4chordal``.

Two operation groups fail on purpose, on fixed inputs that do not depend
on the seed, because of faults in the package (``fault`` marks them;
the comments beside the two groups say which fault).  They are counted
as failed when they exit 3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import families as F

@dataclass
class Result:
    returncode: int
    stdout: str
    value: object = None


@dataclass
class Op:
    """One operation: a CLI call (argv) or a library call (call).

    ``check`` runs on every exit code in ``answer_exits``; any other
    nonzero exit is a failure.
    """

    label: str
    check: Callable[[Result], None]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    fault: bool = False
    answer_exits: tuple[int, ...] = (0,)


class Builder:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.ops: list[Op] = []
        self.files: dict[str, Callable[[], str]] = {}

    def _path(self, stem: str) -> str:
        return str(self.workdir / f"{len(self.ops):03d}-{stem}")

    def write_graph(self, fam: F.Family) -> str:
        path = self._path(fam.name) + ".graph"
        self.files[path] = lambda: F.format_graph(fam)
        return path

    def write(self) -> None:
        """Write every input file into the (existing) work directory."""
        for path, text in self.files.items():
            Path(path).write_text(text())

    def solve(
        self,
        fam: F.Family,
        problem: str,
        algo: str = "auto",
        emit: bool = False,
        fault: bool = False,
    ) -> None:
        expected = fam.verdicts.get(problem)
        if expected is None and problem in ("pmc", "dpm"):
            if not checks.has_perfect_matching(fam.n, fam.edges):
                expected = False
        if expected is None:
            raise ValueError(f"no independent {problem} verdict for {fam.name}")
        path = self.write_graph(fam)
        argv = ["solve", path, "--problem", problem, "--algo", algo, "--format", "json"]
        prefix = None
        if emit:
            prefix = self._path(fam.name) + "-2cnf"
            argv += ["--emit-2cnf", prefix]

        def check(res: Result) -> None:
            payload = checks.last_json(res.stdout)
            checks.check_solve(fam.n, fam.edges, problem, expected, payload)
            if prefix is not None:
                if payload["verdict"] != "YES":
                    raise checks.CheckError("2-CNF check needs a YES instance")
                checks.check_twosat(Path(prefix + ".cnf").read_text(), payload["x"])

        label = f"solve {problem} {algo}{' emit' if emit else ''} {fam.name}"
        self.ops.append(Op(label, check, argv=argv, fault=fault))

    def k_chordal(self, fam: F.Family, k: int = 4) -> None:
        cycle = checks.longest_chordless_cycle(fam.n, fam.edges)
        argv = ["check", self.write_graph(fam), "--k-chordal", str(k), "--format", "json"]
        self.ops.append(Op(
            f"check k-chordal {fam.name}",
            lambda res: checks.check_k_chordal(checks.last_json(res.stdout), k, cycle),
            argv=argv,
        ))

    def pt_free(self, fam: F.Family, t: int) -> None:
        argv = ["check", self.write_graph(fam), "--pt-free", str(t), "--format", "json"]
        self.ops.append(Op(
            f"check pt-free {fam.name}",
            lambda res: checks.check_pt_free(checks.last_json(res.stdout), t, fam.longest_path),
            argv=argv,
        ))

    def pattern(self, fam: F.Family, pat: F.Family) -> None:
        found = checks.contains_induced(fam.n, fam.edges, pat.n, pat.edges)
        host = self.write_graph(fam)
        argv = ["check", host, "--pattern", self.write_graph(pat), "--format", "json"]
        self.ops.append(Op(
            f"check pattern {pat.name} in {fam.name}",
            lambda res: checks.check_pattern(checks.last_json(res.stdout), found),
            argv=argv,
        ))

    def gadget(self, rng: random.Random, clauses: int, variables: int) -> None:
        """reduce a positive 1-in-3 formula, then solve pmc on the gadget."""
        formula = F.random_formula(rng, clauses, variables)
        satisfiable = checks.one_in_three_satisfiable(variables, formula)
        cnf = self._path(f"formula{clauses}x{variables}") + ".cnf"
        self.files[cnf] = lambda: F.format_dimacs(variables, formula)
        prefix = self._path("gadget")

        def check_reduce(res: Result) -> None:
            payload = checks.last_json(res.stdout)
            n, edges = checks.parse_graph_file(Path(prefix + ".graph").read_text())
            if (payload.get("clauses"), payload.get("variables")) != (clauses, variables):
                raise checks.CheckError(f"reduce read {payload}")
            if (payload.get("n"), payload.get("m")) != (n, len(edges)) or n != 14 * clauses:
                raise checks.CheckError(f"gadget has {n} vertices for {clauses} clauses")

        def check_solve(res: Result) -> None:
            n, edges = checks.parse_graph_file(Path(prefix + ".graph").read_text())
            checks.check_solve(n, edges, "pmc", satisfiable, checks.last_json(res.stdout))

        self.ops.append(Op(
            f"reduce {clauses}x{variables}", check_reduce,
            argv=["reduce", cnf, "--out", prefix, "--format", "json"],
        ))
        self.ops.append(Op(
            f"solve pmc auto gadget{14 * clauses}", check_solve,
            argv=["solve", prefix + ".graph", "--problem", "pmc", "--format", "json"],
        ))

    def crosscheck(self, seed: int, count: int, max_n: int) -> None:
        argv = ["crosscheck", "--seed", str(seed), "--count", str(count),
                "--max-n", str(max_n), "--format", "json"]
        # exit 4 reports disagreements: a wrong answer, not a failure
        self.ops.append(Op(
            f"crosscheck {count}x{max_n}",
            lambda res: checks.check_crosscheck(checks.last_json(res.stdout), count, res.returncode),
            argv=argv,
            answer_exits=(0, 4),
        ))

    def generate(self, generators, seed: int, n: int) -> None:
        """A library call of random_connected_4chordal, looked up on the
        module at call time so that a traced run sees the wrapper."""

        def call():
            return generators.random_connected_4chordal(random.Random(seed), n)

        def check(res: Result) -> None:
            g = res.value
            if g.n != n:
                raise checks.CheckError(f"generator returned {g.n} vertices, asked {n}")
            edges = [(u, v) for u in range(g.n) for v in g.adj[u] if u < v]
            checks.check_generated(n, edges)

        self.ops.append(Op(f"random_connected_4chordal n={n}", check, call=call))


def spread(rng: random.Random, lo: float, hi: float, count: int, log: bool = False) -> list[int]:
    """count sizes spaced evenly over [lo, hi] (over its logarithm when
    log is set), each jittered by up to 5 %: the seed changes the inputs
    while the work of a round stays nearly the same."""
    out = []
    for i in range(count):
        u = i / (count - 1) if count > 1 else 0.5
        base = lo * (hi / lo) ** u if log else lo + (hi - lo) * u
        out.append(round(base * rng.uniform(0.95, 1.05)))
    return out


def _seeds(b: Builder, rng: random.Random, generators) -> None:
    fams = [F.strip(n) for n in spread(rng, 350, 700, 2)]
    fams += [F.ktree(n, 2, rng) for n in spread(rng, 350, 700, 2)]
    fams += [F.ktree(n, 3, rng) for n in spread(rng, 350, 700, 2)]
    # the largest prism and the two larger ladders make the slowest
    # operations, among which the 90th percentile falls; their sizes are
    # fixed so that it does not move with the seed (dpm on the ladders is
    # cubic, so a 5 % jitter in k moves it by 15 %)
    fams += [F.odd_ladder(k) for k in (40, 65)]
    fams += [F.pendant_ladder(k) for k in (40, 65)]
    fams += [F.tree_prism(t, rng.randint(20, 40), rng) for t in (200, 700, 1200)]
    for fam in fams:
        for problem in ("mc", "dpm"):
            b.solve(fam, problem, algo="fourchordal")


def _sweep(b: Builder, rng: random.Random, generators) -> None:
    def prism(n: int, width: int) -> F.Family:
        return F.tree_prism(n // 2, width, rng)

    for n in spread(rng, 500, 10**4, 6, log=True):
        b.solve(F.ladder(n // 2), "pmc", "fourchordal")
    for i, n in enumerate(spread(rng, 500, 10**4, 6, log=True)):
        b.solve(prism(n, rng.randint(20, 80)), "pmc", "fourchordal", emit=i % 2 == 1)
    for i, n in enumerate(spread(rng, 1000, 10**4, 5, log=True)):
        parts = [F.ladder(n // 8), prism(n // 2, rng.randint(20, 80)), prism(n // 4, 10)]
        b.solve(F.disjoint_union(f"union{n}", parts), "pmc", "fourchordal", emit=i % 2 == 1)
    for n in spread(rng, 1000, 10**4, 6, log=True):
        parts = [prism(n // 2, rng.randint(20, 80)), F.odd_ladder(n // 8), F.ladder(n // 8)]
        rng.shuffle(parts)
        b.solve(F.disjoint_union(f"oddunion{n}", parts), "pmc", "fourchordal")
    # connected graphs with a universal vertex above 30 vertices.  Fault:
    # solve_pmc_4chordal hands components of BFS height <= 1 to the
    # exhaustive oracle, which refuses n > 30 (exit 3)
    for fam in (F.star(40), F.clique_with_pendants(8, 32)):
        b.solve(fam, "pmc", "fourchordal", fault=True)


def _exhaustive(b: Builder, rng: random.Random, generators) -> None:
    # opt-in oracle dpm on the 4th power of the 20-vertex path (a 4-tree)
    # enumerates thousands of perfect matchings before answering NO.  The
    # input is fixed and slower than any other operation, so its six runs
    # make a band in which the 90th percentile falls whatever the seed; random k-trees or relabelled copies spread the
    # enumeration time by +-25 %.  The six are spread over the round, so
    # that they meet more of the host's changes in load.
    def path_power_dpm() -> None:
        b.solve(F.path_power(20, 4), "dpm", "oracle")

    # default auto path: 4-chordal inputs take the polynomial solvers,
    # inputs with longer holes take the oracle
    for fam in (F.ladder(rng.randint(8, 15)), F.tree_prism(rng.randint(8, 15), 3, rng)):
        for problem in ("mc", "dpm", "pmc"):
            b.solve(fam, problem)
        path_power_dpm()
    b.solve(F.strip(rng.randint(20, 30)), "mc")
    b.solve(F.ktree(rng.randint(20, 30), 2, rng), "dpm")
    b.solve(F.odd_ladder(rng.randint(8, 14)), "dpm")
    b.solve(F.pendant_ladder(rng.randint(8, 13)), "pmc")
    cyc = F.cycle(rng.randint(8, 30))
    for problem in ("mc", "dpm", "pmc"):
        b.solve(cyc, problem)
    path_power_dpm()
    for a, bb in ((3, rng.randint(5, 10)), (rng.randint(4, 5), 6)):
        for problem in ("mc", "dpm"):
            b.solve(F.grid(a, bb), problem)
    # opt-in oracle for all three problems
    for problem in ("mc", "dpm", "pmc"):
        b.solve(F.ladder(rng.randint(8, 15)), problem, "oracle")
        b.solve(F.cycle(rng.randint(8, 30)), problem, "oracle")
    path_power_dpm()
    # recognition and pattern checks
    for fam in (F.grid(rng.randint(3, 5), 6), F.cycle(rng.randint(5, 30)),
                F.tree_prism(rng.randint(8, 15), 3, rng), F.ktree(rng.randint(15, 30), 3, rng)):
        b.k_chordal(fam)
    k = rng.randint(8, 24)
    for fam in (F.cycle(k), F.star(rng.randint(8, 30)),
                F.complete_bipartite(rng.randint(3, 12), rng.randint(3, 12))):
        b.pt_free(fam, rng.randint(3, 9))
    path_power_dpm()
    b.pattern(F.cycle(k), F.path(rng.randint(k - 2, k)))
    b.pattern(F.star(rng.randint(6, 30)), F.claw())
    b.pattern(F.grid(3, rng.randint(4, 8)), F.cycle(4))
    b.pattern(F.strip(rng.randint(12, 30)), F.cycle(4))
    # the hardness gadget; up to two clauses it stays within the oracle's 30
    for clauses, variables in ((1, 3), (2, rng.randint(3, 6))):
        b.gadget(rng, clauses, variables)
    path_power_dpm()
    for _ in range(2):
        b.crosscheck(rng.randrange(10**6), 6, 30)
    b.generate(generators, rng.randrange(10**6), 120)
    b.generate(generators, rng.randrange(10**6), 130)
    # 4-chordal inputs above 30 vertices on the default auto path.  Fault:
    # _pick_algo runs the exhaustive longest_induced_cycle, which refuses
    # n > --max-oracle-n; the oracle fallback refuses too (exit 3)
    for fam, problem in ((F.ladder(20), "pmc"), (F.strip(36), "dpm"),
                         (F.tree_prism(30, 6, random.Random(0)), "mc")):
        b.solve(fam, problem, fault=True)


BUILDERS = {"seeds": _seeds, "sweep": _sweep, "exhaustive": _exhaustive}


def build(name: str, seed: int, workdir: Path, generators) -> Builder:
    """Make the inputs and ops of workload ``name`` for ``seed``; the
    files are written by the returned builder's ``write()``."""
    b = Builder(workdir)
    BUILDERS[name](b, random.Random(f"{name}:{seed}"), generators)
    return b

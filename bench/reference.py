"""Reference figures for the benchmark README, re-measured on demand.

    python3 bench/reference.py

Prints, one per line: dpm on the odd ladder with 401 vertices through
the CLI, ``propagate`` on one rung seed of ladders with 800 and 1600
vertices (in-process), ``random_connected_4chordal`` at n = 200, and the
exit codes of ``solve --problem pmc`` on the 40-vertex ladder (default
``auto``) and on the 40-vertex star (``--algo fourchordal``).
"""

from __future__ import annotations

import random
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import run
import families as F


def median_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from matchcut import build_graph, propagate, random_connected_4chordal

    with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
        work = Path(tmp)
        runner = run.Runner(work)

        def cli(fam: F.Family, *args: str):
            path = work / f"{fam.name}.graph"
            path.write_text(F.format_graph(fam))
            return runner.child(["solve", str(path), *args])

        res, seconds = cli(F.odd_ladder(200), "--problem", "dpm", "--algo", "fourchordal")
        print(f"oddladder401 dpm fourchordal: {seconds:.2f} s, exit {res.returncode}")
        for k in (400, 800):
            fam = F.ladder(k)
            g = build_graph(fam.n, fam.edges)
            t = median_time(lambda: propagate(g, 0, k))
            print(f"propagate, rung seed (0, {k}), ladder{2 * k}: {t:.3f} s")
        t = median_time(lambda: random_connected_4chordal(random.Random(0), 200), repeats=1)
        print(f"random_connected_4chordal n=200 seed 0: {t:.2f} s")
        res, _ = cli(F.ladder(20), "--problem", "pmc")
        print(f"ladder40 pmc auto: exit {res.returncode}")
        res, _ = cli(F.star(40), "--problem", "pmc", "--algo", "fourchordal")
        print(f"star40 pmc fourchordal: exit {res.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

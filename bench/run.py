"""Benchmark of the matchcut CLI and library.

Usage, from the root of the repository:

    python3 bench/run.py                      # every workload once, seed 1
    python3 bench/run.py --workload seeds --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --repeat 10          # seeds 1..10 per workload:
                                              # median, quartiles, bound
    python3 bench/run.py --repeat 10 --against first.txt
                                              # and each median's change
                                              # from an earlier set's
    python3 bench/run.py --write-spec         # rewrite BENCHMARK.json

One run builds a workload's inputs and expected answers from its seed,
then repeats the workload's operations in whole rounds, each after
SETUPS_PER_ROUND timed set-ups, for at least ``--seconds`` and at least
MIN_SAMPLES operations.  It is a closed loop with one client: one
operation at a time, each awaited before the next.  CLI operations run
``matchcut.cli`` in a child process with the repository's ``src`` on
the path, the way the installed ``matchcut`` entry point would.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same operations in-process, alternating untraced and traced rounds,
and reports the per-layer metrics (see ``tracer``).  Every answer is
checked (see ``checks``); a wrong answer stops the run with exit 1.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

RUN_SECONDS = 25
MIN_SAMPLES = 100  # so that ten samples lie beyond the 90th percentile
# set-ups before each round; setup_s is their median.  Spread over the
# run, they meet the same changes in host load as the rounds do.
SETUPS_PER_ROUND = 5
# The child reports its own peak resident set (VmHWM) on its last stderr
# line.  wait4's ru_maxrss would not do: a child started by vfork, as
# subprocess does here, takes over the parent's high-water mark at exec.
HWM_TAG = "bench-vmhwm-kb"
ENTRY = f"""
import sys
try:
    from matchcut.cli import main
    code = main()
finally:
    with open("/proc/self/status") as status:
        hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    print("{HWM_TAG}", hwm, file=sys.stderr)
sys.exit(code)
"""

WORKLOADS = {
    "seeds": "mc and dpm on 4-chordal graphs of 80-2400 vertices: seed propagation, "
             "free-vertex split and blossom matching do the work; pmc and oracle do none",
    "sweep": "pmc on graphs of 500-10^4 vertices and unions: parse, BFS layering, the pmc "
             "sweep, 2-SAT and 2-CNF output do the work; forcing and matching do none",
    "exhaustive": "graphs of at most 30 vertices through every exhaustive path, the auto "
                  "path and the generator: process start, oracle search and generation dominate",
}

END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def _fn_metrics(fn: str, *kinds: str) -> list[tuple[str, str, str]]:
    units = {"calls": "count", "self_s": "s"}
    return [(f"{fn}.{kind}", units[kind], "lower") for kind in kinds]


PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    *_fn_metrics("cli.main", "self_s"),
    *_fn_metrics("files.parse_graph", "calls", "self_s"),
    *_fn_metrics("files.format_twosat_dimacs", "self_s"),
    *_fn_metrics("graphs.build_graph", "calls", "self_s"),
    *_fn_metrics("graphs.connected_components", "calls", "self_s"),
    *_fn_metrics("graphs.induced_subgraph", "calls", "self_s"),
    *_fn_metrics("graphs.bfs_levels", "self_s"),
    *_fn_metrics("graphs.make_cut", "self_s"),
    *_fn_metrics("forcing.propagate", "calls"),
    ("forcing.propagate.refuted", "count", "lower"),
    *_fn_metrics("forcing.propagate", "self_s"),
    *_fn_metrics("forcing.split_free_vertices", "calls", "self_s"),
    ("forcing.seed_yield", "ratio", "higher"),
    *_fn_metrics("matching.maximum_matching", "calls", "self_s"),
    ("matching.vertices", "count", "lower"),
    ("matching.perfect_ratio", "ratio", "higher"),
    *_fn_metrics("pmc.build_pmc_formula", "calls", "self_s"),
    *_fn_metrics("pmc.classify_leaf", "calls", "self_s"),
    ("pmc.clauses", "count", "lower"),
    ("pmc.blocked", "count", "lower"),
    *_fn_metrics("twosat.solve_2sat", "calls", "self_s"),
    ("twosat.clauses", "count", "lower"),
    *_fn_metrics("oracle.longest_induced_cycle", "calls", "self_s"),
    *_fn_metrics("oracle.longest_induced_path", "self_s"),
    *_fn_metrics("oracle.enumerate_matching_cuts", "calls", "self_s"),
    ("oracle.perfect_matchings.yielded", "count", "lower"),
    *_fn_metrics("oracle.perfect_matchings", "self_s"),
    *_fn_metrics("oracle.contains_induced", "self_s"),
    ("oracle.refused", "count", "lower"),
    *_fn_metrics("generators.random_connected_4chordal", "calls", "self_s"),
    *_fn_metrics("reduction.build_reduction", "self_s"),
    ("package.src_lines", "count", "lower"),
    ("package.exports", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# ratio metrics: numerator counter, denominator counter
RATIOS = {
    "forcing.seed_yield": ("forcing.propagate.states", "forcing.propagate.calls"),
    "matching.perfect_ratio": ("matching.perfect", "matching.maximum_matching.calls"),
}


def spec() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Executes operations and tallies outcomes."""

    def __init__(self, workdir: Path):
        self.env = child_env()
        self.workdir = workdir  # child stdout and stderr go here
        self.attempted = 0
        self.failed = 0
        self.fault_failures = 0
        self.peak_rss_kb = 0

    def child(self, argv: list[str]) -> tuple[workloads.Result, float]:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", ENTRY, *argv], stdout=out, stderr=err, env=self.env, cwd=ROOT
            )
            proc.wait()
            elapsed = perf_counter() - start
        tags = [line.split() for line in err_path.read_text().splitlines() if line.startswith(HWM_TAG)]
        if tags:
            self.peak_rss_kb = max(self.peak_rss_kb, int(tags[-1][1]))
        return workloads.Result(proc.returncode, out_path.read_text()), elapsed

    def in_process(self, argv: list[str]) -> tuple[workloads.Result, float]:
        import matchcut.cli

        out = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = matchcut.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return workloads.Result(code, out.getvalue()), perf_counter() - start

    def run(self, op: workloads.Op, in_process: bool = False) -> float:
        """Execute and check one operation; return its wall time."""
        if op.call is not None:
            start = perf_counter()
            res = workloads.Result(0, "", op.call())
            elapsed = perf_counter() - start
        elif in_process:
            res, elapsed = self.in_process(op.argv)
        else:
            res, elapsed = self.child(op.argv)
        self.attempted += 1
        if res.returncode in op.answer_exits:
            try:
                op.check(res)
            except (checks.CheckError, IndexError, KeyError, TypeError, ValueError) as exc:
                raise checks.CheckError(f"{op.label}: {exc}") from exc
        elif op.fault and res.returncode == 3:
            self.failed += 1
            self.fault_failures += 1
        else:
            self.failed += 1
            err = self.workdir / "stderr"
            tail = err.read_text()[-300:] if err.exists() and not in_process else ""
            print(f"unexpected failure: {op.label} exit {res.returncode} {tail}", file=sys.stderr)
        return elapsed


def setup(plan: workloads.Builder, runner: Runner) -> None:
    """Write the inputs afresh and make one warm-up CLI call, checked
    but not counted as an operation."""
    if plan.workdir.exists():
        shutil.rmtree(plan.workdir)
    plan.workdir.mkdir(parents=True)
    plan.write()
    warm = next(op for op in plan.ops if op.argv is not None)
    res, _ = runner.child(warm.argv)
    if res.returncode in warm.answer_exits:
        warm.check(res)


def measure(plan: workloads.Builder, runner: Runner, seconds: float) -> dict:
    setups: list[float] = []
    samples: list[float] = []
    rounds: list[list[float]] = []
    laps: list[float] = []
    start = perf_counter()
    # whole rounds only; start another while it should end in time
    while len(samples) < MIN_SAMPLES or perf_counter() - start + statistics.mean(laps) <= seconds:
        lap = perf_counter()
        for _ in range(SETUPS_PER_ROUND):
            begin = perf_counter()
            setup(plan, runner)
            setups.append(perf_counter() - begin)
        times = [runner.run(op) for op in plan.ops]
        samples.extend(times)
        rounds.append(times)
        laps.append(perf_counter() - lap)
    print(f"set-ups: {len(setups)}, rounds: {len(rounds)}, operations per round: {len(plan.ops)}, "
          f"samples: {len(samples)}")
    return {
        "setup_s": statistics.median(setups),
        # one round, each operation at its median over the rounds, so
        # that a burst of host load in one round does not carry over
        "wall_s": sum(map(statistics.median, zip(*rounds))),
        "op_p50_ms": 1e3 * statistics.median(samples),
        "op_p90_ms": 1e3 * statistics.quantiles(samples, n=10)[8],
        "peak_rss_mb": runner.peak_rss_kb / 1024,
    }


def import_seconds(env: dict, repeats: int = 5) -> float:
    """Fresh-process import of matchcut.cli minus bare interpreter start."""
    bare, full = [], []
    for _ in range(repeats):
        for code, sink in (("pass", bare), ("import matchcut.cli", full)):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
            sink.append(perf_counter() - start)
    return statistics.median(full) - statistics.median(bare)


def package_metrics() -> dict:
    import matchcut

    lines = sum(
        1
        for path in (SRC / "matchcut").rglob("*.py")
        for line in path.read_text().splitlines()
        if line.strip()
    )
    return {"package.src_lines": lines, "package.exports": len(matchcut.__all__)}


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict:
    selfs = tracer.self_times()
    for layer in LAYERS:
        own = sum(t for name, t in selfs.items() if name.startswith(layer + "."))
        if own > traced_wall:
            raise RuntimeError(f"{layer} self time {own:.3f}s exceeds traced wall {traced_wall:.3f}s")
    counts = tracer.counts
    counts["forcing.propagate.states"] = (
        counts["forcing.propagate.calls"] - counts["forcing.propagate.refuted"]
    )
    out = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = selfs.get(name[: -len(".self_s")], 0.0)
        elif name in RATIOS:
            num, den = RATIOS[name]
            out[name] = counts[num] / counts[den] if counts[den] else 0.0
        elif not name.startswith(("cli.import", "package.", "trace.")):
            out[name] = counts[name]
    return out


def trace(ops, runner: Runner, seconds: float, spans_path: Path) -> dict:
    tracer = Tracer()
    rounds: dict[bool, list[float]] = {False: [], True: []}
    per_round: list[dict] = []

    def timed_round(traced: bool) -> None:
        if not traced:
            rounds[False].append(sum(runner.run(op, in_process=True) for op in ops))
            return
        tracer.reset()
        tracer.install()
        try:
            total = 0.0
            for op in ops:
                idx = tracer.begin("bench.op")
                try:
                    total += runner.run(op, in_process=True)
                finally:
                    tracer.end(idx)
        finally:
            tracer.uninstall()
        rounds[True].append(total)
        per_round.append(layer_metrics(tracer, total))

    # an untimed round first, so that neither side pays first-call costs
    for op in ops:
        runner.run(op, in_process=True)
    start = perf_counter()
    pair = 0
    while not per_round or perf_counter() - start + rounds[False][-1] + rounds[True][-1] <= seconds:
        # alternate which side goes first
        for traced in (False, True) if pair % 2 == 0 else (True, False):
            timed_round(traced)
        pair += 1
    tracer.write_spans(spans_path)
    print(f"traced rounds: {len(per_round)}, spans in the last: {len(tracer.spans)}, written to {spans_path}")
    metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    metrics["cli.import_s"] = import_seconds(runner.env)
    metrics.update(package_metrics())
    metrics["trace.wall_s"] = statistics.median(rounds[True])
    metrics["trace.untraced_wall_s"] = statistics.median(rounds[False])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import matchcut.generators

    workdir = BENCH / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workdir)
    try:
        # inputs and expected answers, made once outside the timed set-up
        plan = workloads.build(name, seed, workdir / "inputs", matchcut.generators)
        ops = plan.ops
        faults = sum(op.fault for op in ops)
        # keep the benchmark's own inputs out of the cyclic collector's
        # scans, which would otherwise slow in-process operations
        gc.collect()
        gc.freeze()
        if traced:
            setup(plan, runner)
            out = BENCH / "out"
            out.mkdir(exist_ok=True)
            metrics = trace(ops, runner, seconds, out / f"spans-{name}-seed{seed}.tsv")
            units = {n: u for n, u, _ in PER_LAYER}
        else:
            metrics = measure(plan, runner, seconds)
            units = {n: u for n, u, _, _ in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rounds = runner.attempted // len(ops)
    print(f"workload {name} seed {seed}: attempted {runner.attempted}, failed {runner.failed} "
          f"(expected {faults * rounds}: {faults} named-fault operations x {rounds} rounds; "
          f"unexpected {runner.failed - runner.fault_failures})")
    for key, value in metrics.items():
        print(f"  {key:42s} {value:14.6f} {units[key]}")
    return {
        "correct": True,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def repeat(names: list[str], seeds: list[int], seconds: float, traced: bool, against: dict) -> int:
    """Run each workload once per seed in fresh processes; print the
    median, quartiles and bound of every metric and, given an earlier
    set's summary, the change of each median from that set's."""
    bounds = {n: b for n, _, _, b in END_TO_END}
    better = {n: b for n, _, b, _ in END_TO_END} | {n: b for n, _, b in PER_LAYER}
    summary = {}
    status = 0
    for name in names:
        results = []
        for seed in seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(int(traced))]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"{name} seed {seed}: exit {proc.returncode}")
                return proc.returncode
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"\n{name}: seeds {seeds[0]}..{seeds[-1]}")
        print(f"  attempted per run {[r['attempted'] for r in results]}")
        print(f"  failed per run    {[r['failed'] for r in results]}")
        print(f"  failed share      {sorted({r['failed'] / r['attempted'] for r in results})}")
        print(f"  {'metric':42s} {'unit':>5s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} "
              f"{'change':>7s} {'bound':>5s}")
        summary[name] = {}
        for key, first in results[0]["metrics"].items():
            values = [r["metrics"][key]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(key)
            wide = bound is not None and spread > bound
            # change: how much worse (positive) than the earlier set's median
            base = against.get(name, {}).get(key, {}).get("median")
            change = None
            if base:
                change = (med - base) / base * (1 if better[key] == "lower" else -1)
            worse = bound is not None and change is not None and change > bound
            status |= wide or worse
            print(f"  {key:42s} {first['unit']:>5s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f} "
                  f"{'' if change is None else f'{change:+.3f}':>7s} {'' if bound is None else bound:>5}"
                  f"{'  WIDE' if wide else ''}{'  WORSE' if worse else ''}")
            summary[name][key] = {"values": values, "median": med, "q1": q1, "q3": q3,
                                  "spread": spread, "change": change, "bound": bound}
    print(json.dumps(summary, sort_keys=True))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="run seeds SEED..SEED+N-1 per workload and summarise")
    parser.add_argument("--against", type=Path, metavar="FILE",
                        help="with --repeat: an earlier --repeat output; print each median's change")
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if not (SRC / "matchcut" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'matchcut'}", file=sys.stderr)
        return 2
    if args.workload is None or args.repeat is not None:
        names = [args.workload] if args.workload else list(WORKLOADS)
        seeds = list(range(args.seed, args.seed + (args.repeat or 1)))
        against = {}
        if args.against is not None:
            against = json.loads(args.against.read_text().strip().splitlines()[-1])
        return repeat(names, seeds, args.seconds, bool(args.trace), against)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except checks.CheckError as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

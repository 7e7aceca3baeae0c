"""Command-line interface.

Subcommands: solve (matching-cut problems on a graph file), check
(structural class membership), reduce (build a hardness instance from a
1-in-3 CNF), crosscheck (random solver-versus-oracle comparison).

Exit codes: 0 answered, 2 parse or usage error, 3 oracle bound or
budget exceeded, 4 crosscheck found a disagreement.

Each subcommand imports what it runs inside its own function, so a call
loads only the modules its subcommand needs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from itertools import compress, islice
from operator import not_
from pathlib import Path
from typing import Iterable, Iterator

from .files import ParseError, format_graph, parse_graph
from .graphs import Graph, GraphError, OracleBudgetError, OracleLimits, OracleSizeError
from .solver import ALGOS, PROBLEMS, Result, solve


def _seconds(text: str) -> float:
    """A finite, non-negative number of seconds; NaN would never run out."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected finite seconds >= 0, got {text!r}")
    return value


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return value


def _count(text: str) -> int:
    """A whole number >= 0; a negative count or vertex bound means nothing."""
    return _int_at_least(text, 0)


def _positive(text: str) -> int:
    """A whole number >= 1; a path of no vertices, or a cycle bound of
    0, names no graph class."""
    return _int_at_least(text, 1)


def _limits(args: argparse.Namespace) -> OracleLimits:
    return OracleLimits(
        max_vertices=args.max_oracle_n, budget_seconds=args.budget_seconds
    )


def _emit(args: argparse.Namespace, payload: dict, text: Iterable[str]) -> None:
    """Print the payload as JSON, or the text, whose pieces hold their
    own line ends."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        sys.stdout.writelines(text)


def _text(fields: dict) -> Iterator[str]:
    """The report fields as text, a line each: a word as it is, a
    sequence as its vertices or u-v pairs separated by spaces.  A piece
    holds at most 4,096 of them, so no string per vertex is kept."""
    for key, value in fields.items():
        if isinstance(value, str):
            yield f"{key}: {value}\n"
            continue
        words = (str(e) if isinstance(e, int) else "-".join(map(str, e)) for e in value)
        yield f"{key}: "
        sep = ""
        while chunk := " ".join(islice(words, 4096)):
            yield sep + chunk
            sep = " "
        yield "\n"


def _solve_output(result: Result) -> tuple[dict, Iterator[str]]:
    """The JSON payload and the text, both from one field dict in text
    order; the text is formatted only as it is read.  The
    crossing edges and the matching go in as the tuples they are, which
    JSON writes as arrays."""
    fields: dict = {}
    if result.algo is not None:
        fields["algo"] = result.algo
    cut = result.cut
    if cut is None:
        fields["verdict"] = "NO"
    else:
        vertices = range(len(cut.side))
        x = list(compress(vertices, cut.side))
        y = list(compress(vertices, map(not_, cut.side)))
        fields |= {"verdict": "YES", "x": x, "y": y, "crossing": cut.crossing}
    if result.matching is not None:
        fields["matching"] = result.matching
    if result.reason is not None:
        fields["reason"] = result.reason
    return {"problem": result.problem} | fields, _text(fields)


def _emit_twosat(g: Graph, prefix: str, result: Result | None) -> None:
    """Write the 2-CNF of every component and its blocked-vertex
    sidecar, from the sweep of result's solve, or from a fresh one when
    it made none."""
    from .files import format_twosat_dimacs, twosat_sidecar
    from .pmc import sweep_components

    sweep = sweep_components(g) if result is None or result.sweep is None else result.sweep
    with open(prefix + ".cnf", "w") as out:
        format_twosat_dimacs(g.n, sweep.relations, out)
    with open(prefix + ".vars.json", "w") as out:
        twosat_sidecar(sweep.blocked, out)


def cmd_solve(args: argparse.Namespace) -> int:
    if args.emit_2cnf and args.problem != "pmc":
        # a usage error, refused before the graph is read
        print("--emit-2cnf applies to --problem pmc only", file=sys.stderr)
        return 2
    g = parse_graph(Path(args.graph).read_text())
    result = None
    try:
        result = solve(g, args.problem, args.algo, _limits(args))
    finally:
        # the encoding does not depend on the verdict, so it is written
        # even when the oracle gives up (exit 3)
        if args.emit_2cnf:
            _emit_twosat(g, args.emit_2cnf, result)
    # the answer is encoded without the graph and the sweep behind it
    del g
    result = result._replace(sweep=None)
    _emit(args, *_solve_output(result))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .oracle import contains_induced, longest_induced_cycle, longest_induced_path

    g = parse_graph(Path(args.graph).read_text())
    limits = _limits(args)
    if args.pt_free is not None:
        check, key, bound = "pt-free", "t", args.pt_free
        measure, value = "longest-induced-path", longest_induced_path(g, limits)
        member = value < bound
    elif args.k_chordal is not None:
        check, key, bound = "k-chordal", "k", args.k_chordal
        measure, value = "longest-induced-cycle", longest_induced_cycle(g, limits)
        member = value is None or value <= bound
    else:
        pattern = parse_graph(Path(args.pattern).read_text())
        check, key, bound = "pattern-free", "pattern_n", pattern.n
        measure, value = "contains-induced", contains_induced(g, pattern, limits)
        member = not value
    verdict = "YES" if member else "NO"
    payload = {"check": check, key: bound, "verdict": verdict, measure.replace("-", "_"): value}
    lines = [
        f"check: {check} {key.removeprefix('pattern_')}={bound}\n",
        f"verdict: {verdict}\n",
        f"{measure}: {'none' if value is None else value}\n",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    from .reduction import build_reduction, formula_from_dimacs, layout_sidecar

    formula = formula_from_dimacs(Path(args.cnf).read_text())
    layout = build_reduction(formula)
    graph_path = Path(args.out + ".graph")
    sidecar_path = Path(args.out + ".layout.json")
    graph_path.write_text(format_graph(layout.graph))
    with sidecar_path.open("w") as out:
        layout_sidecar(layout, out)
    if len(formula.clauses) == 1:
        print(
            "warning: the one-clause gadget has matching cuts that are not perfect;"
            " repeat the clause for a gadget whose matching cuts are all perfect",
            file=sys.stderr,
        )
    sizes = {
        "clauses": len(formula.clauses),
        "variables": formula.var_count,
        "n": layout.graph.n,
        "m": layout.graph.m,
    }
    lines = [f"{key}: {value}\n" for key, value in sizes.items()]
    lines.append(f"wrote: {graph_path} {sidecar_path}\n")
    _emit(args, sizes | {"graph": str(graph_path), "layout": str(sidecar_path)}, lines)
    return 0


def cmd_crosscheck(args: argparse.Namespace) -> int:
    from .generators import MIN_INSTANCE_N, iter_instances

    limits = _limits(args)
    if args.max_n < MIN_INSTANCE_N:
        raise GraphError(
            f"--max-n {args.max_n} is below the smallest instance size, {MIN_INSTANCE_N}"
        )
    if args.max_n > limits.max_vertices:
        # the oracles would refuse the larger instances; refuse before
        # generating any of them
        raise OracleSizeError(
            f"--max-n {args.max_n} exceeds the oracle bound of {limits.max_vertices}"
        )
    disagreements = []
    # one instance at a time, so memory does not grow with --count
    for idx, g in enumerate(iter_instances(args.seed, args.count, args.max_n)):
        for problem in ("mc", "dpm", "pmc"):
            found = solve(g, problem, "fourchordal").cut is not None
            truth = solve(g, problem, "oracle", limits).cut is not None
            if found != truth:
                disagreements.append(
                    {
                        "index": idx,
                        "problem": problem,
                        "solver": found,
                        "oracle": truth,
                        "graph": format_graph(g),
                    }
                )
    payload = {
        "seed": args.seed,
        "count": args.count,
        "max_n": args.max_n,
        "disagreements": disagreements,
    }
    lines = [
        f"crosscheck seed={args.seed} count={args.count} max-n={args.max_n}\n",
    ]
    for d in disagreements:
        lines.append(
            f"DISAGREE instance={d['index']} problem={d['problem']} "
            f"solver={d['solver']} oracle={d['oracle']}\n"
        )
        lines.append(d["graph"])
    lines.append(f"disagreements: {len(disagreements)}\n")
    _emit(args, payload, lines)
    return 4 if disagreements else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchcut",
        description="Matching-cut solvers, exhaustive oracles, and hardness gadgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = OracleLimits()

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--budget-seconds",
            type=_seconds,
            default=defaults.budget_seconds,
            help=f"time bound on exhaustive search only (default {defaults.budget_seconds:g})",
        )
        p.add_argument(
            "--max-oracle-n",
            type=_count,
            default=defaults.max_vertices,
            help=f"vertex bound on exhaustive search only (default {defaults.max_vertices})",
        )
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_solve = sub.add_parser("solve", help="decide a matching-cut problem")
    p_solve.add_argument("graph", help="graph file ('n m' header, 'u v' lines)")
    p_solve.add_argument("--problem", choices=PROBLEMS, required=True)
    p_solve.add_argument("--algo", choices=ALGOS, default="auto")
    p_solve.add_argument(
        "--emit-2cnf",
        metavar="PREFIX",
        help="also write the pmc 2-CNF encoding and its blocked vertices",
    )
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve, parser=p_solve)

    p_check = sub.add_parser("check", help="test structural class membership")
    p_check.add_argument("graph")
    kind = p_check.add_mutually_exclusive_group(required=True)
    kind.add_argument("--pt-free", type=_positive, metavar="T")
    kind.add_argument("--k-chordal", type=_positive, metavar="K")
    kind.add_argument("--pattern", metavar="FILE")
    add_common(p_check)
    p_check.set_defaults(func=cmd_check, parser=p_check)

    p_reduce = sub.add_parser("reduce", help="build a hardness instance from 1-in-3 CNF")
    p_reduce.add_argument("cnf", help="DIMACS CNF with three positive literals per clause")
    p_reduce.add_argument("--out", required=True, metavar="PREFIX")
    p_reduce.add_argument("--format", choices=("text", "json"), default="text")
    p_reduce.set_defaults(func=cmd_reduce, parser=p_reduce)

    p_cross = sub.add_parser("crosscheck", help="compare solvers against oracles")
    p_cross.add_argument("--seed", type=int, default=0)
    p_cross.add_argument("--count", type=_count, default=25)
    p_cross.add_argument(
        "--max-n",
        type=int,
        default=14,
        help="largest instance size, at least 4 (the smallest drawn) and at most"
        " --max-oracle-n and 10^6 (default 14)",
    )
    add_common(p_cross)
    p_cross.set_defaults(func=cmd_crosscheck, parser=p_cross)

    return parser


def main(argv: list[str] | None = None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    if extra:
        # under the subcommand's own usage line, which lists its options
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    # a command makes few reference cycles, and none that must be freed
    # before it ends, so the cyclic collector is paused: it would only
    # rescan the parsed graph as the solvers allocate
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ParseError, GraphError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OracleSizeError, OracleBudgetError) as exc:
        print(f"oracle limit: {exc}", file=sys.stderr)
        return 3
    finally:
        (gc.enable if collecting else gc.disable)()


if __name__ == "__main__":
    sys.exit(main())

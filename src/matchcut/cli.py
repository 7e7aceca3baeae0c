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
import json
import math
import sys
from pathlib import Path

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


def _limits(args: argparse.Namespace) -> OracleLimits:
    return OracleLimits(
        max_vertices=args.max_oracle_n, budget_seconds=args.budget_seconds
    )


def _format_pairs(pairs) -> str:
    return " ".join(f"{u}-{v}" for u, v in pairs)


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(text_lines))


def _solve_output(result: Result) -> tuple[dict, list[str]]:
    payload: dict = {"problem": result.problem}
    lines = []
    if result.algo is not None:
        payload["algo"] = result.algo
        lines.append(f"algo: {result.algo}")
    cut = result.cut
    if cut is None:
        payload["verdict"] = "NO"
        lines.append("verdict: NO")
    else:
        payload |= {
            "verdict": "YES",
            "x": sorted(cut.x),
            "y": sorted(cut.y),
            "crossing": [list(e) for e in cut.crossing],
        }
        lines += [
            "verdict: YES",
            "x: " + " ".join(str(v) for v in sorted(cut.x)),
            "y: " + " ".join(str(v) for v in sorted(cut.y)),
            "crossing: " + _format_pairs(cut.crossing),
        ]
    if result.matching is not None:
        payload["matching"] = [list(e) for e in result.matching]
        lines.append("matching: " + _format_pairs(result.matching))
    if result.reason is not None:
        payload["reason"] = result.reason
        lines.append(f"reason: {result.reason}")
    return payload, lines


def _emit_twosat(g: Graph, prefix: str) -> None:
    """Write the merged per-component 2-CNF and its variable sidecar."""
    from .files import format_twosat_dimacs, twosat_variable_map
    from .pmc import build_merged_formula

    inst, shallow, blocked = build_merged_formula(g)
    Path(prefix + ".cnf").write_text(format_twosat_dimacs(inst))
    sidecar = json.loads(twosat_variable_map(inst))
    sidecar["unencoded_shallow_vertices"] = shallow
    sidecar["blocked_vertices"] = blocked
    Path(prefix + ".vars.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def cmd_solve(args: argparse.Namespace) -> int:
    g = parse_graph(Path(args.graph).read_text())
    if args.emit_2cnf:
        if args.problem != "pmc":
            print("--emit-2cnf applies to --problem pmc only", file=sys.stderr)
            return 2
        _emit_twosat(g, args.emit_2cnf)
    _emit(args, *_solve_output(solve(g, args.problem, args.algo, _limits(args))))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .oracle import contains_induced, longest_induced_cycle, longest_induced_path

    g = parse_graph(Path(args.graph).read_text())
    limits = _limits(args)
    if args.pt_free is not None:
        lp = longest_induced_path(g, limits)
        verdict = lp < args.pt_free
        payload = {
            "check": "pt-free",
            "t": args.pt_free,
            "verdict": "YES" if verdict else "NO",
            "longest_induced_path": lp,
        }
        lines = [
            f"check: pt-free t={args.pt_free}",
            f"verdict: {'YES' if verdict else 'NO'}",
            f"longest-induced-path: {lp}",
        ]
    elif args.k_chordal is not None:
        lc = longest_induced_cycle(g, limits)
        verdict = lc is None or lc <= args.k_chordal
        payload = {
            "check": "k-chordal",
            "k": args.k_chordal,
            "verdict": "YES" if verdict else "NO",
            "longest_induced_cycle": lc,
        }
        lines = [
            f"check: k-chordal k={args.k_chordal}",
            f"verdict: {'YES' if verdict else 'NO'}",
            f"longest-induced-cycle: {lc if lc is not None else 'none'}",
        ]
    else:
        pattern = parse_graph(Path(args.pattern).read_text())
        found = contains_induced(g, pattern, limits)
        payload = {
            "check": "pattern-free",
            "pattern_n": pattern.n,
            "verdict": "NO" if found else "YES",
            "contains_induced": found,
        }
        lines = [
            f"check: pattern-free n={pattern.n}",
            f"verdict: {'NO' if found else 'YES'}",
            f"contains-induced: {found}",
        ]
    _emit(args, payload, lines)
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    from .files import formula_from_dimacs, layout_sidecar
    from .reduction import build_reduction

    formula = formula_from_dimacs(Path(args.cnf).read_text())
    layout = build_reduction(formula)
    graph_path = Path(args.out + ".graph")
    sidecar_path = Path(args.out + ".layout.json")
    graph_path.write_text(format_graph(layout.graph))
    sidecar_path.write_text(layout_sidecar(layout))
    if len(formula.clauses) == 1:
        print(
            "warning: the one-clause gadget has matching cuts that are not perfect;"
            " repeat the clause for a gadget whose matching cuts are all perfect",
            file=sys.stderr,
        )
    payload = {
        "clauses": len(formula.clauses),
        "variables": formula.var_count,
        "n": layout.graph.n,
        "m": layout.graph.m,
        "graph": str(graph_path),
        "layout": str(sidecar_path),
    }
    _emit(
        args,
        payload,
        [
            f"clauses: {len(formula.clauses)}",
            f"variables: {formula.var_count}",
            f"n: {layout.graph.n}",
            f"m: {layout.graph.m}",
            f"wrote: {graph_path} {sidecar_path}",
        ],
    )
    return 0


def cmd_crosscheck(args: argparse.Namespace) -> int:
    from .generators import iter_instances

    limits = _limits(args)
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
        f"crosscheck seed={args.seed} count={args.count} max-n={args.max_n}",
    ]
    for d in disagreements:
        lines.append(
            f"DISAGREE instance={d['index']} problem={d['problem']} "
            f"solver={d['solver']} oracle={d['oracle']}"
        )
        lines.append(d["graph"].rstrip("\n"))
    lines.append(f"disagreements: {len(disagreements)}")
    _emit(args, payload, lines)
    return 4 if disagreements else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchcut",
        description="Matching-cut solvers, exhaustive oracles, and hardness gadgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget-seconds", type=_seconds, default=60.0)
        p.add_argument("--max-oracle-n", type=int, default=30)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_solve = sub.add_parser("solve", help="decide a matching-cut problem")
    p_solve.add_argument("graph", help="graph file ('n m' header, 'u v' lines)")
    p_solve.add_argument("--problem", choices=PROBLEMS, required=True)
    p_solve.add_argument("--algo", choices=ALGOS, default="auto")
    p_solve.add_argument(
        "--emit-2cnf",
        metavar="PREFIX",
        help="also write the pmc 2-CNF encoding and its variable map",
    )
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="test structural class membership")
    p_check.add_argument("graph")
    kind = p_check.add_mutually_exclusive_group(required=True)
    kind.add_argument("--pt-free", type=int, metavar="T")
    kind.add_argument("--k-chordal", type=int, metavar="K")
    kind.add_argument("--pattern", metavar="FILE")
    add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_reduce = sub.add_parser("reduce", help="build a hardness instance from 1-in-3 CNF")
    p_reduce.add_argument("cnf", help="DIMACS CNF with three positive literals per clause")
    p_reduce.add_argument("--out", required=True, metavar="PREFIX")
    add_common(p_reduce)
    p_reduce.set_defaults(func=cmd_reduce)

    p_cross = sub.add_parser("crosscheck", help="compare solvers against oracles")
    p_cross.add_argument("--seed", type=int, default=0)
    p_cross.add_argument("--count", type=int, default=25)
    p_cross.add_argument("--max-n", type=int, default=14)
    add_common(p_cross)
    p_cross.set_defaults(func=cmd_crosscheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OracleSizeError, OracleBudgetError) as exc:
        print(f"oracle limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

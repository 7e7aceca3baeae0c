"""Command-line interface.

Subcommands: solve (matching-cut problems on a graph file), check
(structural class membership), reduce (build a hardness instance from a
1-in-3 CNF), crosscheck (random solver-versus-oracle comparison).

Exit codes: 0 answered, 2 parse or usage error, 3 oracle bound or
budget exceeded, 4 crosscheck found a disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .files import (
    ParseError,
    format_graph,
    format_twosat_dimacs,
    formula_from_dimacs,
    layout_sidecar,
    parse_graph,
    twosat_variable_map,
)
from .forcing import solve_dpm_4chordal, solve_mc_4chordal
from .generators import sample_instances
from .graphs import (
    Cut,
    Graph,
    GraphError,
    bfs_levels,
    connected_components,
    induced_subgraph,
    is_connected,
    make_cut,
)
from .matching import maximum_matching
from .oracle import (
    OracleBudgetError,
    OracleError,
    OracleLimits,
    OracleSizeError,
    contains_induced,
    enumerate_matching_cuts,
    has_dpm,
    has_mc,
    has_pmc,
    longest_induced_cycle,
    longest_induced_path,
    perfect_matchings,
)
from .pmc import build_pmc_formula, solve_pmc_4chordal
from .reduction import build_reduction
from .twosat import TwoSatInstance


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


def _cut_payload(cut: Cut | None) -> dict:
    if cut is None:
        return {"verdict": "NO"}
    return {
        "verdict": "YES",
        "x": sorted(cut.x),
        "y": sorted(cut.y),
        "crossing": [list(e) for e in cut.crossing],
    }


def _cut_lines(cut: Cut | None) -> list[str]:
    if cut is None:
        return ["verdict: NO"]
    return [
        "verdict: YES",
        "x: " + " ".join(str(v) for v in sorted(cut.x)),
        "y: " + " ".join(str(v) for v in sorted(cut.y)),
        "crossing: " + _format_pairs(cut.crossing),
    ]


def _component_split_cut(g: Graph) -> Cut:
    comp = connected_components(g)[0]
    return make_cut(g, comp)


def _oracle_dpm_certificate(
    g: Graph, limits: OracleLimits
) -> tuple[list[tuple[int, int]], Cut] | None:
    for matching in perfect_matchings(g, limits):
        mate = {u: v for u, v in matching} | {v: u for u, v in matching}
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in g.adj[v]:
                if u != mate[v] and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) < g.n:
            return sorted(matching), make_cut(g, seen)
    return None


def _pick_algo(g: Graph, args: argparse.Namespace, limits: OracleLimits) -> str:
    if args.algo != "auto":
        return args.algo
    try:
        cycle = longest_induced_cycle(g, limits)
    except OracleError:
        return "oracle"
    return "fourchordal" if (cycle is None or cycle <= 4) else "oracle"


def _emit_twosat(g: Graph, prefix: str) -> None:
    """Write the merged per-component 2-CNF and its variable sidecar.

    Components whose layering is too shallow for the sweep contribute no
    clauses; their ids are listed in the sidecar for transparency.
    """
    clauses = []
    shallow: list[int] = []
    blocked: list[int] = []
    for comp in connected_components(g):
        sub, old_ids = induced_subgraph(g, comp)
        if bfs_levels(sub, 0).h <= 1:
            shallow.extend(sorted(comp))
            continue
        encoding = build_pmc_formula(sub, 0)
        if encoding.formula is None:
            blocked.append(old_ids[encoding.blocked])
            continue
        for (v1, p1), (v2, p2) in encoding.formula.clauses:
            clauses.append(((old_ids[v1], p1), (old_ids[v2], p2)))
    inst = TwoSatInstance(g.n, tuple(clauses))
    Path(prefix + ".cnf").write_text(format_twosat_dimacs(inst))
    sidecar = json.loads(twosat_variable_map(inst))
    sidecar["unencoded_shallow_vertices"] = shallow
    sidecar["blocked_vertices"] = blocked
    Path(prefix + ".vars.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def cmd_solve(args: argparse.Namespace) -> int:
    g = parse_graph(Path(args.graph).read_text())
    limits = _limits(args)
    problem = args.problem

    if args.emit_2cnf:
        if problem != "pmc":
            print("--emit-2cnf applies to --problem pmc only", file=sys.stderr)
            return 2
        _emit_twosat(g, args.emit_2cnf)

    if problem == "pmc" and any(len(c) % 2 for c in connected_components(g)):
        # a component of odd order cannot be perfectly matched across
        payload = {"problem": problem, "verdict": "NO", "reason": "odd component"}
        _emit(args, payload, ["verdict: NO", "reason: odd component"])
        return 0

    connected = is_connected(g)
    if not connected and problem == "mc":
        cut = _component_split_cut(g)
        payload = {"problem": problem} | _cut_payload(cut)
        _emit(args, payload, _cut_lines(cut))
        return 0
    if not connected and problem == "dpm":
        matching = maximum_matching(g)
        if 2 * len(matching) == g.n:
            cut = _component_split_cut(g)
            payload = {"problem": problem} | _cut_payload(cut)
            payload["matching"] = [list(e) for e in matching]
            _emit(
                args,
                payload,
                _cut_lines(cut) + ["matching: " + _format_pairs(matching)],
            )
        else:
            _emit(args, {"problem": problem, "verdict": "NO"}, ["verdict: NO"])
        return 0

    algo = _pick_algo(g, args, limits)
    matching = None
    if algo == "fourchordal":
        if problem == "mc":
            cut = solve_mc_4chordal(g)
        elif problem == "pmc":
            cut = solve_pmc_4chordal(g, limits)
        else:
            result = solve_dpm_4chordal(g)
            matching, cut = result if result else (None, None)
    else:
        if problem == "mc":
            cuts = enumerate_matching_cuts(g, "matching_only", limits, stop_after=1)
            cut = cuts[0] if cuts else None
        elif problem == "pmc":
            cuts = enumerate_matching_cuts(g, "perfect_only", limits, stop_after=1)
            cut = cuts[0] if cuts else None
        else:
            result = _oracle_dpm_certificate(g, limits)
            matching, cut = result if result else (None, None)

    payload = {"problem": problem, "algo": algo} | _cut_payload(cut)
    lines = [f"algo: {algo}"] + _cut_lines(cut)
    if matching is not None:
        payload["matching"] = [list(e) for e in matching]
        lines.append("matching: " + _format_pairs(matching))
    _emit(args, payload, lines)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
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
    formula = formula_from_dimacs(Path(args.cnf).read_text())
    layout = build_reduction(formula)
    graph_path = Path(args.out + ".graph")
    sidecar_path = Path(args.out + ".layout.json")
    graph_path.write_text(format_graph(layout.graph))
    sidecar_path.write_text(layout_sidecar(layout))
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
    limits = _limits(args)
    graphs = sample_instances(args.seed, args.count, args.max_n, limits=limits)
    disagreements = []
    for idx, g in enumerate(graphs):
        solver = {
            "mc": solve_mc_4chordal(g) is not None,
            "dpm": solve_dpm_4chordal(g) is not None,
            "pmc": solve_pmc_4chordal(g, limits) is not None,
        }
        truth = {
            "mc": has_mc(g, limits),
            "dpm": has_dpm(g, limits),
            "pmc": has_pmc(g, limits),
        }
        for problem in ("mc", "dpm", "pmc"):
            if solver[problem] != truth[problem]:
                disagreements.append(
                    {
                        "index": idx,
                        "problem": problem,
                        "solver": solver[problem],
                        "oracle": truth[problem],
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
        p.add_argument("--budget-seconds", type=float, default=60.0)
        p.add_argument("--max-oracle-n", type=int, default=30)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_solve = sub.add_parser("solve", help="decide a matching-cut problem")
    p_solve.add_argument("graph", help="graph file ('n m' header, 'u v' lines)")
    p_solve.add_argument("--problem", choices=("mc", "pmc", "dpm"), required=True)
    p_solve.add_argument("--algo", choices=("auto", "fourchordal", "oracle"), default="auto")
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

"""Answer checks computed apart from the package.

Nothing here imports ``matchcut``.  Certificates are checked with
predicates written out below; verdicts are compared with facts fixed by
construction (see ``families``), with networkx, or with brute force.
Each check raises ``CheckError`` on a wrong answer.
"""

from __future__ import annotations

import itertools
import json
from collections import deque

import networkx as nx

Edge = tuple[int, int]


class CheckError(Exception):
    """The program answered wrongly."""


def last_json(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise CheckError("no output")
    try:
        payload = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {lines[-1][:80]!r}") from exc
    if not isinstance(payload, dict):
        raise CheckError("output is not a JSON object")
    return payload


def _norm(pairs) -> list[Edge]:
    return [(min(u, v), max(u, v)) for u, v in pairs]


def _sides(n: int, payload: dict) -> set[int]:
    """The X side, after checking that X and Y partition 0..n-1."""
    xs, ys = payload.get("x"), payload.get("y")
    if not isinstance(xs, list) or not isinstance(ys, list):
        raise CheckError("certificate lacks its sides")
    x, y = set(xs), set(ys)
    if len(x) != len(xs) or len(y) != len(ys) or x & y:
        raise CheckError("sides repeat a vertex")
    if x | y != set(range(n)):
        raise CheckError("sides do not cover the vertex set")
    if not x or not y:
        raise CheckError("a side is empty")
    return x


def check_cut(n: int, edges, payload: dict, perfect: bool) -> set[Edge]:
    """A matching cut (perfect: every cross degree exactly 1).

    Returns the crossing edges, after checking that the reported list
    names exactly those.
    """
    x = _sides(n, payload)
    degree = [0] * n
    crossing = set()
    for u, v in edges:
        if (u in x) != (v in x):
            degree[u] += 1
            degree[v] += 1
            crossing.add((min(u, v), max(u, v)))
    for v in range(n):
        if degree[v] > 1 or (perfect and degree[v] != 1):
            raise CheckError(f"vertex {v} has {degree[v]} neighbours across")
    reported = _norm(payload.get("crossing", []))
    if len(reported) != len(set(reported)) or set(reported) != crossing:
        raise CheckError("reported crossing edges differ from the cut's")
    return crossing


def check_dpm(n: int, edges, payload: dict) -> None:
    """A perfect matching whose removal disconnects, holding the crossing."""
    matching = _norm(payload.get("matching") or [])
    edge_set = set(_norm(edges))
    if not set(matching) <= edge_set:
        raise CheckError("matching uses a non-edge")
    covered = [v for e in matching for v in e]
    if len(covered) != n or set(covered) != set(range(n)):
        raise CheckError("matching is not perfect")
    if connected(n, edge_set - set(matching)):
        raise CheckError("removing the matching leaves the graph connected")
    if not check_cut(n, edges, payload, perfect=False) <= set(matching):
        raise CheckError("a crossing edge lies outside the matching")


def connected(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    if n:
        seen[0] = True
        queue = deque([0])
        while queue:
            for u in adj[queue.popleft()]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return all(seen)


def check_solve(n: int, edges, problem: str, expected: bool, payload: dict) -> None:
    verdict = payload.get("verdict")
    if verdict not in ("YES", "NO"):
        raise CheckError(f"no verdict in {payload}")
    if (verdict == "YES") != expected:
        raise CheckError(f"{problem} verdict {verdict}, expected {'YES' if expected else 'NO'}")
    if verdict == "NO":
        return
    if problem == "dpm":
        check_dpm(n, edges, payload)
    else:
        check_cut(n, edges, payload, perfect=problem == "pmc")


def check_twosat(dimacs: str, x_side) -> None:
    """The cut, read as an assignment (vertex i true = variable i+1 on
    the X side), satisfies every clause of the written 2-CNF."""
    x = set(x_side)
    lines = [line.split() for line in dimacs.splitlines() if line.strip()]
    if not lines or lines[0][:2] != ["p", "cnf"]:
        raise CheckError("2-CNF file lacks its problem line")
    promised = int(lines[0][3])
    clauses = lines[1:]
    if len(clauses) != promised:
        raise CheckError(f"2-CNF promises {promised} clauses, has {len(clauses)}")
    for clause in clauses:
        lits = [int(tok) for tok in clause]
        if len(lits) != 3 or lits[-1] != 0:
            raise CheckError(f"malformed 2-CNF clause {clause}")
        if not any((abs(lit) - 1 in x) == (lit > 0) for lit in lits[:2]):
            raise CheckError(f"cut violates clause {clause}")


def _nx(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def has_perfect_matching(n: int, edges) -> bool:
    return 2 * len(nx.max_weight_matching(_nx(n, edges), maxcardinality=True)) == n


def longest_chordless_cycle(n: int, edges) -> int | None:
    return max((len(c) for c in nx.chordless_cycles(_nx(n, edges))), default=None)


def contains_induced(n: int, edges, pn: int, pedges) -> bool:
    matcher = nx.isomorphism.GraphMatcher(_nx(n, edges), _nx(pn, pedges))
    return matcher.subgraph_is_isomorphic()


def one_in_three_satisfiable(variables: int, clauses) -> bool:
    return any(
        all(sum(values[v - 1] for v in clause) == 1 for clause in clauses)
        for values in itertools.product((0, 1), repeat=variables)
    )


def check_k_chordal(payload: dict, k: int, cycle: int | None) -> None:
    if payload.get("longest_induced_cycle") != cycle:
        raise CheckError(f"longest induced cycle {payload.get('longest_induced_cycle')}, networkx {cycle}")
    want = "YES" if cycle is None or cycle <= k else "NO"
    if payload.get("verdict") != want:
        raise CheckError(f"k-chordal verdict {payload.get('verdict')}, expected {want}")


def check_pt_free(payload: dict, t: int, longest: int) -> None:
    if payload.get("longest_induced_path") != longest:
        raise CheckError(f"longest induced path {payload.get('longest_induced_path')}, expected {longest}")
    want = "YES" if longest < t else "NO"
    if payload.get("verdict") != want:
        raise CheckError(f"pt-free verdict {payload.get('verdict')}, expected {want}")


def check_pattern(payload: dict, found: bool) -> None:
    if payload.get("contains_induced") is not found or payload.get("verdict") != ("NO" if found else "YES"):
        raise CheckError(f"pattern answer {payload}, networkx found={found}")


def check_crosscheck(payload: dict, count: int, returncode: int = 0) -> None:
    """Zero disagreements over ``count`` instances, and exit 0 (exit 4
    means the program itself found a disagreement)."""
    if payload.get("count") != count:
        raise CheckError(f"crosscheck ran {payload.get('count')} instances, asked {count}")
    if payload.get("disagreements") != []:
        raise CheckError(f"crosscheck disagreements: {len(payload.get('disagreements') or [])}")
    if returncode != 0:
        raise CheckError(f"crosscheck exit {returncode} with no disagreement listed")


def check_generated(n: int, edges) -> None:
    """A connected simple graph on n vertices with no chordless cycle
    longer than four."""
    norm = _norm(edges)
    if len(set(norm)) != len(norm) or any(u == v or not 0 <= u < v < n for u, v in norm):
        raise CheckError("generated graph is not simple on 0..n-1")
    if not connected(n, norm):
        raise CheckError("generated graph is disconnected")
    cycle = longest_chordless_cycle(n, norm)
    if cycle is not None and cycle > 4:
        raise CheckError(f"generated graph has a chordless {cycle}-cycle")


def parse_graph_file(text: str) -> tuple[int, list[Edge]]:
    """Read the package's graph file format ('n m', then 'u v' lines)."""
    rows = [line.split() for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")]
    n, m = map(int, rows[0])
    edges = [(int(u), int(v)) for u, v in rows[1:]]
    if len(edges) != m:
        raise CheckError(f"graph file promises {m} edges, has {len(edges)}")
    return n, edges

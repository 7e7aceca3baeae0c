"""The general 2-SAT solver, kept as the tests' reference.

solve_2sat_tarjan decides any 2-CNF through the strongly connected
components of its implication graph.  The package decides its own
2-CNFs, which come in complementary clause pairs, with
pmc.solve_parity; the tests check that pass against this solver, model
for model, and this solver against the exhaustive search
bruteforce.solve_2sat.
"""

from __future__ import annotations

from matchcut.twosat import TwoSatInstance


def _node(var: int, polarity: bool) -> int:
    # literal node ids: 2v for the positive literal, 2v+1 for the negative
    return 2 * var + (0 if polarity else 1)


def _negated(node: int) -> int:
    return node ^ 1

def _tarjan_components(node_count: int, succ: list[list[int]]) -> list[int]:
    """Strongly connected components; ids are assigned in pop order,
    so an id compares lower the closer the component is to a sink."""
    index = [-1] * node_count
    low = [0] * node_count
    on_stack = [False] * node_count
    comp = [-1] * node_count
    stack: list[int] = []
    next_index = 0
    next_comp = 0
    for root in range(node_count):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, edge_pos = work[-1]
            if edge_pos == 0:
                index[v] = low[v] = next_index
                next_index += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            out = succ[v]
            for i in range(edge_pos, len(out)):
                w = out[i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = next_comp
                    if w == v:
                        break
                next_comp += 1
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comp


def solve_2sat_tarjan(inst: TwoSatInstance) -> tuple[bool, ...] | None:
    """Return a satisfying assignment, or None when the instance is unsatisfiable.

    Deterministic: the same instance always yields the same assignment.
    A variable is set True exactly when the component of its positive
    literal pops before the component of its negative literal.
    """
    node_count = 2 * inst.var_count
    succ: list[list[int]] = [[] for _ in range(node_count)]
    for (v1, p1), (v2, p2) in inst.clauses:
        a = _node(v1, p1)
        b = _node(v2, p2)
        succ[_negated(a)].append(b)
        succ[_negated(b)].append(a)
    comp = _tarjan_components(node_count, succ)
    assignment = []
    for v in range(inst.var_count):
        cpos = comp[_node(v, True)]
        cneg = comp[_node(v, False)]
        if cpos == cneg:
            return None
        assignment.append(cpos < cneg)
    return tuple(assignment)

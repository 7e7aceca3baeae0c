"""Matching-cut solvers for graphs without long induced cycles.

Polynomial solvers for the matching cut, disconnected perfect matching,
and perfect matching cut problems on 4-chordal graphs, exhaustive
oracles for small instances, and a gadget builder that maps positive
1-in-3 CNF formulas to perfect-matching-cut instances.
"""

import importlib

__version__ = "0.1.0"

# the public names of each module, separated by blanks.  A name's module
# is imported the first time the name is looked up (PEP 562), so
# importing the package, or one of its modules, loads nothing else.
_EXPORTS = {
    "files": (
        "ParseError format_formula_dimacs format_graph format_twosat_dimacs "
        "formula_from_dimacs layout_sidecar parse_dimacs parse_graph "
        "twosat_variable_map"
    ),
    "forcing": (
        "ForcingState Refutation propagate solve_dpm_4chordal solve_mc_4chordal "
        "split_free_vertices"
    ),
    "generators": "random_connected_4chordal sample_instances",
    "graphs": (
        "Cut Graph GraphError OracleBudgetError OracleError OracleLimits "
        "OracleSizeError bfs_levels build_graph check_matching_cut "
        "check_perfect_matching_cut complete_graph connected_components cycle_graph "
        "disjoint_union induced_subgraph is_connected "
        "is_disconnected_perfect_matching is_matching is_matching_cut "
        "is_perfect_matching is_perfect_matching_cut make_cut path_graph"
    ),
    "matching": "has_perfect_matching maximum_matching",
    "oracle": (
        "contains_induced enumerate_matching_cuts enumerate_one_in_three has_dpm "
        "has_mc has_pmc longest_induced_cycle longest_induced_path "
        "perfect_matchings"
    ),
    "pmc": (
        "DeterminedSet TraceEntry build_pmc_formula classify_leaf "
        "solve_pmc_4chordal"
    ),
    "reduction": (
        "Formula13 assignment_to_pmc build_reduction clause_gadget "
        "cut_to_assignment is_one_in_three verify_reduction"
    ),
    "solver": "Result solve",
    "twosat": "TwoSatInstance neg pos solve_2sat verify_assignment",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # not cached in the package namespace: every lookup reads the module's
    # current attribute, so a name rebound there (a tracer, a test's
    # monkeypatch) is seen here too, and restored with it
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())

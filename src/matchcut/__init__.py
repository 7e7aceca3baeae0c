"""Matching-cut solvers for graphs without long induced cycles.

Polynomial solvers for the matching cut, disconnected perfect matching,
and perfect matching cut problems on 4-chordal graphs, exhaustive
oracles for small instances, and a gadget builder that maps positive
1-in-3 CNF formulas to perfect-matching-cut instances.
"""

import importlib

__version__ = "0.1.0"

# the user API by defining module, separated by blanks: solve() and its
# types, graphs and their file format, the certificate predicates and the
# error types.  Every other name is imported from its module.  A name's
# module is imported the first time the name is looked up (PEP 562), so
# importing the package, or one of its modules, loads nothing else.
_EXPORTS = {
    "files": "ParseError format_graph parse_graph",
    # propagate and random_connected_4chordal stay for bench/reference.py only
    "forcing": "propagate",
    "generators": "random_connected_4chordal",
    "graphs": (
        "Cut Graph GraphError OracleBudgetError OracleError OracleLimits "
        "OracleSizeError build_graph check_matching_cut check_perfect_matching_cut "
        "is_disconnected_perfect_matching is_matching is_perfect_matching"
    ),
    "solver": "Result solve",
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

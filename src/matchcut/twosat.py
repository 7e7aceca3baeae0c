"""2-CNF instances: the record that pmc.PmcEncoding.formula builds.

A literal is a (variable, polarity) pair; pos(v) and neg(v) build them.
Unit clauses are encoded by repeating the literal.  The package decides
its 2-CNFs with pmc.solve_parity; no general 2-SAT solver runs here.
"""

from __future__ import annotations

from typing import NamedTuple

Lit = tuple[int, bool]
Clause = tuple[Lit, Lit]


def pos(v: int) -> Lit:
    return (v, True)


def neg(v: int) -> Lit:
    return (v, False)


class _TwoSatFields(NamedTuple):
    var_count: int
    clauses: tuple[Clause, ...]


class TwoSatInstance(_TwoSatFields):
    """A 2-CNF over variables 0..var_count-1; every literal is checked
    to be in range."""

    __slots__ = ()

    def __new__(cls, var_count: int, clauses: tuple[Clause, ...]) -> TwoSatInstance:
        for clause in clauses:
            for var, _ in clause:
                if not (0 <= var < var_count):
                    raise ValueError(f"literal variable {var} out of range")
        return super().__new__(cls, var_count, clauses)

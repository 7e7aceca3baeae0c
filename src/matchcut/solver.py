"""One entry point that decides mc, pmc or dpm on any graph.

Other modules are called through their module names, so a tracer that
rebinds module attributes sees every call made from here.  Each branch
imports the module it calls, so a run loads only the solvers it uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from . import graphs

if TYPE_CHECKING:
    from .pmc import PmcSweep

PROBLEMS = ("mc", "pmc", "dpm")
ALGOS = ("auto", "fourchordal", "oracle")


class _ResultFields(NamedTuple):
    problem: str
    algo: str | None
    cut: graphs.Cut | None
    matching: tuple[tuple[int, int], ...] | None = None
    reason: str | None = None
    sweep: PmcSweep | None = None


class Result(_ResultFields):
    """The answer to one problem: YES with cut, or NO with cut None.

    algo is the algorithm that decided, or None when the graph's shape
    answered first.  matching is the dpm perfect matching on YES.
    reason names the shortcut behind a NO that has one.  sweep holds
    the 4-chordal pmc solver's sweep of every component of the graph,
    so that its 2-CNF is written without sweeping again; it is None on
    every other path.

    A Result compares, hashes and prints by its other five fields:
    sweep records how the answer was found, not the answer.  It equals
    only a Result, never the plain tuple of its fields, so != is
    written out too: tuple's own != would answer otherwise.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Result) and self[:5] == other[:5]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:5])

    def __repr__(self) -> str:
        fields = zip(self._fields, self[:5])
        return "Result(" + ", ".join(f"{name}={value!r}" for name, value in fields) + ")"


def _pick_algo(g: graphs.Graph, limits: graphs.OracleLimits | None) -> str:
    """The algorithm auto runs on g; the exhaustive recognition's
    OracleSizeError or OracleBudgetError under limits is raised."""
    from . import oracle

    cycle = oracle.longest_induced_cycle(g, limits)
    return "fourchordal" if (cycle is None or cycle <= 4) else "oracle"


def _certified(g: graphs.Graph, result: Result) -> Result:
    """result, once a YES is checked on g: its cut must be g's matching
    cut (perfect for pmc) on the cut's X side, and a dpm matching a
    perfect matching of g holding every crossing edge of the cut.  A
    certificate that fails is a fault of the solver that made it, so it
    is not returned: RuntimeError.
    """
    cut = result.cut
    if cut is None:
        return result
    if result.problem == "pmc":
        ok = graphs.check_perfect_matching_cut(g, cut.x)[0] == cut
    else:
        ok = graphs.check_matching_cut(g, cut.x)[0] == cut
    if ok and result.problem == "dpm":
        pairs = result.matching or ()
        matched = {(min(e), max(e)) for e in pairs}
        try:
            # removing a perfect matching that holds each crossing edge of
            # the matching cut above disconnects g, so g is not walked
            ok = graphs.is_perfect_matching(g, pairs) and all(
                (min(e), max(e)) in matched for e in cut.crossing
            )
        except graphs.GraphError:
            # a matched pair that is not an edge of g
            ok = False
    if not ok:
        raise RuntimeError(f"internal error: the {result.problem} certificate fails its check")
    return result


def solve(
    g: graphs.Graph, problem: str, algo: str = "auto", limits: graphs.OracleLimits | None = None
) -> Result:
    """Decide problem ("mc", "pmc" or "dpm") on g.

    What the graph's shape settles is answered first: a component of
    odd order rules out a perfect matching cut, and a disconnected graph
    splits along a component for mc and has a disconnected perfect
    matching exactly when it has a perfect matching.  Otherwise algo
    "fourchordal" runs the polynomial solvers, complete on graphs
    without chordless cycles longer than four; "oracle" runs exhaustive
    search, raising OracleSizeError or OracleBudgetError past limits;
    "auto" takes the first when an exhaustive search, refused past
    limits as the oracle is, finds no longer chordless cycle; otherwise
    the oracle runs, on a budget of its own.

    Every YES is certified on g before it is returned.  The 4-chordal
    mc and pmc solvers check their own cuts as they build them; an
    oracle cut and every dpm matching are checked here, and one that
    fails raises RuntimeError.
    """
    if problem not in PROBLEMS or algo not in ALGOS:
        raise ValueError(f"unknown problem {problem!r} or algorithm {algo!r}")
    if problem == "pmc":
        if any(order % 2 for _, order in graphs.component_roots(g)):
            # a component of odd order cannot be perfectly matched across
            return Result(problem, None, None, reason="odd component")
    elif g.n and len(first := graphs.part_without(g, ())) < g.n:
        # vertex 0's component, walked alone, splits a disconnected graph
        split = graphs.make_cut(g, first)
        if problem == "mc":
            return Result(problem, None, split)
        from . import matching

        pairs = matching.perfect_matching_through(g, split)
        if pairs is None:
            return Result(problem, None, None)
        return _certified(g, Result(problem, None, split, tuple(pairs)))

    if algo == "auto":
        algo = _pick_algo(g, limits)
    if algo == "fourchordal":
        if problem == "pmc":
            from . import pmc

            cut, sweep = pmc.solve_pmc_sweeps(g)
            return Result(problem, algo, cut, sweep=sweep)
        from . import forcing

        # g is connected, as the walk from vertex 0 above found.  The seed
        # loop is not held here, so its last seed state is freed before
        # the certificate check
        if problem == "mc":
            return Result(problem, algo, next(forcing._stable_seeds(g), None))
        from . import matching

        found = matching.first_completion(g, forcing._stable_seeds(g))
    else:
        from . import oracle

        if problem != "dpm":
            mode = "matching_only" if problem == "mc" else "perfect_only"
            cuts = oracle.enumerate_matching_cuts(g, mode, limits, stop_after=1)
            return _certified(g, Result(problem, algo, cuts[0] if cuts else None))
        found = oracle.find_dpm(g, limits)
    if found is None:
        return Result(problem, algo, None)
    pairs, cut = found
    return _certified(g, Result(problem, algo, cut, tuple(pairs)))

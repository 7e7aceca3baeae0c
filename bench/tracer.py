"""Tracing from outside the package.

``Tracer.install()`` replaces every public function of the package's
modules, in every module namespace that binds it, with a wrapper that
records a span (name, start, end, parent) and the counters below.
Binding sites matter: ``cli`` imports the solvers by name, ``pmc``
imports ``enumerate_matching_cuts`` and ``generators`` imports
``longest_induced_cycle``, so calls between modules are seen too.
Generator functions (``oracle.perfect_matchings``) get one span per
resumption.  The functions in ``UNTRACED`` keep no span of their own;
their time counts as their caller's self time.  ``uninstall()`` puts
the original functions back.

Spans stay in memory; ``self_times()`` turns them into per-function
self time: a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

LAYERS = (
    "cli", "files", "graphs", "forcing", "matching",
    "pmc", "twosat", "oracle", "generators", "reduction",
)

UNTRACED = {
    # literal constructors called once per 2-SAT clause: a span would
    # cost more than the call it measures
    "twosat.pos", "twosat.neg",
    # the CLI layer is traced at main; its subcommand bodies and private
    # helpers (_pick_algo, _emit_twosat, ...) make up main's self time
    "cli.cmd_solve", "cli.cmd_check", "cli.cmd_reduce", "cli.cmd_crosscheck",
}


def _propagate(counts, args, kwargs, result) -> None:
    if type(result).__name__ == "Refutation":
        counts["forcing.propagate.refuted"] += 1


def _maximum_matching(counts, args, kwargs, result) -> None:
    n = (args[0] if args else kwargs["g"]).n
    counts["matching.vertices"] += n
    counts["matching.perfect"] += 2 * len(result) == n


def _build_pmc_formula(counts, args, kwargs, result) -> None:
    if result.formula is None:
        counts["pmc.blocked"] += 1
    else:
        counts["pmc.clauses"] += len(result.formula.clauses)


def _solve_2sat(counts, args, kwargs, result) -> None:
    inst = args[0] if args else kwargs["inst"]
    counts["twosat.clauses"] += len(inst.clauses)


# counters read off a call's arguments and result
HOOKS = {
    "forcing.propagate": _propagate,
    "matching.maximum_matching": _maximum_matching,
    "pmc.build_pmc_formula": _build_pmc_formula,
    "twosat.solve_2sat": _solve_2sat,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._refusals: list[BaseException] = []
        self._restore: list[tuple[object, str, object]] = []
        self._oracle_error: type = Exception

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._refusals.clear()

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _note(self, name: str, exc: BaseException) -> None:
        # an oracle refusal passes through every enclosing oracle span;
        # count the exception once
        if name.startswith("oracle.") and isinstance(exc, self._oracle_error):
            if not any(exc is seen for seen in self._refusals):
                self._refusals.append(exc)
                self.counts["oracle.refused"] += 1

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._note(name, exc)
                raise
            finally:
                self.end(idx)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return self._resume(name, fn(*args, **kwargs))

        return traced

    def _resume(self, name: str, inner):
        try:
            while True:
                idx = self.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except BaseException as exc:
                    self._note(name, exc)
                    raise
                finally:
                    self.end(idx)
                self.counts[name + ".yielded"] += 1
                yield item
        finally:
            inner.close()

    def install(self) -> None:
        package = importlib.import_module("matchcut")
        modules = {layer: importlib.import_module(f"matchcut.{layer}") for layer in LAYERS}
        self._oracle_error = modules["oracle"].OracleError
        originals = [
            (f"{layer}.{attr}", obj)
            for layer, mod in modules.items()
            for attr, obj in vars(mod).items()
            if not attr.startswith("_")
            and f"{layer}.{attr}" not in UNTRACED
            and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__
        ]
        namespaces = [package, *modules.values()]
        for name, obj in originals:
            wrap = self._wrap_generator if inspect.isgeneratorfunction(obj) else self._wrap
            wrapper = wrap(name, obj)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, attr, wrapper)
                        self._restore.append((ns, attr, obj))

    def uninstall(self) -> None:
        while self._restore:
            ns, attr, obj = self._restore.pop()
            setattr(ns, attr, obj)

    def self_times(self) -> dict[str, float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: Counter = Counter()
        for (name, *_), t in zip(self.spans, own):
            totals[name] += t
        return dict(totals)

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

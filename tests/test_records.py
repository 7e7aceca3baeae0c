"""The package's immutable records behave as the frozen records they
replace: equal by fields, hashed as the tuple of their fields (so set
and dict orders, and every answer built from them, stay the same),
closed to assignment, and printed as Name(field=value, ...)."""

import importlib
import pkgutil

import pytest

import matchcut
from matchcut.forcing import ForcingState, Refutation
from matchcut.graphs import BfsLevels, Cut, OracleLimits
from matchcut.pmc import PmcEncoding, PmcSweep
from matchcut.reduction import Formula13, GadgetLayout, build_reduction
from matchcut.solver import Result
from matchcut.twosat import TwoSatInstance
from gadget import CheckResult, ReductionReport

CUT = Cut((True, False), ((0, 1),))
FORMULA = Formula13(3, ((0, 1, 2),))
LAYOUT = build_reduction(FORMULA)

# each record type with the values of its fields, in field order, and a
# second set of values that differs in one field
RECORDS = [
    (OracleLimits, (30, 60.0), (31, 60.0)),
    (BfsLevels, (0, (0, 1), ((0,), (1,))), (1, (1, 0), ((1,), (0,)))),
    (Cut, ((True, False), ((0, 1),)), ((False, True), ((1, 0),))),
    (ForcingState, tuple(frozenset({v}) for v in range(5)), (frozenset(),) * 5),
    (Refutation, ("R1", 3), ("R2", 3)),
    (PmcEncoding, (2, ((1, 0, True),), None), (2, None, 1)),
    (PmcSweep, (((0, 1, True),), ()), ((), (1,))),
    (TwoSatInstance, (2, (((0, True), (1, False)),)), (2, ())),
    (Formula13, (3, ((0, 1, 2),)), (4, ((0, 1, 2),))),
    (GadgetLayout, tuple(LAYOUT), tuple(LAYOUT)[:-1] + (frozenset(),)),
    (CheckResult, ("edges", True, "22", True), ("edges", False, "22", True)),
    (ReductionReport, ((CheckResult("edges", True, "22", True),),), ((),)),
    (Result, ("dpm", "oracle", CUT, ((0, 1),), None), ("dpm", None, CUT, ((0, 1),), None)),
]
NAMES = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, values, other", RECORDS, ids=NAMES)
def test_equal_and_hashed_by_fields(cls, values, other):
    x = cls(*values)
    assert x == cls(*values) and hash(x) == hash(cls(*values))
    assert x != cls(*other)
    assert hash(x) == hash(values)


@pytest.mark.parametrize("cls, values, other", RECORDS, ids=NAMES)
def test_assignment_raises(cls, values, other):
    x = cls(*values)
    with pytest.raises(AttributeError):
        setattr(x, cls._fields[0], other[0])
    with pytest.raises(AttributeError):
        x.extra = 1


def test_no_record_writes_its_own_comparison():
    # every record class of the package (a tuple with _fields) equals and
    # hashes as the tuple of its fields: neither it nor a base below tuple
    # defines __eq__, __ne__ or __hash__.  NamedTuple writes every
    # record's __repr__, so that one is not read
    records, overrides = [], []
    for info in pkgutil.iter_modules(matchcut.__path__):
        module = importlib.import_module(f"matchcut.{info.name}")
        for cls in vars(module).values():
            if not (isinstance(cls, type) and issubclass(cls, tuple)):
                continue
            if cls.__module__ != module.__name__ or not hasattr(cls, "_fields"):
                continue
            records.append(cls.__name__)
            for base in cls.__mro__[: cls.__mro__.index(tuple)]:
                overrides += [
                    f"{base.__qualname__}.{name}"
                    for name in ("__eq__", "__ne__", "__hash__")
                    if name in vars(base)
                ]
    assert {"Cut", "Formula13", "PmcSweep", "Result", "TwoSatInstance"} <= set(records)
    assert overrides == []


def test_gadget_layout_slot_cliques_follow_the_formula():
    two = build_reduction(Formula13(4, ((0, 1, 2), (1, 2, 3))))
    assert two.q_cliques == {
        0: frozenset({1}),
        1: frozenset({2, 15}),
        2: frozenset({3, 16}),
        3: frozenset({17}),
    }
    assert LAYOUT.q_cliques == {0: frozenset({1}), 1: frozenset({2}), 2: frozenset({3})}


def test_cut_repr():
    assert repr(CUT) == "Cut(side=(True, False), crossing=((0, 1),))"


def test_result_repr():
    assert repr(Result("pmc", "fourchordal", CUT)) == (
        "Result(problem='pmc', algo='fourchordal', cut=Cut(side=(True, False),"
        " crossing=((0, 1),)), matching=None, reason=None)"
    )


class TestResult:
    def test_equal_by_its_answer(self):
        a = Result("dpm", "oracle", CUT, ((0, 1),))
        assert a == Result("dpm", "oracle", CUT, ((0, 1),))
        assert a != Result("dpm", "oracle", CUT, ((0, 1),), reason="r")
        assert a != Result("dpm", None, CUT, ((0, 1),))

    def test_assignment_raises(self):
        r = Result("mc", None, None)
        for name in ("problem", "sweep", "extra"):
            with pytest.raises(AttributeError):
                setattr(r, name, 1)
        with pytest.raises(AttributeError):
            del r.cut


@pytest.mark.parametrize(
    "var_count, clauses, message",
    [
        (-1, (), "variable count must be nonnegative"),
        (3, ((0, 1),), r"clause \(0, 1\) must have exactly three variables"),
        (3, ((0, 1, 1),), r"clause \(0, 1, 1\) repeats a variable"),
        (3, ((0, 1, 3),), "variable 3 out of range"),
    ],
)
def test_formula13_errors(var_count, clauses, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Formula13(var_count, clauses)
    with pytest.raises(ValueError, match=f"^{message}$"):
        Formula13(var_count=var_count, clauses=clauses)


def test_twosat_instance_errors():
    with pytest.raises(ValueError, match="^literal variable 1 out of range$"):
        TwoSatInstance(1, (((1, True), (0, True)),))
    with pytest.raises(ValueError, match="^literal variable 0 out of range$"):
        TwoSatInstance(var_count=0, clauses=(((0, True), (0, True)),))


def test_defaults():
    assert OracleLimits() == OracleLimits(30, 60.0)
    assert OracleLimits(budget_seconds=1.0).max_vertices == 30

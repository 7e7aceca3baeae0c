"""The package's immutable records behave as the frozen records they
replace: equal by fields, hashed as the tuple of their fields (so set
and dict orders, and every answer built from them, stay the same),
closed to assignment, and printed as Name(field=value, ...)."""

import pytest

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


class TestResult:
    SWEEP = PmcSweep([(0, 1, True)], [])

    def test_sweeps_left_out_of_eq_hash_and_repr(self):
        plain = Result("pmc", "fourchordal", CUT)
        swept = Result("pmc", "fourchordal", CUT, sweep=self.SWEEP)
        assert swept.sweep == self.SWEEP and plain.sweep is None
        assert plain == swept and hash(plain) == hash(swept)
        assert hash(swept) == hash(("pmc", "fourchordal", CUT, None, None))
        assert repr(swept) == repr(plain) == (
            "Result(problem='pmc', algo='fourchordal', cut=Cut(side=(True, False),"
            " crossing=((0, 1),)), matching=None, reason=None)"
        )

    def test_equal_by_its_answer(self):
        a = Result("dpm", "oracle", CUT, ((0, 1),))
        assert a == Result("dpm", "oracle", CUT, ((0, 1),))
        assert a != Result("dpm", "oracle", CUT, ((0, 1),), reason="r")
        assert a != Result("dpm", None, CUT, ((0, 1),))
        # a Result equals only a Result
        assert a != ("dpm", "oracle", CUT, ((0, 1),), None)

    def test_sweep_does_not_make_it_unequal(self):
        plain = Result("pmc", "fourchordal", CUT)
        swept = Result("pmc", "fourchordal", CUT, sweep=self.SWEEP)
        assert (swept != plain) is False and (swept == plain) is True

    def test_never_equals_the_plain_tuple(self):
        r = Result("pmc", "fourchordal", CUT, sweep=self.SWEEP)
        for plain in (tuple(r), tuple(r._replace(sweep=None))):
            assert len(plain) == 6
            assert (r == plain) is False and (plain == r) is False
            assert (r != plain) is True and (plain != r) is True

    def test_replace_keeps_a_result(self):
        r = Result("pmc", "fourchordal", CUT, sweep=self.SWEEP)
        plain = r._replace(sweep=None)
        assert type(plain) is Result and plain.sweep is None and plain == r

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

import random

import pytest
from hypothesis import given, strategies as st

import bruteforce
from conftest import verify_assignment
from matchcut.twosat import TwoSatInstance, neg, pos
from twosat_reference import solve_2sat


def lit(v, p=True):
    return (v, p)


class TestInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            TwoSatInstance(1, (((1, True), (0, True)),))
        with pytest.raises(ValueError):
            TwoSatInstance(0, ((lit(0), lit(0)),))
        # clause-free instances are fine, whatever the variable count
        TwoSatInstance(0, ())
        TwoSatInstance(1, ())

    def test_helpers(self):
        assert pos(3) == (3, True) and neg(3) == (3, False)

    def test_verify(self):
        inst = TwoSatInstance(2, ((pos(0), neg(1)),))
        assert verify_assignment(inst, (True, True))
        assert verify_assignment(inst, (False, False))
        assert not verify_assignment(inst, (False, True))


class TestSolve:
    def test_empty_is_satisfiable(self):
        assert solve_2sat(TwoSatInstance(3, ())) == (False, False, False) or solve_2sat(
            TwoSatInstance(3, ())
        ) is not None

    def test_unit_clause_forces(self):
        # (x or x) forces x True
        inst = TwoSatInstance(1, ((pos(0), pos(0)),))
        assert solve_2sat(inst) == (True,)

    def test_contradiction(self):
        inst = TwoSatInstance(
            1, ((pos(0), pos(0)), (neg(0), neg(0)))
        )
        assert solve_2sat(inst) is None

    def test_implication_chain(self):
        # x0 -> x1 -> x2, and x0 forced
        inst = TwoSatInstance(
            3,
            (
                (pos(0), pos(0)),
                (neg(0), pos(1)),
                (neg(1), pos(2)),
            ),
        )
        assert solve_2sat(inst) == (True, True, True)

    def test_model_always_verifies(self):
        inst = TwoSatInstance(
            4,
            (
                (pos(0), pos(1)),
                (neg(0), pos(2)),
                (neg(1), neg(3)),
                (pos(2), pos(3)),
            ),
        )
        model = solve_2sat(inst)
        assert model is not None and verify_assignment(inst, model)

    @given(st.integers(0, 100_000), st.integers(1, 8), st.integers(0, 24))
    def test_against_brute_force(self, seed, nv, nc):
        rng = random.Random(seed)
        clauses = tuple(
            (
                (rng.randrange(nv), rng.random() < 0.5),
                (rng.randrange(nv), rng.random() < 0.5),
            )
            for _ in range(nc)
        )
        inst = TwoSatInstance(nv, clauses)
        got = solve_2sat(inst)
        want = bruteforce.solve_2sat(nv, clauses)
        assert (got is None) == (want is None)
        if got is not None:
            assert verify_assignment(inst, got)

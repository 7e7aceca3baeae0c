import random

import pytest
from hypothesis import given, strategies as st

import bruteforce
from conftest import verify_assignment
from matchcut.twosat import TwoSatInstance
from twosat_reference import solve_2sat_tarjan


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

    def test_verify(self):
        inst = TwoSatInstance(2, (((0, True), (1, False)),))
        assert verify_assignment(inst, (True, True))
        assert verify_assignment(inst, (False, False))
        assert not verify_assignment(inst, (False, True))


class TestSolve:
    def test_empty_is_satisfiable(self):
        assert solve_2sat_tarjan(TwoSatInstance(3, ())) == (
            False, False, False
        ) or solve_2sat_tarjan(TwoSatInstance(3, ())) is not None

    def test_unit_clause_forces(self):
        # (x or x) forces x True
        inst = TwoSatInstance(1, (((0, True), (0, True)),))
        assert solve_2sat_tarjan(inst) == (True,)

    def test_contradiction(self):
        inst = TwoSatInstance(
            1, (((0, True), (0, True)), ((0, False), (0, False)))
        )
        assert solve_2sat_tarjan(inst) is None

    def test_implication_chain(self):
        # x0 -> x1 -> x2, and x0 forced
        inst = TwoSatInstance(
            3,
            (
                ((0, True), (0, True)),
                ((0, False), (1, True)),
                ((1, False), (2, True)),
            ),
        )
        assert solve_2sat_tarjan(inst) == (True, True, True)

    def test_model_always_verifies(self):
        inst = TwoSatInstance(
            4,
            (
                ((0, True), (1, True)),
                ((0, False), (2, True)),
                ((1, False), (3, False)),
                ((2, True), (3, True)),
            ),
        )
        model = solve_2sat_tarjan(inst)
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
        got = solve_2sat_tarjan(inst)
        want = bruteforce.solve_2sat(nv, clauses)
        assert (got is None) == (want is None)
        if got is not None:
            assert verify_assignment(inst, got)

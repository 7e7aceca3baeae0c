import json
import random

import pytest
from hypothesis import given, strategies as st

from conftest import random_graph
from matchcut import ParseError, format_graph, parse_graph
from matchcut.files import (
    format_formula_dimacs,
    format_twosat_dimacs,
    formula_from_dimacs,
    layout_sidecar,
    parse_dimacs,
    twosat_variable_map,
)
from matchcut.graphs import path_graph
from matchcut.reduction import Formula13, build_reduction
from matchcut.twosat import TwoSatInstance, neg, pos


class TestGraphFormat:
    def test_format(self):
        assert format_graph(path_graph(3)) == "3 2\n0 1\n1 2\n"

    def test_parse_with_comments_and_blanks(self):
        text = "# commuter graph\n\n 3 2 \n0 1\n# middle\n1 2\n\n"
        g = parse_graph(text)
        assert g.n == 3 and g.edges() == [(0, 1), (1, 2)]

    @given(st.integers(0, 100_000))
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.0, 0.8))
        back = parse_graph(format_graph(g))
        assert back.n == g.n and back.edges() == g.edges()

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "# only a comment\n",
            "3\n",
            "a b\n",
            "3 2\n0 1\n",
            "3 1\n0 1\n1 2\n",
            "3 1\n0 1 2\n",
            "3 1\n0 x\n",
            "3 1\n0 3\n",
            "3 1\n1 1\n",
            "2 2\n0 1\n1 0\n",
            # past the vertex-count cap, refused before any allocation
            "1000001 0\n",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_graph(text)


class TestDimacs:
    def test_basic(self):
        nv, clauses = parse_dimacs("c intro\np cnf 4 2\n1 2 3 0\n-4 1 0\n")
        assert nv == 4 and clauses == [[1, 2, 3], [-4, 1]]

    def test_clause_spanning_lines(self):
        nv, clauses = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert nv == 3 and clauses == [[1, 2, 3]]

    def test_two_clauses_on_one_line(self):
        nv, clauses = parse_dimacs("p cnf 3 2\n1 2 3 0 3 2 1 0\n")
        assert nv == 3 and clauses == [[1, 2, 3], [3, 2, 1]]

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "p cnf x 1\n1 2 3 0\n",
            "p sat 3 1\n1 2 3 0\n",
            "1 2 3 0\np cnf 3 1\n",
            "p cnf 3 1\n1 2 3\n",
            "p cnf 3 1\n1 2 4 0\n",
            "p cnf 3 2\n1 2 3 0\n",
            "p cnf 3 1\n1 q 3 0\n",
            "p cnf 1000001 1\n1 2 3 0\n",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_dimacs(text)


class TestFormulaFormat:
    def test_format(self):
        formula = Formula13(3, ((0, 1, 2),))
        assert format_formula_dimacs(formula) == "p cnf 3 1\n1 2 3 0\n"

    def test_round_trip(self):
        formula = Formula13(6, ((0, 1, 2), (3, 2, 1), (2, 4, 5)))
        assert formula_from_dimacs(format_formula_dimacs(formula)) == formula

    @pytest.mark.parametrize(
        "text",
        [
            "p cnf 3 1\n-1 2 3 0\n",
            "p cnf 3 1\n1 2 0\n",
            "p cnf 4 1\n1 2 3 4 0\n",
            "p cnf 3 1\n1 1 2 0\n",
        ],
    )
    def test_rejects_non_one_in_three_shape(self, text):
        with pytest.raises(ParseError):
            formula_from_dimacs(text)


class TestTwoSatSidecars:
    def test_dimacs(self):
        inst = TwoSatInstance(3, ((pos(0), neg(1)), (neg(2), neg(2))))
        assert format_twosat_dimacs(inst) == "p cnf 3 2\n1 -2 0\n-3 -3 0\n"

    def test_variable_map(self):
        inst = TwoSatInstance(2, ())
        payload = json.loads(twosat_variable_map(inst))
        assert payload == {"variable_to_vertex": {"1": 0, "2": 1}}


class TestLayoutSidecar:
    def test_one_clause_layout(self):
        layout = build_reduction(Formula13(3, ((0, 1, 2),)))
        payload = json.loads(layout_sidecar(layout))
        assert set(payload) == {
            "c", "c_prime", "cjk", "ajk", "bjk", "cjk_prime", "Q", "F", "T",
        }
        assert payload["c"] == [0]
        assert payload["c_prime"] == [13]
        assert payload["cjk"] == [[1, 2, 3]]
        assert payload["ajk"] == [[4, 5, 6]]
        assert payload["bjk"] == [[7, 8, 9]]
        assert payload["cjk_prime"] == [[10, 11, 12]]
        assert payload["Q"] == {"0": [1], "1": [2], "2": [3]}
        assert payload["F"] == [0, 13]
        assert payload["T"] == [4, 5, 6]

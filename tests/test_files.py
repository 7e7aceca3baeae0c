import io
import json
import random

import pytest
from hypothesis import given, strategies as st

from conftest import format_formula_dimacs, path_graph, random_graph
from matchcut import ParseError, format_graph, parse_graph
from matchcut.files import format_twosat_dimacs, twosat_sidecar
from matchcut.pmc import relation_clauses
from matchcut.reduction import (
    MAX_CLAUSES,
    Formula13,
    build_reduction,
    formula_from_dimacs,
    layout_sidecar,
)


# each malformed graph file and the message it is refused with
MALFORMED_GRAPHS = {
    "": "missing graph header line",
    "# only a comment\n": "missing graph header line",
    "3\n": "header must be 'n m', got '3'",
    "a b\n": "non-numeric header 'a b'",
    "3 2\n0 1\n": "header promises 2 edges, found 1",
    "3 1\n0 1\n1 2\n": "header promises 1 edges, found 2",
    "3 1\n0 1 2\n": "edge line must be 'u v', got '0 1 2'",
    "3 1\n0 x\n": "non-numeric edge line '0 x'",
    "3 1\n0 3\n": "edge (0, 3) out of range for n=3",
    "3 1\n1 1\n": "self-loop at vertex 1",
    "2 2\n0 1\n1 0\n": "duplicate edge (1, 0)",
    # past the vertex-count cap, refused before any allocation
    "1000001 0\n": "header declares 1000001 vertices, the limit is 1000000",
}

# files with more than one fault, and the one reported
FIRST_FAULTS = {
    "3 3\n0 1\n0 1\n1 x\n": "non-numeric edge line '1 x'",
    "3 3\n0 1\n1 0\n0 1 2\n": "edge line must be 'u v', got '0 1 2'",
    "3 2\n0 1 2\n0 x\n": "edge line must be 'u v', got '0 1 2'",
    "3 2\n0 x\n0 1 2 3\n": "non-numeric edge line '0 x'",
    "3 3\n0 1 2\n0 1\n": "header promises 3 edges, found 2",
    "3 2\n1 1\n0 9\n": "self-loop at vertex 1",
    "3 2\n0 9\n1 1\n": "edge (0, 9) out of range for n=3",
    "3 2\n0 -1\n0 1\n": "edge (0, -1) out of range for n=3",
    # endpoints beyond 64 bits
    "3 2\n0 99999999999999999999999\n1 1\n": "edge (0, 99999999999999999999999) out of range for n=3",
    "3 2\n1 1\n0 99999999999999999999999\n": "self-loop at vertex 1",
    "3 2\n0 1\n9223372036854775808 -9223372036854775809\n": (
        "edge (9223372036854775808, -9223372036854775809) out of range for n=3"
    ),
    "-1 0\n": "vertex count must be nonnegative, got -1",
    "3 -1\n": "header promises -1 edges, found 0",
    "3 1 2\n": "header must be 'n m', got '3 1 2'",
}


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

    @pytest.mark.parametrize("text", list(MALFORMED_GRAPHS))
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError) as info:
            parse_graph(text)
        assert str(info.value) == MALFORMED_GRAPHS[text]

    @pytest.mark.parametrize("text, message", list(FIRST_FAULTS.items()))
    def test_first_fault_wins(self, text, message):
        # an edge count that is off comes first, then the first malformed
        # line, then the first edge that is out of range, a self-loop or
        # a repeat, in file order
        with pytest.raises(ParseError) as info:
            parse_graph(text)
        assert str(info.value) == message

    def test_edgeless_vertices_share_one_set(self):
        g = parse_graph("5 1\n3 1\n")
        assert g.edges() == [(1, 3)]
        assert len({id(g.adj[v]) for v in (0, 2, 4)}) == 1

    def test_one_int_object_per_vertex(self):
        # every adjacency set holds the same object for a vertex
        g = parse_graph(format_graph(path_graph(600)))
        for v in range(1, 599):
            held = {id(u) for w in g.adj[v] for u in g.adj[w] if u == v}
            assert len(held) == 1


# each malformed CNF file and the message it is refused with
MALFORMED_CNFS = {
    "": "missing problem line",
    "p cnf x 1\n1 2 3 0\n": "non-numeric problem line 'p cnf x 1'",
    "p sat 3 1\n1 2 3 0\n": "bad problem line 'p sat 3 1'",
    "1 2 3 0\np cnf 3 1\n": "clause before the problem line",
    "p cnf 3 1\n1 2 3\n": "unterminated clause at end of input",
    "p cnf 3 1\n1 2 4 0\n": "literal 4 out of range",
    "p cnf 3 2\n1 2 3 0\n": "problem line promises 2 clauses, found 1",
    "p cnf 3 1\n1 q 3 0\n": "non-numeric literal 'q'",
    "p cnf 1000001 1\n1 2 3 0\n": (
        "problem line declares 1000001 variables, the limit is 1000000"
    ),
    "p cnf -1 0\n": "problem line declares -1 variables",
    # a negative clause count is refused at its problem line too
    "p cnf 3 -1\n": "problem line declares -1 clauses",
    "p cnf 3 -1\n1 2 3 0\n": "problem line declares -1 clauses",
    # a gadget is quadratic in the clause count, so it is capped too
    "p cnf 3 351\n": "problem line declares 351 clauses, the limit is 350",
    # a second header may neither shrink nor grow the declared count
    "p cnf 5 1\n4 5 1 0\np cnf 3 1\n": "second problem line 'p cnf 3 1'",
    "p cnf 3 1\n1 2 3 0\np cnf 9 1\n": "second problem line 'p cnf 9 1'",
}


class TestDimacs:
    def test_basic(self):
        formula = formula_from_dimacs("c intro\np cnf 4 2\n1 2 3 0\n4 1 2 0\n")
        assert formula == Formula13(4, ((0, 1, 2), (3, 0, 1)))
        # a clause of general CNF is refused; its negative literal first
        with pytest.raises(ParseError) as info:
            formula_from_dimacs("c intro\np cnf 4 2\n1 2 3 0\n-4 1 0\n")
        assert str(info.value) == "negative literal in clause [-4, 1]"

    def test_clause_spanning_lines(self):
        assert formula_from_dimacs("p cnf 3 1\n1 2\n3 0\n") == Formula13(3, ((0, 1, 2),))

    def test_two_clauses_on_one_line(self):
        formula = formula_from_dimacs("p cnf 3 2\n1 2 3 0 3 2 1 0\n")
        assert formula == Formula13(3, ((0, 1, 2), (2, 1, 0)))

    def test_clause_cap_is_inclusive(self):
        text = f"p cnf 3 {MAX_CLAUSES}\n" + "1 2 3 0\n" * MAX_CLAUSES
        assert formula_from_dimacs(text) == Formula13(3, ((0, 1, 2),) * MAX_CLAUSES)

    @pytest.mark.parametrize("text", list(MALFORMED_CNFS))
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError) as info:
            formula_from_dimacs(text)
        assert str(info.value) == MALFORMED_CNFS[text]


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


def written(writer, *args) -> str:
    """What writer puts into the open file it takes last."""
    out = io.StringIO()
    writer(*args, out)
    return out.getvalue()


class TestTwoSatSidecars:
    def test_dimacs(self):
        text = written(format_twosat_dimacs, 3, [(0, 1, False), (2, 1, True)])
        assert text == "p cnf 3 4\n1 -2 0\n-1 2 0\n3 2 0\n-3 -2 0\n"

    def test_dimacs_without_relations(self):
        assert written(format_twosat_dimacs, 2, []) == "p cnf 2 0\n"
        assert written(format_twosat_dimacs, 0, ()) == "p cnf 0 0\n"

    @given(st.integers(0, 100_000))
    def test_dimacs_states_relation_clauses(self, seed):
        # the writer's clauses are relation_clauses', in order, each
        # literal written as DIMACS does: variable i+1, negated when false
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        relations = [
            (rng.randrange(n), rng.randrange(n), rng.random() < 0.5)
            for _ in range(rng.randint(0, 6))
        ]
        lines = [f"p cnf {n} {2 * len(relations)}"]
        for clause in relation_clauses(relations):
            lines.append(" ".join(str(v + 1 if p else -v - 1) for v, p in clause) + " 0")
        assert written(format_twosat_dimacs, n, relations) == "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "relations", [[(0, 3, True)], [(3, 0, False)], [(0, 1, True), (-1, 0, False)]]
    )
    def test_dimacs_rejects_endpoint_out_of_range(self, relations):
        out = io.StringIO()
        with pytest.raises(ValueError, match="out of range"):
            format_twosat_dimacs(3, relations, out)
        assert out.getvalue() == ""

    @pytest.mark.parametrize("blocked", [[], [1], [0, 7, 12]])
    def test_sidecar_bytes_as_json_writes_them(self, blocked):
        assert written(twosat_sidecar, blocked) == (
            json.dumps({"blocked_vertices": blocked}, indent=2) + "\n"
        )

    def test_sidecar_bytes(self):
        assert written(twosat_sidecar, []) == '{\n  "blocked_vertices": []\n}\n'
        assert written(twosat_sidecar, [0, 1]) == (
            '{\n  "blocked_vertices": [\n    0,\n    1\n  ]\n}\n'
        )


class TestLayoutSidecar:
    def test_one_clause_layout(self):
        layout = build_reduction(Formula13(3, ((0, 1, 2),)))
        payload = json.loads(written(layout_sidecar, layout))
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

    @given(st.integers(0, 100_000))
    def test_q_lists_the_variables_that_occur(self, seed):
        rng = random.Random(seed)
        var_count = rng.randint(3, 12)
        clauses = tuple(
            tuple(rng.sample(range(var_count), 3)) for _ in range(rng.randint(1, 4))
        )
        slots: dict[str, list[int]] = {}
        for j, clause in enumerate(clauses):
            for k, var in enumerate(clause):
                slots.setdefault(str(var), []).append(14 * j + 1 + k)
        layout = build_reduction(Formula13(var_count, clauses))
        assert json.loads(written(layout_sidecar, layout))["Q"] == slots

    def test_unused_variables_bytes(self):
        # "p cnf 10 1" with clause "1 2 3 0": variables 4..10 occur
        # nowhere, so they have no slot clique and no entry in Q
        layout = build_reduction(formula_from_dimacs("p cnf 10 1\n1 2 3 0\n"))
        assert list(layout.q_cliques) == [0, 1, 2]
        assert written(layout_sidecar, layout) == (
            '{\n  "F": [\n    0,\n    13\n  ],\n'
            '  "Q": {\n'
            '    "0": [\n      1\n    ],\n'
            '    "1": [\n      2\n    ],\n'
            '    "2": [\n      3\n    ]\n'
            '  },\n'
            '  "T": [\n    4,\n    5,\n    6\n  ],\n'
            '  "ajk": [\n    [\n      4,\n      5,\n      6\n    ]\n  ],\n'
            '  "bjk": [\n    [\n      7,\n      8,\n      9\n    ]\n  ],\n'
            '  "c": [\n    0\n  ],\n'
            '  "c_prime": [\n    13\n  ],\n'
            '  "cjk": [\n    [\n      1,\n      2,\n      3\n    ]\n  ],\n'
            '  "cjk_prime": [\n    [\n      10,\n      11,\n      12\n    ]\n  ]\n'
            '}\n'
        )

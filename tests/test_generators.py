import random

import pytest
from hypothesis import given, strategies as st

import bruteforce
from matchcut import GraphError, random_connected_4chordal
from matchcut.generators import sample_instances
from matchcut.graphs import is_connected


class TestRandomConnected4Chordal:
    def test_rejects_empty(self):
        with pytest.raises(GraphError):
            random_connected_4chordal(random.Random(1), 0)

    def test_tiny_sizes(self):
        assert random_connected_4chordal(random.Random(1), 1).n == 1
        g = random_connected_4chordal(random.Random(1), 2)
        assert g.n == 2 and g.m == 1

    def test_deterministic(self):
        a = random_connected_4chordal(random.Random(99), 12)
        b = random_connected_4chordal(random.Random(99), 12)
        assert a.n == b.n and a.edges() == b.edges()

    @given(st.integers(0, 100_000))
    def test_connected_and_short_cycled(self, seed):
        rng = random.Random(seed)
        g = random_connected_4chordal(rng, rng.randint(1, 12))
        assert is_connected(g)
        cycle = bruteforce.longest_induced_cycle(g)
        assert cycle is None or cycle <= 4

    def test_large_instances_build_despite_oracle_default(self):
        # the internal splice verification must scale with the instance
        g = random_connected_4chordal(random.Random(7), 40)
        assert g.n == 40 and is_connected(g)

    def test_matches_reference(self):
        # the one-search splice check keeps every graph the exhaustive
        # cycle check produced, for the same rng stream
        master = random.Random(20261018)
        for _ in range(200):
            seed = master.randrange(2**32)
            n = master.randint(1, 40)
            density = master.uniform(0.1, 0.9)
            square = master.choice((0.25, 0.6))
            got = random_connected_4chordal(
                random.Random(seed), n, clique_growth=density, square_chance=square
            )
            want = bruteforce.random_connected_4chordal_reference(
                random.Random(seed), n, clique_growth=density, square_chance=square
            )
            assert got.n == want.n and got.edges() == want.edges()


class TestSampleInstances:
    def test_reproducible(self):
        a = sample_instances(20230501, 10, 16)
        b = sample_instances(20230501, 10, 16)
        assert [g.edges() for g in a] == [g.edges() for g in b]

    def test_sizes_within_bounds(self):
        batch = sample_instances(5, 30, 14, min_n=4)
        assert len(batch) == 30
        assert all(4 <= g.n <= 14 for g in batch)
        assert all(is_connected(g) for g in batch)

    def test_batches_match_reference(self):
        for seed in range(6):
            master = random.Random(seed)
            want = []
            for _ in range(8):
                child = random.Random(master.randrange(2**32))
                n = child.randint(4, 24)
                density = child.uniform(0.25, 0.6)
                want.append(
                    bruteforce.random_connected_4chordal_reference(
                        child, n, clique_growth=density
                    )
                )
            got = sample_instances(seed, 8, 24)
            assert [g.edges() for g in got] == [g.edges() for g in want]

    def test_seed_changes_batch(self):
        a = sample_instances(1, 8, 12)
        b = sample_instances(2, 8, 12)
        assert [g.edges() for g in a] != [g.edges() for g in b]

"""Unit tests for seeded randomness."""

import numpy as np
import pytest

from repro.common.rng import block_evidence_rng, make_generator, spawn_child


class TestMakeGenerator:
    def test_int_seed_reproducible(self):
        assert make_generator(7).integers(0, 100) == make_generator(7).integers(0, 100)

    def test_string_seed_reproducible(self):
        a = make_generator("hello").random()
        b = make_generator("hello").random()
        assert a == b

    def test_different_string_seeds_differ(self):
        assert make_generator("a").random() != make_generator("b").random()

    def test_bytes_seed(self):
        assert make_generator(b"x").random() == make_generator(b"x").random()

    def test_none_seed_gives_generator(self):
        assert isinstance(make_generator(None), np.random.Generator)


class TestBlockEvidenceRng:
    def test_deterministic(self):
        a = block_evidence_rng(b"evidence")
        b = block_evidence_rng(b"evidence")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_evidence_differs(self):
        assert block_evidence_rng(b"x").random() != block_evidence_rng(b"y").random()

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            block_evidence_rng("not-bytes")  # type: ignore[arg-type]


class TestSpawnChild:
    def test_children_reproducible(self):
        a = spawn_child(make_generator(1), "workload")
        b = spawn_child(make_generator(1), "workload")
        assert a.random() == b.random()

    def test_labels_give_distinct_streams(self):
        root = make_generator(1)
        a = spawn_child(root, "a")
        root2 = make_generator(1)
        b = spawn_child(root2, "b")
        assert a.random() != b.random()

"""Tests for the random-number helper module."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.rng import (
    LazySeedSequence,
    bernoulli_trial,
    derive_substream,
    ensure_generator,
    sample_without_replacement,
    spawn_generators,
    with_lazy_spawns,
)


class TestEnsureGenerator:
    def test_none_gives_generator(self):
        assert isinstance(ensure_generator(None), np.random.Generator)

    def test_int_seed_is_reproducible(self):
        first = ensure_generator(7).random(5)
        second = ensure_generator(7).random(5)
        assert np.allclose(first, second)

    def test_different_seeds_differ(self):
        assert not np.allclose(ensure_generator(1).random(5), ensure_generator(2).random(5))

    def test_existing_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert ensure_generator(generator) is generator


class TestSpawnGenerators:
    def test_count(self):
        assert len(spawn_generators(0, 5)) == 5

    def test_zero_count(self):
        assert spawn_generators(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_children_are_independent_streams(self):
        children = spawn_generators(42, 3)
        draws = [child.random(4).tolist() for child in children]
        assert draws[0] != draws[1]
        assert draws[1] != draws[2]

    def test_reproducible_from_same_seed(self):
        first = [g.random(3).tolist() for g in spawn_generators(9, 2)]
        second = [g.random(3).tolist() for g in spawn_generators(9, 2)]
        assert first == second

    def test_spawn_from_generator(self):
        base = ensure_generator(5)
        children = spawn_generators(base, 2)
        assert len(children) == 2


def _assert_same_sequence(lazy, eager) -> None:
    assert lazy.spawn_key == eager.spawn_key
    assert lazy.n_children_spawned == eager.n_children_spawned
    assert np.array_equal(lazy.generate_state(4, np.uint64), eager.generate_state(4, np.uint64))
    assert np.array_equal(lazy.generate_state(7), eager.generate_state(7))


class TestLazySeedSequence:
    """Lazy children are the children ``SeedSequence.spawn`` gives."""

    @pytest.mark.parametrize("counts", [(1,), (3,), (1, 1, 2), (0, 4, 1)])
    def test_spawns_match_numpy(self, counts):
        eager = np.random.SeedSequence(2024).spawn(3)[2]
        lazy = LazySeedSequence(eager.entropy, eager.spawn_key, eager.pool_size)
        for count in counts:
            for lazy_child, eager_child in zip(lazy.spawn(count), eager.spawn(count), strict=True):
                _assert_same_sequence(lazy_child, eager_child)
                for lazy_grandchild, eager_grandchild in zip(
                    lazy_child.spawn(2), eager_child.spawn(2), strict=True
                ):
                    _assert_same_sequence(lazy_grandchild, eager_grandchild)
                assert lazy_child.n_children_spawned == eager_child.n_children_spawned == 2
            assert lazy.n_children_spawned == eager.n_children_spawned

    def test_a_child_is_built_only_when_a_generator_is_seeded(self):
        (child,) = LazySeedSequence(7, (), 4).spawn(1)
        assert child._built is None
        generator = np.random.Generator(np.random.PCG64(child))
        assert child._built is not None
        eager = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7).spawn(1)[0]))
        assert generator.random() == eager.random()

    def test_twin_continues_the_generator(self):
        original = spawn_generators(11, 3)[1]
        original.random(5)
        original.bit_generator.seed_seq.spawn(2)
        reference = pickle.loads(pickle.dumps(original))
        twin = with_lazy_spawns(original)
        assert isinstance(twin.bit_generator.seed_seq, LazySeedSequence)
        assert np.array_equal(twin.random(6), reference.random(6))
        for lazy, eager in zip(spawn_generators(twin, 3), spawn_generators(reference, 3), strict=True):
            _assert_same_sequence(lazy.bit_generator.seed_seq, eager.bit_generator.seed_seq)
            assert lazy.integers(0, 2**62) == eager.integers(0, 2**62)

    def test_pickled_generator_keeps_its_lazy_sequence(self):
        twin = with_lazy_spawns(spawn_generators(3, 2)[0])
        twin.bit_generator.seed_seq.spawn(4)
        copy = pickle.loads(pickle.dumps(twin))
        assert copy.bit_generator.seed_seq.n_children_spawned == 4
        assert copy.random() == twin.random()
        assert spawn_generators(copy, 1)[0].random() == spawn_generators(twin, 1)[0].random()


class TestDeriveSubstream:
    def test_same_labels_same_stream(self):
        first = derive_substream(3, 1, "adversary").random(4)
        second = derive_substream(3, 1, "adversary").random(4)
        assert np.allclose(first, second)

    def test_different_labels_differ(self):
        first = derive_substream(3, 1, "adversary").random(4)
        second = derive_substream(3, 1, "sampler").random(4)
        assert not np.allclose(first, second)

    def test_string_labels_stable_across_calls(self):
        assert np.allclose(
            derive_substream(0, "x").random(2), derive_substream(0, "x").random(2)
        )


class TestBernoulliTrial:
    def test_probability_zero_never_true(self, rng):
        assert not any(bernoulli_trial(rng, 0.0) for _ in range(100))

    def test_probability_one_always_true(self, rng):
        assert all(bernoulli_trial(rng, 1.0) for _ in range(100))

    def test_intermediate_probability_mixes(self, rng):
        outcomes = [bernoulli_trial(rng, 0.5) for _ in range(500)]
        assert 0.3 < sum(outcomes) / len(outcomes) < 0.7


class TestSampleWithoutReplacement:
    def test_size_and_distinctness(self, rng):
        population = list(range(50))
        chosen = sample_without_replacement(rng, population, 10)
        assert len(chosen) == 10
        assert len(set(chosen)) == 10
        assert set(chosen) <= set(population)

    def test_oversampling_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_without_replacement(rng, [1, 2, 3], 4)

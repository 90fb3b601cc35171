"""Tests for the seeded RNG utilities."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.rng import as_generator, choice_without_replacement, spawn_generators


class TestAsGenerator:
    def test_int_seed_is_deterministic(self):
        a = as_generator(7).integers(0, 1_000_000, size=10)
        b = as_generator(7).integers(0, 1_000_000, size=10)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_none_returns_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(3)
        assert isinstance(as_generator(seq), np.random.Generator)


class TestSpawnGenerators:
    def test_children_are_independent_and_deterministic(self):
        first = [g.integers(0, 1000, 5).tolist() for g in spawn_generators(11, 3)]
        second = [g.integers(0, 1000, 5).tolist() for g in spawn_generators(11, 3)]
        assert first == second
        assert first[0] != first[1]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_zero_count(self):
        assert spawn_generators(0, 0) == []


class TestChoiceWithoutReplacement:
    @given(
        population=st.integers(min_value=1, max_value=5000),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_unique_and_in_range(self, population, fraction):
        size = int(round(fraction * population))
        result = choice_without_replacement(np.random.default_rng(0), population, size)
        assert len(result) == size
        assert len(np.unique(result)) == size
        if size:
            assert result.min() >= 0 and result.max() < population

    def test_oversample_rejected(self):
        with pytest.raises(ValueError):
            choice_without_replacement(np.random.default_rng(0), 5, 6)

    @staticmethod
    def _reference(rng, population, size):
        """The per-value set loop the vectorised rejection rounds reproduce."""
        if size > population // 8:
            return rng.permutation(population)[:size].astype(np.int64)
        selected = set()
        result = np.empty(size, dtype=np.int64)
        count = 0
        while count < size:
            needed = size - count
            for value in rng.integers(0, population, size=needed * 2):
                value = int(value)
                if value not in selected:
                    selected.add(value)
                    result[count] = value
                    count += 1
                    if count == size:
                        break
        return result

    def _assert_matches_reference(self, seed, population, size):
        sampler, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        result = choice_without_replacement(sampler, population, size)
        expected = self._reference(reference, population, size)
        assert result.dtype == np.int64
        assert result.tolist() == expected.tolist(), (seed, population, size)
        assert sampler.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize(
        "population,size", [(8, 1), (9, 1), (16, 2), (17, 2), (24, 3), (64, 8), (80, 10)]
    )
    def test_small_collision_heavy_populations_match_the_loop(self, population, size):
        # Two draws per needed value from a population only 8x the sample:
        # repeats inside one round and across rounds are common.
        for seed in range(200):
            self._assert_matches_reference(seed, population, size)

    def test_random_cases_match_the_loop(self):
        cases = np.random.default_rng(2024)
        for seed in range(400):
            population = int(cases.integers(1, 40_000 if seed % 2 else 200))
            size = int(cases.integers(0, population // 8 + 2))
            self._assert_matches_reference(seed, population, min(size, population))

    def test_repeated_draws_take_several_rounds_like_the_loop(self):
        # Uniform draws almost never leave a round short, so the screen
        # against values taken in earlier rounds needs skewed draws.
        for seed in range(100):
            sampler, reference = _SkewedDraws(seed), _SkewedDraws(seed)
            result = choice_without_replacement(sampler, 400, 50)
            expected = self._reference(reference, 400, 50)
            assert result.tolist() == expected.tolist(), seed
            assert sampler.rounds == reference.rounds >= 2
            assert sampler.rng.bit_generator.state == reference.rng.bit_generator.state


class _SkewedDraws:
    """A generator stand-in whose draws mostly repeat four hot values."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.rounds = 0

    def integers(self, low, high, size):
        self.rounds += 1
        draws = self.rng.integers(low, high, size=size)
        hot = self.rng.random(size) < 0.75
        draws[hot] = self.rng.integers(low, low + 4, size=int(hot.sum()))
        return draws


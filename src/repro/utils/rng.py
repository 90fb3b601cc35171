"""Deterministic random-number management.

Every stochastic component in the library (weight initialization, environment
obstacle placement, epsilon-greedy exploration, fault-map sampling) accepts
either an integer seed or a :class:`numpy.random.Generator`.  The helpers here
normalise those inputs and derive independent child generators so that, for
example, changing the number of fault maps evaluated does not perturb the
training stream.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any seed-like input.

    ``None`` produces a non-deterministic generator, an ``int`` or
    ``SeedSequence`` produces a deterministic one, and an existing generator
    is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_generators(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from one seed."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        return [np.random.default_rng(s) for s in seed.bit_generator.seed_seq.spawn(count)]
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def choice_without_replacement(
    rng: np.random.Generator, population: int, size: int
) -> np.ndarray:
    """Sample ``size`` distinct indices from ``range(population)``.

    When ``size`` is much smaller than ``population`` this is batched
    rejection sampling, which avoids materialising a full permutation (fault
    maps over multi-megabit memories sample a tiny fraction of all bit
    cells): each round draws ``2 * needed`` candidates and keeps, in draw
    order, the first occurrence of every value not taken yet, until ``size``
    values are taken.  A round's first occurrences come from one
    ``np.unique(..., return_index=True)``, and the values taken in earlier
    rounds are screened out with one ``searchsorted``.
    """
    if size > population:
        raise ValueError(f"cannot sample {size} items from population of {population}")
    if size == 0:
        return np.empty(0, dtype=np.int64)
    if size > population // 8:
        return rng.permutation(population)[:size].astype(np.int64)
    result = np.empty(size, dtype=np.int64)
    count = 0
    while count < size:
        needed = size - count
        candidates = rng.integers(0, population, size=needed * 2)
        distinct, first = np.unique(candidates, return_index=True)
        if count:
            taken = np.sort(result[:count])
            slots = np.minimum(np.searchsorted(taken, distinct), count - 1)
            first = first[taken[slots] != distinct]
        fresh = candidates[np.sort(first)[:needed]]
        result[count : count + fresh.size] = fresh
        count += fresh.size
    return result


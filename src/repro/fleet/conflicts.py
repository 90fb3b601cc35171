"""Inter-vehicle conflict detection on the vectorised segment-distance path.

Two vehicles are in conflict over a lockstep step when their straight motion
segments, sampled at the same fractions of the step (the vehicles move
simultaneously), come within the required separation of each other.  The
exact check is :func:`conflicting_pairs` — the same sampled-segment geometry
:meth:`~repro.envs.obstacles.ObstacleField.segments_collide` marches, applied
to vehicle-vs-vehicle sample distances.

At fleet scale the all-pairs candidate set is the cost: N=1000 vehicles mean
~500k pairs per step, almost all of them kilometres apart.
:func:`candidate_conflict_pairs` prescreens with a spatial hash over segment
*start* points.  Every sample of a segment lies within the segment length of
its start, so a conflicting pair must satisfy

    |start_i - start_j| < separation + length_i + length_j,

and hashing starts on a grid of cell size ``separation + 2·max_length``
guarantees any such pair lands in the same or an adjacent cell.  The
prescreen is therefore an exact superset: :func:`detect_conflicts` (hash +
exact check on the survivors) returns precisely the all-pairs answer.

The hash is a sort, not a dictionary.  Each axis's cell indices (floats
straight from ``floor``) are dense-ranked, and the pair of ranks is one
integer key; one ``argsort`` groups the starts by key, and ``searchsorted``
finds, for every start, the run of starts in its own cell and in each of
the four half-neighbourhood cells.  The pairs are then listed with
``repeat``/``arange`` index arithmetic, with no Python loop over cells.
The key is exact for every finite input: a rank is below N, so
``rank_x · (distinct y cells) + rank_y`` is below N² whatever the
coordinates and the separation, where a key built from the cell indices
themselves would wrap around int64 for far-apart starts or a tiny
separation.  A neighbour cell is found in rank space only where the cell
indices are truly adjacent (their float difference is exactly 1).  The
candidates, and so the ``fleet.conflict_checks`` count, are the dict-bucket
prescreen's, bit for bit, wherever its int64 cell indices did not overflow.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.envs.obstacles import planar_distances
from repro.errors import ConfigurationError
from repro.obs import get_metrics

#: Half-neighbourhood cell offsets: together with the same-cell pairs these
#: enumerate every unordered adjacent-cell pair exactly once.
_HALF_NEIGHBOURHOOD: Tuple[Tuple[int, int], ...] = ((1, 0), (0, 1), (1, 1), (1, -1))


def _canonical_pairs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Stack index pairs as (K, 2) with the smaller index first, sorted rows."""
    low = np.minimum(left, right)
    high = np.maximum(left, right)
    order = np.lexsort((high, low))
    return np.stack([low[order], high[order]], axis=1)


def all_pairs(count: int) -> np.ndarray:
    """Every unordered index pair of ``count`` items, as a (K, 2) array."""
    left, right = np.triu_indices(int(count), k=1)
    return np.stack([left, right], axis=1)


def _dense_ranks(cells: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dense ranks of one axis's cell indices, and which ranks step up by one.

    Returns ``(ranks, steps_up)``: ``ranks[i]`` is the rank of ``cells[i]``
    among the distinct cell indices, and ``steps_up[r]`` is whether rank
    ``r + 1`` holds the cell index exactly one above rank ``r``'s (False for
    the last rank).  A difference of two floats rounds to exactly 1 only if
    it is 1, so this holds at any magnitude.
    """
    distinct, ranks = np.unique(cells, return_inverse=True)
    steps_up = np.zeros(distinct.size, dtype=bool)
    steps_up[:-1] = np.diff(distinct) == 1.0
    return ranks, steps_up


def candidate_conflict_pairs(
    starts: np.ndarray, lengths: np.ndarray, separation_m: float
) -> np.ndarray:
    """Spatial-hash prescreen: a superset of all possibly conflicting pairs.

    ``starts`` is ``(N, 2)`` segment start points and ``lengths`` ``(N,)``
    segment lengths.  Returns ``(K, 2)`` canonical index pairs containing
    every pair whose sampled segments could come within ``separation_m`` —
    typically a tiny fraction of the N·(N-1)/2 all-pairs set.
    """
    if separation_m <= 0:
        raise ConfigurationError(f"separation must be positive, got {separation_m}")
    starts = np.asarray(starts, dtype=np.float64).reshape(-1, 2)
    lengths = np.asarray(lengths, dtype=np.float64).reshape(-1)
    count = starts.shape[0]
    if count < 2:
        return np.empty((0, 2), dtype=np.int64)
    max_length = float(lengths.max()) if lengths.size else 0.0
    cell = separation_m + 2.0 * max_length
    cells = np.floor(starts / cell)
    ranks_x, up_x = _dense_ranks(cells[:, 0])
    ranks_y, up_y = _dense_ranks(cells[:, 1])
    height = up_y.size
    keys = ranks_x * height + ranks_y
    # A stable sort keeps each cell's starts in index order, so a same-cell
    # pair's left member is its lower index, as in a bucket walk.
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    ranks_x, ranks_y = ranks_x[order], ranks_y[order]
    down_y = np.concatenate(([False], up_y[:-1]))
    adjacent_x = {0: True, 1: up_x[ranks_x]}
    adjacent_y = {0: True, 1: up_y[ranks_y], -1: down_y[ranks_y]}
    # Row 0 of ``cell_keys`` is each sorted start's own cell, row r > 0 its
    # r-th half-neighbourhood cell: a fixed key offset in rank space, valid
    # where that cell is adjacent on both axes.  Each row stays sorted, which
    # keeps the searches below cheap.
    offsets = ((0, 0),) + _HALF_NEIGHBOURHOOD
    valid = np.stack(
        [np.broadcast_to(adjacent_x[dx] & adjacent_y[dy], count) for dx, dy in offsets]
    )
    deltas = np.array([dx * height + dy for dx, dy in offsets])
    cell_keys = sorted_keys[None, :] + deltas[:, None]
    # Each cell's starts are one run of the sorted keys; in its own cell a
    # start pairs only with the starts after it.
    first = np.searchsorted(sorted_keys, cell_keys, side="left")
    first[0] = np.arange(1, count + 1)
    stop = np.searchsorted(sorted_keys, cell_keys, side="right")
    runs = np.where(valid, stop - first, 0).reshape(-1)
    total = int(runs.sum())
    if total == 0:
        return np.empty((0, 2), dtype=np.int64)
    # Pair k joins a start to the k-th sorted position of its runs.  The
    # start is the pair's left member, as in a bucket walk over cells: it
    # fixes the operand order of the bound below, bit for bit.
    run_offsets = np.cumsum(runs) - runs
    positions = np.repeat(first.reshape(-1) - run_offsets, runs) + np.arange(total)
    left = np.repeat(np.tile(order, len(offsets)), runs)
    right = order[positions]
    # Tighten with the per-pair bound: min sample distance is at least
    # |Δstart| - length_i - length_j (triangle inequality), so anything at or
    # beyond separation + both lengths can never conflict.
    near = planar_distances(starts[left] - starts[right]) < (
        separation_m + lengths[left] + lengths[right]
    )
    return _canonical_pairs(left[near], right[near])


def conflicting_pairs(
    starts: np.ndarray,
    ends: np.ndarray,
    separation_m: float,
    samples: int = 8,
    pairs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact sampled conflict check over ``pairs`` (all pairs when ``None``).

    Both vehicles of a pair are sampled at the same fractions of the step —
    they move simultaneously — and the pair conflicts when any simultaneous
    sample distance drops below ``separation_m``.  Returns canonical (K, 2)
    conflicting index pairs.
    """
    if separation_m <= 0:
        raise ConfigurationError(f"separation must be positive, got {separation_m}")
    starts = np.asarray(starts, dtype=np.float64).reshape(-1, 2)
    ends = np.asarray(ends, dtype=np.float64).reshape(-1, 2)
    if pairs is None:
        pairs = all_pairs(starts.shape[0])
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.shape[0] == 0:
        return np.empty((0, 2), dtype=np.int64)
    fractions = np.linspace(0.0, 1.0, max(2, samples))
    left, right = pairs[:, 0], pairs[:, 1]
    relative_starts = starts[left] - starts[right]
    relative_ends = ends[left] - ends[right]
    relative = (
        relative_starts[:, None, :]
        + fractions[None, :, None] * (relative_ends - relative_starts)[:, None, :]
    )
    too_close = (planar_distances(relative) < separation_m).any(axis=1)
    return _canonical_pairs(left[too_close], right[too_close])


def detect_conflicts(
    starts: np.ndarray,
    ends: np.ndarray,
    separation_m: float,
    samples: int = 8,
) -> np.ndarray:
    """Prescreened conflict detection: hash, then exact check on survivors.

    Equivalent to ``conflicting_pairs(starts, ends, separation_m, samples)``
    over all pairs — the spatial hash only removes pairs the triangle
    inequality proves safe.  ``fleet.conflict_checks`` counts the pairs that
    reach the exact sampled check (the prescreen's work product).
    """
    starts = np.asarray(starts, dtype=np.float64).reshape(-1, 2)
    ends = np.asarray(ends, dtype=np.float64).reshape(-1, 2)
    lengths = planar_distances(ends - starts)
    candidates = candidate_conflict_pairs(starts, lengths, separation_m)
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("fleet.conflict_checks").inc(int(candidates.shape[0]))
    return conflicting_pairs(starts, ends, separation_m, samples, pairs=candidates)

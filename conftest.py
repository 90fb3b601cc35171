"""Fixtures shared by the test suite and the benchmarks."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest


@pytest.fixture
def store_lines():
    """Read a result store root's record lines, keyed by each record's ``job``.

    The raw bytes of each stored line, so two stores can be compared bitwise.
    """

    def read(root) -> dict:
        lines = {}
        for segment in sorted(Path(root).glob("*/seg-*.jsonl")):
            for line in segment.read_bytes().splitlines():
                lines[json.loads(line)["job"]] = line
        return lines

    return read


@pytest.fixture
def per_tensor_berr():
    """The per-tensor ``BErr_p`` reference the flat word memory must reproduce.

    ``perturb(injector, state, fault_map)`` quantizes each tensor alone (its
    own max-abs scale, the injector's ``_encode``), checks its codes against the
    word width, takes them mod 2^bits into words and corrupts those at the
    tensor's bit offset, checks the corrupted words, turns them back into
    two's-complement codes and multiplies by the scale: what
    ``injector.perturb_state_dict(state, fault_map)`` returns, bitwise, one
    tensor at a time.
    """
    import numpy as np

    from repro.faults.injection import _encode
    from repro.nn.backend import NUMPY_BACKEND as np_be

    def check_range(array, low, high):
        if array.size and (array.min() < low or array.max() > high):
            raise AssertionError(f"values outside [{low}, {high}]")

    def checked_codes(codes, bits):
        codes = np.asarray(codes, dtype=np.int32)
        check_range(codes, -(2 ** (bits - 1)), 2 ** (bits - 1) - 1)
        return codes

    def perturb(injector, state, fault_map) -> dict:
        be = injector.backend
        bits = injector.layout.bits_per_value
        modulus, half = 1 << bits, 1 << (bits - 1)
        perturbed = {}
        for name, values in state.items():
            values = be.asarray(values, "float64")
            assert be.all_finite(values)
            max_code = float(2 ** (bits - 1) - 1)
            # A zero (or underflowing subnormal) max-abs falls back to 1 / max_code.
            scale = float(np.abs(be.to_numpy(values)).max()) / max_code or 1.0 / max_code
            codes = checked_codes(_encode(values, scale, bits, be), bits)
            words = np_be.astype(np_be.mod(codes, modulus), "int64").ravel()
            offset = injector.layout.segment(name).bit_offset
            corrupted = np.asarray(fault_map.apply_to_words(words, bits, offset))
            corrupted = np_be.asarray(corrupted.reshape(codes.shape), "int64")
            check_range(corrupted, 0, modulus - 1)
            signed = np_be.where(corrupted >= half, np_be.subtract(corrupted, modulus), corrupted)
            codes = checked_codes(np_be.astype(signed, "int32"), bits)
            perturbed[name] = np_be.multiply(np_be.astype(codes, "float64"), scale)
        return perturbed

    return perturb


@pytest.fixture(scope="session")
def per_map_fault_protocol():
    """The per-map fault-map protocol the merged rollout must reproduce.

    ``evaluate(env, network, ber_percent, num_fault_maps, episodes_per_map,
    rng=0)`` draws the maps of ``evaluate_under_faults`` (one ``map_rng`` /
    ``episode_rng`` split, the maps first), then flies one map at a time:
    corrupt the quantized codes under the map into a clone, draw the map's
    reset base, and fly its episodes through ``run_batched_episodes`` on
    ``min(episodes_per_map, 64)`` lanes of their own.  Returns the
    ``RobustnessPoint`` that ``evaluate_under_faults`` must equal field for
    field.
    """
    import math

    import numpy as np

    from repro.envs.batch import BatchedNavigationEnv, DEFAULT_BATCH_SIZE, run_batched_episodes
    from repro.envs.vector import mean_path_length, success_rate
    from repro.faults.fault_map import FaultMap
    from repro.faults.injection import BitErrorInjector
    from repro.rl.evaluation import GreedyPolicy, RobustnessPoint
    from repro.utils.rng import spawn_generators

    def evaluate(env, network, ber_percent, num_fault_maps, episodes_per_map, rng=0):
        injector = BitErrorInjector.for_network(network)
        map_rng, episode_rng = spawn_generators(rng, 2)
        maps = [
            FaultMap.random(
                injector.memory_bits,
                ber_percent / 100.0,
                rng=map_rng,
                stuck_at_1_bias=0.5,
                label=f"eval-map-{index}",
            )
            for index in range(num_fault_maps)
        ]
        quantized = injector.quantize_state(network.state_dict())
        deployed = network.clone()
        policy = GreedyPolicy(deployed)
        batch_env = BatchedNavigationEnv(env, min(episodes_per_map, DEFAULT_BATCH_SIZE))
        per_map_success, per_map_paths = [], []
        for fault_map in maps:
            deployed.load_state_dict(injector.perturb_quantized_state(quantized, fault_map))
            reset_base = int(episode_rng.integers(0, 2**31 - 1 - episodes_per_map))
            results = run_batched_episodes(
                batch_env, policy, range(reset_base, reset_base + episodes_per_map)
            )
            per_map_success.append(success_rate(results))
            per_map_paths.append(mean_path_length(results))
        paths = [path for path in per_map_paths if not math.isnan(path)]
        return RobustnessPoint(
            ber_percent=ber_percent,
            num_fault_maps=num_fault_maps,
            episodes_per_map=episodes_per_map,
            success_rate=float(np.mean(per_map_success)),
            success_rate_std=float(np.std(per_map_success)),
            mean_path_length_m=float(np.mean(paths)) if paths else float("nan"),
            per_map_success_rates=tuple(per_map_success),
        )

    return evaluate


@pytest.fixture(scope="session")
def dict_bucket_candidates():
    """The dict-bucket conflict prescreen the sort-based hash must reproduce.

    ``candidates(starts, lengths, separation_m)`` buckets the starts by cell
    in a dict, then walks the cells in Python, pairing each with itself and
    its four half-neighbourhood cells: what
    ``repro.fleet.conflicts.candidate_conflict_pairs`` returns, bitwise,
    whenever every cell index fits an int64.
    """
    import numpy as np

    from repro.envs.obstacles import planar_distances
    from repro.fleet.conflicts import _HALF_NEIGHBOURHOOD, _canonical_pairs

    def candidates(starts, lengths, separation_m):
        starts = np.asarray(starts, dtype=np.float64).reshape(-1, 2)
        lengths = np.asarray(lengths, dtype=np.float64).reshape(-1)
        if starts.shape[0] < 2:
            return np.empty((0, 2), dtype=np.int64)
        max_length = float(lengths.max()) if lengths.size else 0.0
        cell = separation_m + 2.0 * max_length
        cells = np.floor(starts / cell).astype(np.int64)
        grouped = {}
        for index, key in enumerate(map(tuple, cells)):
            grouped.setdefault(key, []).append(index)
        buckets = {key: np.asarray(members, dtype=np.int64) for key, members in grouped.items()}
        lefts, rights = [], []
        for (cell_x, cell_y), members in buckets.items():
            if members.size > 1:
                inner_left, inner_right = np.triu_indices(members.size, k=1)
                lefts.append(members[inner_left])
                rights.append(members[inner_right])
            for offset_x, offset_y in _HALF_NEIGHBOURHOOD:
                neighbours = buckets.get((cell_x + offset_x, cell_y + offset_y))
                if neighbours is not None:
                    lefts.append(np.repeat(members, neighbours.size))
                    rights.append(np.tile(neighbours, members.size))
        if not lefts:
            return np.empty((0, 2), dtype=np.int64)
        left = np.concatenate(lefts)
        right = np.concatenate(rights)
        near = planar_distances(starts[left] - starts[right]) < (
            separation_m + lengths[left] + lengths[right]
        )
        return _canonical_pairs(left[near], right[near])

    return candidates


@pytest.fixture(scope="session")
def dense_march():
    """The dense ray march the ray cast must reproduce.

    ``march(field, origins, angles, max_range, step, times_s=None)`` sends
    every march sample of every ray through ``_collide_mask(points, 0.0)``:
    the field's own, or given ``times_s`` (one time per origin) that of its
    ``at_time`` snapshot at the origin's time.  Each ray reads its first
    flagged sample, or ``max_range``: what ``field.ray_distances_many``
    (``ray_distances_many_timed`` given times) returns, bitwise.
    """
    import numpy as np

    def march(field, origins, angles, max_range, step=0.1, times_s=None):
        origins = np.asarray(origins, dtype=np.float64).reshape(-1, 2)
        angles = np.asarray(angles, dtype=np.float64)
        if angles.ndim == 1:
            angles = np.broadcast_to(angles, (origins.shape[0], angles.size))
        directions = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        marches = np.arange(step, max_range, step, dtype=np.float64)
        distances = np.full(angles.shape, max_range, dtype=np.float64)
        if marches.size == 0:
            return distances
        for fan, origin in enumerate(origins):
            snapshot = field if times_s is None else field.at_time(float(times_s[fan]))
            points = origin + marches[None, :, None] * directions[fan][:, None, :]
            hits = snapshot._collide_mask(points.reshape(-1, 2), 0.0).reshape(points.shape[:2])
            distances[fan] = np.where(hits.any(axis=1), marches[np.argmax(hits, axis=1)], max_range)
        return distances

    return march


@pytest.fixture
def time_pairs():
    """Time a reference and a candidate in interleaved pairs: the timing
    protocol of the ratio gates.

    ``time_pairs(make_reference, make_candidate, pairs)`` times ``pairs``
    runs of each side.  ``make_*`` prepares one run untimed (a fresh
    trainer, fresh parameters) and returns the zero-argument call to time.
    The two runs of a pair go back to back and the side that runs first
    alternates from pair to pair, so a slow spell of the host hits both
    alike.  Returns ``(reference_s, candidate_s)``: each side's fastest run,
    in seconds.
    """

    def timed(make_reference, make_candidate, pairs):
        makers = (make_reference, make_candidate)
        best = [float("inf"), float("inf")]
        for pair in range(pairs):
            for side in (0, 1) if pair % 2 == 0 else (1, 0):
                run = makers[side]()
                start = time.perf_counter()
                run()
                best[side] = min(best[side], time.perf_counter() - start)
                del run
        return best[0], best[1]

    return timed

"""Policy evaluation, with and without injected bit errors.

The paper evaluates every operating point over many persistent fault maps
(500 per point at full scale) and reports the average task success rate and
path statistics.  :func:`evaluate_under_faults` reproduces that protocol on
the lockstep batched rollout core: the clean policy parameters are quantized
*once*, each fault map corrupts a per-map view of the stored integer codes
into a network of its own, and the maps fly together.  Map m owns a block
of ``min(E, 64)`` lanes for its E missions, and a wave of
``64 // min(E, 64)`` maps goes through one
:func:`~repro.envs.batch.run_batched_episodes` rollout, whose policy
(:class:`PerMapGreedyPolicy`) sends each map's rows through that map's own
network, so every map's missions equal a rollout of that map alone.
:func:`evaluate_policy` flies the error-free policy on the same core.  Both
fly on their own lanes over the caller's world; the caller's environment is
never stepped or reset.

:class:`GreedyPolicy` is the :data:`~repro.envs.vector.BatchPolicy` over a
Q-network: observation matrix -> action vector (it ignores the episode
indices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.envs.batch import BatchedNavigationEnv, DEFAULT_BATCH_SIZE, run_batched_episodes
from repro.envs.navigation import NavigationEnv
from repro.envs.vector import EpisodeResult, mean_path_length, success_rate
from repro.errors import ConfigurationError
from repro.faults.fault_map import FaultMap
from repro.faults.injection import BitErrorInjector
from repro.nn.network import Sequential
from repro.utils.rng import SeedLike, as_generator, spawn_generators


class GreedyPolicy:
    """Greedy action selection over a Q-network: one forward over the whole
    observation matrix plus a row-wise argmax."""

    def __init__(self, network: Sequential) -> None:
        self.network = network

    def __call__(self, observations: np.ndarray, episodes: np.ndarray) -> np.ndarray:
        q_values = self.network.forward(np.asarray(observations, dtype=np.float64))
        return np.argmax(q_values, axis=1)


class PerMapGreedyPolicy:
    """Greedy actions of one network per fault map, flown in one rollout.

    Row ``r`` acts through ``networks[episodes[r] // episodes_per_map]``.
    Each map's rows go, in row order, through that map's own
    :class:`GreedyPolicy`, so a map whose episodes own a block of lanes gets
    the very forwards of a rollout of that map alone on those lanes.
    """

    def __init__(self, networks: Sequence[Sequential], episodes_per_map: int) -> None:
        self.policies = [GreedyPolicy(network) for network in networks]
        self.episodes_per_map = int(episodes_per_map)

    def __call__(self, observations: np.ndarray, episodes: np.ndarray) -> np.ndarray:
        episodes = np.asarray(episodes)
        maps = episodes // self.episodes_per_map
        actions = np.empty(maps.size, dtype=np.int64)
        for index in np.unique(maps):
            rows = np.flatnonzero(maps == index)
            actions[rows] = self.policies[index](observations[rows], episodes[rows])
        return actions


@dataclass(frozen=True)
class PolicyEvaluation:
    """Aggregate statistics of a batch of evaluation episodes."""

    num_episodes: int
    success_rate: float
    collision_rate: float
    mean_steps: float
    mean_path_length_m: float
    mean_reward: float

    @classmethod
    def from_results(cls, results: Sequence[EpisodeResult]) -> "PolicyEvaluation":
        if not results:
            raise ValueError("cannot summarise an empty list of episode results")
        return cls(
            num_episodes=len(results),
            success_rate=success_rate(results),
            collision_rate=sum(1 for r in results if r.collision) / len(results),
            mean_steps=float(np.mean([r.steps for r in results])),
            # Over successful episodes only, consistent with
            # mean_path_length(successful_only=True): NaN when nothing
            # succeeded, never a silent fallback to failed-episode paths.
            mean_path_length_m=mean_path_length(results),
            mean_reward=float(np.mean([r.total_reward for r in results])),
        )


@dataclass(frozen=True)
class RobustnessPoint:
    """Evaluation of one policy at one bit-error rate, averaged over fault maps."""

    ber_percent: float
    num_fault_maps: int
    episodes_per_map: int
    success_rate: float
    success_rate_std: float
    mean_path_length_m: float
    per_map_success_rates: tuple

    @property
    def success_rate_percent(self) -> float:
        return 100.0 * self.success_rate


def _check_count(name: str, count: int) -> None:
    if count < 1:
        raise ConfigurationError(f"{name} must be at least 1, got {count}")


def _episode_reset_base(rng: np.random.Generator, num_episodes: int) -> int:
    """A reset-seed base such that ``base + i`` stays a valid 31-bit seed."""
    return int(rng.integers(0, 2**31 - 1 - num_episodes))


def evaluate_policy(
    env: NavigationEnv,
    network: Sequential,
    num_episodes: int = 20,
    rng: SeedLike = 0,
) -> PolicyEvaluation:
    """Evaluate a (float, error-free) policy network greedily over many episodes.

    Episodes are reset-seeded from ``rng`` and flown in lockstep on up to
    ``DEFAULT_BATCH_SIZE`` lanes over ``env``'s world; ``env`` itself is never
    stepped or reset.
    """
    _check_count("num_episodes", num_episodes)
    reset_base = _episode_reset_base(as_generator(rng), num_episodes)
    batch_env = BatchedNavigationEnv(env, min(num_episodes, DEFAULT_BATCH_SIZE))
    results = run_batched_episodes(
        batch_env, GreedyPolicy(network), range(reset_base, reset_base + num_episodes)
    )
    return PolicyEvaluation.from_results(results)


def evaluate_under_faults(
    env: NavigationEnv,
    network: Sequential,
    ber_percent: float,
    num_fault_maps: int = 10,
    episodes_per_map: int = 5,
    fault_maps: Optional[Sequence[FaultMap]] = None,
    stuck_at_1_bias: float = 0.5,
    rng: SeedLike = 0,
) -> RobustnessPoint:
    """Evaluate the deployed policy under persistent bit errors.

    For each fault map, the (once-)quantized policy parameters are corrupted
    and the corrupted policy flies ``episodes_per_map`` missions on the
    batched rollout core, beside the other maps of its wave; success rates
    are averaged over maps, mirroring the paper's 500-fault-map protocol.
    Each map's missions are those of a rollout of that map alone on
    ``min(episodes_per_map, 64)`` lanes.  ``fault_maps`` overrides the
    random-map sampling (used for the profiled chips of Table III and for
    on-device evaluation at a fixed map).  Per-map path lengths average successful
    missions only; a map that loses every mission contributes no path sample
    (the aggregate is NaN only when *every* map lost every mission).
    """
    _check_count("episodes_per_map", episodes_per_map)
    maps = None if fault_maps is None else list(fault_maps)
    if maps is None:
        _check_count("num_fault_maps", num_fault_maps)
    else:
        _check_count("the number of fault maps", len(maps))
    injector = BitErrorInjector.for_network(network)
    map_rng, episode_rng = spawn_generators(rng, 2)
    if maps is None:
        maps = [
            FaultMap.random(
                injector.memory_bits,
                ber_percent / 100.0,
                rng=map_rng,
                stuck_at_1_bias=stuck_at_1_bias,
                label=f"eval-map-{index}",
            )
            for index in range(num_fault_maps)
        ]

    # Quantize the clean parameters once; each map corrupts a per-map view.
    # The warm cache extends "once" across calls: fused BER levels and warm
    # pool re-runs evaluating the same trained policy reuse the same codes.
    quantized = injector.quantize_state_cached(network.state_dict())
    reset_bases = [_episode_reset_base(episode_rng, episodes_per_map) for _ in maps]
    # Map m owns a block of lanes_per_map lanes; more episodes than lanes
    # refill the block, which only a wave of one map does.
    lanes_per_map = min(episodes_per_map, DEFAULT_BATCH_SIZE)
    maps_per_wave = DEFAULT_BATCH_SIZE // lanes_per_map
    deployed = [network.clone() for _ in range(min(len(maps), maps_per_wave))]
    batch_env = BatchedNavigationEnv(env, len(deployed) * lanes_per_map)

    per_map_success: List[float] = []
    per_map_paths: List[float] = []
    for first in range(0, len(maps), maps_per_wave):
        wave = maps[first : first + maps_per_wave]
        for wave_network, fault_map in zip(deployed, wave):
            wave_network.load_state_dict(injector.perturb_quantized_state(quantized, fault_map))
        if len(wave) > 1:
            policy = PerMapGreedyPolicy(deployed[: len(wave)], episodes_per_map)
        else:
            policy = GreedyPolicy(deployed[0])
        seeds = [
            base + episode
            for base in reset_bases[first : first + len(wave)]
            for episode in range(episodes_per_map)
        ]
        results = run_batched_episodes(batch_env, policy, seeds)
        for offset in range(0, len(results), episodes_per_map):
            map_results = results[offset : offset + episodes_per_map]
            per_map_success.append(success_rate(map_results))
            per_map_paths.append(mean_path_length(map_results))

    path_samples = [path for path in per_map_paths if not math.isnan(path)]
    return RobustnessPoint(
        ber_percent=ber_percent,
        num_fault_maps=len(maps),
        episodes_per_map=episodes_per_map,
        success_rate=float(np.mean(per_map_success)),
        success_rate_std=float(np.std(per_map_success)),
        mean_path_length_m=float(np.mean(path_samples)) if path_samples else float("nan"),
        per_map_success_rates=tuple(per_map_success),
    )


def robustness_curve(
    env: NavigationEnv,
    network: Sequential,
    ber_percentages: Sequence[float],
    num_fault_maps: int = 10,
    episodes_per_map: int = 5,
    rng: SeedLike = 0,
) -> Dict[float, RobustnessPoint]:
    """Success rate vs bit-error rate (the x-axis sweep of Fig. 3 / Table I)."""
    generators = spawn_generators(rng, len(ber_percentages))
    curve: Dict[float, RobustnessPoint] = {}
    for ber, generator in zip(ber_percentages, generators):
        curve[float(ber)] = evaluate_under_faults(
            env,
            network,
            ber_percent=float(ber),
            num_fault_maps=num_fault_maps,
            episodes_per_map=episodes_per_map,
            rng=generator,
        )
    return curve

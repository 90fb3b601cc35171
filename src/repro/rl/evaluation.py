"""Policy evaluation, with and without injected bit errors.

The paper evaluates every operating point over many persistent fault maps
(500 per point at full scale) and reports the average task success rate and
path statistics.  :func:`evaluate_many` flies any number of evaluations of
one world side by side on the lockstep batched rollout core.  A
:class:`PolicyRequest` flies an error-free policy (:func:`evaluate_policy`
is a call of one); a :class:`FaultRequest` reproduces the fault-map
protocol (:func:`evaluate_under_faults` is a call of one): each distinct
network's clean parameters are quantized *once* per call, and each fault
map corrupts a per-map view of the stored integer codes into a network of
its own.

Every request keeps the lanes of its lone call.  An error-free run of N
episodes owns one block of ``min(N, 64)`` lanes; in a fault run, map m owns
a block of ``min(E, 64)`` lanes for its E missions, and a wave holds
``64 // min(E, 64)`` maps.  Wave i of every request lands on contiguous
lanes of one :func:`~repro.envs.batch.run_batched_episodes` rollout, whose
policy (:class:`PerMapGreedyPolicy`) sends each block's rows through that
block's own network.  A block refills only its own lanes, from its own
episodes, so every block's missions equal a rollout of that block alone.
The requests fly on lanes of their own over the caller's world; the
caller's environment is never stepped or reset.

:class:`GreedyPolicy` is the :data:`~repro.envs.vector.BatchPolicy` over a
Q-network: observation matrix -> action vector (it ignores the episode
indices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.envs.batch import BatchedNavigationEnv, DEFAULT_BATCH_SIZE, run_batched_episodes
from repro.envs.navigation import NavigationEnv
from repro.envs.vector import EpisodeResult, mean_path_length, success_rate
from repro.errors import ConfigurationError
from repro.faults.fault_map import FaultMap
from repro.faults.injection import BitErrorInjector, QuantizedMemory
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
    """Greedy actions of one network per block of episodes, flown in one rollout.

    Network ``k`` flies the next ``episodes_per_map[k]`` episodes in episode
    order (one count: every network flies that many), and row ``r`` acts
    through the network of episode ``episodes[r]``.  One stable sort groups
    a step's rows by network, so each network's rows go, in row order,
    through its own :class:`GreedyPolicy`: a network whose episodes own a
    block of lanes gets the very forwards of a rollout of that block alone
    on those lanes.
    """

    def __init__(
        self, networks: Sequence[Sequential], episodes_per_map: Union[int, Sequence[int]]
    ) -> None:
        self.policies = [GreedyPolicy(network) for network in networks]
        counts = np.broadcast_to(np.asarray(episodes_per_map), (len(self.policies),))
        #: The network index of each episode.
        self.episode_networks = np.repeat(np.arange(len(self.policies)), counts)

    def __call__(self, observations: np.ndarray, episodes: np.ndarray) -> np.ndarray:
        episodes = np.asarray(episodes)
        networks = self.episode_networks[episodes]
        order = np.argsort(networks, kind="stable")
        first_rows = np.flatnonzero(np.diff(networks[order])) + 1
        actions = np.empty(episodes.size, dtype=np.int64)
        for rows in np.split(order, first_rows) if order.size else ():
            policy = self.policies[networks[rows[0]]]
            actions[rows] = policy(observations[rows], episodes[rows])
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


@dataclass(frozen=True)
class PolicyRequest:
    """One error-free evaluation: the arguments of :func:`evaluate_policy`."""

    network: Sequential
    num_episodes: int = 20
    rng: SeedLike = 0


@dataclass(frozen=True)
class FaultRequest:
    """One evaluation under persistent bit errors: the arguments of
    :func:`evaluate_under_faults`."""

    network: Sequential
    ber_percent: float
    num_fault_maps: int = 10
    episodes_per_map: int = 5
    fault_maps: Optional[Sequence[FaultMap]] = None
    stuck_at_1_bias: float = 0.5
    rng: SeedLike = 0


EvaluationRequest = Union[PolicyRequest, FaultRequest]

#: One block of a rollout: the network and the reset seeds of its episodes.
_Block = Tuple[Sequential, range]


def _check_count(name: str, count: int) -> None:
    if count < 1:
        raise ConfigurationError(f"{name} must be at least 1, got {count}")


def _check_request(request: EvaluationRequest) -> None:
    if isinstance(request, PolicyRequest):
        _check_count("num_episodes", request.num_episodes)
    elif isinstance(request, FaultRequest):
        _check_count("episodes_per_map", request.episodes_per_map)
        if request.fault_maps is None:
            _check_count("num_fault_maps", request.num_fault_maps)
            if not (0.0 <= request.ber_percent <= 100.0 and 0.0 <= request.stuck_at_1_bias <= 1.0):
                raise ConfigurationError(
                    f"ber_percent must be in [0, 100] and stuck_at_1_bias in [0, 1], got "
                    f"{request.ber_percent} and {request.stuck_at_1_bias}"
                )
        else:
            _check_count("the number of fault maps", len(request.fault_maps))
            memory_bits = BitErrorInjector.for_network(request.network).memory_bits
            if min(fault_map.memory_bits for fault_map in request.fault_maps) < memory_bits:
                raise ConfigurationError(
                    f"every fault map must cover the network's {memory_bits} memory bits"
                )
    else:
        raise ConfigurationError(f"not an evaluation request: {request!r}")


def _episode_reset_base(rng: np.random.Generator, num_episodes: int) -> int:
    """A reset-seed base such that ``base + i`` stays a valid 31-bit seed."""
    return int(rng.integers(0, 2**31 - 1 - num_episodes))


class _Plan:
    """One request's blocks, flown in waves.

    Block b flies ``episodes`` episodes reset from ``reset_bases[b] + i`` on
    ``min(episodes, 64)`` lanes of its own, and wave w holds the next
    ``64 // lanes`` blocks.  ``flown`` takes each block's results as its
    wave lands, in block order.
    """

    def __init__(self, episodes: int, reset_bases: List[int]) -> None:
        self.episodes = episodes
        self.reset_bases = reset_bases
        self.lanes = min(episodes, DEFAULT_BATCH_SIZE)
        self.blocks_per_wave = DEFAULT_BATCH_SIZE // self.lanes
        self.num_waves = math.ceil(len(reset_bases) / self.blocks_per_wave)
        self.flown: List[List[EpisodeResult]] = []

    @property
    def wave_blocks(self) -> int:
        """Blocks of the widest (the first) wave."""
        return min(self.blocks_per_wave, len(self.reset_bases))

    def wave(self, index: int) -> List[_Block]:
        """Ready wave ``index``; returns its blocks in lane order (none past
        the last wave)."""
        first = index * self.blocks_per_wave
        bases = self.reset_bases[first : first + self.blocks_per_wave]
        networks = self._networks(first, len(bases))
        return [
            (network, range(base, base + self.episodes)) for network, base in zip(networks, bases)
        ]

    def _networks(self, first: int, count: int) -> List[Sequential]:
        raise NotImplementedError


class _PolicyPlan(_Plan):
    """An error-free run: one block, the network itself."""

    def __init__(self, request: PolicyRequest) -> None:
        episodes = request.num_episodes
        super().__init__(episodes, [_episode_reset_base(as_generator(request.rng), episodes)])
        self.network = request.network

    def _networks(self, first: int, count: int) -> List[Sequential]:
        return [self.network]

    def summary(self) -> PolicyEvaluation:
        return PolicyEvaluation.from_results(self.flown[0])


class _FaultPlan(_Plan):
    """A fault run: one block per map, each map corrupting a clone of the
    network of its own (one clone per block of a wave)."""

    def __init__(
        self, request: FaultRequest, injector: BitErrorInjector, memory: QuantizedMemory
    ) -> None:
        map_rng, episode_rng = spawn_generators(request.rng, 2)
        if request.fault_maps is None:
            self.maps = [
                FaultMap.random(
                    injector.memory_bits,
                    request.ber_percent / 100.0,
                    rng=map_rng,
                    stuck_at_1_bias=request.stuck_at_1_bias,
                    label=f"eval-map-{index}",
                )
                for index in range(request.num_fault_maps)
            ]
        else:
            self.maps = list(request.fault_maps)
        episodes = request.episodes_per_map
        super().__init__(episodes, [_episode_reset_base(episode_rng, episodes) for _ in self.maps])
        self.ber_percent = request.ber_percent
        self.injector = injector
        self.memory = memory
        self.clones = [request.network.clone() for _ in range(self.wave_blocks)]

    def _networks(self, first: int, count: int) -> List[Sequential]:
        clones = self.clones[:count]
        for clone, fault_map in zip(clones, self.maps[first : first + count]):
            clone.load_state_dict(self.injector.perturb_quantized_state(self.memory, fault_map))
        return clones

    def summary(self) -> RobustnessPoint:
        per_map_success = [success_rate(results) for results in self.flown]
        per_map_paths = [mean_path_length(results) for results in self.flown]
        path_samples = [path for path in per_map_paths if not math.isnan(path)]
        return RobustnessPoint(
            ber_percent=self.ber_percent,
            num_fault_maps=len(self.maps),
            episodes_per_map=self.episodes,
            success_rate=float(np.mean(per_map_success)),
            success_rate_std=float(np.std(per_map_success)),
            mean_path_length_m=float(np.mean(path_samples)) if path_samples else float("nan"),
            per_map_success_rates=tuple(per_map_success),
        )


def _fly(batch_env: BatchedNavigationEnv, blocks: List[_Block]) -> List[List[EpisodeResult]]:
    """Fly ``blocks`` side by side in one rollout; each block's results."""
    counts = [len(seeds) for _, seeds in blocks]
    results = run_batched_episodes(
        batch_env,
        PerMapGreedyPolicy([network for network, _ in blocks], counts),
        [seed for _, seeds in blocks for seed in seeds],
        blocks=[(min(count, DEFAULT_BATCH_SIZE), count) for count in counts],
    )
    ends = np.cumsum(counts).tolist()
    return [results[end - count : end] for count, end in zip(counts, ends)]


def evaluate_many(
    env: NavigationEnv, requests: Sequence[EvaluationRequest]
) -> List[Union[PolicyEvaluation, RobustnessPoint]]:
    """Fly every request over ``env``'s world side by side; one result each.

    The requests are planned in list order, each drawing its maps and reset
    bases from its own ``rng`` exactly as its lone call does (two requests
    that share one ``Generator`` draw in the order of two sequential calls).
    Wave i of the call puts wave i of every request on contiguous lanes of
    one rollout, on one batched env; a block with more episodes than lanes
    refills only its own lanes.  Every result equals the one its lone call
    (:func:`evaluate_policy` or :func:`evaluate_under_faults`) returns,
    field for field.  Every request is checked before any map or reset base
    is drawn; a bad one raises :class:`~repro.errors.ConfigurationError`.
    """
    for request in requests:
        _check_request(request)
    quantized: Dict[int, Tuple[BitErrorInjector, QuantizedMemory]] = {}
    plans: List[_Plan] = []
    for request in requests:
        if isinstance(request, PolicyRequest):
            plans.append(_PolicyPlan(request))
            continue
        network = request.network
        if id(network) not in quantized:
            # Quantize (and fingerprint) each network's clean parameters once
            # per call; each map corrupts a per-map view.  The warm cache
            # extends "once" across calls: warm pool re-runs evaluating the
            # same trained policy reuse the same codes.
            injector = BitErrorInjector.for_network(network)
            quantized[id(network)] = (
                injector,
                injector.quantize_state_cached(network.state_dict()),
            )
        plans.append(_FaultPlan(request, *quantized[id(network)]))

    if not plans:
        return []
    batch_env = BatchedNavigationEnv(env, sum(plan.wave_blocks * plan.lanes for plan in plans))
    for index in range(max(plan.num_waves for plan in plans)):
        waves = [plan.wave(index) for plan in plans]
        flown = iter(_fly(batch_env, [block for wave in waves for block in wave]))
        for plan, wave in zip(plans, waves):
            plan.flown.extend(next(flown) for _ in wave)
    return [plan.summary() for plan in plans]


def evaluate_policy(
    env: NavigationEnv,
    network: Sequential,
    num_episodes: int = 20,
    rng: SeedLike = 0,
) -> PolicyEvaluation:
    """Evaluate a (float, error-free) policy network greedily over many episodes.

    Episodes are reset-seeded from ``rng`` and flown in lockstep on up to
    ``DEFAULT_BATCH_SIZE`` lanes over ``env``'s world; ``env`` itself is never
    stepped or reset.  A call of :func:`evaluate_many` with one request.
    """
    return evaluate_many(env, [PolicyRequest(network, num_episodes, rng)])[0]


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
    (the aggregate is NaN only when *every* map lost every mission).  A call
    of :func:`evaluate_many` with one request.
    """
    request = FaultRequest(
        network, ber_percent, num_fault_maps, episodes_per_map, fault_maps, stuck_at_1_bias, rng
    )
    return evaluate_many(env, [request])[0]


def robustness_curve(
    env: NavigationEnv,
    network: Sequential,
    ber_percentages: Sequence[float],
    num_fault_maps: int = 10,
    episodes_per_map: int = 5,
    rng: SeedLike = 0,
) -> Dict[float, RobustnessPoint]:
    """Success rate vs bit-error rate (the x-axis sweep of Fig. 3 / Table I),
    every level flown by one :func:`evaluate_many` call."""
    generators = spawn_generators(rng, len(ber_percentages))
    requests = [
        FaultRequest(
            network,
            ber_percent=float(ber),
            num_fault_maps=num_fault_maps,
            episodes_per_map=episodes_per_map,
            rng=generator,
        )
        for ber, generator in zip(ber_percentages, generators)
    ]
    points = evaluate_many(env, requests)
    return {float(ber): point for ber, point in zip(ber_percentages, points)}

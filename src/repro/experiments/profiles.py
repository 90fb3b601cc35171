"""Reduced-scale and paper-scale experiment profiles.

The paper's full protocol (C3F2 convolutional policies, thousands of Unreal
episodes, 500 fault maps per operating point) is far too slow for a test or
benchmark harness.  An :class:`ExperimentProfile` bundles the knobs that trade
fidelity for runtime; ``FAST_PROFILE`` is used by tests/benchmarks that train
real policies, ``PAPER_PROFILE`` documents the full-scale settings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.envs.navigation import NavigationConfig
from repro.envs.obstacles import ObstacleDensity
from repro.envs.sensors import RaySensor
from repro.nn.policies import PolicySpec, c3f2, mlp
from repro.rl.dqn import DqnConfig
from repro.rl.schedules import LinearDecay


@dataclass(frozen=True)
class ExperimentProfile:
    """Scale settings for experiments that train and evaluate real policies."""

    name: str
    training_episodes: int
    num_fault_maps: int
    episodes_per_map: int
    eval_episodes: int
    policy_spec: PolicySpec
    dqn: DqnConfig
    navigation: NavigationConfig

    def navigation_for_density(self, density: ObstacleDensity) -> NavigationConfig:
        """The profile's navigation config with a different obstacle density."""
        return replace(self.navigation, density=density)


def _fast_navigation() -> NavigationConfig:
    return NavigationConfig(
        world_size=(14.0, 14.0),
        density=ObstacleDensity.MEDIUM,
        start=(1.5, 7.0),
        goal=(12.5, 7.0),
        goal_radius_m=1.2,
        max_speed_m_s=2.5,
        step_duration_s=0.5,
        max_steps=40,
        observation="vector",
        ray_sensor=RaySensor(num_rays=8, max_range_m=5.0, step_m=0.2),
        start_position_noise_m=0.8,
    )


def _fast_dqn() -> DqnConfig:
    return DqnConfig(
        gamma=0.95,
        learning_rate=2e-3,
        batch_size=32,
        buffer_capacity=8000,
        learning_starts=100,
        train_frequency=2,
        target_update_interval=150,
        epsilon_schedule=LinearDecay(start=1.0, end=0.05, decay_steps=2500),
        # Collect experience on 8 lockstep lanes (PR 5 batched core): same
        # gradient-step cadence, ~an order fewer python-level env steps.
        train_lanes=8,
    )


#: Reduced-scale profile used by tests and trained-policy benchmarks: small MLP
#: policies on a 14 m x 14 m world, tens of fault maps instead of 500.
FAST_PROFILE = ExperimentProfile(
    name="fast",
    training_episodes=250,
    num_fault_maps=8,
    episodes_per_map=4,
    eval_episodes=20,
    policy_spec=mlp((48, 48)),
    dqn=_fast_dqn(),
    navigation=_fast_navigation(),
)

#: Full-scale settings documented for reference: the paper's C3F2 policy,
#: 500 fault maps per operating point and long training runs.
PAPER_PROFILE = ExperimentProfile(
    name="paper",
    training_episodes=5000,
    num_fault_maps=500,
    episodes_per_map=1,
    eval_episodes=500,
    policy_spec=c3f2(),
    dqn=DqnConfig(),
    navigation=NavigationConfig(observation="image"),
)

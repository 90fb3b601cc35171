"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.envs.navigation import NavigationConfig, NavigationEnv
from repro.envs.obstacles import ObstacleDensity
from repro.envs.sensors import RaySensor
from repro.nn.network import Sequential
from repro.nn.policies import build_policy, mlp


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_network() -> Sequential:
    """A small fully-connected Q-network (6 inputs, 4 actions)."""
    return build_policy(mlp((16, 16)), observation_shape=(6,), num_actions=4, rng=0)


@pytest.fixture
def tiny_conv_network() -> Sequential:
    """A small convolutional network for layer/hardware tests."""
    from repro.nn.policies import PolicySpec, ConvSpec

    spec = PolicySpec(
        name="tiny-conv",
        conv_layers=(ConvSpec(out_channels=4, kernel_size=3, stride=1),),
        hidden_units=(12,),
    )
    return build_policy(spec, observation_shape=(2, 8, 8), num_actions=5, rng=1)


@pytest.fixture
def small_env_config() -> NavigationConfig:
    """A small, quickly-solvable navigation scenario."""
    return NavigationConfig(
        world_size=(12.0, 12.0),
        density=ObstacleDensity.SPARSE,
        start=(1.5, 6.0),
        goal=(10.5, 6.0),
        goal_radius_m=1.2,
        max_speed_m_s=2.5,
        step_duration_s=0.5,
        max_steps=30,
        observation="vector",
        ray_sensor=RaySensor(num_rays=6, max_range_m=4.0, step_m=0.25),
    )


@pytest.fixture
def small_env(small_env_config) -> NavigationEnv:
    return NavigationEnv(small_env_config, rng=3)

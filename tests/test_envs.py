"""Tests for the navigation environment substrate (spaces, obstacles, sensors, env)."""

import numpy as np
import pytest

from repro.envs.navigation import NavigationConfig, NavigationEnv
from repro.envs.obstacles import ObstacleDensity, ObstacleField, generate_obstacles
from repro.envs.sensors import OccupancyImager, RaySensor
from repro.envs.spaces import Box, Discrete
from repro.envs.batch import BatchedNavigationEnv, run_batched_episodes
from repro.envs.vector import run_episode, success_rate, mean_path_length
from repro.errors import ConfigurationError, EnvironmentError_


class TestSpaces:
    def test_discrete_sample_and_contains(self):
        space = Discrete(25)
        action = space.sample(rng=0)
        assert space.contains(action)
        assert not space.contains(25)
        assert not space.contains(-1)

    def test_discrete_requires_positive_n(self):
        with pytest.raises(ConfigurationError):
            Discrete(0)

    def test_box_sample_within_bounds(self):
        space = Box(-1.0, 1.0, (3, 2))
        sample = space.sample(rng=0)
        assert sample.shape == (3, 2)
        assert space.contains(sample)

    def test_box_contains_rejects_wrong_shape_or_range(self):
        space = Box(0.0, 1.0, (4,))
        assert not space.contains(np.zeros(5))
        assert not space.contains(np.full(4, 2.0))

    def test_box_validation(self):
        with pytest.raises(ConfigurationError):
            Box(1.0, 1.0, (2,))
        with pytest.raises(ConfigurationError):
            Box(0.0, 1.0, (0,))

    def test_box_equality(self):
        assert Box(0, 1, (2,)) == Box(0, 1, (2,))
        assert Box(0, 1, (2,)) != Box(0, 2, (2,))


class TestObstacleField:
    @pytest.fixture
    def field(self) -> ObstacleField:
        return ObstacleField(
            world_size=(10.0, 10.0),
            centers=np.array([[5.0, 5.0]]),
            radii=np.array([1.0]),
        )

    def test_collision_inside_obstacle(self, field):
        assert field.collides(np.array([5.0, 5.0]))
        assert not field.collides(np.array([1.0, 1.0]))

    def test_out_of_bounds_is_collision(self, field):
        assert field.collides(np.array([-0.5, 5.0]))
        assert field.collides(np.array([10.5, 5.0]))

    def test_clearance(self, field):
        assert field.clearance(np.array([5.0, 7.5])) == pytest.approx(1.5)

    def test_vehicle_radius_expands_collision(self, field):
        point = np.array([5.0, 6.3])
        assert not field.collides(point, vehicle_radius=0.0)
        assert field.collides(point, vehicle_radius=0.5)

    def test_segment_collision(self, field):
        start, end = np.array([2.0, 5.0]), np.array([8.0, 5.0])
        assert field.segment_collides(start, end)
        assert not field.segment_collides(np.array([2.0, 1.0]), np.array([8.0, 1.0]))

    def test_ray_distance_hits_obstacle(self, field):
        distance = field.ray_distance(np.array([2.0, 5.0]), angle=0.0, max_range=6.0)
        assert distance == pytest.approx(2.0, abs=0.15)

    def test_ray_distance_capped_at_max_range(self, field):
        distance = field.ray_distance(np.array([2.0, 1.0]), angle=0.0, max_range=3.0)
        assert distance == 3.0

    def test_free_path_detection(self, field):
        assert field.has_free_path(np.array([1.0, 1.0]), np.array([9.0, 9.0]), vehicle_radius=0.2)

    def test_blocked_path_detected(self):
        # A wall of obstacles across the middle of the world.
        centers = np.array([[x, 5.0] for x in np.linspace(0.5, 9.5, 19)])
        blocked = ObstacleField((10.0, 10.0), centers, np.full(len(centers), 0.6))
        assert not blocked.has_free_path(
            np.array([5.0, 1.0]), np.array([5.0, 9.0]), vehicle_radius=0.2, cell_size=0.4
        )

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            ObstacleField((5.0, 5.0), np.zeros((2, 2)), np.ones(3))


class TestBatchedQueries:
    """The (N, 2) batched queries must agree point-for-point with the scalar API."""

    @pytest.fixture
    def field(self) -> ObstacleField:
        rng = np.random.default_rng(0)
        centers = rng.uniform(1.0, 11.0, size=(25, 2))
        radii = rng.uniform(0.2, 0.8, size=25)
        return ObstacleField((12.0, 12.0), centers, radii)

    def test_clearances_match_scalar(self, field):
        points = np.random.default_rng(1).uniform(-1.0, 13.0, size=(64, 2))
        batched = field.clearances(points)
        for point, value in zip(points, batched):
            assert value == pytest.approx(field.clearance(point))

    @pytest.mark.parametrize("vehicle_radius", [0.0, 0.25])
    def test_collides_many_matches_scalar(self, field, vehicle_radius):
        points = np.random.default_rng(2).uniform(-0.5, 12.5, size=(64, 2))
        batched = field.collides_many(points, vehicle_radius)
        for point, value in zip(points, batched):
            assert bool(value) == field.collides(point, vehicle_radius)

    def test_ray_distances_match_scalar(self, field):
        origin = np.array([6.0, 6.0])
        angles = np.linspace(-np.pi, np.pi, 16)
        batched = field.ray_distances(origin, angles, max_range=5.0, step=0.1)
        for angle, value in zip(angles, batched):
            assert value == pytest.approx(field.ray_distance(origin, angle, 5.0, 0.1))

    def test_ray_distances_validation(self, field):
        with pytest.raises(ConfigurationError):
            field.ray_distances(np.array([1.0, 1.0]), np.array([0.0]), max_range=0.0)

    def test_occupancy_grid_matches_scalar(self, field):
        occupancy = field.occupancy_grid(vehicle_radius=0.25, cell_size=0.75)
        rows, cols = occupancy.shape
        width, height = field.world_size
        for row in (0, rows // 2, rows - 1):
            for col in (0, cols // 2, cols - 1):
                point = np.array([(col + 0.5) * width / cols, (row + 0.5) * height / rows])
                assert bool(occupancy[row, col]) == field.collides(point, 0.25)


class TestGenerateObstacles:
    @pytest.mark.parametrize("density", list(ObstacleDensity))
    def test_generated_fields_are_solvable(self, density):
        start, goal = np.array([2.0, 10.0]), np.array([18.0, 10.0])
        field = generate_obstacles((20.0, 20.0), density, start, goal, rng=0)
        assert field.has_free_path(start, goal, vehicle_radius=0.25)
        assert not field.collides(start, 0.25)
        assert not field.collides(goal, 0.25)

    def test_density_ordering(self):
        start, goal = np.array([2.0, 10.0]), np.array([18.0, 10.0])
        counts = {}
        for density in ObstacleDensity:
            field = generate_obstacles((20.0, 20.0), density, start, goal, rng=1)
            counts[density] = field.num_obstacles
        assert counts[ObstacleDensity.SPARSE] < counts[ObstacleDensity.MEDIUM] < counts[ObstacleDensity.DENSE]

    def test_deterministic_given_seed(self):
        start, goal = np.array([2.0, 6.0]), np.array([10.0, 6.0])
        a = generate_obstacles((12.0, 12.0), ObstacleDensity.MEDIUM, start, goal, rng=7)
        b = generate_obstacles((12.0, 12.0), ObstacleDensity.MEDIUM, start, goal, rng=7)
        assert np.array_equal(a.centers, b.centers)

    def test_invalid_radius_range(self):
        with pytest.raises(ConfigurationError):
            generate_obstacles(
                (10.0, 10.0),
                ObstacleDensity.SPARSE,
                np.array([1.0, 1.0]),
                np.array([9.0, 9.0]),
                radius_range=(0.5, 0.1),
            )


class TestSensors:
    def test_ray_sensor_free_space_reads_one(self):
        field = ObstacleField((10.0, 10.0), np.zeros((0, 2)), np.zeros(0))
        sensor = RaySensor(num_rays=5, max_range_m=3.0)
        readings = sensor.sense(field, np.array([5.0, 5.0]), heading=0.0)
        assert readings.shape == (5,)
        assert np.allclose(readings, 1.0)

    def test_ray_sensor_detects_obstacle_ahead(self):
        field = ObstacleField((10.0, 10.0), np.array([[7.0, 5.0]]), np.array([0.5]))
        sensor = RaySensor(num_rays=5, max_range_m=4.0, step_m=0.1)
        readings = sensor.sense(field, np.array([5.0, 5.0]), heading=0.0)
        # The centre ray points straight at the obstacle 1.5 m away (surface).
        assert readings[2] < 0.5
        assert readings[0] > readings[2]

    def test_ray_sensor_validation(self):
        with pytest.raises(ConfigurationError):
            RaySensor(num_rays=1)
        with pytest.raises(ConfigurationError):
            RaySensor(max_range_m=0.0)

    def test_imager_shape_and_range(self):
        field = ObstacleField((10.0, 10.0), np.array([[6.0, 5.0]]), np.array([1.0]))
        imager = OccupancyImager(image_size=8, window_m=6.0)
        image = imager.render(field, np.array([4.0, 5.0]), 0.0, np.array([9.0, 5.0]))
        assert image.shape == (3, 8, 8)
        assert image.min() >= 0.0 and image.max() <= 1.0
        assert image[0].sum() > 0  # the obstacle shows up in the occupancy channel

    def test_imager_goal_channels_constant(self):
        field = ObstacleField((10.0, 10.0), np.zeros((0, 2)), np.zeros(0))
        imager = OccupancyImager(image_size=6)
        image = imager.render(field, np.array([2.0, 2.0]), 0.0, np.array([8.0, 2.0]))
        assert np.allclose(image[1], image[1, 0, 0])
        assert np.allclose(image[2], image[2, 0, 0])

    def test_imager_validation(self):
        with pytest.raises(ConfigurationError):
            OccupancyImager(image_size=2)


class TestNavigationEnv:
    def test_reset_returns_observation_in_space(self, small_env):
        obs = small_env.reset()
        assert small_env.observation_space.contains(obs)

    def test_action_space_is_factored(self, small_env):
        config = small_env.config
        assert small_env.action_space.n == config.num_heading_actions * config.num_speed_actions

    def test_decode_action_bounds(self, small_env):
        heading, speed = small_env.decode_action(0)
        assert heading == pytest.approx(-small_env.config.max_heading_change_rad)
        assert 0.0 < speed <= 1.0
        with pytest.raises(EnvironmentError_):
            small_env.decode_action(small_env.action_space.n)

    def test_step_before_reset_rejected(self, small_env_config):
        env = NavigationEnv(small_env_config, rng=0)
        with pytest.raises(EnvironmentError_):
            env.step(0)

    def test_straight_flight_towards_goal_succeeds(self, small_env):
        """Flying straight at full speed should reach the goal in this sparse world."""
        small_env.reset()
        straight_full_speed = (small_env.config.num_heading_actions // 2) * small_env.config.num_speed_actions + (
            small_env.config.num_speed_actions - 1
        )
        success = False
        for _ in range(small_env.config.max_steps):
            result = small_env.step(straight_full_speed)
            if result.terminated or result.truncated:
                success = bool(result.info["success"])
                break
        assert success

    def test_progress_reward_positive_when_moving_towards_goal(self, small_env):
        small_env.reset()
        straight = (small_env.config.num_heading_actions // 2) * small_env.config.num_speed_actions + (
            small_env.config.num_speed_actions - 1
        )
        result = small_env.step(straight)
        assert result.reward > 0.0

    def test_path_length_accumulates(self, small_env):
        small_env.reset()
        straight = (small_env.config.num_heading_actions // 2) * small_env.config.num_speed_actions + 2
        small_env.step(straight)
        small_env.step(straight)
        assert small_env.path_length_m > 0.0

    def test_episode_ends_on_timeout(self, small_env):
        small_env.reset()
        hover = 0  # sharp turn at low speed: unlikely to reach the goal
        truncated = False
        for _ in range(small_env.config.max_steps + 5):
            result = small_env.step(hover)
            if result.terminated:
                break
            if result.truncated:
                truncated = True
                break
        assert truncated or result.terminated

    def test_reset_seed_reproducible_with_start_noise(self, small_env_config):
        from dataclasses import replace

        config = replace(small_env_config, start_position_noise_m=0.8)
        env = NavigationEnv(config, rng=0)
        a = env.reset(seed=42)
        b = env.reset(seed=42)
        assert np.allclose(a, b)

    def test_invalid_start_position(self, small_env_config):
        from dataclasses import replace

        config = replace(small_env_config, start=(-1.0, 5.0))
        with pytest.raises(ConfigurationError):
            NavigationEnv(config, rng=0)

    def test_obstacle_generation_consumes_one_stream_draw(self, small_env_config):
        from dataclasses import replace

        # Field generation takes a single integer seed off the env stream
        # (however much randomness its rejection sampling uses internally), so
        # the stream after construction is the same whatever the density.
        sparse = replace(small_env_config, density=ObstacleDensity.SPARSE)
        dense = replace(small_env_config, density=ObstacleDensity.DENSE)
        sparse_env, dense_env = NavigationEnv(sparse, rng=0), NavigationEnv(dense, rng=0)
        assert not np.array_equal(
            sparse_env.obstacle_field.centers, dense_env.obstacle_field.centers
        )
        assert sparse_env._rng.bit_generator.state == dense_env._rng.bit_generator.state
        fresh = np.random.default_rng(0)
        fresh.integers(0, 2**31 - 1)
        assert sparse_env._rng.bit_generator.state == fresh.bit_generator.state

    def test_image_observation_mode(self, small_env_config):
        from dataclasses import replace
        from repro.envs.sensors import OccupancyImager

        config = replace(small_env_config, observation="image", imager=OccupancyImager(image_size=8))
        env = NavigationEnv(config, rng=0)
        obs = env.reset()
        assert obs.shape == (3, 8, 8)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            NavigationConfig(observation="lidar")
        with pytest.raises(ConfigurationError):
            NavigationConfig(max_steps=0)
        with pytest.raises(ConfigurationError):
            NavigationConfig(start_position_noise_m=-1.0)


class TestEpisodeRunners:
    def _straight_policy(self, env):
        action = (env.config.num_heading_actions // 2) * env.config.num_speed_actions + (
            env.config.num_speed_actions - 1
        )
        return lambda observations, episodes: np.full(len(observations), action)

    def _episodes(self, env, num_episodes, reset_seed):
        batch = BatchedNavigationEnv(env, num_episodes)
        return run_batched_episodes(
            batch, self._straight_policy(env), range(reset_seed, reset_seed + num_episodes)
        )

    def test_run_episode_summary(self, small_env):
        result = run_episode(small_env, self._straight_policy(small_env))
        assert result.steps > 0
        assert result.success or result.collision or result.steps >= small_env.config.max_steps

    def test_run_episodes_and_success_rate(self, small_env):
        results = self._episodes(small_env, 5, reset_seed=0)
        assert len(results) == 5
        assert 0.0 <= success_rate(results) <= 1.0

    def test_mean_path_length_empty_and_nonempty(self, small_env):
        results = self._episodes(small_env, 4, reset_seed=0)
        value = mean_path_length(results, successful_only=False)
        assert value > 0.0
        assert success_rate([]) == 0.0

"""The ray cast against the dense march it replaced.

``ObstacleField.ray_distances_many`` and the timed
``DynamicObstacleField.ray_distances_many_timed`` test about one march
sample per ray: a cull of far circles, an entry and exit bound per (ray,
circle) and the ray's exit time from the world pick it.  The answer must be
bitwise the dense march's (root ``conftest.py`` fixture ``dense_march``:
every sample of every ray through ``_collide_mask``).  The scenes below
are built to sit on the bounds' edges: samples exactly on a circle's
boundary, rays tangent to a circle at a sample, origins inside circles, on
walls and outside the world, axis-aligned rays, circles behind the origin,
empty fields and empty march grids.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.envs.obstacles import ObstacleField
from repro.worlds.dynamic import DynamicObstacleField, MovingObstacle

#: Ray angles that point along an axis (``0.0`` and ``-0.0`` give an exact
#: zero sine).
AXIS_ANGLES = np.array([0.0, -0.0, np.pi / 2, np.pi, -np.pi / 2])


def _origins(rng, count, width, height, centers, radii):
    """Origins inside the world, inside circles, on walls and outside it."""
    origins = rng.uniform([0.0, 0.0], [width, height], size=(count, 2))
    for index, kind in enumerate(rng.integers(0, 4, size=count)):
        if kind == 1 and radii.size:
            circle = rng.integers(radii.size)
            origins[index] = centers[circle] + rng.uniform(-0.5, 0.5, 2) * radii[circle]
        elif kind == 2:
            axis = rng.integers(2)
            origins[index, axis] = (0.0, (width, height)[axis])[rng.integers(2)]
        elif kind == 3:
            origins[index] += rng.choice([-1.0, 1.0], 2) * rng.uniform(0.0, 1.5, 2) * (
                [width, height]
            )
    return origins


def _edge_circles(rng, origins, angles, marches, count):
    """Circles on the bounds' edges of the given rays.

    Each one is tangent to a ray at a march sample, has a sample exactly on
    its boundary at the ray's entry, or sits behind the ray's origin.
    """
    centers, radii = [], []
    if marches.size == 0:
        return np.empty((0, 2)), np.empty(0)
    for _ in range(count):
        fan, ray = rng.integers(angles.shape[0]), rng.integers(angles.shape[1])
        angle = angles[fan, ray]
        direction = np.array([np.cos(angle), np.sin(angle)])
        normal = np.array([-direction[1], direction[0]]) * rng.choice([-1.0, 1.0])
        sample = marches[rng.integers(marches.size)]
        point = origins[fan] + sample * direction
        radius = float(rng.uniform(0.05, 2.0))
        kind = rng.integers(3)
        if kind == 0:  # tangent at the sample: h = r
            center = point + radius * normal
        elif kind == 1:  # the sample on the boundary, the centre ahead of it
            tilt = rng.uniform(-1.2, 1.2)
            center = point + radius * (np.cos(tilt) * direction + np.sin(tilt) * normal)
        else:  # behind the origin
            center = origins[fan] - rng.uniform(0.0, 3.0) * direction + rng.uniform(-1, 1) * normal
        centers.append(center)
        radii.append(radius)
    return np.array(centers).reshape(-1, 2), np.array(radii)


def _scene(seed, fans, rays, shared_fan, grid):
    rng = np.random.default_rng(seed)
    width, height = rng.uniform(2.0, 30.0, size=2)
    count = int(rng.integers(0, 10))
    centers = rng.uniform([-2.0, -2.0], [width + 2.0, height + 2.0], size=(count, 2))
    radii = rng.uniform(0.05, 3.0, size=count)
    step, max_range = grid
    marches = np.arange(step, max_range, step, dtype=np.float64)
    origins = _origins(rng, fans, width, height, centers, radii)
    angles = rng.uniform(-np.pi, np.pi, size=(1 if shared_fan else fans, rays))
    axis = rng.random(angles.shape) < 0.2
    angles[axis] = rng.choice(AXIS_ANGLES, size=int(axis.sum()))
    angles = np.broadcast_to(angles, (fans, rays))
    edge_centers, edge_radii = _edge_circles(rng, origins, angles, marches, int(rng.integers(0, 6)))
    centers = np.concatenate([centers, edge_centers])
    radii = np.concatenate([radii, edge_radii])
    return rng, (float(width), float(height)), centers, radii, origins, angles


GRIDS = st.sampled_from([(0.1, 6.0), (0.2, 5.0), (0.25, 4.0), (0.7, 9.0), (1.0, 1.0), (0.5, 0.3)])


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 2),
    fans=st.integers(min_value=1, max_value=4),
    rays=st.integers(min_value=1, max_value=40),
    shared_fan=st.booleans(),
    grid=GRIDS,
)
@settings(max_examples=150, deadline=None)
def test_cast_equals_dense_march(dense_march, seed, fans, rays, shared_fan, grid):
    _, world, centers, radii, origins, angles = _scene(seed, fans, rays, shared_fan, grid)
    field = ObstacleField(world, centers, radii)
    step, max_range = grid
    query = angles[0] if shared_fan else angles
    got = field.ray_distances_many(origins, query, max_range, step)
    assert np.array_equal(got, dense_march(field, origins, query, max_range, step))


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 2),
    fans=st.integers(min_value=1, max_value=4),
    rays=st.integers(min_value=1, max_value=40),
    one_time=st.booleans(),
    grid=GRIDS,
)
@settings(max_examples=100, deadline=None)
def test_timed_cast_equals_dense_march(dense_march, seed, fans, rays, one_time, grid):
    rng, world, centers, radii, origins, angles = _scene(seed, fans, rays, False, grid)
    width, height = world
    movers = tuple(
        MovingObstacle(
            waypoints=rng.uniform([-1.0, -1.0], [width + 1.0, height + 1.0], size=(3, 2)),
            radius=float(rng.uniform(0.1, 2.0)),
            speed_m_s=float(rng.uniform(0.0, 3.0)),
            phase_m=float(rng.uniform(0.0, 5.0)),
        )
        for _ in range(int(rng.integers(1, 5)))
    )
    field = DynamicObstacleField(world, centers, radii, movers=movers)
    if one_time:
        times = np.full(fans, rng.choice([0.0, -0.0, 3.5]))
    else:
        times = rng.choice([0.0, -0.0, 1.25, 7.5], size=fans)
    step, max_range = grid
    got = field.ray_distances_many_timed(origins, angles, times, max_range, step)
    assert np.array_equal(got, dense_march(field, origins, angles, max_range, step, times))


@pytest.mark.parametrize("num_circles", [0, 3])
def test_empty_grid_and_empty_field_read_max_range(dense_march, num_circles):
    rng = np.random.default_rng(num_circles)
    field = ObstacleField(
        (10.0, 10.0), rng.uniform(0.0, 10.0, size=(num_circles, 2)), np.ones(num_circles)
    )
    origins = rng.uniform(0.0, 10.0, size=(3, 2))
    angles = rng.uniform(-np.pi, np.pi, size=(3, 5))
    # max_range <= step: the march grid is empty and every ray reads max_range.
    for max_range, step in ((0.3, 0.5), (0.5, 0.5)):
        got = field.ray_distances_many(origins, angles, max_range, step)
        assert np.array_equal(got, np.full((3, 5), max_range))
    got = field.ray_distances_many(origins, angles, 6.0, 0.2)
    assert np.array_equal(got, dense_march(field, origins, angles, 6.0, 0.2))


def test_origin_just_outside_the_world_scans_past_its_first_sample(dense_march):
    # The origin is outside, so every sample is a candidate; the first is
    # back inside the world, so the cast must go on to the circle.
    field = ObstacleField((10.0, 10.0), np.array([[3.0, 5.0]]), np.array([1.0]))
    origins = np.array([[-0.05, 5.0]])
    got = field.ray_distances_many(origins, np.array([0.0]), 6.0, 0.1)
    assert np.array_equal(got, dense_march(field, origins, np.array([0.0]), 6.0, 0.1))
    assert 1.9 < got[0, 0] < 2.2

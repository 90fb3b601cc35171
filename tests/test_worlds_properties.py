"""Property-based tests: every world family keeps the generation contract.

For random (family, difficulty params, seed) draws the compiled world must be
solvable (a BFS corridor exists), stay inside the world bounds, keep the
start and goal clear, and its spec must hash and serialise deterministically.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.utils.serialization import canonical_json
from repro.worlds import (
    WorldSpec,
    generate_world,
    registered_families,
    validate_world,
)

FAMILIES = registered_families()

#: A small per-family palette of difficulty overlays, so property runs also
#: exercise non-default parameters without generating unsolvable asks.
FAMILY_PARAM_CHOICES = {
    "uniform": [{}, {"density": "sparse"}, {"density": "dense"}],
    "corridor": [{}, {"num_walls": 2}, {"num_walls": 6, "gap_m": 1.5}],
    "forest": [{}, {"spacing_end_m": 1.4}, {"spacing_start_m": 4.0}],
    "urban": [{}, {"open_fraction": 0.4}, {"street_m": 2.0}],
    "rooms": [{}, {"rooms_x": 2, "rooms_y": 2}, {"door_m": 2.4}],
    "dynamic": [{}, {"num_movers": 2}, {"num_movers": 6, "mover_speed_m_s": 1.2}],
}

specs = st.builds(
    lambda family, preset, seed: WorldSpec(
        family=family,
        params=FAMILY_PARAM_CHOICES.get(family, [{}])[preset % len(FAMILY_PARAM_CHOICES.get(family, [{}]))],
        seed=seed,
    ),
    family=st.sampled_from(FAMILIES),
    preset=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**31 - 2),
)


@given(spec=specs)
@settings(max_examples=25, deadline=None)
def test_every_generated_world_is_valid(spec):
    world = generate_world(spec)
    # The full contract in one call: bounds, clear endpoints, BFS corridor.
    assert validate_world(world) == []


@given(spec=specs)
@settings(max_examples=15, deadline=None)
def test_generated_worlds_stay_inside_bounds(spec):
    world = generate_world(spec)
    width, height = world.world_size
    field = world.field
    if field.num_obstacles:
        assert np.all(field.centers[:, 0] - field.radii >= -1e-9)
        assert np.all(field.centers[:, 1] - field.radii >= -1e-9)
        assert np.all(field.centers[:, 0] + field.radii <= width + 1e-9)
        assert np.all(field.centers[:, 1] + field.radii <= height + 1e-9)
    assert field.in_bounds(world.start, margin=world.vehicle_radius)
    assert field.in_bounds(world.goal, margin=world.vehicle_radius)


@given(spec=specs)
@settings(max_examples=15, deadline=None)
def test_start_and_goal_stay_clear(spec):
    world = generate_world(spec)
    snapshot = world.field_at(0.0)
    assert not snapshot.collides(world.start, world.vehicle_radius)
    assert not snapshot.collides(world.goal, world.vehicle_radius)


@given(spec=specs)
@settings(max_examples=25, deadline=None)
def test_spec_hash_and_serialization_round_trip(spec):
    rebuilt = WorldSpec.from_jsonable(spec.to_jsonable())
    assert rebuilt == spec
    assert rebuilt.spec_hash == spec.spec_hash
    assert canonical_json(rebuilt.to_jsonable()) == canonical_json(spec.to_jsonable())
    # Hashing is pure: a structurally equal spec built separately agrees.
    again = WorldSpec(spec.family, dict(spec.params), seed=spec.seed)
    assert again.spec_hash == spec.spec_hash


@given(spec=specs)
@settings(max_examples=10, deadline=None)
def test_generation_is_a_pure_function_of_the_spec(spec):
    a, b = generate_world(spec), generate_world(spec)
    assert np.array_equal(a.field.centers, b.field.centers)
    assert np.array_equal(a.field.radii, b.field.radii)
    assert np.array_equal(a.start, b.start)
    assert np.array_equal(a.goal, b.goal)

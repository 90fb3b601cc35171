"""N-vehicle lockstep fleet advancement over one shared airspace.

:class:`FleetSim` holds the whole fleet as stacked arrays — positions,
targets, battery energies, lifecycle phases — and advances every airborne
vehicle in one :meth:`step`.  Every obstacle query goes through the field's
timed form with the fleet clock as each row's time; the field decides
whether time matters (a static field ignores it, a
:class:`~repro.worlds.dynamic.DynamicObstacleField` places its movers there):

* **placement** rejection-samples pads, goals and chargers clear of the
  field at t = 0, and a launch waits while a mover covers its pad;
* **steering** picks, per vehicle, the least-deviating candidate heading
  whose look-ahead ray is clear, through a single batched ray query
  (:meth:`~repro.envs.obstacles.ObstacleField.ray_distances_many_timed`);
* **fault injection** corrupts each steering command independently with the
  bit-error-derived probability of the operating voltage (the voltage →
  BER → action-corruption chain of the mission pipeline);
* **motion checks** run one
  :meth:`~repro.envs.obstacles.ObstacleField.segments_collide_timed`
  query for the whole fleet;
* **conflict handling** detects pairwise separation violations on the
  vectorised segment path behind the spatial-hash prescreen
  (:func:`~repro.fleet.conflicts.detect_conflicts`); the higher-index
  vehicle of each conflicting pair holds (hovers in place) for the step —
  a fixed priority order, in the spirit of conflict-avoiding schemes where
  asynchronous agents resolve contention without negotiation;
* **battery logistics** drain rotor + compute power every airborne second
  (the vectorised :meth:`~repro.uav.platform.UavPlatform.rotor_power_w`
  relation), divert a vehicle to its nearest charging waypoint once the
  reserve rule trips, and recharge it back to full before it resumes.

Episodes stream through :func:`run_fleet_episodes` into
:class:`~repro.fleet.stats.StreamingMoments` — running mean/CI only, no
per-episode storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.envs.obstacles import ObstacleField, planar_distances
from repro.errors import ConfigurationError
from repro.fleet.conflicts import detect_conflicts
from repro.fleet.stats import StreamingMoments
from repro.obs import get_metrics, span
from repro.uav.platform import UavPlatform, get_platform
from repro.utils.rng import SeedLike, as_generator, spawn_generators

#: Vehicle lifecycle phases (int8 state codes).
PENDING = 0        #: waiting for its staggered launch step
ENROUTE = 1        #: flying toward its mission goal
TO_CHARGER = 2     #: diverted to the nearest charging waypoint
CHARGING = 3       #: parked on a charger, refilling
DONE = 4           #: mission goal reached
CRASHED = 5        #: hit an obstacle or wall
BATTERY_DEAD = 6   #: battery exhausted mid-air

#: Candidate steering offsets (radians from the target bearing), in
#: preference order: straight first, then increasingly sharp evasions.
STEER_OFFSETS = np.array([0.0, -0.45, 0.45, -0.95, 0.95, -1.6, 1.6])


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of one fleet rollout."""

    num_vehicles: int = 64
    speed_m_s: float = 1.2
    step_duration_s: float = 0.5
    vehicle_radius_m: float = 0.25
    separation_m: float = 0.8          #: minimum pairwise separation
    goal_radius_m: float = 0.6
    max_steps: int = 400
    launch_per_step: int = 0           #: vehicles released per step (0 = all at once)
    platform: str = "crazyflie"
    payload_g: float = 0.0
    compute_power_w: float = 0.507     #: onboard processing power at the operating voltage
    action_corruption_prob: float = 0.0  #: per-step chance a steering command is corrupted
    battery_capacity_j: Optional[float] = None  #: defaults to the platform battery
    charge_power_w: float = 5.0
    battery_reserve_factor: float = 1.5  #: divert when energy < factor x cost-to-nearest-charger
    num_chargers: int = 4
    sense_range_m: float = 4.0
    sense_step_m: float = 0.25         #: ray-march resolution of the steering query
    steer_margin_m: float = 0.6        #: extra look-ahead clearance (mover motion allowance)
    conflict_samples: int = 8

    def __post_init__(self) -> None:
        if self.num_vehicles <= 0:
            raise ConfigurationError(f"num_vehicles must be positive, got {self.num_vehicles}")
        if self.speed_m_s <= 0 or self.step_duration_s <= 0:
            raise ConfigurationError("speed and step duration must be positive")
        if self.separation_m <= 0:
            raise ConfigurationError(f"separation must be positive, got {self.separation_m}")
        if not 0.0 <= self.action_corruption_prob <= 1.0:
            raise ConfigurationError(
                f"action_corruption_prob must be in [0, 1], got {self.action_corruption_prob}"
            )
        if self.battery_reserve_factor < 1.0:
            raise ConfigurationError("battery_reserve_factor must be at least 1")
        if self.num_chargers <= 0:
            raise ConfigurationError(f"num_chargers must be positive, got {self.num_chargers}")

    def resolved_platform(self) -> UavPlatform:
        return get_platform(self.platform)


@dataclass(frozen=True)
class FleetResult:
    """Terminal statistics of one fleet episode."""

    num_vehicles: int
    steps: int
    success_fraction: float
    crash_fraction: float
    battery_fraction: float
    timeout_fraction: float
    conflicts: int                #: pairwise separation violations detected
    charge_stops: int             #: diversions to a charging waypoint
    mean_energy_used_j: float
    mean_steps_to_goal: float     #: over successful vehicles (0 when none)


class FleetSim:
    """Lockstep advancement of a whole fleet over one shared field."""

    def __init__(
        self,
        airfield: ObstacleField,
        config: FleetConfig = FleetConfig(),
        rng: SeedLike = 0,
    ) -> None:
        self.field = airfield
        self.config = config
        self.platform = config.resolved_platform()
        self._rng = as_generator(rng)
        count = config.num_vehicles

        self.positions = self._sample_clear_points(count)
        self.goals = self._sample_clear_points(count)
        self.chargers = self._sample_clear_points(config.num_chargers)
        self.energies = np.full(
            count,
            float(
                config.battery_capacity_j
                if config.battery_capacity_j is not None
                else self.platform.battery_capacity_j
            ),
            dtype=np.float64,
        )
        self._capacity_j = float(self.energies[0])
        self.states = np.full(count, PENDING, dtype=np.int8)
        self.charger_of = np.zeros(count, dtype=np.int64)  #: assigned charger while diverted
        if config.launch_per_step > 0:
            self.launch_steps = np.arange(count) // config.launch_per_step
        else:
            self.launch_steps = np.zeros(count, dtype=np.int64)
        self.step_index = 0
        self.conflicts = 0
        self.charge_stops = 0
        self.steps_to_goal = np.zeros(count, dtype=np.int64)
        self._power_w = (
            float(self.platform.rotor_power_w(config.payload_g)) + config.compute_power_w
        )

    def _sample_clear_points(self, count: int) -> np.ndarray:
        """Rejection-sample ``count`` points clear of the field at t = 0."""
        width, height = self.field.world_size
        margin = self.config.vehicle_radius_m
        points = np.empty((count, 2), dtype=np.float64)
        pending = np.arange(count)
        for _ in range(64):
            if pending.size == 0:
                return points
            candidates = self._rng.uniform(
                (margin, margin), (width - margin, height - margin), size=(pending.size, 2)
            )
            clear = ~self.field.collides_many_timed(
                candidates, np.zeros(pending.size), margin
            )
            points[pending[clear]] = candidates[clear]
            pending = pending[~clear]
        raise ConfigurationError(
            f"could not place {pending.size} of {count} fleet points in a "
            f"{width}x{height} world after 64 rejection rounds"
        )

    # ------------------------------------------------------------------ queries
    @property
    def airborne(self) -> np.ndarray:
        """Mask of vehicles currently flying (enroute or diverted)."""
        return (self.states == ENROUTE) | (self.states == TO_CHARGER)

    @property
    def finished(self) -> bool:
        return bool(np.isin(self.states, (DONE, CRASHED, BATTERY_DEAD)).all())

    def _targets(self, indices: np.ndarray) -> np.ndarray:
        """Current navigation target of each of ``indices``."""
        targets = self.goals[indices].copy()
        diverted = self.states[indices] == TO_CHARGER
        targets[diverted] = self.chargers[self.charger_of[indices[diverted]]]
        return targets

    def _ray_distances(
        self, origins: np.ndarray, angles: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        config = self.config
        with span("fleet.ray_cast"):
            return self.field.ray_distances_many_timed(
                origins, angles, times, config.sense_range_m, config.sense_step_m
            )

    # ------------------------------------------------------------------ lockstep step
    def step(self) -> None:
        """Advance the whole fleet by one lockstep interval."""
        config = self.config
        time_now = self.step_index * config.step_duration_s
        time_next = time_now + config.step_duration_s
        metrics = get_metrics()

        launching = np.nonzero(
            (self.states == PENDING) & (self.launch_steps <= self.step_index)
        )[0]
        if launching.size:
            # Hold a launch while a mover covers the pad — launching into an
            # occupied cell is a crash, not a mission.
            blocked = self.field.collides_many_timed(
                self.positions[launching],
                np.full(launching.size, time_now),
                config.vehicle_radius_m,
            )
            self.states[launching[~blocked]] = ENROUTE

        flying = np.nonzero(self.airborne)[0]
        if flying.size:
            self._advance_flying(flying, time_now, time_next)

        # Charging vehicles refill; full ones resume their mission.
        charging = np.nonzero(self.states == CHARGING)[0]
        if charging.size:
            self.energies[charging] = np.minimum(
                self._capacity_j,
                self.energies[charging] + config.charge_power_w * config.step_duration_s,
            )
            recharged = charging[self.energies[charging] >= self._capacity_j]
            self.states[recharged] = ENROUTE

        if metrics.enabled:
            metrics.counter("fleet.steps").inc()
            metrics.histogram("fleet.airborne").observe(
                float(np.count_nonzero(self.airborne)) / config.num_vehicles
            )
        self.step_index += 1

    def _advance_flying(
        self, flying: np.ndarray, time_now: float, time_next: float
    ) -> None:
        config = self.config
        positions = self.positions[flying]
        targets = self._targets(flying)
        to_target = targets - positions
        target_distances = planar_distances(to_target)
        bearings = np.arctan2(to_target[:, 1], to_target[:, 0])

        # Candidate-heading steering.  The timed ray fan supplies long-range
        # preference (is the corridor toward the target open beyond this
        # step?); the timed segment sweep validates each candidate against
        # exactly the collision semantics of the motion check, movers en
        # route included.  A vehicle takes the least-deviating candidate that
        # is both ray-preferred and sweep-safe, falls back to any sweep-safe
        # candidate, and hovers when boxed in entirely.
        rows = np.arange(flying.size)
        angles = bearings[:, None] + STEER_OFFSETS[None, :]
        times_now = np.full(flying.size, time_now)
        times_next = np.full(flying.size, time_next)
        distances = self._ray_distances(positions, angles, times_now)
        advance = config.speed_m_s * config.step_duration_s
        preferred_mask = distances >= advance + config.vehicle_radius_m + config.steer_margin_m

        # One fan of candidate segments per vehicle: the field takes each
        # start's clearance once for all of its headings.
        directions = np.stack([np.cos(angles), np.sin(angles)], axis=2)
        candidate_ends = positions[:, None, :] + advance * directions
        safe = ~self.field.segments_collide_timed(
            positions, candidate_ends, times_now, times_next, config.vehicle_radius_m
        )

        best = safe & preferred_mask
        has_best = best.any(axis=1)
        has_safe = safe.any(axis=1)
        chosen = np.where(
            has_best, np.argmax(best, axis=1), np.argmax(safe, axis=1)
        )
        headings = angles[rows, chosen]
        step_lengths = np.where(
            has_safe, np.minimum(advance, target_distances), 0.0
        )

        # Bit-error-driven command corruption: a corrupted step flies a full
        # step on a uniformly random heading instead of the steered command.
        if config.action_corruption_prob > 0.0:
            corrupted = self._rng.random(flying.size) < config.action_corruption_prob
            if corrupted.any():
                headings = np.where(
                    corrupted,
                    self._rng.uniform(-np.pi, np.pi, size=flying.size),
                    headings,
                )
                step_lengths = np.where(corrupted, advance, step_lengths)

        proposed = positions + step_lengths[:, None] * np.stack(
            [np.cos(headings), np.sin(headings)], axis=1
        )

        # Obstacle sweep: one timed segment query for the whole fleet.
        crashed = self.field.segments_collide_timed(
            positions, proposed, times_now, times_next, config.vehicle_radius_m
        )
        self.states[flying[crashed]] = CRASHED
        moving = ~crashed

        # Conflict resolution: the higher-priority (lower-index) vehicle of a
        # conflicting pair proceeds; the other holds (hovers) this step.
        movers = np.nonzero(moving)[0]
        if movers.size > 1:
            pairs = detect_conflicts(
                positions[movers],
                proposed[movers],
                config.separation_m,
                config.conflict_samples,
            )
            if pairs.shape[0]:
                self.conflicts += int(pairs.shape[0])
                metrics = get_metrics()
                if metrics.enabled:
                    metrics.counter("fleet.conflicts").inc(int(pairs.shape[0]))
                holders = np.unique(pairs[:, 1])
                hold_rows = movers[holders]
                proposed[hold_rows] = positions[hold_rows]

        self.positions[flying[moving]] = proposed[moving]

        # Power drain: rotors + compute, whether advancing or hovering.
        drain = self._power_w * config.step_duration_s
        self.energies[flying] -= drain
        dead = self.airborne & (self.energies <= 0.0)
        self.states[dead] = BATTERY_DEAD

        # Arrivals (checked after motion, on the new positions).
        enroute = np.nonzero(self.states == ENROUTE)[0]
        if enroute.size:
            arrived = enroute[
                planar_distances(self.goals[enroute] - self.positions[enroute])
                <= config.goal_radius_m
            ]
            self.states[arrived] = DONE
            self.steps_to_goal[arrived] = self.step_index + 1
        diverted = np.nonzero(self.states == TO_CHARGER)[0]
        if diverted.size:
            docked = diverted[
                planar_distances(
                    self.chargers[self.charger_of[diverted]] - self.positions[diverted]
                )
                <= config.goal_radius_m
            ]
            self.states[docked] = CHARGING

        # Reserve rule: divert once the remaining energy cannot cover the
        # flight to the nearest charger with the configured safety factor.
        enroute = np.nonzero(self.states == ENROUTE)[0]
        if enroute.size:
            to_chargers = planar_distances(
                self.positions[enroute][:, None, :] - self.chargers[None, :, :]
            )
            nearest = np.argmin(to_chargers, axis=1)
            nearest_distance = to_chargers[np.arange(enroute.size), nearest]
            cost = nearest_distance / config.speed_m_s * self._power_w
            low = self.energies[enroute] < config.battery_reserve_factor * cost
            divert = enroute[low]
            if divert.size:
                self.states[divert] = TO_CHARGER
                self.charger_of[divert] = nearest[low]
                self.charge_stops += int(divert.size)
                metrics = get_metrics()
                if metrics.enabled:
                    metrics.counter("fleet.charge_stops").inc(int(divert.size))

    # ------------------------------------------------------------------ episode driver
    def run(self) -> FleetResult:
        """Advance until every vehicle lands or ``max_steps`` elapse."""
        config = self.config
        while self.step_index < config.max_steps and not self.finished:
            self.step()
        count = config.num_vehicles
        success = self.states == DONE
        crash = self.states == CRASHED
        battery = self.states == BATTERY_DEAD
        timeout = ~(success | crash | battery)
        return FleetResult(
            num_vehicles=count,
            steps=self.step_index,
            success_fraction=float(success.mean()),
            crash_fraction=float(crash.mean()),
            battery_fraction=float(battery.mean()),
            timeout_fraction=float(timeout.mean()),
            conflicts=self.conflicts,
            charge_stops=self.charge_stops,
            mean_energy_used_j=float((self._capacity_j - self.energies).mean()),
            mean_steps_to_goal=(
                float(self.steps_to_goal[success].mean()) if success.any() else 0.0
            ),
        )


#: The episode statistics streamed into per-metric accumulators.
EPISODE_METRICS = (
    "success_fraction",
    "crash_fraction",
    "battery_fraction",
    "timeout_fraction",
    "conflicts",
    "charge_stops",
    "mean_energy_used_j",
    "mean_steps_to_goal",
)


def run_fleet_episodes(
    airfield: ObstacleField,
    config: FleetConfig,
    num_episodes: int,
    rng: SeedLike = 0,
    accumulators: Optional[Dict[str, StreamingMoments]] = None,
) -> Dict[str, StreamingMoments]:
    """Stream ``num_episodes`` fleet episodes into Welford accumulators.

    Episode ``i`` runs a fresh :class:`FleetSim` seeded from its own spawned
    stream; only the running moments survive — O(1) memory however many
    episodes the Monte-Carlo estimate needs.  Pass ``accumulators`` to keep
    folding into existing moments (sharded aggregation via
    :meth:`~repro.fleet.stats.StreamingMoments.merge`).
    """
    if num_episodes < 0:
        raise ConfigurationError(f"num_episodes must be non-negative, got {num_episodes}")
    if accumulators is None:
        accumulators = {name: StreamingMoments() for name in EPISODE_METRICS}
    episode_rngs = spawn_generators(rng, num_episodes)
    with span("fleet.episodes"):
        for episode_rng in episode_rngs:
            sim = FleetSim(airfield, config, rng=episode_rng)
            result = sim.run()
            for name in EPISODE_METRICS:
                accumulators[name].update(float(getattr(result, name)))
    return accumulators

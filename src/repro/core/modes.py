"""Offline and on-device learning orchestration (Fig. 4 of the paper).

Two deployment paths are supported:

* **Offline BERRY** — training happens off the vehicle at nominal voltage with
  *injected random* bit errors; the resulting robust policy is then deployed
  on any low-voltage chip.  This generalises across chips and voltages but
  pays a robustness margin for that generality.
* **On-device BERRY** — the UAV fine-tunes the policy directly on the
  low-voltage chip it will fly with, so the injected errors are the chip's
  *actual persistent* fault map.  This reaches lower voltages (Table IV) at
  the cost of the energy consumed by on-device learning.

:func:`train_classical` provides the non-robust DQN baseline used throughout
the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.berry import BerryConfig, BerryTrainer
from repro.envs.navigation import NavigationEnv
from repro.errors import TrainingError
from repro.faults.chips import ChipProfile
from repro.faults.fault_map import FaultMap
from repro.hardware.accelerator import AcceleratorModel
from repro.nn.policies import PolicySpec
from repro.rl.dqn import DqnConfig, DqnTrainer
from repro.utils.rng import SeedLike


def train_classical(
    env: NavigationEnv,
    num_episodes: int,
    policy_spec: Optional[PolicySpec] = None,
    config: DqnConfig = DqnConfig(),
    rng: SeedLike = 0,
) -> DqnTrainer:
    """Train the classical (non-robust) DQN baseline policy."""
    trainer = DqnTrainer(env, policy_spec=policy_spec, config=config, rng=rng)
    trainer.train(num_episodes)
    return trainer


def train_offline_berry(
    env: NavigationEnv,
    num_episodes: int,
    ber_percent: float = 0.5,
    policy_spec: Optional[PolicySpec] = None,
    config: DqnConfig = DqnConfig(),
    berry: Optional[BerryConfig] = None,
    rng: SeedLike = 0,
) -> BerryTrainer:
    """Train a BERRY policy offline with random bit-error injection at rate ``p``."""
    if berry is None:
        berry = BerryConfig(ber_percent=ber_percent, injection_mode="offline")
    elif berry.injection_mode != "offline":
        raise TrainingError("train_offline_berry requires an offline-mode BerryConfig")
    trainer = BerryTrainer(env, policy_spec=policy_spec, config=config, berry=berry, rng=rng)
    trainer.train(num_episodes)
    return trainer


@dataclass(frozen=True)
class OnDeviceResult:
    """Outcome of an on-device fine-tuning session (one row of Table IV)."""

    num_learning_steps: int
    normalized_voltage: float
    ber_percent: float
    learning_energy_j: float
    trainer: BerryTrainer

    @property
    def device_fault_map(self) -> FaultMap:
        assert self.trainer.device_fault_map is not None
        return self.trainer.device_fault_map


class OnDeviceSession:
    """Fine-tune a policy directly on a specific low-voltage chip.

    The session samples the chip's persistent fault map at the requested
    operating voltage, runs BERRY training with that fixed map, and accounts
    for the energy the on-device learning itself consumes (using the
    accelerator cost model at the learning voltage).
    """

    def __init__(
        self,
        env: NavigationEnv,
        chip: ChipProfile,
        normalized_voltage: float,
        policy_spec: Optional[PolicySpec] = None,
        config: DqnConfig = DqnConfig(),
        accelerator: Optional[AcceleratorModel] = None,
        rng: SeedLike = 0,
    ) -> None:
        if normalized_voltage <= 0:
            raise TrainingError(f"normalized voltage must be positive, got {normalized_voltage}")
        self.env = env
        self.chip = chip
        self.normalized_voltage = float(normalized_voltage)
        self.ber_percent = chip.ber_percent_at_voltage(self.normalized_voltage)
        berry = BerryConfig(
            ber_percent=max(self.ber_percent, 1e-9),
            injection_mode="on_device",
            stuck_at_1_bias=chip.stuck_at_1_bias,
        )
        self.trainer = BerryTrainer(
            env, policy_spec=policy_spec, config=config, berry=berry, rng=rng
        )
        device_map = chip.fault_map(
            self.trainer.injector.memory_bits,
            ber_percent=self.ber_percent,
            rng=rng,
        )
        # Re-initialise the trainer with the chip-specific map (constructor samples
        # a generic one when none is supplied).
        self.trainer.device_fault_map = device_map
        self.accelerator = accelerator

    def warm_start(self, state_dict) -> None:
        """Load a previously (offline-)trained policy before fine-tuning."""
        self.trainer.q_network.load_state_dict(state_dict)
        self.trainer.sync_target_network()

    def run(self, num_learning_steps: int, max_episodes: int = 10_000) -> OnDeviceResult:
        """Fine-tune for approximately ``num_learning_steps`` environment steps."""
        if num_learning_steps <= 0:
            raise TrainingError(f"num_learning_steps must be positive, got {num_learning_steps}")
        episodes = 0
        while self.trainer.history.total_steps < num_learning_steps and episodes < max_episodes:
            self.trainer.train(1)
            episodes += 1
        learning_energy = self.learning_energy_j(self.trainer.history.gradient_steps)
        return OnDeviceResult(
            num_learning_steps=self.trainer.history.total_steps,
            normalized_voltage=self.normalized_voltage,
            ber_percent=self.ber_percent,
            learning_energy_j=learning_energy,
            trainer=self.trainer,
        )

    def learning_energy_j(self, gradient_steps: int) -> float:
        """Processing energy consumed by on-device learning (Table IV column)."""
        if self.accelerator is None:
            return 0.0
        per_step = self.accelerator.training_step_energy_joules(self.normalized_voltage)
        return per_step * gradient_steps

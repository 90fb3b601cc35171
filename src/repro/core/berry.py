"""BERRY error-aware training (Algorithm 1 of the paper).

BERRY extends classical DQN with a *perturbed* training pass.  At every
gradient step:

1. the clean pass computes the usual TD loss and gradient Δ(t) with the
   floating-point parameters θ and target parameters θ⁻ (lines 12-13);
2. the perturbed pass quantizes θ and θ⁻ to 8-bit fixed point, injects bit
   errors at rate ``p`` into the stored codes (the ``BErr_p`` operator,
   line 15), recomputes the TD target and loss with the corrupted parameters
   θ̃ and θ̃⁻, and obtains the perturbed gradient Δ̃(t) (lines 16-17);
3. the parameters are updated with the combination of both gradients
   (line 19), so the learned Q-function performs well both on error-free
   hardware and on low-voltage hardware exhibiting bit errors.

In the *offline* mode a fresh random fault realisation is drawn at every
injection, which makes the learned robustness generalise across chips and
voltages.  In the *on-device* mode the injection uses the persistent fault map
of the specific chip the policy will run on, which lets the UAV push to even
lower voltages (Table IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import TrainingError
from repro.envs.navigation import NavigationEnv
from repro.faults.fault_map import FaultMap
from repro.faults.injection import BitErrorInjector, QuantizedMemory
from repro.nn.network import Sequential
from repro.nn.policies import PolicySpec
from repro.rl.dqn import DqnConfig, DqnTrainer
from repro.rl.replay_buffer import Transition
from repro.utils.rng import SeedLike, as_generator


@dataclass(frozen=True)
class BerryConfig:
    """Configuration of the BERRY perturbed training pass.

    ``ber_percent``          — bit-error rate ``p`` used for training-time injection.
    ``injection_mode``       — ``"offline"`` (fresh random map each step) or
                               ``"on_device"`` (one persistent chip map).
    ``gradient_combination`` — ``"mean"`` (the text's "average of the perturbed
                               and unperturbed gradients") or ``"sum"`` (the
                               literal line 19 of Algorithm 1).
    ``perturb_target``       — whether θ⁻ is also perturbed (line 16); the paper
                               injects errors into both networks.
    ``weight_clip``          — symmetric clipping range applied to θ after every
                               update.  Weight clipping is a standard ingredient
                               of bit-error-robust training (Stutz et al.,
                               MLSys'21, which provides the profiled chips the
                               paper reuses): it bounds the per-layer
                               quantization scale, so a flipped high-order bit
                               perturbs the weight by far less.  ``None``
                               disables clipping.
    """

    ber_percent: float = 0.5
    injection_mode: str = "offline"
    gradient_combination: str = "mean"
    perturb_target: bool = True
    stuck_at_1_bias: float = 0.5
    weight_clip: Optional[float] = 0.5

    def __post_init__(self) -> None:
        if self.ber_percent < 0 or self.ber_percent > 100:
            raise TrainingError(f"ber_percent must be in [0, 100], got {self.ber_percent}")
        if self.injection_mode not in ("offline", "on_device"):
            raise TrainingError(
                f"injection_mode must be 'offline' or 'on_device', got {self.injection_mode!r}"
            )
        if self.gradient_combination not in ("mean", "sum"):
            raise TrainingError(
                f"gradient_combination must be 'mean' or 'sum', got {self.gradient_combination!r}"
            )
        if not 0.0 <= self.stuck_at_1_bias <= 1.0:
            raise TrainingError(f"stuck_at_1_bias must be in [0, 1], got {self.stuck_at_1_bias}")
        if self.weight_clip is not None and self.weight_clip <= 0:
            raise TrainingError(f"weight_clip must be positive or None, got {self.weight_clip}")

    @property
    def ber_fraction(self) -> float:
        return self.ber_percent / 100.0


class BerryTrainer(DqnTrainer):
    """Bit-error robust DQN trainer (Algorithm 1).

    BERRY only overrides the *learning* half of the loop
    (:meth:`accumulate_gradients` / :meth:`learn_on_batch`); experience
    collection is inherited, so the lockstep batched collector of
    :meth:`~repro.rl.dqn.DqnTrainer.train` composes unchanged — the perturbed
    pass fires once per gradient step on the global-counter cadence whatever
    ``config.train_lanes`` is, and ``train_lanes=1`` reproduces the serial
    BERRY trainer bitwise (fault-map stream included).
    """

    def __init__(
        self,
        env: NavigationEnv,
        policy_spec: Optional[PolicySpec] = None,
        config: DqnConfig = DqnConfig(),
        berry: BerryConfig = BerryConfig(),
        device_fault_map: Optional[FaultMap] = None,
        rng: SeedLike = 0,
    ) -> None:
        super().__init__(env, policy_spec=policy_spec, config=config, rng=rng)
        self.berry = berry
        self.injector = BitErrorInjector.for_network(self.q_network)
        self._fault_rng = as_generator(self._rng.integers(0, 2**31 - 1))
        if berry.injection_mode == "on_device":
            if device_fault_map is None:
                device_fault_map = FaultMap.random(
                    self.injector.memory_bits,
                    berry.ber_fraction,
                    rng=self._fault_rng,
                    stuck_at_1_bias=berry.stuck_at_1_bias,
                    label="on-device-chip",
                )
            if device_fault_map.memory_bits < self.injector.memory_bits:
                raise TrainingError(
                    "device fault map does not cover the policy parameter memory"
                )
        elif device_fault_map is not None:
            raise TrainingError("device_fault_map is only meaningful in 'on_device' mode")
        self.device_fault_map = device_fault_map
        #: Number of perturbed passes executed (equals the number of gradient steps).
        self.num_injections = 0
        # θ̃ and θ̃⁻ live in two networks made once; every perturbed pass
        # overwrites their parameters.
        self._perturbed_q = self.q_network.clone()
        self._perturbed_target = self.target_network.clone() if berry.perturb_target else None
        # θ⁻'s codes and the flat values they encode (see _target_codes).
        self._target_memory: Optional[QuantizedMemory] = None
        self._target_values: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ fault sampling
    def sample_fault_map(self) -> FaultMap:
        """The fault realisation used for the next perturbed pass."""
        if self.berry.injection_mode == "on_device":
            assert self.device_fault_map is not None
            return self.device_fault_map
        return FaultMap.random(
            self.injector.memory_bits,
            self.berry.ber_fraction,
            rng=self._fault_rng,
            stuck_at_1_bias=self.berry.stuck_at_1_bias,
            label="offline-injection",
        )

    # ------------------------------------------------------------------ Algorithm 1 core
    def accumulate_gradients(self, batch: Transition) -> float:
        """Clean pass + bit-error-perturbed pass, gradients combined into θ."""
        # Clean pass (lines 12-13): gradients accumulate directly in q_network.
        clean_targets = self.compute_td_targets(batch, self.target_network)
        clean_loss = self.td_loss_and_backward(self.q_network, batch, clean_targets)

        if self.berry.ber_percent == 0.0:
            # Degenerates to classical DQN; nothing to inject.
            return clean_loss

        # Perturbed pass (lines 15-17): BErr_p on θ and θ⁻, straight-through gradient.
        fault_map = self.sample_fault_map()
        injector = self.injector
        perturbed_q = self._perturbed_q
        perturbed_q.load_state_dict(
            injector.perturb_state_dict(self.q_network.state_dict(), fault_map)
        )
        if self.berry.perturb_target:
            perturbed_target = self._perturbed_target
            perturbed_target.load_state_dict(
                injector.perturb_quantized_state(self._target_codes(), fault_map)
            )
        else:
            perturbed_target = self.target_network
        perturbed_targets = self.compute_td_targets(batch, perturbed_target)
        perturbed_q.zero_grad()
        perturbed_loss = self.td_loss_and_backward(perturbed_q, batch, perturbed_targets)
        self.num_injections += 1

        # Combine gradients (line 19).  The perturbed gradient is computed with
        # respect to θ̃; the straight-through estimator uses it as the gradient
        # with respect to θ (quantization + bit errors have no useful gradient).
        # Both networks share one architecture, so their parameters pair up in
        # order; θ̃'s gradient buffer is scratch and is scaled in place.
        scale = 0.5 if self.berry.gradient_combination == "mean" else 1.0
        backend = self.backend
        for parameter, perturbed in zip(self.q_network.parameters(), perturbed_q.parameters()):
            backend.multiply(parameter.grad, scale, out=parameter.grad)
            backend.multiply(perturbed.grad, scale, out=perturbed.grad)
            backend.add(parameter.grad, perturbed.grad, out=parameter.grad)
        return 0.5 * (clean_loss + perturbed_loss)

    def _target_codes(self) -> QuantizedMemory:
        """θ⁻'s quantized memory, re-quantized only when θ⁻'s values change.

        θ⁻ changes at ``sync_target_network``, but also through anything else
        that writes it (``load_state_dict``, a warm start), so the codes are
        checked against θ⁻'s current values, not against one call site.
        Values that compare equal quantize to equal codes (±0 included).
        """
        state = self.target_network.state_dict()
        values = self.injector.layout.flatten(state)
        if self._target_memory is None or not np.array_equal(values, self._target_values):
            self._target_memory = self.injector.quantize_state(state)
            self._target_values = values
        return self._target_memory

    def learn_on_batch(self, batch: Transition) -> float:
        """One optimizer update, followed by the robust-training weight clip."""
        loss_value = super().learn_on_batch(batch)
        if self.berry.weight_clip is not None:
            clip = self.berry.weight_clip
            for parameter in self.q_network.parameters():
                self.backend.clip(parameter.data, -clip, clip, out=parameter.data)
        return loss_value

    # ------------------------------------------------------------------ deployment views
    def deployed_state_dict(self, fault_map: Optional[FaultMap] = None) -> Dict[str, np.ndarray]:
        """The parameters as seen by the deployed low-voltage accelerator.

        Without a fault map this is the quantize/dequantize round trip; with a
        fault map it is the corrupted view on that specific chip.
        """
        state = self.q_network.state_dict()
        if fault_map is None:
            return self.injector.quantize_only(state)
        return self.injector.perturb_state_dict(state, fault_map)

    def deployed_network(self, fault_map: Optional[FaultMap] = None) -> Sequential:
        """A cloned Q-network loaded with the deployed (possibly corrupted) parameters."""
        clone = self.q_network.clone()
        clone.load_state_dict(self.deployed_state_dict(fault_map))
        return clone

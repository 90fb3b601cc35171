"""Per-inference latency, energy and power for a policy network on the accelerator.

This ties the systolic-array timing model, the energy model and the DVFS model
together into the numbers the system-level evaluation needs:

* processing energy per inference (and per training step) at any voltage,
* the "operating energy savings" factor relative to the 1 V nominal supply
  (Table II's ``Energy Savings`` column),
* the average processing power when the policy is executed at the UAV's
  control rate, which feeds the compute-power share of the flight-power model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.hardware.dvfs import VoltageScaling
from repro.hardware.energy import EnergyModel
from repro.hardware.systolic import SystolicArrayConfig, SystolicArrayModel
from repro.nn.network import Sequential


@dataclass(frozen=True)
class InferenceCost:
    """Latency and energy of one forward pass at one operating point."""

    volts: float
    normalized_voltage: float
    frequency_mhz: float
    cycles: int
    latency_ms: float
    energy_joules: float
    breakdown_joules: Dict[str, float]

    @property
    def energy_millijoules(self) -> float:
        return self.energy_joules * 1e3


class AcceleratorModel:
    """End-to-end accelerator cost model for a fixed policy network."""

    #: A backward pass through a feed-forward network costs roughly twice the
    #: forward pass (gradient wrt activations and wrt weights); one training
    #: step therefore costs about 3x one inference, for both Q and target nets.
    TRAINING_STEP_INFERENCE_EQUIVALENTS = 4.0

    def __init__(
        self,
        network: Sequential,
        input_shape: Tuple[int, ...],
        array: SystolicArrayConfig = SystolicArrayConfig(),
        energy: EnergyModel = EnergyModel(),
        scaling: Optional[VoltageScaling] = None,
        control_rate_hz: float = 30.0,
    ) -> None:
        if control_rate_hz <= 0:
            raise ConfigurationError(f"control_rate_hz must be positive, got {control_rate_hz}")
        self.network = network
        self.input_shape = tuple(int(dim) for dim in input_shape)
        self.array_model = SystolicArrayModel(array)
        self.energy_model = energy
        self.scaling = scaling if scaling is not None else energy.scaling
        self.control_rate_hz = float(control_rate_hz)
        self._layer_costs = self.array_model.network_costs(network, self.input_shape)
        self._total_cycles = sum(cost.cycles for cost in self._layer_costs)

    # ------------------------------------------------------------------ raw counts
    @property
    def total_cycles(self) -> int:
        return self._total_cycles

    @property
    def total_macs(self) -> int:
        return sum(cost.macs for cost in self._layer_costs)

    # ------------------------------------------------------------------ per-inference cost
    def inference_cost(self, normalized_voltage: float) -> InferenceCost:
        """Latency and energy of one policy inference at ``V/Vmin``."""
        volts = self.scaling.to_volts(normalized_voltage)
        frequency_mhz = self.scaling.frequency_mhz(volts)
        latency_s = self._total_cycles / (frequency_mhz * 1e6)
        breakdown = {"compute": 0.0, "sram": 0.0, "dram": 0.0}
        for cost in self._layer_costs:
            for key, value in self.energy_model.breakdown_joules(cost, volts).items():
                breakdown[key] += value
        dynamic = sum(breakdown.values())
        leakage = self.energy_model.leakage_energy_joules(latency_s, volts)
        breakdown["leakage"] = leakage
        return InferenceCost(
            volts=volts,
            normalized_voltage=normalized_voltage,
            frequency_mhz=frequency_mhz,
            cycles=self._total_cycles,
            latency_ms=latency_s * 1e3,
            energy_joules=dynamic + leakage,
            breakdown_joules=breakdown,
        )

    def inference_energy_joules(self, normalized_voltage: float) -> float:
        return self.inference_cost(normalized_voltage).energy_joules

    def training_step_energy_joules(self, normalized_voltage: float) -> float:
        """Energy of one on-device DQN training step (forward + backward, Q and target nets)."""
        return (
            self.inference_energy_joules(normalized_voltage)
            * self.TRAINING_STEP_INFERENCE_EQUIVALENTS
        )

    # ------------------------------------------------------------------ derived metrics
    def energy_savings(self, normalized_voltage: float) -> float:
        """Operating-energy saving factor vs nominal 1 V (the paper's "2.77x ... 4.93x")."""
        volts = self.scaling.to_volts(normalized_voltage)
        return self.scaling.energy_savings(volts)

    def processing_power_w(self, normalized_voltage: float) -> float:
        """Average processing power when running the policy at the control rate."""
        return self.inference_energy_joules(normalized_voltage) * self.control_rate_hz

    def sweep(self, normalized_voltages) -> list[InferenceCost]:
        """Evaluate the cost model across a voltage sweep."""
        return [self.inference_cost(float(v)) for v in normalized_voltages]

"""Low-voltage SRAM bit-error models: BER curves, fault maps, injection.

This package models the physical substrate of the paper's problem: when the
accelerator's supply voltage drops below the safe minimum ``Vmin``, individual
SRAM bit cells holding the quantized policy parameters fail persistently.
The failure locations are random but fixed per chip/voltage, and both 0->1 and
1->0 corruptions occur.

* :mod:`repro.faults.ber_model`   — voltage -> bit-error-rate calibration (Fig. 2 / Table II)
* :mod:`repro.faults.sram`        — SRAM array geometry and bit-cell addressing
* :mod:`repro.faults.fault_map`   — persistent fault maps (random / column-aligned patterns)
* :mod:`repro.faults.injection`   — 8-bit fixed-point quantization of a network into one
  flat word memory, and the ``BErr_p`` operator on that memory
* :mod:`repro.faults.chips`       — profiled chips used in Table III
"""

from repro.faults.ber_model import VoltageBerModel, DEFAULT_BER_MODEL
from repro.faults.sram import SramGeometry
from repro.faults.fault_map import FaultKind, FaultMap
from repro.faults.injection import BitErrorInjector, MemoryLayout, QuantizedMemory
from repro.faults.chips import ChipProfile, CHIP_RANDOM, CHIP_COLUMN_ALIGNED, get_chip

__all__ = [
    "VoltageBerModel",
    "DEFAULT_BER_MODEL",
    "SramGeometry",
    "FaultKind",
    "FaultMap",
    "BitErrorInjector",
    "MemoryLayout",
    "QuantizedMemory",
    "ChipProfile",
    "CHIP_RANDOM",
    "CHIP_COLUMN_ALIGNED",
    "get_chip",
]

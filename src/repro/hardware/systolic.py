"""SCALE-Sim-style analytical cost model for a systolic-array accelerator.

The paper assumes a systolic-array accelerator with on-chip SRAM for weights
and activations and uses SCALE-Sim to obtain per-layer cycle counts.  This
module reproduces the analytical output-stationary timing model: each layer is
lowered to a GEMM, tiled onto the PE array, and each tile costs the reduction
length plus the array fill/drain latency.  The same lowering also yields the
SRAM/DRAM access counts that the energy model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ConfigurationError, ShapeError
from repro.nn.layers import Conv2d, Linear
from repro.nn.network import Sequential


@dataclass(frozen=True)
class SystolicArrayConfig:
    """Physical configuration of the PE array and its on-chip memories."""

    rows: int = 16
    columns: int = 16
    dataflow: str = "os"  # output-stationary; "ws" (weight-stationary) also supported
    ifmap_sram_kib: int = 64
    filter_sram_kib: int = 128
    ofmap_sram_kib: int = 64

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.columns <= 0:
            raise ConfigurationError("systolic array dimensions must be positive")
        if self.dataflow not in ("os", "ws"):
            raise ConfigurationError(f"unsupported dataflow {self.dataflow!r}; use 'os' or 'ws'")
        if min(self.ifmap_sram_kib, self.filter_sram_kib, self.ofmap_sram_kib) <= 0:
            raise ConfigurationError("SRAM sizes must be positive")

    @property
    def num_pes(self) -> int:
        return self.rows * self.columns


@dataclass(frozen=True)
class LayerCost:
    """Cycle and access counts for one layer of a policy network."""

    name: str
    kind: str
    macs: int
    cycles: int
    ifmap_sram_reads: int
    filter_sram_reads: int
    ofmap_sram_writes: int
    dram_accesses: int

    @property
    def utilization(self) -> float:
        """Fraction of peak MAC throughput achieved (macs / (cycles * PEs) is computed upstream)."""
        return self.macs / max(self.cycles, 1)


@dataclass(frozen=True)
class GemmDims:
    """GEMM lowering of a layer: M output pixels x N filters, reduced over K."""

    m: int
    n: int
    k: int

    @property
    def macs(self) -> int:
        return self.m * self.n * self.k


def _lower_to_gemm(layer, input_shape: Tuple[int, ...]) -> Tuple[GemmDims, Tuple[int, ...]]:
    """Lower a Conv2d/Linear layer to GEMM dimensions; return dims and output shape."""
    if isinstance(layer, Conv2d):
        output_shape = layer.output_shape(input_shape)
        out_channels, out_h, out_w = output_shape
        dims = GemmDims(
            m=out_h * out_w,
            n=out_channels,
            k=layer.in_channels * layer.kernel_size * layer.kernel_size,
        )
        return dims, output_shape
    if isinstance(layer, Linear):
        output_shape = layer.output_shape(input_shape)
        dims = GemmDims(m=1, n=layer.out_features, k=layer.in_features)
        return dims, output_shape
    raise ShapeError(f"layer {layer!r} cannot be lowered to a GEMM")


class SystolicArrayModel:
    """Analytical timing/access model for running a policy network on the array."""

    def __init__(self, config: SystolicArrayConfig = SystolicArrayConfig()) -> None:
        self.config = config

    # ------------------------------------------------------------------ per-GEMM model
    def gemm_cycles(self, dims: GemmDims) -> int:
        """Cycles to execute one GEMM with the configured dataflow."""
        rows, cols = self.config.rows, self.config.columns
        if self.config.dataflow == "os":
            # Output-stationary: each tile of (rows x cols) outputs accumulates over K,
            # with a fill/drain latency of (rows + cols - 2) cycles per tile.
            row_tiles = -(-dims.m // rows)
            col_tiles = -(-dims.n // cols)
            cycles_per_tile = dims.k + rows + cols - 2
            return row_tiles * col_tiles * cycles_per_tile
        # Weight-stationary: weights for a (rows x cols) tile are pinned; inputs stream
        # through for M cycles per tile with a fill latency of rows.
        row_tiles = -(-dims.k // rows)
        col_tiles = -(-dims.n // cols)
        cycles_per_tile = dims.m + rows - 1
        return row_tiles * col_tiles * cycles_per_tile

    def gemm_accesses(self, dims: GemmDims) -> Tuple[int, int, int, int]:
        """(ifmap reads, filter reads, ofmap writes, dram accesses) for one GEMM."""
        rows, cols = self.config.rows, self.config.columns
        row_tiles = -(-dims.m // rows)
        col_tiles = -(-dims.n // cols)
        # Every element of the input patch matrix is read once per column tile, and
        # every filter element once per row tile (simple double-buffered reuse model).
        ifmap_reads = dims.m * dims.k * col_tiles
        filter_reads = dims.n * dims.k * row_tiles
        ofmap_writes = dims.m * dims.n
        # DRAM traffic: one read per unique ifmap/filter element plus one write per output.
        dram = dims.m * dims.k + dims.n * dims.k + dims.m * dims.n
        return ifmap_reads, filter_reads, ofmap_writes, dram

    # ------------------------------------------------------------------ whole-network model
    def network_costs(self, network: Sequential, input_shape: Tuple[int, ...]) -> List[LayerCost]:
        """Per-layer costs for one inference of ``network`` on a single observation."""
        costs: List[LayerCost] = []
        shape = tuple(int(dim) for dim in input_shape)
        for layer in network.layers:
            if isinstance(layer, (Conv2d, Linear)):
                dims, out_shape = _lower_to_gemm(layer, shape)
                cycles = self.gemm_cycles(dims)
                ifmap, filt, ofmap, dram = self.gemm_accesses(dims)
                costs.append(
                    LayerCost(
                        name=layer.name,
                        kind=layer.kind,
                        macs=dims.macs,
                        cycles=cycles,
                        ifmap_sram_reads=ifmap,
                        filter_sram_reads=filt,
                        ofmap_sram_writes=ofmap,
                        dram_accesses=dram,
                    )
                )
                shape = out_shape
            else:
                shape = layer.output_shape(shape)
        if not costs:
            raise ShapeError("network contains no Conv2d or Linear layers to model")
        return costs

    def total_cycles(self, network: Sequential, input_shape: Tuple[int, ...]) -> int:
        return sum(cost.cycles for cost in self.network_costs(network, input_shape))

    def total_macs(self, network: Sequential, input_shape: Tuple[int, ...]) -> int:
        return sum(cost.macs for cost in self.network_costs(network, input_shape))

    def average_utilization(self, network: Sequential, input_shape: Tuple[int, ...]) -> float:
        """MAC utilization of the PE array across the whole network."""
        costs = self.network_costs(network, input_shape)
        total_macs = sum(cost.macs for cost in costs)
        total_capacity = sum(cost.cycles for cost in costs) * self.config.num_pes
        return total_macs / max(total_capacity, 1)

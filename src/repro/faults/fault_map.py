"""Persistent fault maps over a weight memory.

A fault map records which bit cells of the on-chip weight SRAM are faulty at a
given operating voltage, and how each faulty cell misbehaves.  Low-voltage
failures are *persistent*: the same cells fail on every read/write at that
voltage, so a map is sampled once (per chip, per voltage) and then applied to
every parameter access.  Both 0->1 and 1->0 corruptions occur; following the
memory-characterisation literature the default model makes each faulty cell
stuck at a random value, which produces both flip directions depending on the
data stored.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import FaultModelError
from repro.faults.sram import SramGeometry
from repro.nn.backend import ArrayBackend, NUMPY_BACKEND
from repro.utils.rng import SeedLike, as_generator, choice_without_replacement


class FaultKind(enum.IntEnum):
    """How a faulty bit cell corrupts the stored value."""

    FLIP = 0      #: the stored bit is inverted
    STUCK_AT_0 = 1  #: the cell always reads 0
    STUCK_AT_1 = 2  #: the cell always reads 1


@dataclass
class FaultMap:
    """A set of faulty bit cells over a memory of ``memory_bits`` cells."""

    memory_bits: int
    indices: np.ndarray
    kinds: np.ndarray
    label: str = "fault-map"
    metadata: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.kinds = np.asarray(self.kinds, dtype=np.int8)
        if self.memory_bits <= 0:
            raise FaultModelError(f"memory_bits must be positive, got {self.memory_bits}")
        if self.indices.shape != self.kinds.shape:
            raise FaultModelError("indices and kinds must have identical shapes")
        if self.indices.size:
            ordered = np.sort(self.indices, axis=None)
            if ordered[0] < 0 or ordered[-1] >= self.memory_bits:
                raise FaultModelError("fault indices must lie inside the memory")
            if (ordered[1:] == ordered[:-1]).any():
                raise FaultModelError("fault indices must be unique")
            # FaultKind values are 0..N-1, so one unsigned compare finds any other.
            if (self.kinds.view(np.uint8) >= len(FaultKind)).any():
                valid_kinds = sorted(int(kind) for kind in FaultKind)
                raise FaultModelError(f"kinds must be valid FaultKind values {valid_kinds}")

    # ------------------------------------------------------------------ statistics
    @property
    def num_faults(self) -> int:
        return int(self.indices.size)

    @property
    def ber_fraction(self) -> float:
        """Realised bit-error rate (fraction of cells faulty)."""
        return self.num_faults / self.memory_bits

    @property
    def ber_percent(self) -> float:
        return 100.0 * self.ber_fraction

    def kind_counts(self) -> Dict[FaultKind, int]:
        counts = {kind: 0 for kind in FaultKind}
        for kind in FaultKind:
            counts[kind] = int(np.count_nonzero(self.kinds == int(kind)))
        return counts

    # ------------------------------------------------------------------ constructors
    @classmethod
    def empty(cls, memory_bits: int, label: str = "error-free") -> "FaultMap":
        return cls(
            memory_bits=memory_bits,
            indices=np.empty(0, dtype=np.int64),
            kinds=np.empty(0, dtype=np.int8),
            label=label,
        )

    @classmethod
    def random(
        cls,
        memory_bits: int,
        ber_fraction: float,
        rng: SeedLike = None,
        stuck_at_1_bias: float = 0.5,
        flip_fraction: float = 0.0,
        label: str = "random",
    ) -> "FaultMap":
        """Uniformly random spatial fault pattern (the paper's default, Chip 1).

        ``stuck_at_1_bias`` is the probability that a (non-flip) faulty cell is
        stuck at 1 rather than 0; ``flip_fraction`` optionally makes a portion
        of the faulty cells behave as inverters instead of stuck-at cells.
        """
        if not 0.0 <= ber_fraction <= 1.0:
            raise FaultModelError(f"ber_fraction must be in [0, 1], got {ber_fraction}")
        if not 0.0 <= stuck_at_1_bias <= 1.0:
            raise FaultModelError(f"stuck_at_1_bias must be in [0, 1], got {stuck_at_1_bias}")
        if not 0.0 <= flip_fraction <= 1.0:
            raise FaultModelError(f"flip_fraction must be in [0, 1], got {flip_fraction}")
        generator = as_generator(rng)
        num_faults = int(round(ber_fraction * memory_bits))
        num_faults = min(num_faults, memory_bits)
        indices = choice_without_replacement(generator, memory_bits, num_faults)
        kinds = cls._sample_kinds(generator, num_faults, stuck_at_1_bias, flip_fraction)
        return cls(
            memory_bits=memory_bits,
            indices=indices,
            kinds=kinds,
            label=label,
            metadata={"target_ber_fraction": ber_fraction},
        )

    @classmethod
    def column_aligned(
        cls,
        geometry: SramGeometry,
        ber_fraction: float,
        rng: SeedLike = None,
        column_fill: float = 0.6,
        stuck_at_1_bias: float = 0.85,
        label: str = "column-aligned",
    ) -> "FaultMap":
        """Column-aligned fault pattern with a bias towards 0->1 flips (Chip 2).

        Faults cluster in a small set of weak physical columns: whole columns
        are selected until the target error budget is met and ``column_fill``
        of the cells in each selected column are marked faulty.
        """
        if not 0.0 <= ber_fraction <= 1.0:
            raise FaultModelError(f"ber_fraction must be in [0, 1], got {ber_fraction}")
        if not 0.0 < column_fill <= 1.0:
            raise FaultModelError(f"column_fill must be in (0, 1], got {column_fill}")
        generator = as_generator(rng)
        memory_bits = geometry.total_bits
        target_faults = int(round(ber_fraction * memory_bits))
        faults_per_column = max(1, int(round(column_fill * geometry.rows)))
        num_columns = min(
            geometry.banks * geometry.columns,
            max(0, -(-target_faults // faults_per_column)),  # ceil division
        )
        total_columns = geometry.banks * geometry.columns
        chosen_columns = choice_without_replacement(generator, total_columns, num_columns)
        indices: List[np.ndarray] = []
        remaining = target_faults
        for flat_column in chosen_columns:
            bank = int(flat_column // geometry.columns)
            column = int(flat_column % geometry.columns)
            cells = geometry.column_cells(bank, column)
            take = min(faults_per_column, remaining)
            picked = generator.permutation(cells)[:take]
            indices.append(picked)
            remaining -= take
            if remaining <= 0:
                break
        flat_indices = (
            np.unique(np.concatenate(indices)) if indices else np.empty(0, dtype=np.int64)
        )
        kinds = cls._sample_kinds(generator, flat_indices.size, stuck_at_1_bias, 0.0)
        return cls(
            memory_bits=memory_bits,
            indices=flat_indices,
            kinds=kinds,
            label=label,
            metadata={"target_ber_fraction": ber_fraction, "column_fill": column_fill},
        )

    @staticmethod
    def _sample_kinds(
        generator: np.random.Generator, count: int, stuck_at_1_bias: float, flip_fraction: float
    ) -> np.ndarray:
        kinds = np.empty(count, dtype=np.int8)
        draws = generator.random(count)
        flip_mask = draws < flip_fraction
        stuck_draws = generator.random(count)
        kinds[:] = np.where(
            stuck_draws < stuck_at_1_bias, int(FaultKind.STUCK_AT_1), int(FaultKind.STUCK_AT_0)
        )
        kinds[flip_mask] = int(FaultKind.FLIP)
        return kinds

    # ------------------------------------------------------------------ application
    def apply_to_words(
        self,
        words: np.ndarray,
        bits_per_word: int,
        bit_offset: int = 0,
        backend: Optional[ArrayBackend] = None,
    ) -> np.ndarray:
        """Corrupt a flat array of unsigned words stored at ``bit_offset`` in the memory.

        ``words`` is a flat array of unsigned integers, each occupying
        ``bits_per_word`` consecutive bit cells (LSB first).  Returns a
        corrupted copy (a ``backend`` array; numpy by default); the input is
        not modified.  Fault-cell selection stays on numpy (the map itself is
        numpy and tiny); only the word-array copy and the scatter application
        run on the backend.
        """
        if bits_per_word <= 0:
            raise FaultModelError(f"bits_per_word must be positive, got {bits_per_word}")
        be = backend if backend is not None else NUMPY_BACKEND
        words = be.array(words, "int64")
        total_bits = be.numel(words) * bits_per_word
        if bit_offset < 0 or bit_offset + total_bits > self.memory_bits:
            raise FaultModelError(
                f"word range [{bit_offset}, {bit_offset + total_bits}) does not fit in "
                f"memory of {self.memory_bits} bits"
            )
        if self.num_faults == 0 or be.numel(words) == 0:
            return words
        in_range = (self.indices >= bit_offset) & (self.indices < bit_offset + total_bits)
        if not in_range.any():
            return words
        local = self.indices[in_range] - bit_offset
        kinds = self.kinds[in_range]
        word_index, bit_position = np.divmod(local, bits_per_word)
        masks = np.int64(1) << bit_position

        flip = kinds == int(FaultKind.FLIP)
        stuck0 = kinds == int(FaultKind.STUCK_AT_0)
        stuck1 = kinds == int(FaultKind.STUCK_AT_1)
        # The *_at scatter ops handle several faults landing in the same word.
        if flip.any():
            be.bitwise_xor_at(words, be.from_numpy(word_index[flip]), be.from_numpy(masks[flip]))
        if stuck0.any():
            be.bitwise_and_at(
                words, be.from_numpy(word_index[stuck0]), be.from_numpy(~masks[stuck0])
            )
        if stuck1.any():
            be.bitwise_or_at(words, be.from_numpy(word_index[stuck1]), be.from_numpy(masks[stuck1]))
        return words

    def restrict(self, bit_offset: int, num_bits: int) -> "FaultMap":
        """The sub-map covering ``[bit_offset, bit_offset + num_bits)``, re-based to 0."""
        if bit_offset < 0 or num_bits < 0 or bit_offset + num_bits > self.memory_bits:
            raise FaultModelError("restrict range must lie inside the memory")
        mask = (self.indices >= bit_offset) & (self.indices < bit_offset + num_bits)
        return FaultMap(
            memory_bits=max(num_bits, 1),
            indices=self.indices[mask] - bit_offset,
            kinds=self.kinds[mask],
            label=f"{self.label}[{bit_offset}:{bit_offset + num_bits}]",
            metadata=dict(self.metadata),
        )


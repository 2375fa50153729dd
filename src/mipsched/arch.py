"""Target accelerator description: memory hierarchy and relation matrices.

Two constant binary matrices tie the loop nest to the hardware.  Matrix A
relates loop dimensions to data tensors (which dimensions size a tensor's
tile); matrix B relates memory levels to tensors (which buffer may hold
what).  Levels are ordered innermost first; exactly one level is the NoC
boundary where traffic between the shared buffer and the PE array is
accounted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .workload import NUM_DIMS

TENSOR_NAMES = ("W", "IA", "OA")
NUM_TENSORS = len(TENSOR_NAMES)

W, IA, OA = 0, 1, 2


@dataclass(frozen=True)
class TensorDimMatrix:
    """7x3 binary relation: dimension j contributes to tensor v's tile."""

    rows: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if len(self.rows) != NUM_DIMS:
            raise ValueError(f"need {NUM_DIMS} rows, got {len(self.rows)}")
        for row in self.rows:
            if len(row) != NUM_TENSORS or any(x not in (0, 1) for x in row):
                raise ValueError(f"bad row {row}; entries must be 0/1 triples")

    def __getitem__(self, j: int) -> tuple[int, int, int]:
        return self.rows[j]

    def related(self, j: int, v: int) -> bool:
        return self.rows[j][v] == 1

    def dims_of(self, v: int) -> tuple[int, ...]:
        return self._dims[v]

    @cached_property
    def _dims(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(j for j in range(NUM_DIMS) if self.rows[j][v]) for v in range(NUM_TENSORS)
        )


@dataclass(frozen=True)
class MemTensorMatrix:
    """HxN binary relation: memory level I may store tensor v."""

    rows: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != NUM_TENSORS or any(x not in (0, 1) for x in row):
                raise ValueError(f"bad row {row}; entries must be 0/1 triples")

    def __getitem__(self, level: int) -> tuple[int, int, int]:
        return self.rows[level]

    def stores(self, level: int, v: int) -> bool:
        return self.rows[level][v] == 1

    @property
    def num_levels(self) -> int:
        return len(self.rows)


# Dimension-to-tensor relation: R,S,C,K size weights; P,Q,C,N size input
# activations; P,Q,K,N size output activations.
DEFAULT_A = TensorDimMatrix(
    rows=(
        (1, 0, 0),  # R
        (1, 0, 0),  # S
        (0, 1, 1),  # P
        (0, 1, 1),  # Q
        (1, 1, 0),  # C
        (1, 0, 1),  # K
        (0, 1, 1),  # N
    )
)

# Level-to-tensor relation for the six-level baseline hierarchy.
SIMBA_B = MemTensorMatrix(
    rows=(
        (1, 1, 1),  # Register
        (0, 0, 1),  # AccumBuf
        (1, 0, 0),  # WeightBuf
        (0, 1, 0),  # InputBuf
        (1, 1, 0),  # GlobalBuf
        (1, 1, 1),  # DRAM
    )
)

UNBOUNDED = math.inf


@dataclass(frozen=True)
class MemLevel:
    """One memory level: per-tensor capacities, spatial fanout, NoC flag.

    ``capacity_bytes[v]`` is the slice available to tensor v (``inf`` =
    unbounded, mandatory at the outermost level).  ``spatial_fanout`` > 1
    means loops may be bound to parallel resources at this level.
    ``allowed_spatial_dims`` optionally restricts which dimensions may map
    spatially here (None = all).
    """

    name: str
    capacity_bytes: tuple[float, float, float]
    spatial_fanout: int = 1
    is_noc_boundary: bool = False
    allowed_spatial_dims: frozenset[int] | None = None

    def __post_init__(self):
        if self.spatial_fanout < 1:
            raise ValueError(f"{self.name}: fanout must be >= 1")
        if len(self.capacity_bytes) != NUM_TENSORS:
            raise ValueError(f"{self.name}: need one capacity per tensor")

    def spatial_allowed(self, j: int) -> bool:
        if self.spatial_fanout <= 1:
            return False
        return self.allowed_spatial_dims is None or j in self.allowed_spatial_dims


@dataclass(frozen=True)
class ArchSpec:
    """Full accelerator description consumed by the formulation."""

    levels: tuple[MemLevel, ...]
    A: TensorDimMatrix = DEFAULT_A
    B: MemTensorMatrix = SIMBA_B
    precision_bytes: tuple[int, int, int] = (1, 1, 3)
    noc_bandwidth: float = 8.0
    name: str = "arch"

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @cached_property
    def noc_level(self) -> int:
        """Index of the NoC boundary level; computed on first use, so an
        arch without one still constructs and `validate_arch` reports it."""
        for i, lvl in enumerate(self.levels):
            if lvl.is_noc_boundary:
                return i
        raise ValueError("no NoC boundary level marked")

    def capacity_elements(self, level: int, v: int) -> float:
        """Capacity of (level, tensor) in elements; inf if unbounded."""
        cap = self.levels[level].capacity_bytes[v]
        if math.isinf(cap):
            return UNBOUNDED
        return cap // self.precision_bytes[v]

    @cached_property
    def on_chip_pairs(self) -> tuple[tuple[int, int], ...]:
        """(level, tensor) pairs below the outermost level with B = 1;
        computed once per arch."""
        return tuple(
            (i, v)
            for i in range(self.num_levels - 1)
            for v in range(NUM_TENSORS)
            if self.B.stores(i, v)
        )

    @cached_property
    def finite_capacities(self) -> tuple[tuple[int, int, int], ...]:
        """(level, tensor, capacity in elements) for every on-chip pair
        whose capacity is finite; computed once per arch."""
        out = []
        for i, v in self.on_chip_pairs:
            cap = self.capacity_elements(i, v)
            if not math.isinf(cap):
                out.append((i, v, int(cap)))
        return tuple(out)


def log2_capacity(arch: ArchSpec, level: int, v: int) -> float:
    """log2 of the element capacity of (level, tensor); inf if unbounded.

    Precision is folded in here (bytes -> elements) so utilization sums
    stay directly comparable across tensors.
    """
    if not arch.B.stores(level, v):
        raise ValueError(
            f"tensor {TENSOR_NAMES[v]} is not storable at level "
            f"{arch.levels[level].name}"
        )
    elems = arch.capacity_elements(level, v)
    if math.isinf(elems):
        return UNBOUNDED
    if elems < 1:
        raise ValueError(
            f"{arch.levels[level].name}/{TENSOR_NAMES[v]}: capacity below one element"
        )
    return math.log2(elems)


def default_simba_arch() -> ArchSpec:
    """Baseline 16-PE spatial accelerator with per-PE buffers.

    Register 64 B per tensor with the 64-MAC fanout inside a PE;
    dedicated accumulation (3 KB), weight (32 KB) and input (8 KB)
    buffers per PE; a 128 KB global buffer for weights and inputs at the
    4x4-PE NoC boundary; unbounded DRAM.  Weights and inputs are 8-bit,
    partial sums 24-bit.
    """
    levels = (
        MemLevel("Register", (64, 64, 64), spatial_fanout=64),
        MemLevel("AccumBuf", (0, 0, 3 * 1024)),
        MemLevel("WeightBuf", (32 * 1024, 0, 0)),
        MemLevel("InputBuf", (0, 8 * 1024, 0)),
        MemLevel("GlobalBuf", (128 * 1024, 128 * 1024, 0), spatial_fanout=16, is_noc_boundary=True),
        MemLevel("DRAM", (UNBOUNDED, UNBOUNDED, UNBOUNDED)),
    )
    return ArchSpec(levels=levels, name="simba")


@dataclass(frozen=True)
class Violation:
    """A failed invariant of an arch or a schedule; a capacity violation
    also carries the (level, tensor) indices of the slice `where` names."""

    kind: str
    where: str
    detail: str
    slice: tuple[int, int] | None = None

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.detail}"


def validate_arch(arch: ArchSpec) -> list[Violation]:
    """Check all architecture invariants; returns violations (empty = ok)."""
    if arch.B.num_levels != arch.num_levels:
        return [Violation("level-count-mismatch", arch.name,
                          f"{arch.num_levels} levels but B has {arch.B.num_levels} rows")]
    out: list[Violation] = []
    # level names key the [matrix_b] rows and the schedule files
    for i, lvl in enumerate(arch.levels):
        if any(other.name == lvl.name for other in arch.levels[:i]):
            out.append(Violation("level-name", lvl.name, f"level {i} repeats an earlier name"))

    noc_levels = [i for i, lvl in enumerate(arch.levels) if lvl.is_noc_boundary]
    if len(noc_levels) != 1:
        out.append(Violation("noc-boundary", arch.name,
                             f"expected exactly one NoC boundary, found {len(noc_levels)}"))

    outer = arch.num_levels - 1
    outer_lvl = arch.levels[outer]
    for v, tensor in enumerate(TENSOR_NAMES):
        if not arch.B.stores(outer, v):
            out.append(Violation("backing-store", outer_lvl.name,
                                 f"outermost level must store {tensor}"))
        elif not math.isinf(outer_lvl.capacity_bytes[v]):
            out.append(Violation("backing-store", outer_lvl.name,
                                 f"outermost capacity for {tensor} must be unbounded"))
        if not any(arch.B.stores(i, v) for i in range(outer)):
            out.append(Violation("orphan-tensor", arch.name, f"{tensor} has no on-chip level"))

    for i, lvl in enumerate(arch.levels):
        for v, tensor in enumerate(TENSOR_NAMES):
            if arch.B.stores(i, v) and not lvl.capacity_bytes[v] > 0:
                out.append(Violation("capacity", f"{lvl.name}/{tensor}",
                                     "storable tensor needs positive capacity", (i, v)))

    for v, prec in enumerate(arch.precision_bytes):
        if prec < 1:
            out.append(Violation("precision", TENSOR_NAMES[v], f"precision {prec} < 1 byte"))
    if not arch.noc_bandwidth > 0:  # also flags NaN
        out.append(Violation("bandwidth", arch.name, "NoC bandwidth must be positive"))
    return out

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
TENSOR_INDEX = {name: v for v, name in enumerate(TENSOR_NAMES)}

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
    """Full accelerator description consumed by the formulation.

    ``shared_capacity_bytes`` optionally gives a per-level joint byte
    budget over all tensors stored there; it is enforced only by the
    exact schedule validator (the MIP uses per-tensor slices, which keep
    the log-domain constraints linear).
    """

    levels: tuple[MemLevel, ...]
    A: TensorDimMatrix = DEFAULT_A
    B: MemTensorMatrix = SIMBA_B
    precision_bytes: tuple[int, int, int] = (1, 1, 3)
    noc_bandwidth: float = 8.0
    shared_capacity_bytes: tuple[float | None, ...] = ()
    name: str = "arch"

    def __post_init__(self):
        if not self.shared_capacity_bytes:
            object.__setattr__(self, "shared_capacity_bytes", (None,) * len(self.levels))

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
    def _on_chip_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, v)
            for i in range(self.num_levels - 1)
            for v in range(NUM_TENSORS)
            if self.B.stores(i, v)
        )

    def on_chip_pairs(self) -> tuple[tuple[int, int], ...]:
        """(level, tensor) pairs below the outermost level with B = 1;
        computed once per arch."""
        return self._on_chip_pairs


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
class ArchViolation:
    kind: str
    where: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.detail}"


def validate_arch(arch: ArchSpec) -> list[ArchViolation]:
    """Check all architecture invariants; returns violations (empty = ok)."""
    out: list[ArchViolation] = []
    if arch.B.num_levels != arch.num_levels:
        out.append(
            ArchViolation(
                "level-count-mismatch",
                arch.name,
                f"{arch.num_levels} levels but B has {arch.B.num_levels} rows",
            )
        )
        return out

    noc_levels = [i for i, lvl in enumerate(arch.levels) if lvl.is_noc_boundary]
    if len(noc_levels) != 1:
        out.append(
            ArchViolation(
                "noc-boundary",
                arch.name,
                f"expected exactly one NoC boundary, found {len(noc_levels)}",
            )
        )

    outer = arch.num_levels - 1
    for v in range(NUM_TENSORS):
        if not arch.B.stores(outer, v):
            out.append(
                ArchViolation(
                    "backing-store",
                    arch.levels[outer].name,
                    f"outermost level must store {TENSOR_NAMES[v]}",
                )
            )
        elif not math.isinf(arch.levels[outer].capacity_bytes[v]):
            out.append(
                ArchViolation(
                    "backing-store",
                    arch.levels[outer].name,
                    f"outermost capacity for {TENSOR_NAMES[v]} must be unbounded",
                )
            )
        if not any(arch.B.stores(i, v) for i in range(outer)):
            out.append(
                ArchViolation(
                    "orphan-tensor",
                    arch.name,
                    f"{TENSOR_NAMES[v]} has no on-chip level",
                )
            )

    for i, lvl in enumerate(arch.levels):
        for v in range(NUM_TENSORS):
            if arch.B.stores(i, v) and not arch.levels[i].capacity_bytes[v] > 0:
                out.append(
                    ArchViolation(
                        "capacity",
                        f"{lvl.name}/{TENSOR_NAMES[v]}",
                        "storable tensor needs positive capacity",
                    )
                )

    for v, prec in enumerate(arch.precision_bytes):
        if prec < 1:
            out.append(
                ArchViolation("precision", TENSOR_NAMES[v], f"precision {prec} < 1 byte")
            )
    if arch.noc_bandwidth <= 0:
        out.append(ArchViolation("bandwidth", arch.name, "NoC bandwidth must be positive"))
    return out

"""Concrete loop-nest schedules: decoding, validation, rendering, cost.

A schedule lists, per memory level from innermost to outermost, an
ordered sequence of loops (lowest rank innermost).  Solver output
decodes to one loop per prime factor; hand-written schedules may carry
composite bounds, which behave identically in the cost model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from . import costmodel
from .arch import ArchSpec, NUM_TENSORS, TENSOR_NAMES, Violation
from .formulation import SPATIAL, TEMPORAL
from .workload import DIM_INDEX, DIM_NAMES, LayerDims, PrimeFactorization, prime_factors


class MalformedSolutionError(ValueError):
    """The solution does not assign every prime factor exactly once."""


class EncodeError(ValueError):
    """The schedule's loop bounds do not match the factorization."""


@dataclass(frozen=True)
class Loop:
    dim: int  # index into DIM_NAMES
    bound: int
    spatial: bool

    def __post_init__(self):
        if not 0 <= self.dim < len(DIM_NAMES):
            raise ValueError(f"bad dimension index {self.dim}")
        if self.bound < 2:
            raise ValueError(f"loop bound must be >= 2, got {self.bound}")


@dataclass(frozen=True)
class Schedule:
    levels: tuple[tuple[Loop, ...], ...]  # inner -> outer
    level_names: tuple[str, ...]
    layer: LayerDims
    arch_name: str

    def __post_init__(self):
        if len(self.levels) != len(self.level_names):
            raise ValueError("one name per level required")

    @cached_property
    def tiles(self) -> tuple[tuple[int, ...], ...]:
        """Prefix-product table of the loop bounds (`costmodel.tile_table`),
        built on first use."""
        return costmodel.tile_table(self.levels)

    def dim_product(self, j: int) -> int:
        return self.tiles[-1][j]


@dataclass(frozen=True)
class CostReport:
    utilization: tuple[tuple[int | None, ...], ...]  # [level][tensor] elements
    compute_cycles: int
    traffic: tuple[costmodel.TensorTraffic, ...]
    traffic_bytes: int
    latency_cycles: int

    def to_text(self, level_names: tuple[str, ...] | None = None) -> str:
        lines = ["tensor per_transfer link_mult iterations total_elems"]
        for v, t in enumerate(self.traffic):
            lines.append(
                f"{TENSOR_NAMES[v]} {t.per_transfer_elems} {t.link_multiplier} "
                f"{t.iterations} {t.total_elems}"
            )
        lines.append(f"compute_cycles {self.compute_cycles}")
        lines.append(f"traffic_bytes {self.traffic_bytes}")
        lines.append(f"latency_cycles {self.latency_cycles}")
        if level_names:
            for I, row in enumerate(self.utilization):
                cells = " ".join(
                    "-" if x is None else str(x) for x in row
                )
                lines.append(f"tile[{level_names[I]}] {cells}")
        return "\n".join(lines) + "\n"


def decode(x: dict[int, tuple[int, int, int]], pf: PrimeFactorization,
           arch: ArchSpec) -> Schedule:
    """Turn an assignment, factor index -> (level, rank, binding), into a
    loop nest, one loop per factor; each level's loops in rank order, a
    tie by factor order."""
    flat = pf.flat()
    if x is None or len(x) != len(flat):
        raise MalformedSolutionError(
            f"assignment covers {0 if x is None else len(x)} of {len(flat)} factors"
        )
    per_level: list[list[tuple[int, int, Loop]]] = [[] for _ in range(arch.num_levels)]
    for fi, (j, n, prime, _lg) in enumerate(flat):
        try:
            I, z, k = x[fi]
        except KeyError:
            raise MalformedSolutionError(f"factor {DIM_NAMES[j]}{n} unassigned") from None
        per_level[I].append((z, fi, Loop(j, prime, k == SPATIAL)))
    levels = tuple(
        tuple(loop for _z, _fi, loop in sorted(entries)) for entries in per_level
    )
    return Schedule(
        levels=levels,
        level_names=tuple(lvl.name for lvl in arch.levels),
        layer=pf.dims,
        arch_name=arch.name,
    )


def encode(schedule: Schedule, pf: PrimeFactorization) -> dict[int, tuple[int, int, int]]:
    """Inverse of decode: factor assignment implied by a schedule.

    Composite loop bounds are split into their prime parts (ascending,
    innermost first) at consecutive ranks.  Fails if the schedule's
    per-dimension prime multiset differs from the factorization's.
    """
    flat = pf.flat()
    pool: dict[tuple[int, int], list[int]] = {}
    for fi, (j, n, prime, _lg) in enumerate(flat):
        pool.setdefault((j, prime), []).append(fi)

    assign: dict[int, tuple[int, int, int]] = {}
    for I, loops in enumerate(schedule.levels):
        z = 0
        for loop in loops:
            for prime in prime_factors(loop.bound):
                fis = pool.get((loop.dim, prime))
                if not fis:
                    raise EncodeError(
                        f"no factor {prime} left for dimension {DIM_NAMES[loop.dim]}"
                    )
                fi = fis.pop(0)
                assign[fi] = (I, z, SPATIAL if loop.spatial else TEMPORAL)
                z += 1
    leftover = [fis for fis in pool.values() if fis]
    if leftover:
        raise EncodeError(f"{sum(len(f) for f in leftover)} factors not covered by loops")
    return assign


def validate(schedule: Schedule, arch: ArchSpec, halo: bool = True) -> list[Violation]:
    """Exact integer re-check of every schedule invariant.

    Halo mode (default) sizes input tiles with the stride/kernel window,
    which is stricter than the plain product the linear model uses.
    """
    if len(schedule.levels) != arch.num_levels:
        return [Violation("level-count", schedule.arch_name,
                          f"schedule has {len(schedule.levels)} levels, arch {arch.num_levels}")]

    out: list[Violation] = []
    rows = schedule.tiles
    full = rows[-1]
    for j, bound in enumerate(schedule.layer.as_tuple()):
        prod = full[j]
        if prod < bound:
            out.append(Violation("dimension-underflow", DIM_NAMES[j],
                                 f"loop product {prod} < bound {bound}"))
    spatial = [costmodel.spatial_product(schedule, I) for I in range(arch.num_levels)]
    out += tile_violations(
        rows, spatial, arch, schedule.layer.stride, halo, levels=schedule.levels
    )
    return out


def tile_violations(
    rows, spatial, arch: ArchSpec, stride: int, halo: bool, levels=None
) -> list[Violation]:
    """The checks of `validate` that read only tile rows and spatial
    products: each level's spatial fanout, then each finite per-tensor
    capacity.

    `rows[I]` is level I's row of the prefix-product table
    (`costmodel.tile_table`) and `spatial[I]` its spatial product.  Both
    only grow as loops are added, and so do the plain tiles and the halo
    windows (P_t - 1) * stride + R_t, so a partial assignment that fails
    a check fails it at every completion.  Given the loops per level,
    `levels`, a spatial loop on a dimension its level may not map
    spatially is flagged after that level's fanout, which keeps
    `validate`'s violations in level order.
    """
    out: list[Violation] = []
    for I, lvl in enumerate(arch.levels):
        if spatial[I] > lvl.spatial_fanout:
            out.append(Violation("spatial-overflow", lvl.name,
                                 f"spatial product {spatial[I]} > fanout {lvl.spatial_fanout}"))
        if levels is None:
            continue
        for loop in levels[I]:
            if loop.spatial and not lvl.spatial_allowed(loop.dim):
                out.append(Violation(
                    "spatial-dim", lvl.name,
                    f"dimension {DIM_NAMES[loop.dim]} may not map spatially here"))

    for I, v, cap in arch.finite_capacities:
        tile = costmodel.row_tile(rows[I], arch, v, stride, halo)
        if tile > cap:
            out.append(Violation("capacity", f"{arch.levels[I].name}/{TENSOR_NAMES[v]}",
                                 f"tile {tile} elements > capacity {cap}", (I, v)))
    return out


def live_capacities(arch: ArchSpec, halo: bool, stride: int, full) -> list[tuple[int, int, int]]:
    """The `arch.finite_capacities` that some tile can exceed on the way to
    the row `full`, the whole factorization's products: rows only grow
    towards `full` as loops are placed, and tiles with them, so a capacity
    that the tile of `full` meets is never exceeded."""
    return [
        (I, v, cap) for I, v, cap in arch.finite_capacities
        if costmodel.row_tile(full, arch, v, stride, halo) > cap
    ]


def placement_checks(
    arch: ArchSpec, halo: bool, stride: int, capacities, rows, spatial,
    j: int, level: int, is_spatial: bool,
) -> Callable[[], bool]:
    """The checks of `tile_violations` whose verdict placing a loop on
    dimension j at `level` can change, compiled against a walk's own
    `rows` and `spatial` lists (as `tile_violations` reads them): the
    level's fanout bound if the loop is spatial, and above the level each
    of `capacities` (`live_capacities`) whose tensor's tile reads j
    (`costmodel.tile_dims`), with that level's row and the tensor's
    `costmodel.tile_reader`.  The placement multiplies only row entries j
    above its level and, if spatial, its level's spatial product, so
    every other check keeps its verdict: where all checks passed before
    the placement, the returned function, called after it, says whether
    all pass."""
    fanout = arch.levels[level].spatial_fanout if is_spatial else None
    reads = tuple(
        (rows[I], costmodel.tile_reader(arch, v, stride, halo), cap)
        for I, v, cap in capacities
        if I > level and j in costmodel.tile_dims(arch, v, halo)
    )

    def passes() -> bool:
        if fanout is not None and spatial[level] > fanout:
            return False
        for row, tile, cap in reads:
            if tile(row) > cap:
                return False
        return True

    return passes


def evaluate(schedule: Schedule, arch: ArchSpec) -> CostReport:
    """Analytical cost: tiles, compute cycles, NoC traffic, latency
    (`costmodel.bytes_and_latency`)."""
    rows = schedule.tiles
    stride = schedule.layer.stride
    util = []
    for I in range(arch.num_levels):
        row = []
        for v in range(NUM_TENSORS):
            if arch.B.stores(I, v):
                row.append(costmodel.row_tile(rows[I], arch, v, stride, False))
            else:
                row.append(None)
        util.append(tuple(row))
    cycles = costmodel.compute_cycles(schedule)
    traffic = costmodel.traffic_terms(schedule, arch)
    nbytes, latency = costmodel.bytes_and_latency(
        cycles, [t.total_elems for t in traffic], arch
    )
    return CostReport(
        utilization=tuple(util),
        compute_cycles=cycles,
        traffic=traffic,
        traffic_bytes=nbytes,
        latency_cycles=latency,
    )


def render(schedule: Schedule) -> str:
    """Human-readable nested loop listing; deterministic byte output."""
    dims = schedule.layer.as_tuple()
    padded = [schedule.dim_product(j) > dims[j] for j in range(len(dims))]

    # Tile index per dimension counts loops innermost-first across levels.
    tile_idx: dict[int, int] = {j: 0 for j in range(len(dims))}
    names: dict[tuple[int, int], str] = {}
    for I, loops in enumerate(schedule.levels):
        for pos, loop in enumerate(loops):
            names[(I, pos)] = f"{DIM_NAMES[loop.dim].lower()}{tile_idx[loop.dim]}"
            tile_idx[loop.dim] += 1

    lines = [f"// layer {schedule.layer}", f"// arch {schedule.arch_name}"]
    depth = 0
    for I in range(len(schedule.levels) - 1, -1, -1):
        pad = " " * depth
        lines.append(f"{pad}// {schedule.level_names[I]} level")
        loops = schedule.levels[I]
        for pos in range(len(loops) - 1, -1, -1):
            loop = loops[pos]
            kw = "spatial_for" if loop.spatial else "for"
            note = "  // padded" if padded[loop.dim] else ""
            lines.append(
                f"{' ' * depth}{kw} {names[(I, pos)]} = [0 : {loop.bound}) :{note}"
            )
            depth += 1
    return "\n".join(lines) + "\n"


FORMAT_VERSION = 1


def serialize(schedule: Schedule) -> bytes:
    """Stable line-oriented text form; parse() inverts it exactly."""
    lines = [f"schedule v{FORMAT_VERSION}"]
    lines.append(
        "layer " + " ".join(str(x) for x in schedule.layer.as_tuple())
        + f" stride {schedule.layer.stride}"
    )
    lines.append(f"arch {schedule.arch_name}")
    lines.append(f"levels {len(schedule.levels)}")
    for I, loops in enumerate(schedule.levels):
        lines.append(f"level {I} {schedule.level_names[I]}")
        for rank, loop in enumerate(loops):
            m = "s" if loop.spatial else "t"
            lines.append(f"loop {I} {rank} {DIM_NAMES[loop.dim]} {loop.bound} {m}")
    lines.append("end")
    return ("\n".join(lines) + "\n").encode("utf-8")


class ScheduleParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _fail(msg: str, lineno: int, text: str, field: int | None = None):
    """Raise at whitespace-separated field `field` of the line `text`, at
    the line's start without one, or just past its end if it is missing."""
    col = 1
    if field is not None:
        starts = [m.start() for m in re.finditer(r"\S+", text)]
        col += starts[field] if field < len(starts) else len(text.rstrip()) + 1
    raise ScheduleParseError(msg, lineno, col)


def _int(tok: list[str], i: int, what: str, lineno: int, text: str) -> int:
    """Integer field `tok[i]` of a line, or a ScheduleParseError at it."""
    try:
        return int(tok[i])
    except (IndexError, ValueError):
        _fail(f"{what} must be an integer", lineno, text, i)


def parse(data: bytes | str) -> Schedule:
    """Parse the serialized form back into a Schedule."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    lines = text.splitlines()
    if not lines:
        raise ScheduleParseError("empty input", 1, 1)
    it = iter(enumerate(lines, start=1))

    lineno, header = next(it)
    if header.strip() != f"schedule v{FORMAT_VERSION}":
        _fail(f"expected header 'schedule v{FORMAT_VERSION}'", lineno, header)

    layer = None
    arch_name = None
    num_levels = None
    level_names: list[str] = []
    levels: list[list[Loop]] = []
    expected_rank: list[int] = []
    ended = False

    for lineno, raw in it:
        line = raw.strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "layer":
            if len(tok) != 10 or tok[8] != "stride":
                _fail("layer needs 7 bounds and a stride", lineno, raw)
            fields = (1, 2, 3, 4, 5, 6, 7, 9)
            vals = [_int(tok, i, "layer bound", lineno, raw) for i in fields]
            try:
                layer = LayerDims(*vals[:7], stride=vals[7])
            except ValueError as exc:  # names the first value below 1
                bad = next(i for i, v in zip(fields, vals) if v < 1)
                _fail(str(exc), lineno, raw, bad)
        elif tok[0] == "arch":
            arch_name = line[len("arch ") :] if len(tok) > 1 else ""
        elif tok[0] == "levels":
            num_levels = _int(tok, 1, "level count", lineno, raw)
        elif tok[0] == "level":
            if num_levels is None:
                _fail("'levels' must precede 'level'", lineno, raw)
            idx = _int(tok, 1, "level index", lineno, raw)
            if idx != len(levels):
                _fail(f"level {idx} out of order", lineno, raw, 1)
            level_names.append(" ".join(tok[2:]) if len(tok) > 2 else f"L{idx}")
            levels.append([])
            expected_rank.append(0)
        elif tok[0] == "loop":
            if len(tok) != 6:
                _fail("loop needs: level rank dim bound mapping", lineno, raw)
            I = _int(tok, 1, "loop level", lineno, raw)
            if not 0 <= I < len(levels):
                _fail(f"loop references unknown level {I}", lineno, raw, 1)
            rank = _int(tok, 2, "loop rank", lineno, raw)
            if rank != expected_rank[I]:
                _fail(
                    f"rank {rank} out of order (expected {expected_rank[I]})",
                    lineno,
                    raw,
                    2,
                )
            if tok[3] not in DIM_INDEX:
                _fail(f"unknown dimension {tok[3]!r}", lineno, raw, 3)
            bound = _int(tok, 4, "bound", lineno, raw)
            if tok[5] not in ("s", "t"):
                _fail(f"mapping must be 's' or 't', got {tok[5]!r}", lineno, raw, 5)
            try:
                levels[I].append(Loop(DIM_INDEX[tok[3]], bound, tok[5] == "s"))
            except ValueError as exc:
                _fail(str(exc), lineno, raw, 4)
            expected_rank[I] += 1
        elif tok[0] == "end":
            ended = True
            break
        else:
            _fail(f"unknown directive {tok[0]!r}", lineno, raw, 0)

    if not ended:
        raise ScheduleParseError("missing 'end' (truncated file)", len(lines), 1)
    if layer is None:
        raise ScheduleParseError("missing 'layer' line", len(lines), 1)
    if arch_name is None:
        raise ScheduleParseError("missing 'arch' line", len(lines), 1)
    if num_levels is None or len(levels) != num_levels:
        raise ScheduleParseError(
            f"expected {num_levels} levels, found {len(levels)}", len(lines), 1
        )
    return Schedule(
        levels=tuple(tuple(l) for l in levels),
        level_names=tuple(level_names),
        layer=layer,
        arch_name=arch_name,
    )

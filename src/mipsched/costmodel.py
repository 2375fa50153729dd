"""Product-domain analytical cost model.

Everything here works on exact integer products of loop bounds, the
counterpart of the formulation's log-domain linear terms.  Element
counts are the native unit; bytes appear only where latency or budgets
are involved.

Every tile is read from one prefix-product table per schedule
(`tile_table`, cached as `Schedule.tiles`): row I holds, for every
dimension, the product of that dimension's loop bounds at levels
strictly inside I, and row H (one past the outermost level) holds the
full products.  One pass over the loops builds it, and a tile of tensor
v inside level I is then the product of row I's entries over the
dimensions related to v (`row_tile`, or `tile_reader` for a function
of the row alone), or the halo window built from the same row.  Loop
order within a level does not enter the table, so every loop order of
one (level, mapping) assignment shares it.  The
enumeration walk (`search.valid_assignments`) carries the rows of the
same table that its capacity checks read instead of building them:
placing a factor at a level multiplies that dimension's entry in every
such row above the level, and removing it divides the entry back.  It
reads each of them with a `tile_reader` built once per walk.

The model splits along the same line.  Tiles, compute cycles and the
NoC terms of `transfer_terms` (transfer sizes and link multipliers) are
order-free: one evaluation serves every loop order of an assignment.
Only `noc_iterations`, the temporal transfer counts, depends on order,
so scoring another order of the same assignment needs just that and
`bytes_and_latency`, the one latency formula, in which compute cycles
enter only as the larger of them and the transfer cycles.
`noc_iterations` reads only the temporal loops of the levels at and
above the NoC level, in order: orders that differ only below the NoC
level, or only in where the spatial loops sit, score alike.  So
`search.enumerate_best` scores one order of each such class, the first
in enumeration order, from the walk's NoC-level row and loops
(`transfer_terms` takes those, not a schedule), its transfer part once
for every assignment with the same loops at and above the NoC level,
and still finds the first best order of a scan over all of them.  All
arithmetic is on Python integers, so every value is exact up to the
final division by the (possibly fractional) NoC bandwidth.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .arch import ArchSpec, IA, NUM_TENSORS
from .workload import DIM_INDEX, NUM_DIMS

if TYPE_CHECKING:
    from .schedule import Loop, Schedule

_R, _S, _P, _Q, _C, _N = (DIM_INDEX[d] for d in "RSPQCN")


def tile_table(levels: "tuple[tuple[Loop, ...], ...]") -> tuple[tuple[int, ...], ...]:
    """Prefix products of loop bounds: row I is, per dimension, the product
    of the bounds at levels strictly inside I; the last row is the full
    product."""
    row = [1] * NUM_DIMS
    rows = [tuple(row)]
    for loops in levels:
        for loop in loops:
            row[loop.dim] *= loop.bound
        rows.append(tuple(row))
    return tuple(rows)


def tile_reader(arch: ArchSpec, v: int, stride: int, halo: bool) -> Callable[[Sequence[int]], int]:
    """`row_tile` of tensor v as a function of the row alone, with the same
    formulas.  The enumeration walk builds one reader per capacity it
    checks and reads its own rows with it.  A reader reads only the
    entries of `tile_dims`, and never falls as one of them grows."""
    if halo and v == IA:
        return functools.partial(_halo_window, stride)
    return functools.partial(_product, arch.A.dims_of(v))


def row_tile(row: Sequence[int], arch: ArchSpec, v: int, stride: int, halo: bool) -> int:
    """Elements of tensor v for the per-dimension tiles in `row`.

    Plain mode multiplies the related dimension tiles (what the linear
    model sees).  Halo mode sizes the input-activation window physically
    (`_halo_window`).
    """
    if halo and v == IA:
        return _halo_window(stride, row)
    return _product(arch.A.dims_of(v), row)


def _product(dims: tuple[int, ...], row: Sequence[int]) -> int:
    """The product of the entries `dims` of `row`: a plain tile."""
    t = 1
    for j in dims:
        t *= row[j]
    return t


def _halo_window(stride: int, row: Sequence[int]) -> int:
    """Elements of the input-activation window of the tiles in `row`:
    width (P_t - 1) * stride + R_t, height likewise from Q and S."""
    width = (row[_P] - 1) * stride + row[_R]
    height = (row[_Q] - 1) * stride + row[_S]
    return width * height * row[_C] * row[_N]


def tile_dims(arch: ArchSpec, v: int, halo: bool) -> tuple[int, ...]:
    """The dimensions whose row entries `row_tile` reads for tensor v."""
    if halo and v == IA:
        return (_R, _S, _P, _Q, _C, _N)
    return arch.A.dims_of(v)


def tile_elements(
    schedule: "Schedule", arch: ArchSpec, level: int, v: int, halo: bool = False
) -> int:
    """Elements of tensor v resident inside `level` for one tile (see
    `row_tile` for plain and halo mode)."""
    return row_tile(schedule.tiles[level], arch, v, schedule.layer.stride, halo)


def compute_cycles(schedule: "Schedule") -> int:
    """Product of all temporal loop bounds (cycles per PE, fully pipelined)."""
    t = 1
    for loops in schedule.levels:
        for loop in loops:
            if not loop.spatial:
                t *= loop.bound
    return t


def spatial_product(schedule: "Schedule", level: int) -> int:
    t = 1
    for loop in schedule.levels[level]:
        if loop.spatial:
            t *= loop.bound
    return t


@dataclass(frozen=True)
class TensorTraffic:
    per_transfer_elems: int
    link_multiplier: int
    iterations: int
    total_elems: int


def transfer_terms(
    loops: "tuple[Loop, ...]", row: tuple[int, ...], arch: ArchSpec
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Order-free NoC terms of the NoC level's `loops` and tile `row`:
    per-tensor transfer size and link multiplier.

    The transfer size is the tensor's plain tile inside the NoC level.
    Spatial NoC-level loops related to the tensor multiply its links.
    """
    A = arch.A.rows
    link = [1] * NUM_TENSORS
    for loop in loops:
        if loop.spatial:
            rel = A[loop.dim]
            for v in range(NUM_TENSORS):
                if rel[v]:
                    link[v] *= loop.bound
    # the stride only shapes a halo window, and these tiles are plain
    sizes = tuple(row_tile(row, arch, v, 1, False) for v in range(NUM_TENSORS))
    return sizes, tuple(link)


def noc_iterations(levels: "tuple[tuple[Loop, ...], ...]", arch: ArchSpec) -> list[int]:
    """Temporal NoC transfer count per tensor, the one order-dependent term.

    The count starts once a temporal loop relevant to the tensor (and
    storable at its level) is seen at or above the NoC level; from there
    every outer temporal loop multiplies it.
    """
    A, B = arch.A.rows, arch.B.rows
    iters = [1] * NUM_TENSORS
    seen = [False] * NUM_TENSORS
    for I in range(arch.noc_level, arch.num_levels):
        stores = B[I]
        for loop in levels[I]:
            if loop.spatial:
                continue
            rel = A[loop.dim]
            for v in range(NUM_TENSORS):
                if seen[v] or (rel[v] and stores[v]):
                    seen[v] = True
                    iters[v] *= loop.bound
    return iters


def traffic_terms(
    schedule: "Schedule", arch: ArchSpec
) -> tuple[TensorTraffic, TensorTraffic, TensorTraffic]:
    """Per-tensor NoC traffic: transfer size x link multiplier x iterations
    (`transfer_terms` x `noc_iterations`)."""
    noc = arch.noc_level
    sizes, link = transfer_terms(schedule.levels[noc], schedule.tiles[noc], arch)
    iters = noc_iterations(schedule.levels, arch)
    return tuple(
        TensorTraffic(sizes[v], link[v], iters[v], sizes[v] * link[v] * iters[v])
        for v in range(NUM_TENSORS)
    )


def bytes_and_latency(cycles: int, totals, arch: ArchSpec) -> tuple[int, int]:
    """NoC bytes of per-tensor element totals, and latency in cycles.

    Latency assumes transfers overlap compute perfectly (double
    buffering): the maximum of compute cycles and total NoC transfer
    cycles at the configured bandwidth.
    """
    nbytes = sum(map(operator.mul, totals, arch.precision_bytes))
    return nbytes, max(cycles, math.ceil(nbytes / arch.noc_bandwidth))

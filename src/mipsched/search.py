"""Baseline schedulers: seeded random sampling and full enumeration.

The random scheduler mirrors how practitioners probe a mapping space:
draw raw configurations uniformly, keep the ones that validate, score
them with the analytical model, return the best.  Draw i uses its own
PRNG derived from (seed, i), so results are reproducible and independent
of any sharding of the draw range.

Enumeration is one depth-first walk over the (level, mapping)
assignments (`_walk`; `enumerate_all` builds schedules from it).  It
places the prime factors in order, each at every level and binding in
turn, and carries per level the loops, the spatial product, the
distinct-order count and a loop-sequence code, the temporal product,
and the tile rows that its checks read (rows of `costmodel.tile_table`:
placing a factor multiplies the rows of the levels above its own,
removing it divides them back, exactly).  After each placement it
calls that placement's compiled check (`schedule.placement_checks`, one per
dimension, level and binding, built once per walk against the walk's own
rows and spatial products), which reads only what the placement changed:
the fanout of the placement's level if the loop is spatial, and the
finite capacities above it of the tensors whose tiles read the placed
dimension, each through a `costmodel.tile_reader` of its level's row.
The parent passed every check and the placement leaves every other tile
and spatial product as it was, so these decide as the full checks of
`validate` would.  Tiles, halo windows (P_t - 1) * stride + R_t
and spatial products only grow as factors are placed, so a failed check
fails at every completion: the walk cuts the subtree there, and yields
the same assignments in the same order as validating each whole
assignment would.  By the same growth, a capacity that the tile of the
whole factorization's products meets is never exceeded: it gets no
check (`schedule.live_capacities`), and a row that no check reads is
not carried.  `validate`'s two other checks need no counterpart:
the walk places every factor of the factorization exactly once, so each
dimension's product is its padded bound, and it offers a spatial binding
only where the level's `spatial_allowed` holds.  No check reads loop
order, so the verdict holds for every order of an assignment.

`enumerate_all` yields every distinct loop order of each valid
assignment as a schedule.  `enumerate_best`, the exhaustive baseline
behind the `enumerate` command, gets the same count and the same first
best without building those orders, scoring from the walk's loops and
compute cycles:

* Count: a level's loops have len! / prod(mult!) distinct orders, the
  multinomial over the multiplicities of identical loops, and an
  assignment has the product of its levels' counts.  The walk carries
  each level's count: a loop that makes its multiplicity m at a level of
  L loops multiplies the count by (L + 1) / m, exactly.  Identical
  factors are consecutive in factor order and placed at non-decreasing
  (level, binding), so m is one more than the run of identical
  predecessors placed alike.  It carries the product too, dividing out
  the level's old count and multiplying in its new one.
* Classes: an order moves the metric only through
  `costmodel.noc_iterations`, which reads only the temporal loops of the
  levels at and above the NoC level, in order.  Orders of such a level
  with the same temporal subsequence form a class that scores alike, and
  orders of a lower level all score alike.  `enumerate_best` scores the
  product of each upper level's class representatives, the first order
  of each class (`_class_orders`), with every lower level at its own
  order (under `compute` no order moves the value, so every level keeps
  its own).
* Split scorer: a metric reads an order through its NoC iteration
  counts and the assignment's compute cycles, and only latency reads
  both, as `max(cycles, transfer cycles)` (`costmodel.bytes_and_latency`).
  So each order has an order part (`order_part`: traffic's elements,
  latency's transfer cycles), read from the NoC level's loops, its tile
  row and the iteration counts, and `with_cycles` makes the metric of
  that part and the cycles.  It never falls as the part grows.
* NoC keys: a combination's order part reads only the levels at and
  above the NoC level and the NoC level's tile row, and the walk places
  every factor, so that row is the whole factorization's products over
  those of the upper levels: the upper levels' codes fix it.  Each code
  holds its level's loop codes (one small integer per distinct loop) as
  the digits of one integer, so no key hashes a `Loop`.  Once per upper
  levels' codes, the walk's first assignment with them counts every
  combination's NoC iterations and order part and keeps the combinations
  whose part is below every earlier one's.  The upper codes and the
  compute cycles, the NoC key, fix every combination's value, and each
  key is scored once, for its least value and the first combination
  that reaches it, by a strict-`<` scan of `with_cycles` over the kept
  ones: the first combination of least value has a part below every
  earlier one's, for an earlier one of no greater part has no greater
  value.
* First minimum: `enumerate_all`'s order is lexicographic in the
  per-level order indices (`itertools.product`, innermost level
  slowest), so a scan with strict `<` keeps the smallest index tuple of
  least value.  That tuple holds index 0 at every lower level and a
  class's first index at every upper level, for otherwise lowering one
  of them gives the same value at a smaller tuple.  The representatives
  keep their index order, so a strict-`<` scan of them finds it too,
  and a strict-`<` scan over the assignments of each one's least value
  and first combination keeps the same first minimum.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from . import costmodel
from .arch import ArchSpec
from .formulation import SPATIAL, TEMPORAL
from .schedule import (
    CostReport, Loop, Schedule, decode, evaluate, live_capacities, placement_checks,
    tile_violations, validate,
)
from .solver import SpaceTooLarge
from .workload import NUM_DIMS, PrimeFactorization, total_factor_count

METRICS = ("latency", "traffic", "compute")

Levels = tuple[tuple[Loop, ...], ...]  # loops per level, inner -> outer

_MIX = 0x9E3779B97F4A7C15
_M64 = (1 << 64) - 1


class NoValidScheduleError(RuntimeError):
    pass


class SearchTimeout(RuntimeError):
    """The search reached its deadline; `stats` holds what it drew."""

    def __init__(self, message: str, stats: "SearchStats | None" = None):
        super().__init__(message)
        self.stats = stats


@dataclass(frozen=True)
class SearchConfig:
    samples: int = 20_000
    valid_target: int = 5
    seed: int = 0
    metric: str = "latency"

    def __post_init__(self):
        if self.valid_target < 1:
            raise ValueError("valid_target must be >= 1")
        if self.samples < self.valid_target:
            raise ValueError("samples must be >= valid_target")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")


@dataclass
class SearchStats:
    draws: int = 0
    valid: int = 0


def metric_value(report: CostReport, metric: str) -> int:
    if metric == "latency":
        return report.latency_cycles
    if metric == "compute":
        return report.compute_cycles
    if metric == "traffic":
        return sum(t.total_elems for t in report.traffic)
    raise ValueError(f"unknown metric {metric!r}")


def draw_schedule(pf: PrimeFactorization, arch: ArchSpec, seed: int, i: int) -> Schedule:
    """The raw configuration of draw `i` under `seed`: a level, a rank and
    a binding per factor from the draw's own PRNG, decoded.  It need not
    validate."""
    rng = random.Random(((seed & _M64) * _MIX + i + 1) & _M64)
    H = arch.num_levels
    Z = max(1, total_factor_count(pf))
    x = {}
    for fi, (j, _n, _prime, _lg) in enumerate(pf.flat()):
        I = rng.randrange(H)
        z = rng.randrange(Z)
        if arch.levels[I].spatial_allowed(j):
            k = rng.choice((SPATIAL, TEMPORAL))
        else:
            k = TEMPORAL
        x[fi] = (I, z, k)
    return decode(x, pf, arch)


def random_search(
    pf: PrimeFactorization, arch: ArchSpec, cfg: SearchConfig, halo: bool = True,
    deadline: float = math.inf,
) -> tuple[Schedule, CostReport, SearchStats]:
    """Best of up to cfg.valid_target valid schedules from uniform draws.

    Draws raw configurations (level, rank, binding per factor); slot
    collisions are resolved by deterministic order, every other
    infeasibility is rejected by the exact validator (input tiles sized
    with their halo window unless `halo` is off).  Raises
    NoValidScheduleError when cfg.samples draws produce nothing valid,
    and SearchTimeout when a draw would start past `deadline`, a
    `time.perf_counter()` value.
    """
    stats = SearchStats()
    best = None  # (metric, draw index, schedule, report)
    for i in range(cfg.samples):
        if time.perf_counter() > deadline:
            raise SearchTimeout(f"deadline reached after {i} draws", stats)
        stats.draws = i + 1
        sched = draw_schedule(pf, arch, cfg.seed, i)
        if validate(sched, arch, halo=halo):
            continue
        stats.valid += 1
        report = evaluate(sched, arch)
        value = metric_value(report, cfg.metric)
        if best is None or value < best[0]:
            best = (value, i, sched, report)
        if stats.valid >= cfg.valid_target:
            break
    if best is None:
        raise NoValidScheduleError(
            f"no valid schedule in {stats.draws} draws (seed {cfg.seed})"
        )
    return best[2], best[3], stats


def _distinct_orders(items: tuple) -> Iterator[tuple]:
    """All distinct permutations of a multiset, lexicographic by position."""
    if not items:
        yield ()
        return
    seen = set()
    for idx in range(len(items)):
        head = items[idx]
        if head in seen:
            continue
        seen.add(head)
        rest = items[:idx] + items[idx + 1 :]
        for tail in _distinct_orders(rest):
            yield (head,) + tail


def _class_orders(loops: tuple[Loop, ...]) -> tuple[tuple[Loop, ...], ...]:
    """The first distinct order of each class of one level's orders that
    share their temporal subsequence, in order of first appearance; the
    level's own order comes first.

    `_distinct_orders` takes equal loops in their own order and lists
    the orders lexicographically by the positions they take.  So a
    class's first order takes, at each step, the earlier of the next
    spatial loop and the class's next temporal loop, and the classes
    appear in the order `_distinct_orders` lists their temporal
    subsequences.
    """
    ids = [loops.index(loop) for loop in loops]  # equal loops, equal ids
    spatial = [i for i, loop in enumerate(loops) if loop.spatial]
    temporal = [i for i, loop in enumerate(loops) if not loop.spatial]
    copies: dict[int, list[int]] = {}  # per id, its temporal positions
    for i in temporal:
        copies.setdefault(ids[i], []).append(i)
    reps = []
    for temporal_ids in _distinct_orders(tuple(ids[i] for i in temporal)):
        left = {x: iter(positions) for x, positions in copies.items()}
        order = []
        s = 0
        for x in temporal_ids:
            pos = next(left[x])
            while s < len(spatial) and spatial[s] < pos:
                order.append(spatial[s])
                s += 1
            order.append(pos)
        order += spatial[s:]
        reps.append(tuple(loops[i] for i in order))
    return tuple(reps)


def _walk(pf: PrimeFactorization, arch: ArchSpec, limit: int, halo: bool,
          deadline: float = math.inf):
    """The enumeration walk (see the module docstring): an iterator over
    the valid (level, mapping) assignments in walk order, each as the
    walk's state `(loops, cycles, counts, codes, total)`: per level its
    loops in factor order, distinct-order count and loop-sequence code,
    the compute cycles, and the assignment's number of distinct orders,
    the product of the counts.  The lists change as the walk goes on:
    read them before drawing the next assignment.  The space guard and
    the root's checks run on the call.  Past `deadline`, a
    `time.perf_counter()` value, it raises SearchTimeout: the clock is
    read once per partial assignment it extends, not per assignment."""
    flat = pf.flat()
    F = len(flat)
    H = arch.num_levels
    Z = max(1, F)
    space = 1
    for j, n, prime, _lg in flat:
        per = 0
        for I in range(H):
            per += Z * (2 if arch.levels[I].spatial_allowed(j) else 1)
        space *= max(per, 1)
    if space > limit:
        raise SpaceTooLarge(f"assignment space {space} exceeds limit {limit}")

    stride = pf.dims.stride
    loops: list[list[Loop]] = [[] for _ in range(H)]
    rows = [[1] * NUM_DIMS for _ in range(H)]
    spatial = [1] * H
    counts = [1] * H
    codes = [0] * H
    capacities = live_capacities(arch, halo, stride, pf.padded)
    # per level, the rows above it that some check reads: the walk keeps
    # only these current
    kept = {I for I, _v, _cap in capacities}
    above = [[rows[K] for K in range(I + 1, H) if K in kept] for I in range(H)]
    # per factor, its placements in walk order: the rank of its (level,
    # binding), the loop it adds with that loop's code (one Loop and one
    # code per distinct loop) and the compiled check of what it can change
    # (one per dimension, level and binding)
    distinct: dict[tuple[int, int, int], tuple[Loop, int]] = {}
    checks = {}
    options = []
    for j, _n, prime, _lg in flat:
        opts = []
        for I in range(H):
            for k in (TEMPORAL, SPATIAL):
                if k == SPATIAL and not arch.levels[I].spatial_allowed(j):
                    continue
                loop, code = distinct.setdefault(
                    (j, prime, k), (Loop(j, prime, k == SPATIAL), len(distinct) + 1)
                )
                if (j, I, k) not in checks:
                    checks[j, I, k] = placement_checks(
                        arch, halo, stride, capacities, rows, spatial, j, I, k == SPATIAL)
                opts.append((2 * I + k, I, k == SPATIAL, loop, code, checks[j, I, k]))
        options.append(opts)
    # a level's code is its loop codes in base `base`, innermost most
    # significant
    base = len(distinct) + 1
    # identical factors (same dimension and prime) take non-decreasing
    # (level, binding), ranked 2 * level + binding: one assignment per
    # multiset.  They are consecutive in factor order, so a loop's
    # multiplicity at its level is one more than the run of its identical
    # predecessors placed alike.
    same_next = [
        fi + 1 < F and flat[fi][0::2] == flat[fi + 1][0::2] for fi in range(F)
    ]

    def walk(fi: int, low: int, run: int, cycles: int, total: int):
        if time.perf_counter() > deadline:
            raise SearchTimeout("enumeration reached its deadline")
        j, _n, prime, _lg = flat[fi]
        last = fi + 1 == F
        same = same_next[fi]
        for rank, I, is_spatial, loop, code, passes in options[fi]:
            if rank < low:
                continue
            mult = run + 1 if rank == low else 1
            level = loops[I]
            level.append(loop)
            count, level_code = counts[I], codes[I]
            counts[I] = new = count * len(level) // mult
            codes[I] = level_code * base + code
            for row in above[I]:
                row[j] *= prime
            if is_spatial:
                spatial[I] *= prime
                c = cycles
            else:
                c = cycles * prime
            if passes():
                # `count` divides `total`, so this is exact
                t = total // count * new
                if last:
                    yield loops, c, counts, codes, t
                else:
                    yield from walk(fi + 1, rank if same else -1, mult, c, t)
            if is_spatial:
                spatial[I] //= prime
            for row in above[I]:
                row[j] //= prime
            counts[I], codes[I] = count, level_code
            level.pop()

    if tile_violations(rows, spatial, arch, stride, halo):
        return iter(())
    return walk(0, -1, 0, 1, 1) if F else iter([(loops, 1, counts, codes, 1)])


def enumerate_all(
    pf: PrimeFactorization, arch: ArchSpec, limit: int = 1_000_000, halo: bool = True
) -> Iterator[Schedule]:
    """Yield every valid schedule exactly once, in deterministic order:
    for each valid (level, mapping) assignment of the walk (`_walk`, see
    the module docstring), the product of its levels' distinct orders,
    lexicographic with the innermost level slowest.

    Distinct schedules differ in some loop's level, binding, or in the
    loop order within a level; permutations of identical factors are not
    duplicated.  Guarded by the raw assignment-space size.
    """
    # distinct orders of one level's loops, listed once per loop sequence
    orders = functools.cache(lambda loops: tuple(_distinct_orders(loops)))
    level_names = tuple(lvl.name for lvl in arch.levels)
    for loops, _cycles, _counts, _codes, _total in _walk(pf, arch, limit, halo):
        levels = tuple(map(tuple, loops))
        first = Schedule(
            levels=levels, level_names=level_names, layer=pf.dims, arch_name=arch.name
        )
        product = itertools.product(*map(orders, levels))
        next(product)  # the first order is `first` itself
        yield first
        for levels in product:
            yield replace(first, levels=levels)


def order_part(
    loops: tuple[Loop, ...], row, arch: ArchSpec, metric: str
) -> Callable[[list[int]], int]:
    """The part of `metric_value` that loop order moves, for an assignment
    whose NoC level holds `loops` under tile row `row`, as a function of
    an order's NoC iteration counts (`costmodel.noc_iterations` of its
    levels): traffic's elements, latency's NoC transfer cycles
    (`costmodel.bytes_and_latency` of no compute cycles).  No order moves
    compute.  `with_cycles` makes the metric of it.

    Only the NoC iteration counts depend on loop order (see `costmodel`),
    so each order costs only those on top of the elements per NoC
    iteration, which are order-free (`costmodel.transfer_terms`).
    """
    sizes, link = costmodel.transfer_terms(loops, row, arch)
    # elements per NoC iteration: everything in a total but its count
    per_iter = list(map(operator.mul, sizes, link))
    if metric == "traffic":
        return lambda iters: sum(map(operator.mul, per_iter, iters))
    if metric == "latency":
        return lambda iters: costmodel.bytes_and_latency(
            0, list(map(operator.mul, per_iter, iters)), arch)[1]
    raise ValueError(f"no loop order moves metric {metric!r}")


def with_cycles(part: int, cycles: int, metric: str) -> int:
    """`metric_value` of a loop order with order part `part` (`order_part`)
    in an assignment of `cycles` compute cycles: latency is the larger of
    the two, as transfers overlap compute (`costmodel.bytes_and_latency`),
    and traffic is the order part.  It never falls as `part` grows."""
    return max(cycles, part) if metric == "latency" else part


def enumerate_best(
    pf: PrimeFactorization,
    arch: ArchSpec,
    metric: str,
    limit: int = 1_000_000,
    halo: bool = True,
    deadline: float = math.inf,
) -> tuple[int, tuple[int, Schedule] | None]:
    """The number of schedules `enumerate_all` yields, and the first of
    them with the least `metric_value` with that value (None when there
    is none).  The orders are counted by the walk, and only one order
    per class is scored, its order part once per code of the upper levels
    and its value once per NoC key (see the module docstring), from the
    walk's own loops and compute cycles; only the winner becomes a
    `Schedule`.  Past `deadline` the walk raises SearchTimeout.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    H = arch.num_levels
    # no order moves compute cycles: there every level keeps its own order
    scored_from = H if metric == "compute" else arch.noc_level
    # per level code, that level's class representatives
    reps_of: dict[int, tuple[tuple[Loop, ...], ...]] = {}
    # per code of the upper levels (which fix the NoC row), the
    # combinations of their representatives whose order part is below
    # every earlier one's, with that part
    lows_of: dict[tuple, list[tuple[int, Levels]]] = {}
    # per NoC key, the least value and the first combination that reaches it
    least_of: dict[tuple, tuple[int, Levels]] = {}
    count = 0
    best = None  # (value, levels)
    for loops, cycles, _counts, codes, total in _walk(pf, arch, limit, halo, deadline):
        count += total
        if scored_from == H:  # compute: one order, the assignment's own
            if best is None or cycles < best[0]:
                best = (cycles, tuple(map(tuple, loops)))
            continue
        key = (*codes[scored_from:], cycles)
        least = least_of.get(key)
        if least is None:
            upper = key[:-1]
            lows = lows_of.get(upper)
            if lows is None:
                for code, level in zip(upper, loops[scored_from:]):
                    if code not in reps_of:
                        reps_of[code] = _class_orders(tuple(level))
                row = costmodel.tile_table(loops[:scored_from])[-1]
                part = order_part(tuple(loops[scored_from]), row, arch, metric)
                lows = lows_of[upper] = []
                for combo in itertools.product(*map(reps_of.get, upper)):
                    value = part(costmodel.noc_iterations(((),) * scored_from + combo, arch))
                    if not lows or value < lows[-1][0]:
                        lows.append((value, combo))
            for low, combo in lows:
                value = with_cycles(low, cycles, metric)
                if least is None or value < least[0]:
                    least = (value, combo)
            least_of[key] = least
        value, combo = least
        if best is None or value < best[0]:
            best = (value, tuple(map(tuple, loops[:scored_from])) + combo)
    if best is None:
        return count, None
    value, levels = best
    return count, (value, Schedule(
        levels=levels,
        level_names=tuple(lvl.name for lvl in arch.levels),
        layer=pf.dims,
        arch_name=arch.name,
    ))

"""Baseline schedulers: seeded random sampling and full enumeration.

The random scheduler mirrors how practitioners probe a mapping space:
draw raw configurations uniformly, keep the ones that validate, score
them with the analytical model, return the best.  Draw i uses its own
PRNG derived from (seed, i), so results are reproducible and independent
of any sharding of the draw range.

Enumeration is one depth-first walk over the (level, mapping)
assignments, `valid_assignments`.  It places the prime factors in
order, each at every level and binding in turn, and carries the loops
per level, the tile rows (the prefix products of `costmodel.tile_table`:
placing a factor multiplies the rows of the levels above its own,
removing it divides them back, exactly), each level's spatial product
and the temporal product.  After each placement it runs
`schedule.tile_violations`, the capacity, shared-capacity and fanout
checks of `validate`, on the levels the placement changed.  Tiles, halo
windows (P_t - 1) * stride + R_t and spatial products only grow as
factors are placed, so a failed check fails at every completion: the
walk cuts the subtree there, and yields the same assignments in the same
order as validating each whole assignment would.  `validate`'s two
other checks need no counterpart: the walk places every factor of the
factorization exactly once, so each dimension's product is its padded
bound, and it offers a spatial binding only where the level's
`spatial_allowed` holds.  No check reads loop order, so the verdict
holds for every order of an assignment.

`enumerate_all` yields every distinct loop order of each valid
assignment as a schedule.  `enumerate_best`, the exhaustive baseline
behind the `enumerate` command, gets the same count and the same first
best without building those orders, scoring from the walk's NoC-level
tile row and temporal product:

* Count: a level's loops have `order_count` distinct orders, the
  multinomial len! / prod(mult!), and an assignment has the product of
  its levels' counts.
* Classes: an order moves the metric only through
  `costmodel.noc_iterations`, which reads only the temporal loops of the
  levels at and above the NoC level, in order.  Orders of such a level
  with the same temporal subsequence form a class that scores alike, and
  orders of a lower level all score alike.  `enumerate_best` scores the
  product of each upper level's class representatives, the first order
  of each class (`_class_orders`), with every lower level at its own
  order (under `compute` no order moves the value, so every level keeps
  its own).  `order_scorer` takes the order-free terms, the walk's
  temporal product and `costmodel.transfer_terms`.
* NoC keys: a combination's value reads only the levels at and above
  the NoC level, the NoC level's tile row and the compute cycles, so
  assignments that share these, their NoC key, score every combination
  alike.  Each key is scored once, for its least value and the first
  combination that reaches it.
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
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from . import costmodel
from .arch import ArchSpec
from .formulation import SPATIAL, TEMPORAL
from .schedule import CostReport, Loop, Schedule, evaluate, tile_violations, validate
from .solver import SpaceTooLarge
from .workload import NUM_DIMS, PrimeFactorization, total_factor_count

METRICS = ("latency", "traffic", "compute")

Levels = tuple[tuple[Loop, ...], ...]  # loops per level, inner -> outer

_MIX = 0x9E3779B97F4A7C15
_M64 = (1 << 64) - 1


class NoValidScheduleError(RuntimeError):
    pass


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
    a binding per factor from the draw's own PRNG, loops ordered by rank
    (collisions by factor order).  It need not validate."""
    rng = random.Random(((seed & _M64) * _MIX + i + 1) & _M64)
    H = arch.num_levels
    Z = max(1, total_factor_count(pf))
    per_level: list[list[tuple[int, int, Loop]]] = [[] for _ in range(H)]
    for fi, (j, n, prime, _lg) in enumerate(pf.flat()):
        I = rng.randrange(H)
        z = rng.randrange(Z)
        if arch.levels[I].spatial_allowed(j):
            k = rng.choice((SPATIAL, TEMPORAL))
        else:
            k = TEMPORAL
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


def random_search(
    pf: PrimeFactorization, arch: ArchSpec, cfg: SearchConfig, halo: bool = True
) -> tuple[Schedule, CostReport, SearchStats]:
    """Best of up to cfg.valid_target valid schedules from uniform draws.

    Draws raw configurations (level, rank, binding per factor); slot
    collisions are resolved by deterministic order, every other
    infeasibility is rejected by the exact validator (input tiles sized
    with their halo window unless `halo` is off).  Raises
    NoValidScheduleError when cfg.samples draws produce nothing valid.
    """
    stats = SearchStats()
    best = None  # (metric, draw index, schedule, report)
    for i in range(cfg.samples):
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


def order_count(loops: tuple[Loop, ...]) -> int:
    """Distinct orders of one level's loops: the multinomial
    len(loops)! / prod(mult!) over the multiplicities of identical loops."""
    count = math.factorial(len(loops))
    for mult in Counter(loops).values():
        count //= math.factorial(mult)
    return count


def _class_orders(loops: tuple[Loop, ...]) -> tuple[tuple[Loop, ...], ...]:
    """The first distinct order of each class of one level's orders that
    share their temporal subsequence, in order of first appearance; the
    level's own order comes first."""
    reps = {}
    for order in _distinct_orders(loops):
        reps.setdefault(tuple(l for l in order if not l.spatial), order)
    return tuple(reps.values())


def valid_assignments(
    pf: PrimeFactorization, arch: ArchSpec, limit: int = 1_000_000, halo: bool = True
) -> Iterator[tuple[Levels, list[list[int]], int]]:
    """Yield every valid (level, mapping) assignment once, in deterministic
    order: its loops per level in factor order (its first loop order),
    its tile rows and its compute cycles, from one depth-first walk that
    cuts a partial assignment at its first failed check (see the module
    docstring).

    Distinct schedules differ in some loop's level, binding, or in the
    loop order within a level; permutations of identical factors are not
    duplicated.  Guarded by the raw assignment-space size.  The rows,
    `rows[I]` the tile row of level I (`costmodel.tile_table`), are the
    walk's own state: read them before drawing the next assignment.
    """
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
    per_level: list[list[Loop]] = [[] for _ in range(H)]
    rows = [[1] * NUM_DIMS for _ in range(H)]
    spatial = [1] * H
    # per factor, its placements in walk order: (level, binding) and the
    # loop it adds, one Loop object per distinct loop
    loops = {}
    options = []
    for j, n, prime, _lg in flat:
        options.append([
            ((I, k), loops.setdefault((j, prime, k), Loop(j, prime, k == SPATIAL)))
            for I in range(H)
            for k in (TEMPORAL, SPATIAL)
            if k == TEMPORAL or arch.levels[I].spatial_allowed(j)
        ])
    # identical factors (same dimension and prime) take non-decreasing
    # (level, binding): one assignment per multiset.  (0, 0) is below
    # every placement.
    same_next = [
        fi + 1 < F and flat[fi][0::2] == flat[fi + 1][0::2] for fi in range(F)
    ]

    def walk(fi: int, low: tuple[int, int], cycles: int):
        if fi == F:
            yield tuple(map(tuple, per_level)), rows, cycles
            return
        j, _n, prime, _lg = flat[fi]
        for opt, loop in options[fi]:
            if opt < low:
                continue
            I, k = opt
            nxt = opt if same_next[fi] else (0, 0)
            per_level[I].append(loop)
            above = rows[I + 1 :]
            for row in above:
                row[j] *= prime
            # a temporal loop changes only the rows above its level; a
            # spatial one also its level's spatial product
            if k == SPATIAL:
                spatial[I] *= prime
                if not tile_violations(rows, spatial, arch, stride, halo, lo=I):
                    yield from walk(fi + 1, nxt, cycles)
                spatial[I] //= prime
            elif not tile_violations(rows, spatial, arch, stride, halo, lo=I + 1):
                yield from walk(fi + 1, nxt, cycles * prime)
            for row in above:
                row[j] //= prime
            per_level[I].pop()

    if not tile_violations(rows, spatial, arch, stride, halo):
        yield from walk(0, (0, 0), 1)


def enumerate_all(
    pf: PrimeFactorization, arch: ArchSpec, limit: int = 1_000_000, halo: bool = True
) -> Iterator[Schedule]:
    """Yield every valid schedule exactly once, in deterministic order:
    for each of `valid_assignments`, the product of its levels' distinct
    orders, lexicographic with the innermost level slowest."""
    # distinct orders of one level's loops, listed once per loop sequence
    orders = functools.cache(lambda loops: tuple(_distinct_orders(loops)))
    level_names = tuple(lvl.name for lvl in arch.levels)
    for levels, _rows, _cycles in valid_assignments(pf, arch, limit, halo):
        first = Schedule(
            levels=levels, level_names=level_names, layer=pf.dims, arch_name=arch.name
        )
        product = itertools.product(*map(orders, levels))
        next(product)  # the first order is `first` itself
        yield first
        for levels in product:
            yield replace(first, levels=levels)


def order_scorer(
    levels: Levels, rows, cycles: int, arch: ArchSpec, metric: str
) -> Callable[[Levels], int]:
    """`metric_value` of any loop order of the assignment with loops
    `levels`, tile rows `rows` (`rows[I]` level I's) and compute cycles
    `cycles`, as a function of that order's levels.

    Only the NoC iteration counts depend on loop order (see `costmodel`),
    so each order costs one `costmodel.noc_iterations` call on top of the
    assignment's order-free compute cycles and elements per NoC
    iteration (`costmodel.transfer_terms`); compute cycles do not depend
    on it at all.
    """
    if metric == "compute":
        return lambda levels: cycles
    noc = arch.noc_level
    sizes, link = costmodel.transfer_terms(levels[noc], rows[noc], arch)
    # elements per NoC iteration: everything in a total but its count
    per_iter = list(map(operator.mul, sizes, link))

    def totals(levels: Levels) -> list[int]:
        iters = costmodel.noc_iterations(levels, arch)
        return list(map(operator.mul, per_iter, iters))

    if metric == "traffic":
        return lambda levels: sum(totals(levels))
    if metric == "latency":
        return lambda levels: costmodel.bytes_and_latency(cycles, totals(levels), arch)[1]
    raise ValueError(f"unknown metric {metric!r}")


def enumerate_best(
    pf: PrimeFactorization,
    arch: ArchSpec,
    metric: str,
    limit: int = 1_000_000,
    halo: bool = True,
) -> tuple[int, tuple[int, Schedule] | None]:
    """The number of schedules `enumerate_all` yields, and the first of
    them with the least `metric_value` with that value (None when there
    is none).  Per valid assignment the orders are counted by formula and
    only one order per class is scored, once per NoC key (see the module
    docstring), from the walk's own tile row and compute cycles; only the
    winner becomes a `Schedule`.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    # no order moves compute cycles: there every level keeps its own order
    scored_from = arch.num_levels if metric == "compute" else arch.noc_level
    # per loop sequence, computed once per scan; a level with fewer than
    # two loops has one order, so it is not even looked up
    count_of = functools.cache(order_count)
    reps_of = functools.cache(_class_orders)
    # per NoC key, the least value over the representatives and the first
    # combination of them that reaches it
    least_of: dict[tuple, tuple[int, Levels]] = {}
    count = 0
    best = None  # (value, levels)
    for levels, rows, cycles in valid_assignments(pf, arch, limit, halo):
        n = 1
        for loops in levels:
            if len(loops) > 1:
                n *= count_of(loops)
        count += n
        upper = levels[scored_from:]
        if not upper:  # compute: one order, the assignment's own
            value, combo = cycles, ()
        else:
            key = (upper, tuple(rows[scored_from]), cycles)
            least = least_of.get(key)
            if least is None:
                score = order_scorer(levels, rows, cycles, arch, metric)
                lower = levels[:scored_from]
                for combo in itertools.product(
                        *[reps_of(loops) if len(loops) > 1 else (loops,)
                          for loops in upper]):
                    value = score(lower + combo)
                    if least is None or value < least[0]:
                        least = (value, combo)
                least_of[key] = least
            value, combo = least
        if best is None or value < best[0]:
            best = (value, levels[:scored_from] + combo)
    if best is None:
        return count, None
    value, levels = best
    return count, (value, Schedule(
        levels=levels,
        level_names=tuple(lvl.name for lvl in arch.levels),
        layer=pf.dims,
        arch_name=arch.name,
    ))

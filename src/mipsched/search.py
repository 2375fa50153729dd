"""Baseline schedulers: seeded random sampling and full enumeration.

The random scheduler mirrors how practitioners probe a mapping space:
draw raw configurations uniformly, keep the ones that validate, score
them with the analytical model, return the best.  Draw i uses its own
PRNG derived from (seed, i), so results are reproducible and independent
of any sharding of the draw range.

Enumeration walks (level, mapping) assignments (`valid_assignments`):
each valid one comes with a lazy iterator over its distinct loop orders.
`enumerate_all` flattens that into schedules; `order_scorer` scores one
order of an evaluated assignment from its NoC iteration counts alone,
so a full scan evaluates each assignment once and never builds a
`Schedule` per order.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from . import costmodel
from .arch import ArchSpec
from .formulation import SPATIAL, TEMPORAL
from .schedule import CostReport, Loop, Schedule, evaluate, validate
from .solver import SpaceTooLarge
from .workload import PrimeFactorization, total_factor_count

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

    @property
    def validity_rate(self) -> float:
        return self.valid / self.draws if self.draws else 0.0


def metric_value(report: CostReport, metric: str) -> int:
    if metric == "latency":
        return report.latency_cycles
    if metric == "compute":
        return report.compute_cycles
    if metric == "traffic":
        return sum(t.total_elems for t in report.traffic)
    raise ValueError(f"unknown metric {metric!r}")


def _draw_rng(seed: int, i: int) -> random.Random:
    return random.Random(((seed & _M64) * _MIX + i + 1) & _M64)


def _draw_schedule(pf: PrimeFactorization, arch: ArchSpec, rng: random.Random) -> Schedule:
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
    pf: PrimeFactorization, arch: ArchSpec, cfg: SearchConfig
) -> tuple[Schedule, CostReport, SearchStats]:
    """Best of up to cfg.valid_target valid schedules from uniform draws.

    Draws raw configurations (level, rank, binding per factor); slot
    collisions are resolved by deterministic order, every other
    infeasibility is rejected by the exact validator.  Raises
    NoValidScheduleError when cfg.samples draws produce nothing valid.
    """
    stats = SearchStats()
    best = None  # (metric, draw index, schedule, report)
    for i in range(cfg.samples):
        stats.draws = i + 1
        sched = _draw_schedule(pf, arch, _draw_rng(cfg.seed, i))
        if validate(sched, arch):
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


def valid_assignments(
    pf: PrimeFactorization, arch: ArchSpec, limit: int = 1_000_000
) -> Iterator[tuple[Schedule, Iterator[Levels]]]:
    """Yield every valid (level, mapping) assignment once, in deterministic
    order, as its first-order schedule and a lazy iterator over its
    distinct loop orders (levels tuples, the first order included).

    Distinct schedules differ in some loop's level, binding, or in the
    loop order within a level; permutations of identical factors are not
    duplicated.  Guarded by the raw assignment-space size.

    Validity is decided once per assignment, on its first loop order:
    every check of `validate` (dimension products, the spatial fanout,
    the spatial dimensions allowed per level, per-tensor and shared
    capacities) reads only which loops sit at which level and how they
    are bound, never their order within a level.  So either all orders of
    an assignment are valid or none is, and the orders of an invalid
    assignment are never built.
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

    level_names = tuple(lvl.name for lvl in arch.levels)

    def maps(fi: int, current: list[tuple[int, int]]) -> Iterator[list[tuple[int, int]]]:
        if fi == F:
            yield list(current)
            return
        j = flat[fi][0]
        prev_cap = None
        if fi > 0 and flat[fi - 1][0] == j and flat[fi - 1][2] == flat[fi][2]:
            prev_cap = current[fi - 1]
        for I in range(H):
            options = [(I, TEMPORAL)]
            if arch.levels[I].spatial_allowed(j):
                options.append((I, SPATIAL))
            for opt in options:
                if prev_cap is not None and opt < prev_cap:
                    continue  # identical factors: canonical non-decreasing
                current.append(opt)
                yield from maps(fi + 1, current)
                current.pop()

    # one Loop per (factor, binding), shared by every assignment
    loop_of = [
        {k: Loop(j, prime, k == SPATIAL) for k in (TEMPORAL, SPATIAL)}
        for j, n, prime, _lg in flat
    ]
    # distinct orders of one level's loops, listed once per loop sequence
    orders_of: dict[tuple[Loop, ...], tuple[tuple[Loop, ...], ...]] = {}
    for assignment in maps(0, []):
        per_level: list[list[Loop]] = [[] for _ in range(H)]
        for fi, (I, k) in enumerate(assignment):
            per_level[I].append(loop_of[fi][k])
        # the first distinct order of every level is the assignment's own
        levels = tuple(tuple(loops) for loops in per_level)
        first = Schedule(
            levels=levels, level_names=level_names, layer=pf.dims, arch_name=arch.name
        )
        if validate(first, arch):
            continue
        for loops in levels:
            if loops not in orders_of:
                orders_of[loops] = tuple(_distinct_orders(loops))
        yield first, itertools.product(*(orders_of[loops] for loops in levels))


def enumerate_all(
    pf: PrimeFactorization, arch: ArchSpec, limit: int = 1_000_000
) -> Iterator[Schedule]:
    """Yield every valid schedule exactly once, in deterministic order:
    the loop orders of each of `valid_assignments`, flattened."""
    for first, orders in valid_assignments(pf, arch, limit):
        next(orders)  # the first order is `first` itself
        yield first
        for levels in orders:
            yield replace(first, levels=levels)


def order_scorer(report: CostReport, arch: ArchSpec, metric: str) -> Callable[[Levels], int]:
    """`metric_value` of any loop order of the assignment that `report`
    evaluates, as a function of that order's levels.

    Only the NoC iteration counts depend on loop order (see `costmodel`),
    so each order costs one `costmodel.noc_iterations` call on top of the
    report's order-free terms; compute cycles do not depend on it at all.
    """
    cycles = report.compute_cycles
    if metric == "compute":
        return lambda levels: cycles
    # elements per NoC iteration: everything in a total but its count
    per_iter = [t.total_elems // t.iterations for t in report.traffic]

    def totals(levels: Levels) -> list[int]:
        iters = costmodel.noc_iterations(levels, arch)
        return list(map(operator.mul, per_iter, iters))

    if metric == "traffic":
        return lambda levels: sum(totals(levels))
    if metric == "latency":
        return lambda levels: costmodel.bytes_and_latency(cycles, totals(levels), arch)[1]
    raise ValueError(f"unknown metric {metric!r}")

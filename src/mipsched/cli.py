"""Batch command-line front end.

Subcommands: solve, evaluate, compare, partition, sweep, enumerate.
Config files are line-oriented `key=value` under `[section]` headers.
Report tables go to stdout with stable column order; timings and search
statistics go to stderr so stdout is byte-deterministic for fixed inputs
and seed.  Exit codes: 0 optimal, 2 parse/validation error, 3
infeasible (also when a solved schedule still fails exact validation:
a non-capacity violation, or capacity ones left after the last halo
re-solve round), 4 limit reached (the --time-limit timeout, which
bounds the whole command, or an enumerate assignment space above
--limit; enumerate prints nothing then), 5 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from . import costmodel, schedule as sched_mod
from .arch import (
    DEFAULT_A,
    ArchSpec,
    MemLevel,
    MemTensorMatrix,
    SIMBA_B,
    TENSOR_NAMES,
    TensorDimMatrix,
    default_simba_arch,
    validate_arch,
)
from .formulation import (
    FormulationError,
    MipModel,
    ObjectiveWeights,
    PartitionSpec,
    build_model,
)
from .schedule import CostReport, Schedule, decode, evaluate, render, serialize, validate
from .search import (
    NoValidScheduleError,
    SearchConfig,
    SearchTimeout,
    SpaceTooLarge,
    enumerate_best,
    metric_value,
    random_search,
)
from .solver import Solution, SolveStats, SolverOptions, solve
from .workload import (
    DIM_NAMES,
    LayerDims,
    PaddingPolicy,
    PrimeFactorization,
    factorize,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_TIMEOUT = 4  # any limit reached: --time-limit, or enumerate's --limit
EXIT_IO = 5

MAX_ROUNDS = 12  # halo re-solve rounds before an invalid schedule is an error


class ConfigError(ValueError):
    pass


class InvalidScheduleError(RuntimeError):
    """The solver's schedule fails exact validation and re-solving with
    tightened capacities cannot mend it."""


@dataclass
class RunConfig:
    command: str
    arch_path: str | None = None
    layer_paths: list[str] = field(default_factory=list)
    schedule_path: str | None = None
    out_path: str | None = None
    weights: ObjectiveWeights = ObjectiveWeights()
    solver: SolverOptions = field(default_factory=SolverOptions)
    search: SearchConfig = SearchConfig()
    budget: int | None = None
    max_prime: int | None = 7
    halo: bool = True
    sweep_grid: tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]] = (
        (1.0,),
        (1.0,),
        (1.0,),
    )
    enumerate_limit: int = 1_000_000


# ----------------------------------------------------------------------
# config file parsing
# ----------------------------------------------------------------------


# the keys of each section a layer or arch file may hold, lowercased;
# None where the keys are a matrix's rows, named by dimension or level
_LAYER_KEYS = {"layer": frozenset(d.lower() for d in DIM_NAMES) | {"stride"}}
_ARCH_KEYS = {
    "arch": frozenset({"name", "precision", "bandwidth"}),
    "level": frozenset({"name", "capacity", "fanout", "noc"}),
    "matrix_a": None,
    "matrix_b": None,
}


class Section(dict):
    """One section's values by key, as `parse_sections` reads them, with
    the file, the section's name and line, and each key's line."""

    def __init__(self, path: str, name: str, line: int):
        super().__init__()
        self.path, self.name, self.line = path, name, line
        self.lines: dict[str, int] = {}  # per key, its line

    def value(self, key: str, convert: Callable, what: str,
              default: str | None = None, label: str | None = None):
        """`convert` of `key`'s value, or of `default` when the section
        does not hold the key.  A value that `convert` rejects with
        ValueError is an error that names the file, the key's line, the
        key (as `label`, if given) and the value, and so is a missing key
        without a default, at the section's line."""
        label = label or key
        text = self.get(key, default)
        if text is None:
            raise ConfigError(f"{self.path}:{self.line}: [{self.name}] missing key {label}")
        try:
            return convert(text)
        except ValueError:
            raise ConfigError(f"{self.path}:{self.lines[key]}: "
                              f"[{self.name}] {label} must be {what}, got {text!r}") from None


def parse_sections(text: str, path: str, keys: dict[str, frozenset[str] | None],
                   once: tuple[str, ...] = (),
                   ) -> list[tuple[str, Section, int]]:
    """Parse `[section]` / `key=value` text into ordered sections, each as
    its name, its `Section` and its line.  A section `keys` does not name
    is an error; so is a key outside its section's set, which is stored
    lowercased, and a key given twice in one section, in any case:
    `Stride` and `stride` are one key.  A section whose set is None holds
    matrix rows, kept as written.  A section named in `once` appears at
    most once."""
    sections: list[tuple[str, Section, int]] = []
    current: Section | None = None
    allowed: frozenset[str] | None = None  # the current section's keys
    seen: dict[str, int] = {}  # the current section's keys, lowercased: line
    opened: dict[str, int] = {}  # the sections of `once` met so far: line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in keys:
                raise ConfigError(f"{path}:{lineno}: unknown section [{name}]")
            allowed = keys[name]
            if name in once:
                first = opened.setdefault(name, lineno)
                if first != lineno:
                    raise ConfigError(f"{path}:{lineno}: [{name}] repeats line {first}")
            current = Section(path, name, lineno)
            seen = {}
            sections.append((name, current, lineno))
        elif "=" in line:
            if current is None:
                raise ConfigError(f"{path}:{lineno}: key outside any [section]")
            key, value = (part.strip() for part in line.split("=", 1))
            low = key.lower()
            first = seen.setdefault(low, lineno)
            if first != lineno:
                raise ConfigError(f"{path}:{lineno}: key {key} repeats line {first}")
            if allowed is not None:
                if low not in allowed:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key} in [{name}]")
                key = low
            current[key] = value
            current.lines[key] = lineno
        else:
            raise ConfigError(f"{path}:{lineno}: expected [section] or key=value")
    return sections


def _count(text: str) -> int:
    """A layer dimension, stride or fanout: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise ValueError(text)
    return n


def load_layer(path: str) -> LayerDims:
    with open(path, "r", encoding="utf-8") as fh:
        sections = parse_sections(fh.read(), path, _LAYER_KEYS, once=("layer",))
    body = next((body for name, body, _line in sections if name == "layer"), None)
    if body is None:
        raise ConfigError(f"{path}: missing [layer] section")
    dims = [body.value(key.lower(), _count, "an integer >= 1", label=key) for key in DIM_NAMES]
    stride = body.value("stride", _count, "an integer >= 1", default="1", label="Stride")
    return LayerDims(*dims, stride=stride)


def _capacities(text: str) -> tuple[float, ...]:
    """A level's per-tensor capacities: one number or inf (unbounded) per tensor."""
    caps = tuple(
        math.inf if x.strip().lower() in ("inf", "unbounded") else float(x)
        for x in text.split(",")
    )
    if len(caps) != len(TENSOR_NAMES):
        raise ValueError(text)
    return caps


# the values of a yes/no key (noc), in any case
_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _flag(text: str) -> bool:
    if text.lower() not in _FLAGS:
        raise ValueError(text)
    return _FLAGS[text.lower()]


def _triple(text: str) -> tuple[int, int, int]:
    parts = tuple(int(x) for x in text.split(","))
    if len(parts) != 3:
        raise ValueError(text)
    return parts


def load_arch(path: str) -> ArchSpec:
    with open(path, "r", encoding="utf-8") as fh:
        sections = parse_sections(fh.read(), path, _ARCH_KEYS,
                                  once=("arch", "matrix_a", "matrix_b"))
    meta = Section(path, "arch", 0)
    levels: list[MemLevel] = []
    a_rows = Section(path, "matrix_a", 0)
    b_rows = Section(path, "matrix_b", 0)
    for name, body, _lineno in sections:
        if name == "arch":
            meta = body
        elif name == "level":
            levels.append(MemLevel(
                name=body.get("name", f"L{len(levels)}"),
                capacity_bytes=body.value(
                    "capacity", _capacities, "three comma-separated numbers or inf"),
                spatial_fanout=body.value("fanout", _count, "an integer >= 1", default="1"),
                is_noc_boundary=body.value(
                    "noc", _flag, "1/true/yes or 0/false/no", default="false"),
            ))
        elif name == "matrix_a":
            a_rows = body
        elif name == "matrix_b":
            b_rows = body
    if not levels:
        raise ConfigError(f"{path}: no [level] sections")

    def matrix(cls, given: Section, names):
        """The matrix of one row per name, each named exactly once."""
        for key in given:
            if key not in names:
                raise ConfigError(f"{path}: [{given.name}] unknown row {key}")
        rows = []
        for row in names:
            if row not in given:
                raise ConfigError(f"{path}: [{given.name}] missing row {row}")
            rows.append(given.value(row, _triple, "three comma-separated integers"))
        try:
            return cls(rows=tuple(rows))
        except ValueError as exc:
            raise ConfigError(f"{path}: [{given.name}] {exc}") from None

    A = matrix(TensorDimMatrix, a_rows, DIM_NAMES) if a_rows else DEFAULT_A
    if b_rows:
        B = matrix(MemTensorMatrix, b_rows, [lvl.name for lvl in levels])
    elif len(levels) == len(SIMBA_B.rows):
        B = SIMBA_B
    else:
        B = MemTensorMatrix(rows=tuple((1, 1, 1) for _ in levels))

    return ArchSpec(
        levels=tuple(levels),
        A=A,
        B=B,
        precision_bytes=meta.value(
            "precision", _triple, "three comma-separated integers", default="1,1,3"),
        noc_bandwidth=meta.value("bandwidth", float, "a number", default="8"),
        name=meta.get("name", os.path.splitext(os.path.basename(path))[0]),
    )


# ----------------------------------------------------------------------
# solve pipeline
# ----------------------------------------------------------------------


@dataclass
class PipelineResult:
    """The last round's solution, schedule, report and model, and the
    search statistics summed over every round, `stats`."""

    solution: Solution
    schedule: Schedule | None
    report: CostReport | None
    model: MipModel
    pads: dict[tuple[int, int], float]
    rounds: int
    stats: SolveStats


def solve_layer(
    pf: PrimeFactorization,
    arch: ArchSpec,
    weights: ObjectiveWeights = ObjectiveWeights(),
    partition: PartitionSpec | None = None,
    halo: bool = True,
    deadline: float = math.inf,
) -> PipelineResult:
    """Build, solve, decode, validate; re-solve with tightened capacities
    when exact validation finds window-inflated input tiles the linear
    model undercounted.

    Every round's solve stops at `deadline`, a `time.perf_counter()`
    value; a round that starts past it returns status timeout without
    solving."""
    pads: dict[tuple[int, int], float] = {}
    rounds = 0
    stats = SolveStats()
    while True:
        rounds += 1
        model = build_model(pf, arch, weights, partition=partition, capacity_pads=pads)
        if time.perf_counter() >= deadline:
            solution = Solution("timeout", None, None, None, SolveStats())
            return PipelineResult(solution, None, None, model, pads, rounds,
                                  stats.then(solution.stats))
        solution = solve(model, deadline)
        stats = stats.then(solution.stats)
        if solution.status != "optimal":
            return PipelineResult(solution, None, None, model, pads, rounds, stats)
        sched = decode(solution.x_assignment, pf, arch)
        check_arch = arch
        if partition is not None:
            check_arch = arch_with_partition(arch, model, solution)
            sched = replace(sched, arch_name=check_arch.name)
        violations = validate(sched, check_arch, halo=halo)
        capacity = [v for v in violations if v.kind == "capacity"]
        if not violations:
            report = evaluate(sched, check_arch)
            return PipelineResult(solution, sched, report, model, pads, rounds, stats)
        if violations != capacity or rounds >= MAX_ROUNDS:
            raise InvalidScheduleError(
                "solver produced an invalid schedule: "
                + "; ".join(str(v) for v in violations)
            )
        for v in capacity:
            level, tensor = v.slice
            halo_tile = costmodel.tile_elements(sched, check_arch, level, tensor, halo=True)
            plain_tile = costmodel.tile_elements(sched, check_arch, level, tensor, halo=False)
            cap = check_arch.capacity_elements(level, tensor)
            old = pads.get((level, tensor), 0.0)
            observed = math.log2(halo_tile / plain_tile) if plain_tile else 0.0
            # at least one element of tightening per round, more when the
            # observed window inflation is larger
            step = math.log2(cap / (cap - 1)) if cap > 1 else 0.5
            pads[(level, tensor)] = max(old + step, observed)


def arch_with_partition(arch: ArchSpec, model: MipModel, solution: Solution) -> ArchSpec:
    """Architecture with buffer capacities replaced by the chosen sizes."""
    caps = [list(lvl.capacity_bytes) for lvl in arch.levels]
    for mi, menu in enumerate(model.menus):
        ent = menu.entries[solution.menu_selection[mi]]
        caps[menu.level][menu.tensor] = float(ent.nbytes)
    levels = tuple(
        replace(lvl, capacity_bytes=tuple(caps[i])) for i, lvl in enumerate(arch.levels)
    )
    return replace(arch, levels=levels, name=arch.name + "+partition")


def baseline_total_bytes(arch: ArchSpec) -> int:
    """Whole-element bytes of every storable on-chip buffer slice."""
    return sum(cap * arch.precision_bytes[v] for _I, v, cap in arch.finite_capacities)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def _status_exit(solution: Solution) -> int:
    if solution.witness:
        print(f"infeasible: {', '.join(solution.witness)}", file=sys.stderr)
    if solution.status == "infeasible":
        return EXIT_INFEASIBLE
    if solution.status == "timeout":
        return EXIT_TIMEOUT
    return EXIT_OK


def _report_solve(result: PipelineResult, label: str = "") -> None:
    """A pipeline's status, from its last solve round, and its search
    statistics summed over the rounds on stderr, each line prefixed with
    `label`.  On timeout the status line also gives the last round's best
    open bound and its gap to the incumbent."""
    stats = result.stats
    status = result.solution.status
    if status == "timeout":
        status += f" bound {stats.bound:.9f} gap {stats.gap:.9f}"
    print(f"{label}status {status}", file=sys.stderr)
    print(
        f"{label}nodes {stats.nodes} leaves {stats.leaves} "
        f"wall {stats.wall_time_s:.3f}s rounds {result.rounds}",
        file=sys.stderr,
    )


def _load_arch(cfg: RunConfig) -> ArchSpec:
    arch = default_simba_arch() if cfg.arch_path is None else load_arch(cfg.arch_path)
    problems = validate_arch(arch)
    if problems:
        raise ConfigError("; ".join(str(p) for p in problems))
    return arch


def _load_factorized(cfg: RunConfig) -> tuple[ArchSpec, PrimeFactorization]:
    """The arch and the factorized layer of a command that takes one layer."""
    arch = _load_arch(cfg)
    layer = load_layer(cfg.layer_paths[0])
    return arch, factorize(layer, PaddingPolicy(max_prime=cfg.max_prime))


def _write_schedule(path: str, schedule) -> int:
    try:
        with open(path, "wb") as fh:
            fh.write(serialize(schedule))
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_solve(cfg: RunConfig) -> int:
    deadline = time.perf_counter() + cfg.solver.time_limit_s  # for every round
    arch, pf = _load_factorized(cfg)
    partition = (
        PartitionSpec(budget_bytes=cfg.budget) if cfg.budget is not None else None
    )
    result = solve_layer(
        pf, arch, cfg.weights, partition=partition, halo=cfg.halo, deadline=deadline
    )
    sol = result.solution
    _report_solve(result)
    if sol.status != "optimal":
        return _status_exit(sol)
    print(render(result.schedule), end="")
    print(f"objective {sol.objective_value:.9f}")
    print(result.report.to_text(result.schedule.level_names), end="")
    if cfg.out_path:
        return _write_schedule(cfg.out_path, result.schedule)
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig) -> int:
    arch = _load_arch(cfg)
    with open(cfg.schedule_path, "rb") as fh:
        sched = sched_mod.parse(fh.read())
    violations = validate(sched, arch, halo=cfg.halo)
    if violations:
        for v in violations:
            print(f"invalid: {v}")
        return EXIT_PARSE
    report = evaluate(sched, arch)
    print(render(sched), end="")
    print(report.to_text(sched.level_names), end="")
    return EXIT_OK


def cmd_compare(cfg: RunConfig) -> int:
    deadline = time.perf_counter() + cfg.solver.time_limit_s  # for the whole command
    arch = _load_arch(cfg)
    layers = [load_layer(p) for p in cfg.layer_paths]
    print("layer solver_metric random_metric ratio draws valid")
    ratios = []
    code = EXIT_OK
    for path, dims in zip(cfg.layer_paths, layers):
        name = os.path.splitext(os.path.basename(path))[0]
        pf = factorize(dims, PaddingPolicy(max_prime=cfg.max_prime))
        result = solve_layer(pf, arch, cfg.weights, halo=cfg.halo, deadline=deadline)
        if result.solution.status != "optimal":
            print(f"{name} {result.solution.status} - - - -")
            code = _status_exit(result.solution)
            continue
        solver_metric = metric_value(result.report, cfg.search.metric)
        try:
            _best, rep, stats = random_search(pf, arch, cfg.search, halo=cfg.halo,
                                              deadline=deadline)
            random_metric = metric_value(rep, cfg.search.metric)
            ratio = random_metric / solver_metric if solver_metric else math.inf
            ratios.append(ratio)
            print(
                f"{name} {solver_metric} {random_metric} {ratio:.6f} "
                f"{stats.draws} {stats.valid}"
            )
        except NoValidScheduleError:
            print(f"{name} {solver_metric} none - {cfg.search.samples} 0")
        except SearchTimeout as exc:
            print(f"{name} {solver_metric} timeout - {exc.stats.draws} {exc.stats.valid}")
            code = EXIT_TIMEOUT
        print(
            f"{name}: solver {result.stats.wall_time_s:.3f}s",
            file=sys.stderr,
        )
    if len(ratios) > 1:
        geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        print(f"geomean - - {geomean:.6f} - -")
    return code


def cmd_partition(cfg: RunConfig) -> int:
    deadline = time.perf_counter() + cfg.solver.time_limit_s  # for both solves
    if cfg.budget is None:
        raise ConfigError("partition needs --budget")
    arch, pf = _load_factorized(cfg)
    fixed = solve_layer(pf, arch, cfg.weights, halo=cfg.halo, deadline=deadline)
    _report_solve(fixed, "baseline ")
    part = solve_layer(
        pf,
        arch,
        cfg.weights,
        partition=PartitionSpec(budget_bytes=cfg.budget),
        halo=cfg.halo,
        deadline=deadline,
    )
    _report_solve(part, "partition ")
    if part.solution.status != "optimal":
        return _status_exit(part.solution)
    model = part.model
    print("level tensor elements bytes")
    total = 0
    for mi, menu in enumerate(model.menus):
        ent = menu.entries[part.solution.menu_selection[mi]]
        total += ent.nbytes
        print(
            f"{arch.levels[menu.level].name} {TENSOR_NAMES[menu.tensor]} "
            f"{ent.elements} {ent.nbytes}"
        )
    print(f"total_bytes {total} budget {cfg.budget}")
    print(f"partition_objective {part.solution.objective_value:.9f}")
    if fixed.solution.status == "optimal":
        print(f"baseline_objective {fixed.solution.objective_value:.9f}")
    print(render(part.schedule), end="")
    if cfg.out_path:
        return _write_schedule(cfg.out_path, part.schedule)
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    deadline = time.perf_counter() + cfg.solver.time_limit_s  # for the whole grid
    arch, pf = _load_factorized(cfg)
    # every grid point's weights are checked, and every point solved,
    # before anything is printed on stdout; stderr reports each point's
    # solve as it ends, prefixed with its weights
    try:
        grid = [ObjectiveWeights(*w) for w in itertools.product(*cfg.sweep_grid)]
    except FormulationError as exc:
        raise ConfigError(str(exc)) from None
    best = None  # index of the first row with the least latency
    rows = []
    for weights in grid:
        result = solve_layer(pf, arch, weights, halo=cfg.halo, deadline=deadline)
        _report_solve(result, f"{weights.w_u:g},{weights.w_c:g},{weights.w_t:g} ")
        if result.solution.status != "optimal":
            return _status_exit(result.solution)
        latency = result.report.latency_cycles
        rows.append((weights.w_u, weights.w_c, weights.w_t,
                     result.solution.objective_value, latency))
        if best is None or latency < rows[best][4]:
            best = len(rows) - 1
    print("w_u w_c w_t objective latency_cycles")
    for i, row in enumerate(rows):
        mark = " best" if i == best else ""
        print(f"{row[0]:g} {row[1]:g} {row[2]:g} {row[3]:.9f} {row[4]}{mark}")
    return EXIT_OK


def cmd_enumerate(cfg: RunConfig) -> int:
    """Exhaustive baseline: count every valid schedule and print the first
    best one under --metric (`search.enumerate_best`).

    One depth-first walk over the (level, mapping) assignments carries
    their tile rows and spatial products, checks after each placed factor
    only what the placement changed (the fanout of its level if it is
    spatial, and the capacities above it of the tensors whose tiles read
    its dimension, compiled once per dimension, level and binding), and
    cuts a partial assignment once a capacity or
    fanout check fails; --no-halo sizes input tiles there without the
    halo window, as `validate` does.  The loop orders of a valid
    assignment are counted, never built: the walk carries each level's
    count, the multinomial len(loops)! / prod(mult!).  The metric reads an
    order only through the temporal loops of the levels at and above the
    NoC level, so one order per class of orders sharing those is scored,
    the class's first in enumeration order.  Enumeration order is
    lexicographic in the per-level order indices, so the first minimum
    of a strict-`<` scan over every order sits at class-first indices,
    and the scan over the representatives finds the same one.  An order
    scores no less than with no transfers (its compute cycles under
    latency, 0 under traffic), so once a best exists, an assignment whose
    score cannot fall below it is counted and not scored.  A `Schedule`
    is built only for the winner, to render.  At the
    --time-limit deadline it stops with nothing on stdout, as past --limit.
    """
    deadline = time.perf_counter() + cfg.solver.time_limit_s
    arch, pf = _load_factorized(cfg)
    metric = cfg.search.metric
    count, best = enumerate_best(
        pf, arch, metric, limit=cfg.enumerate_limit, halo=cfg.halo, deadline=deadline
    )
    print(f"valid_schedules {count}")
    if best is not None:
        value, sched = best
        print(f"best_{metric} {value}")
        print(render(sched), end="")
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _parse_weights(text: str) -> ObjectiveWeights:
    parts = _parse_grid(text, "--weights")
    if len(parts) != 3:
        raise ConfigError("--weights needs wU,wC,wT")
    try:
        return ObjectiveWeights(*parts)
    except FormulationError as exc:
        raise ConfigError(str(exc)) from None


def _parse_grid(text: str, flag: str) -> tuple[float, ...]:
    """The comma-separated numbers of `flag`'s value `text`, -0 read as 0."""
    try:
        return tuple(float(x) + 0.0 for x in text.split(","))
    except ValueError:
        raise ConfigError(f"{flag} needs comma-separated numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mipsched",
        description="One-shot loop-nest scheduler for spatial accelerators",
    )
    # every command takes the same options, built once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--arch", help="architecture file (default: built-in baseline)")
    common.add_argument(
        "--layer",
        action="append",
        default=[],
        help="layer file; compare takes several",
    )
    common.add_argument("--schedule", help="schedule file (evaluate)")
    common.add_argument("--weights", default="1,1,1", help="wU,wC,wT")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--samples", type=int, default=20_000)
    common.add_argument("--valid-target", type=int, default=5)
    common.add_argument("--metric", default="latency", choices=["latency", "traffic", "compute"])
    common.add_argument("--budget", type=int, help="partition budget in bytes")
    common.add_argument("--time-limit", type=float, default=300.0)
    common.add_argument("--out", help="output schedule path")
    common.add_argument("--max-prime", type=int, default=7, help="padding threshold; 0 disables")
    common.add_argument("--no-halo", action="store_true", help="validate without input halo")
    common.add_argument("--limit", type=int, default=1_000_000, help="enumeration guard")
    common.add_argument("--sweep-wu", default="1", help="comma grid for w_U (sweep)")
    common.add_argument("--sweep-wc", default="1", help="comma grid for w_C (sweep)")
    common.add_argument("--sweep-wt", default="1", help="comma grid for w_T (sweep)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "evaluate", "compare", "partition", "sweep", "enumerate"):
        sub.add_parser(name, parents=[common])
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    weights = _parse_weights(args.weights)
    if args.limit < 1:
        raise ConfigError("--limit must be >= 1")
    if args.budget is not None and args.budget < 1:
        raise ConfigError("--budget must be >= 1")
    if not args.time_limit > 0:  # also rejects NaN
        raise ConfigError(f"--time-limit must be positive, got {args.time_limit:g}")
    if args.max_prime < 0 or args.max_prime == 1:
        raise ConfigError(f"--max-prime must be 0 (off) or >= 2, got {args.max_prime}")
    if args.command == "evaluate" and args.layer:
        raise ConfigError("--layer given; evaluate reads no layer (it takes --schedule)")
    if args.command != "compare" and len(args.layer) > 1:
        raise ConfigError(f"--layer given {len(args.layer)} times; "
                          f"{args.command} takes one (compare takes many)")
    if args.valid_target < 1:
        raise ConfigError(f"--valid-target must be >= 1, got {args.valid_target}")
    if args.samples < args.valid_target:
        raise ConfigError(f"--samples must be >= --valid-target ({args.valid_target}), "
                          f"got {args.samples}")
    solver_opts = SolverOptions(time_limit_s=args.time_limit)
    search = SearchConfig(
        samples=args.samples,
        valid_target=args.valid_target,
        seed=args.seed,
        metric=args.metric,
    )
    return RunConfig(
        command=args.command,
        arch_path=args.arch,
        layer_paths=list(args.layer),
        schedule_path=args.schedule,
        out_path=args.out,
        weights=weights,
        solver=solver_opts,
        search=search,
        budget=args.budget,
        max_prime=args.max_prime if args.max_prime else None,
        halo=not args.no_halo,
        sweep_grid=(
            _parse_grid(args.sweep_wu, "--sweep-wu"),
            _parse_grid(args.sweep_wc, "--sweep-wc"),
            _parse_grid(args.sweep_wt, "--sweep-wt"),
        ),
        enumerate_limit=args.limit,
    )


# the parser of `main`, built on its first call
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.command != "evaluate" and not cfg.layer_paths:
            print("error: --layer is required", file=sys.stderr)
            return EXIT_PARSE
        if args.command == "evaluate" and not cfg.schedule_path:
            print("error: --schedule is required", file=sys.stderr)
            return EXIT_PARSE
        handler = {
            "solve": cmd_solve,
            "evaluate": cmd_evaluate,
            "compare": cmd_compare,
            "partition": cmd_partition,
            "sweep": cmd_sweep,
            "enumerate": cmd_enumerate,
        }[args.command]
        return handler(cfg)
    except FormulationError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InvalidScheduleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SpaceTooLarge, SearchTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except (ConfigError, sched_mod.ScheduleParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

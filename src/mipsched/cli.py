"""Batch command-line front end.

Subcommands: solve, evaluate, compare, partition, sweep, enumerate.
Config files are line-oriented `key=value` under `[section]` headers.
Report tables go to stdout with stable column order; timings and search
statistics go to stderr so stdout is byte-deterministic for fixed inputs
and seed.  Exit codes: 0 optimal, 2 parse/validation error, 3
infeasible (also when a solved schedule still fails exact validation:
a non-capacity violation, or capacity ones left after the last halo
re-solve round), 4 limit reached (the --time-limit timeout, or an
enumerate assignment space above --limit, with nothing on stdout),
5 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, replace

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
    metric_value,
    order_scorer,
    random_search,
    valid_assignments,
)
from .solver import Solution, SolverOptions, SpaceTooLarge, solve
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


def parse_sections(text: str, path: str) -> list[tuple[str, dict[str, str], int]]:
    """Parse `[section]` / `key=value` text into ordered sections."""
    sections: list[tuple[str, dict[str, str], int]] = []
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = {}
            sections.append((line[1:-1].strip().lower(), current, lineno))
        elif "=" in line:
            if current is None:
                raise ConfigError(f"{path}:{lineno}: key outside any [section]")
            key, value = line.split("=", 1)
            current[key.strip()] = value.strip()
        else:
            raise ConfigError(f"{path}:{lineno}: expected [section] or key=value")
    return sections


def load_layer(path: str) -> LayerDims:
    with open(path, "r", encoding="utf-8") as fh:
        sections = parse_sections(fh.read(), path)
    layer = None
    for name, body, lineno in sections:
        if name == "layer":
            layer = (body, lineno)
    if layer is None:
        raise ConfigError(f"{path}: missing [layer] section")
    body, lineno = layer
    vals = {}
    for key in DIM_NAMES:
        if key not in body:
            raise ConfigError(f"{path}: [layer] missing key {key}")
        try:
            vals[key] = int(body[key])
        except ValueError:
            raise ConfigError(f"{path}: {key} must be an integer") from None
    try:
        stride = int(body.get("Stride", body.get("stride", "1")))
    except ValueError:
        raise ConfigError(f"{path}: Stride must be an integer") from None
    try:
        return LayerDims(*[vals[k] for k in DIM_NAMES], stride=stride)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_capacity(text: str) -> float:
    if text.strip().lower() in ("inf", "unbounded"):
        return math.inf
    return float(text)


def load_arch(path: str) -> ArchSpec:
    with open(path, "r", encoding="utf-8") as fh:
        sections = parse_sections(fh.read(), path)
    meta: dict[str, str] = {}
    levels: list[MemLevel] = []
    a_rows: dict[str, str] = {}
    b_rows: dict[str, str] = {}
    for name, body, lineno in sections:
        if name == "arch":
            meta.update(body)
        elif name == "level":
            try:
                caps = tuple(_parse_capacity(x) for x in body["capacity"].split(","))
                levels.append(
                    MemLevel(
                        name=body.get("name", f"L{len(levels)}"),
                        capacity_bytes=caps,
                        spatial_fanout=int(body.get("fanout", "1")),
                        is_noc_boundary=body.get("noc", "false").lower()
                        in ("1", "true", "yes"),
                    )
                )
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad [level] section: {exc}") from None
        elif name == "matrix_a":
            a_rows.update(body)
        elif name == "matrix_b":
            b_rows.update(body)
    if not levels:
        raise ConfigError(f"{path}: no [level] sections")

    def triple(text: str) -> tuple[int, int, int]:
        parts = [int(x) for x in text.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"{path}: expected three comma-separated values: {text}")
        return tuple(parts)

    if a_rows:
        rows = []
        for dim in DIM_NAMES:
            if dim not in a_rows:
                raise ConfigError(f"{path}: [matrix_a] missing row {dim}")
            rows.append(triple(a_rows[dim]))
        A = TensorDimMatrix(rows=tuple(rows))
    else:
        A = DEFAULT_A
    if b_rows:
        rows = []
        for lvl in levels:
            if lvl.name not in b_rows:
                raise ConfigError(f"{path}: [matrix_b] missing row {lvl.name}")
            rows.append(triple(b_rows[lvl.name]))
        B = MemTensorMatrix(rows=tuple(rows))
    elif len(levels) == len(SIMBA_B.rows):
        B = SIMBA_B
    else:
        B = MemTensorMatrix(rows=tuple((1, 1, 1) for _ in levels))

    precision = triple(meta.get("precision", "1,1,3"))
    return ArchSpec(
        levels=tuple(levels),
        A=A,
        B=B,
        precision_bytes=precision,
        noc_bandwidth=float(meta.get("bandwidth", "8")),
        name=meta.get("name", os.path.splitext(os.path.basename(path))[0]),
    )


# ----------------------------------------------------------------------
# solve pipeline
# ----------------------------------------------------------------------


@dataclass
class PipelineResult:
    solution: Solution
    schedule: Schedule | None
    report: CostReport | None
    model: MipModel
    pads: dict[tuple[int, int], float]
    rounds: int


def solve_layer(
    pf: PrimeFactorization,
    arch: ArchSpec,
    weights: ObjectiveWeights = ObjectiveWeights(),
    opts: SolverOptions | None = None,
    partition: PartitionSpec | None = None,
    halo: bool = True,
) -> PipelineResult:
    """Build, solve, decode, validate; re-solve with tightened capacities
    when exact validation finds window-inflated input tiles the linear
    model undercounted."""
    opts = opts or SolverOptions()
    pads: dict[tuple[int, int], float] = {}
    rounds = 0
    while True:
        rounds += 1
        model = build_model(pf, arch, weights, partition=partition, capacity_pads=pads)
        solution = solve(model, opts)
        if solution.status != "optimal":
            return PipelineResult(solution, None, None, model, pads, rounds)
        sched = decode(solution, pf, arch)
        check_arch = arch
        if partition is not None:
            check_arch = arch_with_partition(arch, model, solution)
            sched = replace(sched, arch_name=check_arch.name)
        violations = validate(sched, check_arch, halo=halo)
        capacity = [v for v in violations if v.kind == "capacity"]
        if not violations:
            report = evaluate(sched, check_arch)
            return PipelineResult(solution, sched, report, model, pads, rounds)
        if violations != capacity or rounds >= MAX_ROUNDS:
            raise InvalidScheduleError(
                "solver produced an invalid schedule: "
                + "; ".join(str(v) for v in violations)
            )
        for v in capacity:
            level_name, _, tensor_name = v.where.rpartition("/")
            level = next(
                i for i, lvl in enumerate(check_arch.levels) if lvl.name == level_name
            )
            tensor = TENSOR_NAMES.index(tensor_name)
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


def _load_inputs(cfg: RunConfig):
    arch = default_simba_arch() if cfg.arch_path is None else load_arch(cfg.arch_path)
    problems = validate_arch(arch)
    if problems:
        raise ConfigError("; ".join(str(p) for p in problems))
    layers = [load_layer(p) for p in cfg.layer_paths]
    return arch, layers


def _write_schedule(path: str, schedule) -> int:
    try:
        with open(path, "wb") as fh:
            fh.write(serialize(schedule))
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_solve(cfg: RunConfig) -> int:
    arch, layers = _load_inputs(cfg)
    dims = layers[0]
    pf = factorize(dims, PaddingPolicy(max_prime=cfg.max_prime))
    partition = (
        PartitionSpec(budget_bytes=cfg.budget) if cfg.budget is not None else None
    )
    result = solve_layer(
        pf, arch, cfg.weights, cfg.solver, partition=partition, halo=cfg.halo
    )
    sol = result.solution
    print(f"status {sol.status}", file=sys.stderr)
    print(
        f"nodes {sol.stats.nodes} leaves {sol.stats.leaves} "
        f"wall {sol.stats.wall_time_s:.3f}s rounds {result.rounds}",
        file=sys.stderr,
    )
    if sol.status != "optimal":
        return _status_exit(sol)
    print(render(result.schedule), end="")
    print(f"objective {sol.objective_value:.9f}")
    print(result.report.to_text(result.schedule.level_names), end="")
    if cfg.out_path:
        return _write_schedule(cfg.out_path, result.schedule)
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig) -> int:
    arch, _layers = _load_inputs(cfg)
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
    arch, layers = _load_inputs(cfg)
    print("layer solver_metric random_metric ratio draws valid")
    ratios = []
    code = EXIT_OK
    for path, dims in zip(cfg.layer_paths, layers):
        name = os.path.splitext(os.path.basename(path))[0]
        pf = factorize(dims, PaddingPolicy(max_prime=cfg.max_prime))
        result = solve_layer(pf, arch, cfg.weights, cfg.solver, halo=cfg.halo)
        if result.solution.status != "optimal":
            print(f"{name} {result.solution.status} - - - -")
            code = _status_exit(result.solution)
            continue
        solver_metric = metric_value(result.report, cfg.search.metric)
        try:
            _best, rep, stats = random_search(pf, arch, cfg.search)
            random_metric = metric_value(rep, cfg.search.metric)
            ratio = random_metric / solver_metric if solver_metric else math.inf
            ratios.append(ratio)
            print(
                f"{name} {solver_metric} {random_metric} {ratio:.6f} "
                f"{stats.draws} {stats.valid}"
            )
        except NoValidScheduleError:
            print(f"{name} {solver_metric} none - {cfg.search.samples} 0")
        print(
            f"{name}: solver {result.solution.stats.wall_time_s:.3f}s",
            file=sys.stderr,
        )
    if len(ratios) > 1:
        geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        print(f"geomean - - {geomean:.6f} - -")
    return code


def cmd_partition(cfg: RunConfig) -> int:
    if not cfg.budget or cfg.budget <= 0:
        print("error: partition needs --budget > 0", file=sys.stderr)
        return EXIT_INFEASIBLE
    arch, layers = _load_inputs(cfg)
    dims = layers[0]
    pf = factorize(dims, PaddingPolicy(max_prime=cfg.max_prime))
    try:
        fixed = solve_layer(pf, arch, cfg.weights, cfg.solver, halo=cfg.halo)
        part = solve_layer(
            pf,
            arch,
            cfg.weights,
            cfg.solver,
            partition=PartitionSpec(budget_bytes=cfg.budget),
            halo=cfg.halo,
        )
    except FormulationError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
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
    arch, layers = _load_inputs(cfg)
    dims = layers[0]
    pf = factorize(dims, PaddingPolicy(max_prime=cfg.max_prime))
    print("w_u w_c w_t objective latency_cycles")
    best = None
    rows = []
    for wu in cfg.sweep_grid[0]:
        for wc in cfg.sweep_grid[1]:
            for wt in cfg.sweep_grid[2]:
                weights = ObjectiveWeights(wu, wc, wt, mode=cfg.weights.mode)
                result = solve_layer(pf, arch, weights, cfg.solver, halo=cfg.halo)
                if result.solution.status != "optimal":
                    return _status_exit(result.solution)
                latency = result.report.latency_cycles
                rows.append((wu, wc, wt, result.solution.objective_value, latency))
                if best is None or latency < best[4]:
                    best = rows[-1]
    for row in rows:
        mark = " best" if row == best else ""
        print(f"{row[0]:g} {row[1]:g} {row[2]:g} {row[3]:.9f} {row[4]}{mark}")
    return EXIT_OK


def cmd_enumerate(cfg: RunConfig) -> int:
    """Exhaustive baseline: count every valid schedule and print the first
    best one under --metric.

    Each valid (level, mapping) assignment is evaluated once, on its
    first loop order; every one of its orders is then counted and scored
    by `order_scorer` from its NoC iteration counts alone.  The best is
    kept as a levels tuple (strict `<`, so the first minimum wins), and a
    `Schedule` is built only for it, to render.
    """
    arch, layers = _load_inputs(cfg)
    dims = layers[0]
    pf = factorize(dims, PaddingPolicy(max_prime=cfg.max_prime))
    metric = cfg.search.metric
    count = 0
    best = None  # (value, first-order schedule, levels)
    for first, orders in valid_assignments(pf, arch, limit=cfg.enumerate_limit):
        score = order_scorer(evaluate(first, arch), arch, metric)
        for levels in orders:
            count += 1
            value = score(levels)
            if best is None or value < best[0]:
                best = (value, first, levels)
    print(f"valid_schedules {count}")
    if best is not None:
        value, first, levels = best
        print(f"best_{metric} {value}")
        print(render(replace(first, levels=levels)), end="")
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _parse_weights(text: str, mode: str) -> ObjectiveWeights:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 3:
        raise ConfigError("--weights needs wU,wC,wT")
    return ObjectiveWeights(*parts, mode=mode)


def _parse_grid(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mipsched",
        description="One-shot loop-nest scheduler for spatial accelerators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "evaluate", "compare", "partition", "sweep", "enumerate"):
        p = sub.add_parser(name)
        p.add_argument("--arch", help="architecture file (default: built-in baseline)")
        p.add_argument(
            "--layer",
            action="append",
            default=[],
            help="layer file; repeatable for compare",
        )
        p.add_argument("--schedule", help="schedule file (evaluate)")
        p.add_argument(
            "--obj",
            default="combined",
            choices=["util", "comp", "traffic", "combined", "balance"],
        )
        p.add_argument("--weights", default="1,1,1", help="wU,wC,wT")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=20_000)
        p.add_argument("--valid-target", type=int, default=5)
        p.add_argument("--metric", default="latency", choices=["latency", "traffic", "compute"])
        p.add_argument("--budget", type=int, help="partition budget in bytes")
        p.add_argument("--time-limit", type=float, default=300.0)
        p.add_argument("--out", help="output schedule path")
        p.add_argument("--max-prime", type=int, default=7, help="padding threshold; 0 disables")
        p.add_argument("--no-halo", action="store_true", help="validate without input halo")
        p.add_argument("--limit", type=int, default=1_000_000, help="enumeration guard")
        p.add_argument("--sweep-wu", default="1", help="comma grid for w_U (sweep)")
        p.add_argument("--sweep-wc", default="1", help="comma grid for w_C (sweep)")
        p.add_argument("--sweep-wt", default="1", help="comma grid for w_T (sweep)")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    weights = _parse_weights(args.weights, args.obj)
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
            _parse_grid(args.sweep_wu),
            _parse_grid(args.sweep_wc),
            _parse_grid(args.sweep_wt),
        ),
        enumerate_limit=args.limit,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        needs_layer = args.command in (
            "solve",
            "compare",
            "partition",
            "sweep",
            "enumerate",
        )
        if needs_layer and not cfg.layer_paths:
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
    except SpaceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except (ConfigError, sched_mod.ScheduleParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

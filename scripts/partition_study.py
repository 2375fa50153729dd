#!/usr/bin/env python3
"""Co-optimize buffer sizes with the schedule, layer by layer.

Shows how different layers prefer different on-chip memory splits under
the same total budget, and what the co-optimization buys relative to the
fixed baseline partition.

Usage: python scripts/partition_study.py [--budget BYTES] [--time-limit S]

Exits 4 when a solve stops at the time limit and 3 when one is
infeasible, as `mipsched` does; the layer's line then names the solve.
A budget below 1 byte or a time limit that is not positive is an
argument error (exit 2).
"""

import argparse
import sys

from mipsched.arch import TENSOR_NAMES, default_simba_arch
from mipsched.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_TIMEOUT,
    baseline_total_bytes,
    solve_layer,
)
from mipsched.formulation import ObjectiveWeights, PartitionSpec
from mipsched.solver import SolverOptions
from mipsched.workload import factorize
from run_suite import SUITE


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--budget", type=int, default=None, help="bytes (default: baseline total)")
    ap.add_argument("--time-limit", type=float, default=200.0)
    args = ap.parse_args()
    if args.budget is not None and args.budget < 1:
        ap.error("--budget must be >= 1")
    if not args.time_limit > 0:  # also rejects NaN
        ap.error(f"--time-limit must be positive, got {args.time_limit:g}")

    arch = default_simba_arch()
    budget = baseline_total_bytes(arch) if args.budget is None else args.budget
    print(f"budget {budget} B (baseline total {baseline_total_bytes(arch)} B)")

    statuses = set()
    for name, dims in SUITE.items():
        pf = factorize(dims)
        opts = SolverOptions(time_limit_s=args.time_limit)
        fixed = solve_layer(pf, arch, ObjectiveWeights(), opts)
        part = solve_layer(
            pf, arch, ObjectiveWeights(), opts, partition=PartitionSpec(budget_bytes=budget)
        )
        failed = [(label, result.solution.status)
                  for label, result in (("fixed", fixed), ("partition", part))
                  if result.solution.status != "optimal"]
        if failed:
            print(f"{name}: " + ", ".join(f"{label} solve {status}"
                                          for label, status in failed))
            statuses.update(status for _label, status in failed)
            continue
        model = part.model
        picks = []
        total = 0
        for mi, menu in enumerate(model.menus):
            ent = menu.entries[part.solution.menu_selection[mi]]
            total += ent.nbytes
            picks.append(
                f"{arch.levels[menu.level].name}/{TENSOR_NAMES[menu.tensor]}={ent.nbytes}B"
            )
        print(f"\n{name}: objective {fixed.solution.objective_value:.4f} -> "
              f"{part.solution.objective_value:.4f}, {total} B used, "
              f"nodes {fixed.stats.nodes} -> {part.stats.nodes}")
        print("  " + " ".join(picks))
    if "timeout" in statuses:
        return EXIT_TIMEOUT
    if "infeasible" in statuses:
        return EXIT_INFEASIBLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

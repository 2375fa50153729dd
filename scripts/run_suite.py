#!/usr/bin/env python3
"""Solve the built-in layer suite on the baseline target and compare the
one-shot schedules against the seeded random baseline.

Usage: python scripts/run_suite.py [--time-limit S] [--seed N]

Exits 4 when a solve stops at the time limit and 3 when one is
infeasible, as `mipsched` does; the layer's line then names the status.
A time limit that is not positive is an argument error (exit 2).
"""

import argparse
import math
import sys
import time

from mipsched.arch import default_simba_arch
from mipsched.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_TIMEOUT, solve_layer
from mipsched.formulation import ObjectiveWeights
from mipsched.schedule import render
from mipsched.search import SearchConfig, random_search
from mipsched.solver import SolverOptions
from mipsched.workload import LayerDims, factorize

SUITE = {
    "tiny": LayerDims(3, 1, 1, 1, 1, 4, 3),
    "conv28": LayerDims(3, 3, 28, 28, 8, 4, 3),
    "wide256": LayerDims(3, 3, 14, 14, 256, 256, 1),
    "deep512": LayerDims(3, 3, 7, 7, 512, 512, 1),
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--time-limit", type=float, default=120.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--show-schedules", action="store_true")
    args = ap.parse_args()
    if not args.time_limit > 0:  # also rejects NaN
        ap.error(f"--time-limit must be positive, got {args.time_limit:g}")

    print("layer factors objective latency random_latency ratio solve_s")
    ratios = []
    statuses = set()
    for name, dims in SUITE.items():
        pf = factorize(dims)
        t0 = time.perf_counter()
        result = solve_layer(
            pf,
            default_simba_arch(),
            ObjectiveWeights(),
            SolverOptions(time_limit_s=args.time_limit),
        )
        dt = time.perf_counter() - t0
        if result.solution.status != "optimal":
            print(f"{name} - {result.solution.status} - - - {dt:.1f}")
            statuses.add(result.solution.status)
            continue
        _best, rep, _stats = random_search(
            pf,
            default_simba_arch(),
            SearchConfig(samples=20_000, valid_target=5, seed=args.seed),
        )
        ratio = rep.latency_cycles / result.report.latency_cycles
        ratios.append(ratio)
        print(
            f"{name} {sum(len(f) for f in pf.factors)} "
            f"{result.solution.objective_value:.6f} {result.report.latency_cycles} "
            f"{rep.latency_cycles} {ratio:.3f} {dt:.1f}"
        )
        if args.show_schedules:
            print(render(result.schedule))
    if ratios:
        geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        print(f"geomean random/solver latency ratio: {geomean:.3f}")
    if "timeout" in statuses:
        return EXIT_TIMEOUT
    if "infeasible" in statuses:
        return EXIT_INFEASIBLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Sample valid schedules for one layer and report the latency spread.

Reproduces, at desk scale, the wide performance distribution that makes
one-shot scheduling worthwhile: even among valid schedules the best and
worst differ by large factors.

Usage: python scripts/spread_experiment.py [--valid N] [--seed S] [--bins B]
                                           [--max-draws D]

Exits 3 (`EXIT_INFEASIBLE`) when none of the draws is valid; a count
below 1 is an argument error (exit 2).
"""

import argparse
import sys

from mipsched.arch import default_simba_arch
from mipsched.cli import EXIT_INFEASIBLE, EXIT_OK
from mipsched.schedule import evaluate, validate
from mipsched.search import draw_schedule
from mipsched.workload import LayerDims, factorize


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--valid", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--bins", type=int, default=12)
    ap.add_argument("--max-draws", type=int, default=200_000)
    args = ap.parse_args()
    for name in ("valid", "bins", "max_draws"):
        if getattr(args, name) < 1:
            ap.error(f"--{name.replace('_', '-')} must be >= 1")

    arch = default_simba_arch()
    pf = factorize(LayerDims(3, 3, 14, 14, 256, 256, 1))
    latencies = []
    draws = 0
    while len(latencies) < args.valid and draws < args.max_draws:
        sched = draw_schedule(pf, arch, args.seed, draws)
        draws += 1
        if validate(sched, arch):
            continue
        latencies.append(evaluate(sched, arch).latency_cycles)
    if not latencies:
        print(f"no valid schedule in {draws} draws")
        return EXIT_INFEASIBLE

    latencies.sort()
    lo, hi = latencies[0], latencies[-1]
    print(f"draws {draws} valid {len(latencies)} validity_rate {len(latencies)/draws:.3f}")
    print(f"latency min {lo} median {latencies[len(latencies)//2]} max {hi}")
    print(f"max/min ratio {hi/lo:.1f}")
    print("histogram (log-spaced):")
    edges = [lo * (hi / lo) ** (i / args.bins) for i in range(args.bins + 1)]
    for i in range(args.bins):
        n = sum(1 for x in latencies if edges[i] <= x < edges[i + 1] or (i == args.bins - 1 and x == hi))
        bar = "#" * max(1, round(60 * n / len(latencies))) if n else ""
        print(f"{edges[i]:>12.0f} {n:>6} {bar}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Record the expected output of every op the benchmark can run.

Usage, from the root of a checkout:

    python3 perfbench/record.py

Runs each op once through `mipsched.cli.main` to time it, and once more
with the tracer installed.  perfbench/expected.json then holds, per op:
its stdout sha256, its printed objectives, its exact counts (nodes,
leaves, rounds, candidates, valid), the number of checked schedules it
emits, and its untraced wall time, from which the benchmark sets its
number of passes.

Each printed objective is cross-checked by solving the op's final-round
model (`model.raw()`) with scipy's HiGHS `milp` at zero relative gap.  The
recorded value is HiGHS's objective, recomputed exactly from the rounded
solution, with source "highs".  Where HiGHS does not finish within the
HIGHS_TIME_LIMIT_S, or the value is not a MIP objective (enumerate's best metric),
the printed value is recorded with source "seed".
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import time

import run
import workloads
from tracer import Tracer

HIGHS_TIME_LIMIT_S = 300.0


def highs_objective(model) -> float | None:
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    raw = model.raw()
    n = len(raw.var_names)
    c = np.zeros(n)
    for vid, coef in raw.objective.items():
        c[vid] = coef
    rows, cols, vals, lo, hi = [], [], [], [], []
    for i, con in enumerate(raw.constraints):
        for vid, coef in con.terms:
            rows.append(i)
            cols.append(vid)
            vals.append(coef)
        lo.append(-np.inf if con.sense == "<=" else con.rhs)
        hi.append(np.inf if con.sense == ">=" else con.rhs)
    A = coo_matrix((vals, (rows, cols)), shape=(len(raw.constraints), n)).tocsr()
    binary = np.array([kind in ("x", "part", "y", "prod") for kind in raw.var_kinds])
    res = milp(
        c,
        constraints=LinearConstraint(A, lo, hi),
        integrality=binary.astype(int),
        bounds=Bounds(np.zeros(n), np.where(binary, 1.0, np.inf)),
        options={"time_limit": HIGHS_TIME_LIMIT_S, "mip_rel_gap": 0.0},
    )
    if res.status != 0 or res.x is None:
        return None
    x = np.where(binary, np.round(res.x), res.x)
    return float(sum(coef * x[vid] for vid, coef in raw.objective.items()))


def models_in_print_order(op: workloads.Op, results: list) -> list:
    """Final-round models matching the order `objectives()` finds values."""
    models = [r.model for r in results]
    if op.command == "partition":  # the fixed solve runs first, prints last
        return models[::-1]
    return models


def record(op: workloads.Op, workdir) -> dict:
    import mipsched
    import mipsched.cli as cli

    spec = run.op_spec(workdir, op)
    run.layer_file(workdir, op).write_text(op.layer_text())
    results = []
    solve_layer = cli.solve_layer

    def capture(*args, **kwargs):
        result = solve_layer(*args, **kwargs)
        results.append(result)
        return result

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        cli.main(spec["argv"])
        wall = time.perf_counter() - t0

    cli.solve_layer = capture
    tracer = Tracer()
    tracer.install(mipsched)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = tracer.run_op(op.name, lambda: cli.main(spec["argv"]))
    finally:
        tracer.uninstall()
        cli.solve_layer = solve_layer
    text = stdout.getvalue()
    if code != 0:
        raise SystemExit(f"{op.name}: exit code {code}")

    printed = run.objectives(text)
    models = models_in_print_order(op, results)
    objectives = []
    for i, (key, value) in enumerate(printed):
        ref, source = value, "seed"
        if i < len(models) and len(models) == len(printed):
            t = time.perf_counter()
            found = highs_objective(models[i])
            print(f"  highs {key}: {found!r} in {time.perf_counter() - t:.1f} s", flush=True)
            if found is not None:
                ref, source = found, "highs"
                if abs(found - value) > run.OBJECTIVE_TOL:
                    print(f"  WARNING {op.name} {key}: printed {value!r}, HiGHS {found!r}")
        objectives.append([key, ref, source])

    if op.command == "enumerate":
        schedules = int(text.split("\n", 1)[0].split()[1])  # "valid_schedules N"
    elif op.command == "sweep":
        schedules = len(printed)
    else:
        schedules = 1
    counts = run.per_op_counts(tracer.spans, tracer.counters)[op.name]
    entry = {
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "objectives": objectives,
        "counts": counts,
        "schedules": schedules,
        "recorded_wall_s": round(wall, 3),
    }
    record_ = {"code": code, "wall_s": wall, "stdout": text, "out": spec["argv"][-1]}
    reasons = run.check_op(op, record_, entry)
    if reasons:
        raise SystemExit(f"{op.name}: {reasons}")
    return entry


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    expected = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.is_file() else {}
    workdir = run.OUT / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for op in workloads.every_op():
        print(op.name, flush=True)
        expected[op.name] = record(op, workdir)
        print(f"  {expected[op.name]}", flush=True)
        run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

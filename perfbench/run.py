#!/usr/bin/env python3
"""Benchmark of the mipsched CLI: end-to-end and per-module metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --quick              # smallest op of every workload

Each workload runs in a fresh worker process (perfbench/worker.py) that
calls `mipsched.cli.main(argv)` in-process, one op after the other, with
one client and no think time (a closed loop).  The solver runs with its
default of one thread: COSA_THREADS is removed from the worker's
environment.  This process checks every op's output, prints one line per
op and metric, writes a result file under perfbench/out/, and prints as
its last line a JSON object with `correct`, `attempted`, `failed` and
`metrics`.

With `--trace 0` the metrics are the end-to-end ones, with times scaled to
a fixed speed of the reference loop in worker.py (see REF_NOMINAL_S); the
raw values are printed beside them.  With `--trace 1`
one untraced pass and one traced pass run in separate fresh processes;
the traced one wraps module boundaries (perfbench/tracer.py), the metrics
are the per-module ones plus the tracing overhead, and the spans and
per-module self times go to perfbench/out/trace-<workload>-seed<n>.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

SETUP_PROBES = 10  # set-up-only processes per run; setup_s is the median over them and the workers
OP_TIMEOUT_S = 60.0  # an op slower than this has failed
# workers still running this long after the run started are killed:
# DEADLINE_SLACK_S for set-up and checks, plus DEADLINE_FACTOR times the
# recorded time of the passes the run plans
DEADLINE_SLACK_S = 60.0
DEADLINE_FACTOR = 2.5
OBJECTIVE_TOL = 1e-9
# End-to-end times are scaled to a machine on which the worker's reference
# loop takes REF_NOMINAL_S: raw seconds x the mean of REF_NOMINAL_S / the
# reference time over the samples taken during the op (or the
# REF_MIN_SAMPLES samples nearest to a short op).  Samples are evenly spaced
# in time, so this sums each slice of the op at the speed measured in it.
# The virtual CPUs this was built on swing ~1.5x in speed for tens of
# seconds at a time; scaling cuts the spread of a 3 s op between runs from
# ~20% to ~4-6%.
REF_NOMINAL_S = 0.003
REF_MIN_SAMPLES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "op_s.max": "s",
    "schedules_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "solver.solve_s": "s",
    "solver.nodes": "count",
    "solver.leaves": "count",
    "solver.nodes_per_s": "1/s",
    "solver.leaves_per_node": "ratio",
    "cli.solve_layer_calls": "count",
    "cli.rounds": "count",
    "cli.resolve_s": "s",
    "cli.resolve_share": "ratio",
    "cli.self_s": "s",
    "formulation.build_model_s": "s",
    "formulation.build_model_calls": "count",
    "schedule.validate_s": "s",
    "schedule.validate_calls": "count",
    "schedule.evaluate_s": "s",
    "schedule.evaluate_calls": "count",
    "costmodel.tile_elements_s": "s",
    "costmodel.tile_elements_calls": "count",
    "search.enumerate_self_s": "s",
    "search.candidates": "count",
    "search.valid": "count",
    "search.accept_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

COUNT_KEYS = ("nodes", "leaves", "rounds", "candidates", "valid")

_OBJECTIVE_LINE = re.compile(r"^(objective|partition_objective|baseline_objective|best_\w+) (\S+)$")
_SWEEP_ROW = re.compile(r"^(\S+) (\S+) (\S+) (-?\d+\.\d+) (\d+)( best)?$")


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(threads: list) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "solver_threads": sorted(set(threads), key=str),
        "COSA_THREADS": "unset",
        "PYTHONHASHSEED": "0",
    }


# ----------------------------------------------------------------------
# worker processes
# ----------------------------------------------------------------------


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "COSA_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclasses.dataclass
class WorkerRun:
    setup_s: float | None
    setup_ref_s: float | None  # reference loop time right after set-up
    records: list[dict]
    summary: dict | None
    killed: bool


def run_worker(spec: dict, spec_path: Path, deadline: float) -> WorkerRun:
    """Start a worker, time it up to `ready`, wait for it (killing it at
    `deadline`) and read its records."""
    spec_path.write_text(json.dumps(spec))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
        stdout=subprocess.PIPE,
        env=worker_env(),
        cwd=ROOT,
    )
    setup_s = setup_ref_s = None
    killed = False
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - t0))
        if ready and proc.stdout.readline().strip() == b"ready":
            setup_s = time.perf_counter() - t0
            ref = proc.stdout.readline().split()
            if len(ref) == 2 and ref[0] == b"ref":
                setup_ref_s = float(ref[1])
        proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        killed = True
    finally:
        if proc.poll() is None:
            killed = True
            proc.kill()
        proc.wait()
        proc.stdout.close()
    records, summary = [], None
    path = Path(spec["records"]) if spec.get("records") else None
    if path is not None and path.is_file():
        for line in path.read_text().splitlines():
            try:
                item = json.loads(line)
            except json.JSONDecodeError:
                break  # cut off by the kill
            if item.get("summary"):
                summary = item
            else:
                records.append(item)
    return WorkerRun(setup_s, setup_ref_s, records, summary, killed)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


def objectives(stdout: str) -> list[tuple[str, float]]:
    """Printed objective values, in print order (sweep rows by grid point)."""
    found = []
    for line in stdout.splitlines():
        m = _OBJECTIVE_LINE.match(line)
        if m:
            found.append((m.group(1), float(m.group(2))))
            continue
        m = _SWEEP_ROW.match(line)
        if m:
            found.append((f"sweep {m.group(1)},{m.group(2)},{m.group(3)}", float(m.group(4))))
    return found


def partition_arch(base, stdout: str):
    """`base` with the buffer sizes a partition op printed."""
    from mipsched.arch import TENSOR_NAMES

    caps = {lvl.name: list(lvl.capacity_bytes) for lvl in base.levels}
    lines = stdout.splitlines()
    start = lines.index("level tensor elements bytes") + 1
    for line in lines[start:]:
        if line.startswith("total_bytes"):
            break
        level, tensor, _elements, nbytes = line.split()
        caps[level][TENSOR_NAMES.index(tensor)] = float(nbytes)
    levels = tuple(
        dataclasses.replace(lvl, capacity_bytes=tuple(caps[lvl.name])) for lvl in base.levels
    )
    return dataclasses.replace(base, levels=levels)


def check_op(op: workloads.Op, record: dict, expected: dict | None) -> list[str]:
    """Reasons the op failed; empty when it passed."""
    from mipsched import schedule
    from mipsched.arch import default_simba_arch

    reasons = []
    if record["code"] != 0:
        reasons.append(f"exit code {record['code']}")
    if record["wall_s"] > OP_TIMEOUT_S:
        reasons.append(f"timed out ({record['wall_s']:.1f} s > {OP_TIMEOUT_S:g} s)")
    if expected is None:
        return reasons + ["no recorded output"]
    digest = hashlib.sha256(record["stdout"].encode("utf-8")).hexdigest()
    if digest != expected["sha256"]:
        reasons.append("stdout sha256 differs from the recorded one")
    got = objectives(record["stdout"])
    want = expected["objectives"]
    if [k for k, _ in got] != [k for k, _v, _s in want]:
        reasons.append("printed objectives differ from the recorded ones")
    else:
        for (key, value), (_k, ref, _source) in zip(got, want):
            if abs(value - ref) > OBJECTIVE_TOL:
                reasons.append(f"{key} {value!r} differs from recorded {ref!r}")
    if op.writes_schedule and record["code"] == 0:
        try:
            with open(record["out"], "rb") as fh:
                sched = schedule.parse(fh.read())
        except (OSError, ValueError) as exc:
            return reasons + [f"--out schedule does not parse: {exc}"]
        arch = default_simba_arch()
        if op.command == "partition":
            arch = partition_arch(arch, record["stdout"])
        violations = schedule.validate(sched, arch, halo=True)
        if violations:
            reasons.append(f"--out schedule invalid: {violations[0]}")
    return reasons


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def pass_walls(records: list[dict]) -> list[float]:
    walls: dict[int, float] = {}
    for r in records:
        walls[r["pass"]] = walls.get(r["pass"], 0.0) + r["wall_s"]
    return [walls[k] for k in sorted(walls)]


def scaled(seconds: float, ref_s: list[float]) -> float:
    return seconds * statistics.fmean(REF_NOMINAL_S / d for d in ref_s)


def op_ref_s(record: dict, samples: list) -> list[float]:
    """Reference loop times sampled during one op."""
    t0, t1 = record["t0"], record["t1"]
    during = [d for t, d in samples if t0 <= t <= t1]
    if len(during) < REF_MIN_SAMPLES:
        mid = (t0 + t1) / 2
        during = [d for _t, d in sorted(samples, key=lambda s: abs(s[0] - mid))[:REF_MIN_SAMPLES]]
    return during


def end_to_end(setups: list[float], run: WorkerRun, schedules: int) -> dict[str, float]:
    """End-to-end metrics from per-op times in seconds (raw or scaled)."""
    walls = [r["wall_s"] for r in run.records]
    by_op: dict[str, list[float]] = {}
    for r in run.records:
        by_op.setdefault(r["op"], []).append(r["wall_s"])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(pass_walls(run.records)),
        "op_s.p50": statistics.median(walls),
        # the slowest op, each op taken at its median over the passes
        "op_s.max": max(statistics.median(w) for w in by_op.values()),
        "schedules_per_s": schedules / sum(walls),
        "peak_rss_mb": run.summary["peak_rss_kb"] / 1024.0,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def per_op_counts(spans: list[dict], counters: dict) -> dict[str, dict[str, int]]:
    counts = {op: dict.fromkeys(COUNT_KEYS, 0) for op in counters}
    for s in spans:
        c = counts[s["op"]]
        if s["name"] == "solver.solve":
            c["nodes"] += s.get("nodes", 0)
            c["leaves"] += s.get("leaves", 0)
        elif s["name"] == "cli.solve_layer":
            c["rounds"] += s.get("rounds", 0)
        elif s["name"] == "search.enumerate_all":
            c["valid"] += s["items"]
    for op, named in counters.items():
        counts[op]["candidates"] = named.get("schedule.validate[search]", [0])[0]
    return counts


def per_layer(traced: WorkerRun, untraced: WorkerRun) -> tuple[dict, dict]:
    """Per-module metrics of one traced pass, and per-module self times."""
    spans = traced.summary["spans"]
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    totals: dict[str, list] = {}
    for named in traced.summary["counters"].values():
        for name, (calls, secs, self_s) in named.items():
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += secs
            t[2] += self_s

    def dur(name):
        return sum((s["dur"] for s in by_name.get(name, [])), 0.0)

    def self_time(name):
        return sum((s["self"] for s in by_name.get(name, [])), 0.0)

    def counter(prefix, i):
        return sum(t[i] for name, t in totals.items() if name.startswith(prefix))

    solves = by_name.get("solver.solve", [])
    nodes = sum(s.get("nodes", 0) for s in solves)
    leaves = sum(s.get("leaves", 0) for s in solves)
    solve_s = dur("solver.solve")
    # every solve runs inside a solve_layer call; rounds >= 2 are halo re-solves
    rounds_by_call: dict[int, list[dict]] = {}
    for s in solves:
        rounds_by_call.setdefault(s["parent"], []).append(s)
    resolve_s = sum(
        (
            s["dur"]
            for rounds in rounds_by_call.values()
            for s in sorted(rounds, key=lambda s: s["start"])[1:]
        ),
        0.0,
    )
    candidates = counter("schedule.validate[search]", 0)
    valid = sum(s["items"] for s in by_name.get("search.enumerate_all", []))
    traced_wall = sum(pass_walls(traced.records))
    untraced_wall = sum(pass_walls(untraced.records))
    metrics = {
        "solver.solve_s": solve_s,
        "solver.nodes": nodes,
        "solver.leaves": leaves,
        "solver.nodes_per_s": ratio(nodes, solve_s),
        "solver.leaves_per_node": ratio(leaves, nodes),
        "cli.solve_layer_calls": len(by_name.get("cli.solve_layer", [])),
        "cli.rounds": sum(s.get("rounds", 0) for s in by_name.get("cli.solve_layer", [])),
        "cli.resolve_s": resolve_s,
        "cli.resolve_share": ratio(resolve_s, solve_s),
        "cli.self_s": self_time("cli.main") + self_time("cli.solve_layer"),
        "formulation.build_model_s": dur("formulation.build_model"),
        "formulation.build_model_calls": len(by_name.get("formulation.build_model", [])),
        "schedule.validate_s": counter("schedule.validate", 1),
        "schedule.validate_calls": counter("schedule.validate", 0),
        "schedule.evaluate_s": counter("schedule.evaluate", 1),
        "schedule.evaluate_calls": counter("schedule.evaluate", 0),
        "costmodel.tile_elements_s": counter("costmodel.tile_elements", 1),
        "costmodel.tile_elements_calls": counter("costmodel.tile_elements", 0),
        "search.enumerate_self_s": self_time("search.enumerate_all"),
        "search.candidates": candidates,
        "search.valid": valid,
        "search.accept_ratio": ratio(valid, candidates),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_share": ratio(traced_wall - untraced_wall, untraced_wall),
    }
    self_by_module: dict[str, float] = {}
    for s in spans:
        m = module_of(s["name"])
        self_by_module[m] = self_by_module.get(m, 0.0) + s["self"]
    for name, (_calls, _secs, self_s) in totals.items():
        m = module_of(name)
        self_by_module[m] = self_by_module.get(m, 0.0) + self_s
    return metrics, self_by_module


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------


def layer_file(workdir: Path, op: workloads.Op) -> Path:
    return workdir / (op.name.replace("/", "__") + ".layer")


def op_spec(workdir: Path, op: workloads.Op) -> dict:
    layer = layer_file(workdir, op)
    out = workdir / (op.name.replace("/", "__") + ".sched")
    return {"name": op.name, "layer": str(layer), "argv": op.argv(str(layer), str(out))}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    t_start = time.perf_counter()
    ops = workloads.quick(workload) if quick else workloads.draw(workload, seed)
    by_name = {op.name: op for op in ops}
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    tag = f"{workload}-seed{seed}-trace{int(trace)}" + ("-quick" if quick else "")
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for op in ops:
        layer_file(workdir, op).write_text(op.layer_text())
    specs = [op_spec(workdir, op) for op in ops]

    # the pass count follows from the recorded op times, so it does not vary
    # with the machine's speed from run to run
    # (a traced run makes one untraced and one traced pass)
    pass_s = sum(expected.get(op.name, {}).get("recorded_wall_s", 1.0) for op in ops)
    passes = 1 if trace else max(1, int(seconds // pass_s))
    planned_s = passes * pass_s * (2 if trace else 1)
    deadline = t_start + DEADLINE_SLACK_S + DEADLINE_FACTOR * planned_s

    def spec(setup_only: bool, traced: bool, passes: int, name: str) -> dict:
        return {
            "src": str(SRC),
            "ops": specs,
            "passes": passes,
            "trace": traced,
            # only --trace 0 times are scaled by reference samples; both
            # passes of a trace run go unsampled, so they compare like for like
            "sample": not trace,
            "setup_only": setup_only,
            "records": None if setup_only else str(workdir / f"{name}.jsonl"),
        }

    # the first process compiles the sources to bytecode; it is not timed
    run_worker(spec(True, False, 0, "warmup"), workdir / "warmup.json", deadline)
    probes = [
        run_worker(spec(True, False, 0, "probe"), workdir / f"probe{i}.json", deadline)
        for i in range(SETUP_PROBES)
    ]

    if trace:
        runs = [
            run_worker(spec(False, False, passes, "untraced"), workdir / "untraced.json", deadline),
            run_worker(spec(False, True, passes, "traced"), workdir / "traced.json", deadline),
        ]
    else:
        runs = [run_worker(spec(False, False, passes, "run"), workdir / "run.json", deadline)]

    attempted = failed = schedules = 0
    op_lines = []
    threads = []
    timed = [p for p in probes + runs if p.setup_s is not None and p.setup_ref_s]
    setups = [p.setup_s for p in timed]
    setups_scaled = [scaled(p.setup_s, [p.setup_ref_s]) for p in timed]
    for run in runs:
        for record in run.records:
            op = by_name[record["op"]]
            reasons = check_op(op, record, expected.get(op.name))
            attempted += 1
            threads.append(record["threads"])
            if reasons:
                failed += 1
            else:
                schedules += expected[op.name]["schedules"]
            op_lines.append((record, reasons))
        if run.summary is None:
            attempted += 1  # the op running when the worker was killed or died
            failed += 1
            worker = {"op": "(worker)", "pass": "-", "wall_s": 0.0, "code": None}
            op_lines.append((worker, ["killed at the deadline" if run.killed else "worker died"]))

    env = environment(threads)
    print(f"workload {workload} seed {seed} trace {int(trace)} passes {passes}")
    print(
        f"env nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
        f"commit={env['commit']} solver_threads={env['solver_threads']} COSA_THREADS=unset"
    )
    for record, reasons in op_lines:
        status = "ok" if not reasons else "FAIL " + "; ".join(reasons)
        print(f"op {record['op']} pass {record['pass']} wall_s {record['wall_s']:.4f} {status}")

    complete = all(run.summary is not None for run in runs) and bool(setups)
    metrics: dict[str, float] = {}
    result: dict = {"workload": workload, "seed": seed, "trace": trace, "quick": quick, "env": env}
    if complete and not trace:
        run = runs[0]
        samples = run.summary["ref_samples"]
        scaled_run = dataclasses.replace(
            run,
            records=[
                r | {"wall_s": scaled(r["wall_s"], op_ref_s(r, samples))} for r in run.records
            ],
        )
        metrics = end_to_end(setups_scaled, scaled_run, schedules)
        result["raw_metrics"] = end_to_end(setups, run, schedules)
        result["ref_samples"] = samples
        result["setups"] = [[p.setup_s, p.setup_ref_s] for p in timed]
        result["op_samples"] = len(runs[0].records)
        result["passes"] = runs[0].summary["passes"]
    elif complete:
        metrics, self_by_module = per_layer(runs[1], runs[0])
        counts = per_op_counts(runs[1].summary["spans"], runs[1].summary["counters"])
        for op_id, got in counts.items():
            name = op_id.split("#", 1)[0]
            want = expected.get(name, {}).get("counts", {})
            line = " ".join(f"{k}={got[k]}" for k in COUNT_KEYS)
            print(f"counts {name} {line}")
            for k in COUNT_KEYS:
                if want.get(k) != got[k]:
                    print(f"count-diff {name} {k} recorded={want.get(k)} now={got[k]}")
        trace_file = OUT / f"trace-{workload}-seed{seed}{'-quick' if quick else ''}.json"
        trace_file.write_text(
            json.dumps(
                {
                    "env": env,
                    "metrics": metrics,
                    "self_s_by_module": self_by_module,
                    "counts": counts,
                    "spans": runs[1].summary["spans"],
                    "counters": runs[1].summary["counters"],
                },
                indent=1,
            )
        )
        print(f"trace written to {trace_file.relative_to(ROOT)}")
        for m, s in sorted(self_by_module.items()):
            print(f"self_s {m} {s:.6f}")
    units = PER_LAYER if trace else END_TO_END
    for name, value in metrics.items():
        extra = f" n={result['op_samples']} op samples" if name.startswith("op_s.") else ""
        if "raw_metrics" in result:
            extra += f" raw={result['raw_metrics'][name]!r}"
        print(f"metric {name} {value!r} {units[name]}{extra}")
    print(f"failed_frac {ratio(failed, attempted)!r} ({failed}/{attempted})")

    correct = complete and failed == 0
    result.update(
        correct=correct,
        attempted=attempted,
        failed=failed,
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        ops=[
            {k: r.get(k) for k in ("op", "pass", "code", "t0", "t1", "wall_s")}
            | {"failures": reasons}
            for r, reasons in op_lines
        ],
    )
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
    shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="run only the smallest op, once")
    args = ap.parse_args(argv)
    if args.workload is None and not args.quick:
        ap.error("--workload is required without --quick")
    if not (SRC / "mipsched" / "cli.py").is_file():
        print(f"error: no mipsched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    ok = True
    for name in names:
        seconds = 0.0 if args.quick else args.seconds  # quick: a single pass
        result = run_workload(name, args.seed, seconds, bool(args.trace), args.quick)
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok or not args.quick else 1


if __name__ == "__main__":
    sys.exit(main())

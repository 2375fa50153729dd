"""One workload process of the mipsched benchmark.

Usage: python3 perfbench/worker.py SPEC.json

Imports `mipsched.cli` from the checkout's `src`, loads the baseline
architecture and the layer files, prints `ready` on stdout (the parent
times set-up up to that line), then prints `ref <seconds>`, the time of
the reference loop right after set-up.  Unless the spec says
`setup_only`, it then runs passes over the ops by calling
`mipsched.cli.main(argv)` in-process with stdout and stderr captured, for
the spec's number of passes.  One JSON line per op goes to the spec's
`records` file; the last line holds peak memory, the reference samples
and, with `trace`, the spans and counters.

The speed of a shared virtual CPU can swing by half within seconds, and
a process's CPU time swings with it.  So a worker whose spec says
`sample` also times the reference loop every REF_INTERVAL_S seconds from
a SIGALRM handler (about 2% of the run); the parent scales op times by
these samples.  The parent asks for samples only in runs whose times it
scales, so the untraced and traced passes of a trace run both go
unsampled and their difference is the tracing overhead alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

REF_INTERVAL_S = 0.15


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def reference() -> float:
    """Seconds taken by a fixed mix of interpreter work: arithmetic,
    object creation, attribute and dict access, list growth (~3 ms)."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    d: dict[int, int] = {}
    items: list[_Pair] = []
    for i in range(2500):
        p = _Pair(i, i & 63)
        d[p.b] = d.get(p.b, 0) + p.a
        items.append(p)
        if len(items) > 200:
            items = items[100:]
    return time.perf_counter() - t0


class Speedometer:
    """(time, reference seconds) samples taken every REF_INTERVAL_S."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self, *_signal_args) -> None:
        t = time.perf_counter()
        self.samples.append((t, reference()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    src = spec["src"]
    sys.path.insert(0, src)
    import mipsched
    import mipsched.cli as cli

    if not os.path.abspath(mipsched.__file__).startswith(src + os.sep):
        print(f"mipsched imported from {mipsched.__file__}, not {src}", file=sys.stderr)
        return 2
    cli.default_simba_arch()
    for op in spec["ops"]:
        cli.load_layer(op["layer"])
    print("ready", flush=True)
    speed = Speedometer()
    for _ in range(3):
        speed.sample()
    print(f"ref {statistics.median(d for _t, d in speed.samples)!r}", flush=True)
    if spec["setup_only"]:
        return 0

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(mipsched)
    if spec["sample"]:
        speed.start()

    with open(spec["records"], "w", encoding="utf-8") as out:
        for pass_no in range(spec["passes"]):
            for op in spec["ops"]:
                record = run_op(cli, tracer, op, pass_no)
                out.write(json.dumps(record) + "\n")
                out.flush()
        if tracer is not None:
            tracer.uninstall()
        if spec["sample"]:
            speed.sample()  # a sample after the last op
            speed.stop()
        summary = {
            "summary": True,
            "passes": spec["passes"],
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "ref_samples": speed.samples,
        }
        if tracer is not None:
            summary["spans"] = tracer.spans
            summary["counters"] = tracer.counters
        out.write(json.dumps(summary) + "\n")
    return 0


def run_op(cli, tracer, op: dict, pass_no: int) -> dict:
    argv = list(op["argv"])
    out_path = None
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = out_path = f"{argv[i]}.{pass_no}"
    threads = cli.config_from_args(cli.build_parser().parse_args(argv)).solver.threads
    stdout, stderr = io.StringIO(), io.StringIO()
    op_id = f"{op['name']}#{pass_no}"
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.run_op(op_id, lambda: cli.main(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = "exception"
        stderr.write(traceback.format_exc())
    t1 = time.perf_counter()
    return {
        "op": op["name"],
        "op_id": op_id,
        "pass": pass_no,
        "code": code,
        "t0": t0,
        "t1": t1,
        "wall_s": t1 - t0,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "out": out_path,
        "threads": threads,
    }


if __name__ == "__main__":
    sys.exit(main())

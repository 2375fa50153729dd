"""In-memory tracing of mipsched's module boundaries, from outside the program.

The tracer replaces public functions in the namespaces their callers look
them up in (for example `mipsched.cli.solve`, which the solve pipeline
calls) with timing wrappers, and puts the originals back on `uninstall`.

Two kinds of wrapper:

* span: one record per call with name, start, end, parent span, op id and
  self time (duration minus the time covered by wrapped calls inside it);
* counter: for functions called up to ~10^5 times per op, calls, total
  seconds and self seconds are summed per op instead of recorded one by one.

A generator (`search.enumerate_all`) gets one span whose duration is the
time spent inside the generator, summed over its resumptions.
"""

from __future__ import annotations

import time
from typing import Any, Callable

perf_counter = time.perf_counter


def _solve_attrs(solution) -> dict[str, Any]:
    stats = solution.stats
    return {"nodes": stats.nodes, "leaves": stats.leaves, "status": solution.status}


def _pipeline_attrs(result) -> dict[str, Any]:
    return {"rounds": result.rounds}


def targets(mipsched) -> list[tuple[Any, str, str, str, Callable | None]]:
    """(module, attribute, span name, kind, attrs-from-result) to wrap."""
    cli, search, costmodel = mipsched.cli, mipsched.search, mipsched.costmodel
    return [
        (cli, "solve_layer", "cli.solve_layer", "span", _pipeline_attrs),
        (cli, "build_model", "formulation.build_model", "span", None),
        (cli, "solve", "solver.solve", "span", _solve_attrs),
        (cli, "decode", "schedule.decode", "span", None),
        (cli, "render", "schedule.render", "span", None),
        (cli, "validate", "schedule.validate", "counter", None),
        (cli, "evaluate", "schedule.evaluate", "counter", None),
        (search, "enumerate_all", "search.enumerate_all", "generator", None),
        (search, "validate", "schedule.validate[search]", "counter", None),
        (costmodel, "tile_elements", "costmodel.tile_elements", "counter", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[dict[str, Any]] = []
        self.counters: dict[str, dict[str, list]] = {}  # op -> name -> [calls, s, self_s]
        self._stack: list[list] = []  # open frames: [child seconds, span id]
        self._next_id = 0
        self._op: str | None = None
        self._saved: list[tuple[Any, str, Any]] = []

    # -- installation -------------------------------------------------

    def install(self, mipsched) -> None:
        for module, attr, name, kind, attrs in targets(mipsched):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if kind == "span":
                wrapper = self._span(name, original, attrs)
            elif kind == "counter":
                wrapper = self._counter(name, original)
            else:
                wrapper = self._generator(name, original)
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- recording ----------------------------------------------------

    def run_op(self, op: str, fn: Callable[[], Any]) -> Any:
        """Run one op under a root span named `cli.main`."""
        self._op = op
        self.counters.setdefault(op, {})
        try:
            return self._span("cli.main", fn, None)()
        finally:
            self._op = None

    def _open(self) -> list:
        frame = [0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, duration: float) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += duration

    def _record(self, name, frame, parent, start, end, active, attrs) -> None:
        self.spans.append(
            {
                "id": frame[1],
                "name": name,
                "op": self._op,
                "parent": parent,
                "start": start,
                "end": end,
                "dur": active,
                "self": active - frame[0],
                **attrs,
            }
        )

    def _span(self, name: str, fn: Callable, attrs_of: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][1] if self._stack else None
            frame = self._open()
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                self._close(t1 - t0)
                attrs = attrs_of(result) if attrs_of and result is not None else {}
                self._record(name, frame, parent, t0, t1, t1 - t0, attrs)

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                self._close(d)
                c = self.counters[self._op].get(name)
                if c is None:
                    c = self.counters[self._op][name] = [0, 0.0, 0.0]
                c[0] += 1
                c[1] += d
                c[2] += d - frame[0]

        return wrapper

    def _generator(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][1] if self._stack else None
            frame = [0.0, self._next_id]
            self._next_id += 1
            gen = fn(*args, **kwargs)
            start = perf_counter()
            active = 0.0
            items = 0
            try:
                while True:
                    self._stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        d = perf_counter() - t0
                        active += d
                        self._close(d)
                    items += 1
                    yield item
            finally:
                gen.close()
                self._record(
                    name, frame, parent, start, perf_counter(), active, {"items": items}
                )

        return wrapper

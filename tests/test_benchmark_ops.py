"""Every benchmark op, run in-process as the benchmark runs it, exits 0,
prints the stdout the benchmark recorded, and searches the nodes, leaves
and halo rounds pinned here, one stderr line per solve report."""

import contextlib
import hashlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

import pytest

from mipsched.cli import main

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


OPS = load_workloads().every_op()
EXPECTED = json.loads((ROOT / "perfbench" / "expected.json").read_text())

# per op, (nodes, leaves, rounds) of each solve report on stderr, in order
COUNTS = {
    "suite/tiny": [(10, 2, 1)],
    "suite/tiny.T": [(10, 2, 1)],
    "suite/conv28": [(484, 25, 1)],
    "suite/deep512": [(1_456, 8, 1)],
    "suite/wide256": [(2_524, 39, 1)],
    "stride2/3x3-28-c64-k64": [(5_219, 134, 2)],
    "stride2/3x3-14-c32-k64": [(746, 55, 2)],
    "stride2/1x1-28-c64-k128": [(7_747, 921, 2)],
    "partition/conv28": [(484, 25, 1), (103, 11, 1)],
    "partition/deep512": [(1_456, 8, 1), (2_213, 36, 1)],
    "partition/fc": [(526, 54, 1), (566, 21, 1)],
    "sweep/conv28": [],
    "sweep/fc": [],
    "enumerate/r3s1p2": [],
    "enumerate/r3s1p2-c2": [],
}
REPORT = re.compile(r"nodes (\d+) leaves (\d+) .*rounds (\d+)$")


def test_every_op_is_pinned():
    assert sorted(op.name for op in OPS) == sorted(COUNTS)


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
def test_op_output_and_counts(op, tmp_path):
    layer = tmp_path / "op.layer"
    layer.write_text(op.layer_text())
    argv = op.argv(str(layer), str(tmp_path / "op.sched"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == EXPECTED[op.name]["sha256"]
    reports = [tuple(map(int, match.groups()))
               for match in map(REPORT.search, err.getvalue().splitlines()) if match]
    assert reports == COUNTS[op.name]

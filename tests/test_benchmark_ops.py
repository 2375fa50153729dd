"""Every benchmark op, run in-process as the benchmark runs it, exits 0,
prints the stdout the benchmark recorded, writes the `--out` schedule
pinned here, and searches the nodes, leaves and halo rounds pinned here,
one stderr line per solve report."""

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
    "suite/conv28": [(340, 10, 1)],
    "suite/deep512": [(1_440, 3, 1)],
    "suite/wide256": [(1_396, 4, 1)],
    "stride2/3x3-28-c64-k64": [(2_991, 20, 2)],
    "stride2/3x3-14-c32-k64": [(472, 11, 2)],
    "stride2/1x1-28-c64-k128": [(2_586, 72, 2)],
    "partition/conv28": [(340, 10, 1), (67, 3, 1)],
    "partition/deep512": [(1_440, 3, 1), (1_267, 6, 1)],
    "partition/fc": [(418, 14, 1), (186, 6, 1)],
    "sweep/conv28": [(242, 7, 1), (340, 10, 1), (158, 4, 1), (158, 4, 1)],
    "sweep/fc": [(362, 4, 1), (418, 14, 1), (310, 3, 1), (343, 9, 1)],
    "enumerate/r3s1p2": [],
    "enumerate/r3s1p2-c2": [],
}
# per op that writes a schedule, the sha256 of its `--out` file
OUT_SHA256 = {
    "suite/tiny":
        "5d27de96396a3667f74cbbea2ac05144de83418957689e64152f945237c1ce13",
    "suite/tiny.T":
        "a3cc5285d59f811073ca6c3c162132b77adb833cf0d8fb75c7d55f0e5bf1d474",
    "suite/conv28":
        "47d05801b868942701ba33e4a0762ce12f4c9d1822c568a998de8e6e9f99cb2a",
    "suite/deep512":
        "e06eaa283c4747936e0295b04d947722ad9075b13701b5713ef4087c1b5210ae",
    "suite/wide256":
        "4e89ab5334e71800a41260d3e130dd8093eeffeec2d15f0724b951c8b94c55d6",
    "stride2/3x3-28-c64-k64":
        "56413850fe971fde2fae38354f5349be9f97df835063810906073d975917e27c",
    "stride2/3x3-14-c32-k64":
        "12b32172926a30614cbd8e4441a15577b574d5954514ae8bbb3b8699df9f971d",
    "stride2/1x1-28-c64-k128":
        "8f0eadb6688b2c20865150edf42ffd5c1e9ffbc5e03c0aef7fd730670ed64a2f",
    "partition/conv28":
        "3835d903cb965b91a678614eb8cacd160e13ed336ad5b31dd77b60981da865d5",
    "partition/deep512":
        "86548e8cf347250426125d4c7152406eec38c378bd503f105ed9866b85e33e9f",
    "partition/fc":
        "ab91c68f7d8afd9cd29e11c5733460e2fa7e67dede0233355204c35f42d65a72",
}
REPORT = re.compile(r"nodes (\d+) leaves (\d+) .*rounds (\d+)$")


def test_every_op_is_pinned():
    assert sorted(op.name for op in OPS) == sorted(COUNTS)
    assert sorted(op.name for op in OPS if op.writes_schedule) == sorted(OUT_SHA256)


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.name)
def test_op_output_and_counts(op, tmp_path):
    layer = tmp_path / "op.layer"
    layer.write_text(op.layer_text())
    sched = tmp_path / "op.sched"
    argv = op.argv(str(layer), str(sched))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == EXPECTED[op.name]["sha256"]
    written = hashlib.sha256(sched.read_bytes()).hexdigest() if sched.exists() else None
    assert written == OUT_SHA256.get(op.name)
    reports = [tuple(map(int, match.groups()))
               for match in map(REPORT.search, err.getvalue().splitlines()) if match]
    assert reports == COUNTS[op.name]

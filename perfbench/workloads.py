"""Workload pools for the mipsched benchmark.

An op is one `mipsched` command on one layer.  A workload is a list of
slots, and each slot is a pool of interchangeable ops.  Seed 0 takes the
first entry of every slot, in listed order.  Any other seed draws one entry
per slot and shuffles the order, so a claim can be re-checked on inputs
that were not used while the change was written.

A slot's alternatives must cost the same, or the spread between seeds
would hide a change.  The one alternative so far is tiny's transpose
(R<->S with P<->Q): same optimum and node count, different factor order.
The other acceptance layers are their own transpose; the enumerate
layer's transpose finds the same 75,492 schedules but ran 7-18% faster,
so it is not in the pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# baseline_total_bytes() of the built-in baseline architecture; fixed here so
# the benchmark's inputs do not follow changes to the program.
PARTITION_BUDGET = 306367
ENUMERATE_LIMIT = 1_000_000_000_000
DIM_KEYS = ("R", "S", "P", "Q", "C", "K", "N")


@dataclass(frozen=True)
class Op:
    name: str
    command: str  # solve | partition | sweep | enumerate
    dims: tuple[int, int, int, int, int, int, int]
    stride: int = 1

    def transposed(self) -> "Op":
        R, S, P, Q, C, K, N = self.dims
        return Op(self.name + ".T", self.command, (S, R, Q, P, C, K, N), self.stride)

    def layer_text(self) -> str:
        body = "".join(f"{k}={v}\n" for k, v in zip(DIM_KEYS, self.dims))
        return f"[layer]\n{body}Stride={self.stride}\n"

    @property
    def writes_schedule(self) -> bool:
        return self.command in ("solve", "partition")

    def argv(self, layer_path: str, out_path: str | None) -> list[str]:
        args = {
            "solve": [],
            "partition": ["--budget", str(PARTITION_BUDGET)],
            "sweep": ["--sweep-wt", "0,1", "--sweep-wu", "1,2"],
            "enumerate": ["--limit", str(ENUMERATE_LIMIT)],
        }[self.command]
        argv = [self.command, *args, "--layer", layer_path]
        if self.writes_schedule and out_path is not None:
            argv += ["--out", out_path]
        return argv


def _solve(name, dims, stride=1):
    return Op(name, "solve", dims, stride)


TINY = (3, 1, 1, 1, 1, 4, 3)
CONV28 = (3, 3, 28, 28, 8, 4, 3)
DEEP512 = (3, 3, 7, 7, 512, 512, 1)
WIDE256 = (3, 3, 14, 14, 256, 256, 1)
FC = (1, 1, 1, 1, 1024, 1000, 16)
_TINY = _solve("suite/tiny", TINY)

_SLOTS: dict[str, list[list[Op]]] = {
    # the four acceptance layers: branch-and-bound search and node cost
    "suite": [
        [_TINY, _TINY.transposed()],
        [_solve("suite/conv28", CONV28)],
        [_solve("suite/deep512", DEEP512)],
        [_solve("suite/wide256", WIDE256)],
    ],
    # stride-2 layers whose halo windows force a second solve round
    "stride2": [
        [_solve("stride2/3x3-28-c64-k64", (3, 3, 28, 28, 64, 64, 1), 2)],
        [_solve("stride2/3x3-14-c32-k64", (3, 3, 14, 14, 32, 64, 1), 2)],
        [_solve("stride2/1x1-28-c64-k128", (1, 1, 28, 28, 64, 128, 1), 2)],
    ],
    # menu variables, the budget constraint and re-solving related models
    "partition": [
        [Op("partition/conv28", "partition", CONV28)],
        [Op("partition/deep512", "partition", DEEP512)],
        [Op("partition/fc", "partition", FC)],
        [Op("sweep/conv28", "sweep", CONV28)],
        [Op("sweep/fc", "sweep", FC)],
    ],
    # exact validator and cost model over every candidate; no solver
    "enumerate": [[Op("enumerate/r3s1p2", "enumerate", (3, 1, 2, 1, 4, 2, 1))]],
}

# smallest op of each workload, for checking the harness in seconds
_QUICK: dict[str, Op] = {
    "suite": _SLOTS["suite"][0][0],
    "stride2": _SLOTS["stride2"][1][0],
    "partition": _SLOTS["partition"][0][0],
    "enumerate": Op("enumerate/r3s1p2-c2", "enumerate", (3, 1, 2, 1, 2, 2, 1)),
}

WORKLOADS = tuple(_SLOTS)


def draw(workload: str, seed: int) -> list[Op]:
    """The ops of one pass over `workload` for `seed`."""
    pools = _SLOTS[workload]
    if seed == 0:
        return [pool[0] for pool in pools]
    rng = random.Random(f"{workload}:{seed}")
    ops = [rng.choice(pool) for pool in pools]
    rng.shuffle(ops)
    return ops


def quick(workload: str) -> list[Op]:
    return [_QUICK[workload]]


def every_op() -> list[Op]:
    """Every op any seed or the quick mode can run, each once."""
    ops = [op for pools in _SLOTS.values() for pool in pools for op in pool]
    return ops + [op for op in _QUICK.values() if op not in ops]

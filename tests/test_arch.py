import dataclasses
import math

import pytest

from mipsched.arch import (
    DEFAULT_A,
    ArchSpec,
    MemLevel,
    MemTensorMatrix,
    log2_capacity,
    validate_arch,
)

# the canonical dimension/tensor relation, row by row
EXPECTED_A = {
    "R": (1, 0, 0),
    "S": (1, 0, 0),
    "P": (0, 1, 1),
    "Q": (0, 1, 1),
    "C": (1, 1, 0),
    "K": (1, 0, 1),
    "N": (0, 1, 1),
}

EXPECTED_B = {
    "Register": (1, 1, 1),
    "AccumBuf": (0, 0, 1),
    "WeightBuf": (1, 0, 0),
    "InputBuf": (0, 1, 0),
    "GlobalBuf": (1, 1, 0),
    "DRAM": (1, 1, 1),
}


def test_default_a_matrix_exact():
    for j, name in enumerate(("R", "S", "P", "Q", "C", "K", "N")):
        assert DEFAULT_A[j] == EXPECTED_A[name]


def test_default_b_matrix_exact(simba):
    for i, lvl in enumerate(simba.levels):
        assert simba.B[i] == EXPECTED_B[lvl.name]


def test_default_arch_parameters(simba):
    assert [l.name for l in simba.levels] == [
        "Register",
        "AccumBuf",
        "WeightBuf",
        "InputBuf",
        "GlobalBuf",
        "DRAM",
    ]
    gb = simba.levels[4]
    assert gb.capacity_bytes[0] == gb.capacity_bytes[1] == 128 * 1024
    assert gb.is_noc_boundary and gb.spatial_fanout == 16
    assert simba.levels[0].spatial_fanout == 64
    assert simba.precision_bytes == (1, 1, 3)
    assert simba.noc_level == 4
    assert all(math.isinf(c) for c in simba.levels[5].capacity_bytes)


def test_default_arch_validates(simba):
    assert validate_arch(simba) == []


def test_log2_capacity_values(simba):
    assert log2_capacity(simba, 4, 0) == 17.0  # 128 KB of 1-byte weights
    assert log2_capacity(simba, 1, 2) == 10.0  # 3 KB of 3-byte partial sums
    assert math.isinf(log2_capacity(simba, 5, 0))  # backing store unbounded


def test_log2_capacity_requires_storable(simba):
    with pytest.raises(ValueError):
        log2_capacity(simba, 2, 1)  # WeightBuf does not hold inputs


def test_log2_capacity_monotone():
    for cap1, cap2 in ((64, 128), (128, 4096)):
        a1 = MemLevel("L", (float(cap1),) * 3)
        a2 = MemLevel("L", (float(cap2),) * 3)
        arch1 = ArchSpec(
            levels=(a1, MemLevel("M", (math.inf,) * 3)),
            B=MemTensorMatrix(rows=((1, 1, 1), (1, 1, 1))),
        )
        arch2 = ArchSpec(
            levels=(a2, MemLevel("M", (math.inf,) * 3)),
            B=MemTensorMatrix(rows=((1, 1, 1), (1, 1, 1))),
        )
        assert log2_capacity(arch1, 0, 0) < log2_capacity(arch2, 0, 0)
        # higher precision means fewer elements
        arch3 = ArchSpec(
            levels=(a1, MemLevel("M", (math.inf,) * 3)),
            B=MemTensorMatrix(rows=((1, 1, 1), (1, 1, 1))),
            precision_bytes=(2, 1, 3),
        )
        assert log2_capacity(arch3, 0, 0) < log2_capacity(arch1, 0, 0)


def test_two_noc_boundaries_flagged():
    levels = (
        MemLevel("A", (64.0,) * 3, spatial_fanout=2, is_noc_boundary=True),
        MemLevel("B", (64.0,) * 3, spatial_fanout=2, is_noc_boundary=True),
        MemLevel("M", (math.inf,) * 3),
    )
    arch = ArchSpec(levels=levels, B=MemTensorMatrix(rows=((1, 1, 1),) * 3))
    kinds = {v.kind for v in validate_arch(arch)}
    assert "noc-boundary" in kinds


def test_missing_noc_boundary_flagged_not_raised():
    # noc_level is derived on first use: the arch still constructs, the
    # checker reports it, and every lookup raises
    levels = (
        MemLevel("A", (64.0,) * 3, spatial_fanout=2),
        MemLevel("M", (math.inf,) * 3),
    )
    arch = ArchSpec(levels=levels, B=MemTensorMatrix(rows=((1, 1, 1),) * 2))
    assert "noc-boundary" in {v.kind for v in validate_arch(arch)}
    for _ in range(2):
        with pytest.raises(ValueError, match="no NoC boundary"):
            arch.noc_level


def test_derived_constants_match_matrices(simba):
    # cached per arch; the same values a fresh scan gives
    assert simba.noc_level == simba.noc_level == 4
    for v in range(3):
        assert DEFAULT_A.dims_of(v) == tuple(j for j in range(7) if DEFAULT_A[j][v])


def test_storable_without_capacity_flagged():
    levels = (
        MemLevel("A", (64.0, 64.0, 0.0), spatial_fanout=2, is_noc_boundary=True),
        MemLevel("M", (math.inf,) * 3),
    )
    arch = ArchSpec(levels=levels, B=MemTensorMatrix(rows=((1, 1, 1), (1, 1, 1))))
    problems = validate_arch(arch)
    assert any(v.kind == "capacity" and "OA" in v.where for v in problems)


def test_repeated_level_name_flagged(simba):
    """Level names key the [matrix_b] rows and the schedule files, so a
    name that two levels share is ambiguous."""
    levels = list(simba.levels)
    levels[3] = dataclasses.replace(levels[3], name="AccumBuf")
    arch = dataclasses.replace(simba, levels=tuple(levels))
    assert [(v.kind, v.where) for v in validate_arch(arch)] == [("level-name", "AccumBuf")]


@pytest.mark.parametrize("bandwidth", [0.0, -1.0, math.nan])
def test_nonpositive_bandwidth_flagged(simba, bandwidth):
    arch = dataclasses.replace(simba, noc_bandwidth=bandwidth)
    assert [v.kind for v in validate_arch(arch)] == ["bandwidth"]


def test_bounded_backing_store_flagged():
    levels = (
        MemLevel("A", (64.0,) * 3, spatial_fanout=2, is_noc_boundary=True),
        MemLevel("M", (1024.0,) * 3),
    )
    arch = ArchSpec(levels=levels, B=MemTensorMatrix(rows=((1, 1, 1), (1, 1, 1))))
    assert any(v.kind == "backing-store" for v in validate_arch(arch))


def test_spatial_dim_restriction():
    lvl = MemLevel("A", (64.0,) * 3, spatial_fanout=4, allowed_spatial_dims=frozenset({4, 5}))
    assert lvl.spatial_allowed(4) and lvl.spatial_allowed(5)
    assert not lvl.spatial_allowed(0)
    assert not MemLevel("B", (64.0,) * 3).spatial_allowed(4)  # fanout 1

"""End-to-end solve pipeline: decode, validation, capacity tightening."""

import dataclasses
import math

from mipsched.arch import TENSOR_NAMES, ArchSpec, MemLevel, MemTensorMatrix
from mipsched.cli import solve_layer
from mipsched.formulation import ObjectiveWeights, build_model
from mipsched.schedule import decode, encode, validate
from mipsched.search import draw_schedule
from mipsched.solver import SolverOptions, solve
from mipsched.workload import LayerDims, factorize


def window_limited_arch():
    """Buffer sized so the plain tile of a 90x90 output block fits but its
    physical window (92x92, kernel resident below) does not."""
    return ArchSpec(
        levels=(
            MemLevel("PE", (math.inf,) * 3),
            MemLevel("Buf", (float(1 << 20), 8192.0, 0.0), is_noc_boundary=True),
            MemLevel("Mem", (math.inf,) * 3),
        ),
        B=MemTensorMatrix(rows=((1, 1, 1), (1, 1, 0), (1, 1, 1))),
        name="window",
    )


# utilization-dominant weights pull every factor inside the buffer
INSIDE_PULL = ObjectiveWeights(8, 1, 1)


def test_tightening_loop_engages():
    # the plain input tile (8100) fits the 8192-element buffer, the
    # physical 92x92 window does not; the exact validator forces a re-solve
    arch = window_limited_arch()
    pf = factorize(LayerDims(3, 3, 90, 90, 1, 1, 1))
    result = solve_layer(pf, arch, INSIDE_PULL, SolverOptions(time_limit_s=60))
    assert result.solution.status == "optimal"
    assert result.rounds > 1  # first optimum held a window-inflated tile
    assert result.pads  # a capacity pad was recorded
    assert validate(result.schedule, arch, halo=True) == []


def test_no_tightening_without_halo():
    arch = window_limited_arch()
    pf = factorize(LayerDims(3, 3, 90, 90, 1, 1, 1))
    result = solve_layer(
        pf, arch, INSIDE_PULL, SolverOptions(time_limit_s=60), halo=False
    )
    assert result.rounds == 1
    assert validate(result.schedule, arch, halo=False) == []


def test_suite_layers_decode_encode_identity(simba):
    pf = factorize(LayerDims(3, 3, 28, 28, 8, 4, 3))
    for i in range(40):
        sched = draw_schedule(pf, simba, 77, i)
        x = encode(sched, pf)
        again = decode(x, pf, simba)
        assert again == sched


def test_repeated_cli_solves_print_identical_stdout(tmp_path, capsys):
    from mipsched.cli import main

    layer = tmp_path / "l.layer"
    layer.write_text("[layer]\nR=3\nS=1\nP=1\nQ=1\nC=1\nK=4\nN=3\n")
    assert main(["solve", "--layer", str(layer)]) == 0
    first = capsys.readouterr().out
    assert main(["solve", "--layer", str(layer)]) == 0
    second = capsys.readouterr().out
    assert first == second


# the stride-2 layers of the benchmark, each solved in two halo rounds
STRIDE2_LAYERS = (
    LayerDims(3, 3, 28, 28, 64, 64, 1, stride=2),
    LayerDims(3, 3, 14, 14, 32, 64, 1, stride=2),
    LayerDims(1, 1, 28, 28, 64, 128, 1, stride=2),
)


def test_capacity_violations_name_their_slice(simba):
    """The round-1 schedule of each stride-2 layer overflows some buffer
    slice; every capacity violation's (level, tensor) indices name the
    slice its `where` names."""
    seen = 0
    for dims in STRIDE2_LAYERS:
        pf = factorize(dims)
        sol = solve(build_model(pf, simba))
        violations = validate(decode(sol.x_assignment, pf, simba), simba, halo=True)
        assert violations and all(v.kind == "capacity" for v in violations)
        for v in violations:
            level, tensor = v.slice
            assert v.where == f"{simba.levels[level].name}/{TENSOR_NAMES[tensor]}"
            seen += 1
    assert seen >= len(STRIDE2_LAYERS)


def test_halo_loop_reads_slices_by_index(simba):
    """An arch whose levels 1 and 3 share a name (through the Python API;
    an arch file is rejected) solves the stride-2 layer as the arch with
    unique names does: the halo loop pads the overflowed slice by its
    indices, not by looking its name up."""
    levels = list(simba.levels)
    levels[3] = dataclasses.replace(levels[3], name="AccumBuf")
    twin = dataclasses.replace(simba, levels=tuple(levels))
    pf = factorize(STRIDE2_LAYERS[0])
    results = [solve_layer(pf, arch, opts=SolverOptions(time_limit_s=60))
               for arch in (simba, twin)]
    for result in results:
        assert result.solution.status == "optimal"
        assert (result.rounds, result.stats.nodes) == (2, 5_219)
    assert results[0].solution.x_assignment == results[1].solution.x_assignment

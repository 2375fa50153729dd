"""End-to-end solve pipeline: decode, validation, capacity tightening."""

import math

from mipsched.arch import ArchSpec, MemLevel, MemTensorMatrix
from mipsched.cli import solve_layer
from mipsched.formulation import ObjectiveWeights
from mipsched.schedule import decode, encode, validate
from mipsched.search import draw_schedule
from mipsched.solver import Solution, SolveStats, SolverOptions
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
        again = decode(Solution("optimal", 0.0, x, None, SolveStats()), pf, simba)
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

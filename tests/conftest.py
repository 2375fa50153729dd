import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the layer suite is `scripts/run_suite.py`'s (`helpers.SUITE_LAYERS`)
sys.path.insert(0, str(Path(__file__).parent.parent / "scripts"))

from mipsched.arch import default_simba_arch


@pytest.fixture(scope="session")
def simba():
    return default_simba_arch()


@pytest.fixture(scope="session")
def solved_suite(simba):
    """Solve every suite layer once (fixed capacities, default weights);
    yields name -> (factorization, pipeline result, wall seconds)."""
    import time

    from helpers import SUITE_LAYERS
    from mipsched.cli import solve_layer
    from mipsched.formulation import ObjectiveWeights
    from mipsched.solver import SolverOptions
    from mipsched.workload import factorize

    out = {}
    for name, dims in SUITE_LAYERS.items():
        pf = factorize(dims)
        t0 = time.perf_counter()
        result = solve_layer(pf, simba, ObjectiveWeights(), SolverOptions(time_limit_s=120))
        out[name] = (pf, result, time.perf_counter() - t0)
    return out

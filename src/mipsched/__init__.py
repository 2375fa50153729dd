"""One-shot loop-nest scheduler for spatial accelerators.

Formulates loop tiling, loop permutation and spatial mapping of a
7-dimensional conv/matmul nest as a single mixed-integer program over
prime-factor allocation variables, solves it with a deterministic
branch-and-bound, and emits a validated, cost-scored schedule.  Buffer
partitioning under a total-capacity budget can be co-optimized in the
same model.

Entry points besides the `mipsched` command (`cli.main`), each read
outside the command's own path: `MipModel.raw`, `MipModel.raw_values`,
`MipModel.check_raw` and `MipModel.term_values` (the raw MIP view that
external solvers such as HiGHS are checked against); `exhaustive_solve`
and `assignment_space_size` (the exhaustive oracle); `dump_lp` (the
model as an LP file); `encode` (a schedule back to its assignment, read
by `perfbench/record.py`); and `enumerate_all`, `SolverOptions.threads`
and the `cli` functions that `perfbench/tracer.py` wraps (the benchmark).
"""

from .arch import (
    ArchSpec,
    DEFAULT_A,
    MemLevel,
    MemTensorMatrix,
    SIMBA_B,
    TENSOR_NAMES,
    TensorDimMatrix,
    default_simba_arch,
    log2_capacity,
    validate_arch,
)
from .formulation import (
    FormulationError,
    MipModel,
    ObjectiveWeights,
    PartitionSpec,
    build_model,
    compose_objective,
)
from .schedule import (
    CostReport,
    Loop,
    Schedule,
    decode,
    encode,
    evaluate,
    parse,
    render,
    serialize,
    validate,
)
from .search import NoValidScheduleError, SearchConfig, enumerate_all, random_search
from .solver import (
    Solution,
    SolverOptions,
    SpaceTooLarge,
    assignment_space_size,
    dump_lp,
    exhaustive_solve,
    solve,
)
from .workload import (
    DIM_NAMES,
    LayerDims,
    PaddingPolicy,
    PrimeFactorization,
    factorize,
    total_factor_count,
)

__version__ = "0.1.0"

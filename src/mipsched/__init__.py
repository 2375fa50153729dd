"""One-shot loop-nest scheduler for spatial accelerators.

Formulates loop tiling, loop permutation and spatial mapping of a
7-dimensional conv/matmul nest as a single mixed-integer program over
prime-factor allocation variables, solves it with a deterministic
branch-and-bound, and emits a validated, cost-scored schedule.  Buffer
partitioning under a total-capacity budget can be co-optimized in the
same model.
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
    VarIndex,
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

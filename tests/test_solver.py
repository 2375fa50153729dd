import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_instance, toy_two_level
from mipsched.formulation import ObjectiveWeights, build_model
from mipsched.solver import (
    SolverOptions,
    SpaceTooLarge,
    assignment_space_size,
    dump_lp,
    exhaustive_solve,
    solve,
)
from mipsched.workload import LayerDims, factorize


def small_model(mode="combined"):
    pf = factorize(LayerDims(1, 1, 2, 1, 3, 2, 1))
    return build_model(pf, toy_two_level(), ObjectiveWeights(mode=mode))


def test_single_factor_optimum_matches_oracle():
    pf = factorize(LayerDims(1, 1, 1, 1, 1, 2, 1))
    model = build_model(pf, toy_two_level())
    sol = solve(model)
    oracle = exhaustive_solve(model)
    assert sol.status == oracle.status == "optimal"
    assert sol.objective_value == oracle.objective_value
    assert sol.x_assignment == oracle.x_assignment


def test_small_model_oracle_identity():
    model = small_model()
    sol = solve(model)
    oracle = exhaustive_solve(model)
    assert sol.objective_value == oracle.objective_value
    assert sol.x_assignment == oracle.x_assignment


def test_reruns_are_bit_identical():
    model = small_model()
    a = solve(model)
    b = solve(model)
    assert a.objective_value == b.objective_value
    assert a.x_assignment == b.x_assignment


def test_thread_count_does_not_change_answer():
    model = small_model()
    base = solve(model, SolverOptions(threads=1))
    for threads in (2, 4, 8):
        other = solve(model, SolverOptions(threads=threads))
        assert other.status == base.status
        assert other.objective_value == base.objective_value
        assert other.x_assignment == base.x_assignment


def test_feasibility_rechecked(simba):
    pf = factorize(LayerDims(3, 3, 28, 28, 8, 4, 3))
    model = build_model(pf, simba)
    sol = solve(model)
    assert sol.status == "optimal"
    assert model.constraint_violations(sol.x_assignment, sol.menu_selection) == []


def test_timeout_returns_incumbent(simba):
    pf = factorize(LayerDims(3, 3, 14, 14, 256, 256, 1))
    model = build_model(pf, simba)
    # 1e-6 s has expired before the search starts
    for limit in (0.5, 1e-6):
        sol = solve(model, SolverOptions(time_limit_s=limit))
        assert sol.status == "timeout"
        if sol.x_assignment is not None:
            assert model.constraint_violations(sol.x_assignment, sol.menu_selection) == []


def test_space_guard():
    pf = factorize(LayerDims(3, 3, 28, 28, 8, 4, 3))
    from mipsched.arch import default_simba_arch

    model = build_model(pf, default_simba_arch())
    assert assignment_space_size(model) > 10_000_000
    with pytest.raises(SpaceTooLarge):
        exhaustive_solve(model)


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(time_limit_s=0)
    with pytest.raises(ValueError):
        SolverOptions(threads=0)


def test_dump_lp_structure():
    model = small_model()
    text = dump_lp(model)
    assert text.startswith("Minimize")
    assert "Subject To" in text and "Binary" in text and text.endswith("End\n")
    # variable names encode factor, level, rank, and binding
    assert "X_P0_L0_z0_t" in text
    assert "Y_W_g0" in text and "P_W_g0_P0" in text
    a = dump_lp(model)
    assert a == text  # deterministic bytes


def test_balance_mode_oracle():
    model = small_model(mode="balance")
    sol = solve(model)
    oracle = exhaustive_solve(model)
    assert sol.objective_value == oracle.objective_value
    assert sol.x_assignment == oracle.x_assignment


@pytest.mark.parametrize(
    "weights",
    [ObjectiveWeights(1, 1, 0), ObjectiveWeights(1, 0, 1), ObjectiveWeights(2, 0.5, 1)],
    ids=["no-traffic", "no-compute", "mixed"],
)
def test_weight_variants_prove_quickly(simba, weights):
    from mipsched.workload import LayerDims, factorize

    pf = factorize(LayerDims(3, 3, 28, 28, 8, 4, 3))
    sol = solve(build_model(pf, simba, weights), SolverOptions(time_limit_s=30))
    assert sol.status == "optimal"


@pytest.mark.slow
def test_tiny_layer_on_baseline_oracle(simba):
    # full six-level hierarchy, about one million raw assignments
    pf = factorize(LayerDims(3, 1, 1, 1, 1, 4, 3))
    model = build_model(pf, simba)
    assert assignment_space_size(model) <= 10_000_000
    oracle = exhaustive_solve(model)
    sol = solve(model)
    assert sol.objective_value == oracle.objective_value
    assert sol.x_assignment == oracle.x_assignment


@given(st.integers(min_value=5000, max_value=8000))
@settings(max_examples=25, deadline=None)
def test_oracle_equivalence_property(seed):
    model = random_instance(seed, max_space=60_000)
    if model is None:
        return
    sol = solve(model)
    oracle = exhaustive_solve(model)
    assert sol.status == oracle.status
    if sol.status == "optimal":
        assert sol.objective_value == oracle.objective_value
        assert sol.x_assignment == oracle.x_assignment
        assert sol.menu_selection == oracle.menu_selection

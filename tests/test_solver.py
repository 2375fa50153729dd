import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mipsched.solver
from helpers import (
    SUITE_LAYERS,
    highs_objective,
    random_instance,
    reference_canonical_assignment,
    reference_t_sums,
    toy_two_level,
)
from mipsched.arch import ArchSpec, MemLevel, MemTensorMatrix
from mipsched.cli import solve_layer
from mipsched.formulation import ObjectiveWeights, PartitionSpec, build_model
from mipsched.solver import (
    SolverOptions,
    SpaceTooLarge,
    _Incumbent,
    _Search,
    assignment_space_size,
    dump_lp,
    exhaustive_solve,
    solve,
)
from mipsched.workload import LayerDims, PaddingPolicy, factorize


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


def test_repeated_solves_give_the_same_answer():
    model = small_model()
    base = solve(model)
    for _ in range(3):
        other = solve(model)
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
        SolverOptions(time_limit_s=float("nan"))


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


# random instances with partition menus (19-326) and without (345-394),
# none in balance mode, where the penalized bound is not built
PEN_SEEDS = [19, 22, 42, 59, 101, 167, 283, 303, 326, 345, 369, 377, 384, 393]


def uncapped_weight_model():
    """Partition model whose weight buffer has no capacity: its constraint
    keeps an infinite rhs."""
    arch = ArchSpec(
        levels=(
            MemLevel("Buf", (math.inf, 64.0, 64.0), spatial_fanout=4, is_noc_boundary=True),
            MemLevel("Mem", (math.inf,) * 3),
        ),
        B=MemTensorMatrix(rows=((1, 1, 1), (1, 1, 1))),
        name="toy-uncapped-w",
    )
    pf = factorize(LayerDims(1, 1, 2, 1, 3, 2, 1))
    return build_model(pf, arch, partition=PartitionSpec(budget_bytes=192, e_min=2))


def pen_models(simba):
    yield "conv28", build_model(factorize(SUITE_LAYERS["conv28"]), simba)
    yield "uncapped-w", uncapped_weight_model()
    for seed in PEN_SEEDS:
        yield f"seed{seed}", random_instance(seed, max_space=60_000)


@pytest.mark.parametrize("tol", [0.0, 1e-6])
def test_penalized_bound_dominates_lagrangian(simba, tol):
    """At every root child, the Lagrangian-penalized knapsack bound is a
    number and, by LP duality, at least the Lagrangian bound at the same
    multipliers, less the tolerance the capacity check grants each slack."""
    checked = 0
    for name, model in pen_models(simba):
        assert model is not None and model.weights.mode != "balance", name
        search = _Search(model, tol, _Incumbent(), math.inf)
        search._build_penalized_knapsack()
        if not search.pen_at[1]:
            continue  # no finite constraint carries weight, or F = 1
        lam_tol = tol * sum(lam for _ci, lam in search.lam_active)
        fi = search.order[0]
        for child in search._children(0):
            _key, I, k, _q, _b, choice, t_after = child
            slacks = [search.con_rhs[ci] - choice.row[ci] + tol
                      for ci in range(search.ncons)]
            if min(slacks, default=0.0) < 0.0:
                continue
            base = model.coef[fi][(I, k)].static + search.wt * t_after
            pen = search._pen_bound(base, 0, choice.row, -math.inf)
            lagr = search._lagr_bound(base, 0, choice.row)
            assert not math.isnan(pen), name
            assert pen >= lagr - lam_tol - 1e-9, (name, choice.cc, pen, lagr)
            checked += 1
    assert checked > 0


def test_penalized_bound_keeps_oracle_identity(simba):
    for name, model in pen_models(simba):
        if name == "conv28":
            continue  # beyond the exhaustive oracle
        sol = solve(model)
        oracle = exhaustive_solve(model)
        assert sol.status == oracle.status, name
        assert sol.objective_value == oracle.objective_value, name
        assert sol.x_assignment == oracle.x_assignment, name
        assert sol.menu_selection == oracle.menu_selection, name


@pytest.mark.slow
@pytest.mark.parametrize(
    "partition", [None, PartitionSpec(budget_bytes=306367)], ids=["fixed", "partition"]
)
def test_conv28_matches_highs(simba, partition):
    """conv28 has 14 factors, past the exhaustive oracle: HiGHS on the raw
    MIP checks the branch-and-bound's optimum independently."""
    pytest.importorskip("scipy.optimize")
    model = build_model(factorize(SUITE_LAYERS["conv28"]), simba, partition=partition)
    sol = solve(model)
    assert sol.status == "optimal"
    reference = highs_objective(model)
    assert reference is not None
    assert abs(sol.objective_value - reference) <= 1e-9


def test_search_counts_pinned(simba):
    """Exact (nodes, leaves) of the branch-and-bound on fixed models.  Any
    change to a bound, the child order or the pruning moves them; a change
    that only makes nodes cheaper must leave them as they are."""
    counts = {}
    for name in ("tiny", "conv28"):
        sol = solve(build_model(factorize(SUITE_LAYERS[name]), simba))
        counts[name] = (sol.stats.nodes, sol.stats.leaves)
    sol = solve(build_model(factorize(SUITE_LAYERS["conv28"]), simba,
                            partition=PartitionSpec(budget_bytes=306367)))
    counts["conv28-partition"] = (sol.stats.nodes, sol.stats.leaves)
    stride2 = LayerDims(3, 3, 14, 14, 32, 64, 1, stride=2)
    result = solve_layer(factorize(stride2, PaddingPolicy(max_prime=7)), simba)
    stats = result.solution.stats
    counts["stride2-3x3-14"] = (result.rounds, stats.nodes, stats.leaves)
    # combined; combined with menus; traffic with menus; balance; balance
    # with menus
    for seed in (82, 101, 22, 214, 245):
        model = random_instance(seed, max_space=60_000)
        sol = solve(model)
        counts[seed] = (model.weights.mode, bool(model.menus),
                        sol.stats.nodes, sol.stats.leaves)
    assert counts == {
        "tiny": (14, 3),
        "conv28": (11_367, 142),
        "conv28-partition": (941, 24),
        "stride2-3x3-14": (2, 2_560, 45),
        82: ("combined", False, 77, 38),
        101: ("combined", True, 12, 5),
        22: ("traffic", True, 46, 29),
        214: ("balance", False, 61, 28),
        245: ("balance", True, 20, 15),
    }


def test_bound_tables_pinned(simba):
    """sha256 of the repr of the bound tables on fixed models, so a change
    to how they are built cannot move a single float unnoticed."""
    models = {
        "conv28": build_model(factorize(SUITE_LAYERS["conv28"]), simba),
        "conv28-partition": build_model(factorize(SUITE_LAYERS["conv28"]), simba,
                                        partition=PartitionSpec(budget_bytes=306367)),
        22: random_instance(22, max_space=60_000),  # traffic with menus
        214: random_instance(214, max_space=60_000),  # balance
    }
    digests = {}
    for name, model in models.items():
        search = _Search(model, 1e-6, _Incumbent(), math.inf)
        assert not hasattr(search, "__dict__")  # __slots__ keeps attribute reads fast
        if search.balance:
            tables = (search.suffix_comp_lo, search.suffix_comp_hi,
                      search.suffix_traf_lo, search.traf_hi_const)
        else:
            search._build_penalized_knapsack()
            tables = (search.order, search.prev_same, search.suffix_min,
                      search.lam_active, search.lagr_suffix, search.kn_at,
                      search.pen_at)
        digests[name] = hashlib.sha256(repr(tables).encode()).hexdigest()
    assert models[214].weights.mode == "balance"
    assert digests == {
        "conv28":
            "e7679ad350989a5f159010e27b5e1a8d3ebc79debd2fc3fc9dd205ffef0e71ac",
        "conv28-partition":
            "7eba921c349764202bba6c76138b32957dac34289d22683865f81a1f43e2ad8c",
        22:
            "ec5cec057221a6342ced1efbf4fc27dacd1576ca0bbb730b7c1a52a7f1cdc670",
        214:
            "2b8c6e22772fad26729c2799703adeb780f0f4645930156886ab4a9f3631b5ed",
    }


def test_negative_rhs_is_infeasible_for_both_solvers():
    """A capacity pad above the capacity leaves a constraint with rhs < 0,
    which every assignment violates, even one that adds nothing to it."""
    pf = factorize(LayerDims(1, 1, 2, 1, 3, 2, 1))
    model = build_model(pf, toy_two_level(), capacity_pads={(0, 0): 7.0})
    con = next(c for c in model.check_cons if c.name == "buffer[Buf/W]")
    assert con.rhs < 0.0
    sol = solve(model)
    assert sol.status == exhaustive_solve(model).status == "infeasible"
    assert sol.witness == ("buffer[Buf/W]",)


def test_canonical_assignment_matches_reference(simba, monkeypatch):
    """Every leaf canonicalized during a solve gets exactly the assignment
    of the reference that tries every rank of every level."""
    real = mipsched.solver.canonical_assignment
    leaves = []

    def checked(model, choice_cls, chains, sh):
        x = real(model, choice_cls, chains, sh)
        assert x == reference_canonical_assignment(model, choice_cls, chains)
        leaves.append(bool(model.menus))
        return x

    monkeypatch.setattr(mipsched.solver, "canonical_assignment", checked)
    counts = {}
    for name in ("tiny", "conv28"):
        solve(build_model(factorize(SUITE_LAYERS[name]), simba))
        counts[name] = len(leaves)
    solve(build_model(factorize(SUITE_LAYERS["conv28"]), simba,
                      partition=PartitionSpec(budget_bytes=306367)))
    counts["conv28-partition"] = len(leaves)
    # stride 2: the second round solves the model with capacity pads
    stride2 = LayerDims(3, 3, 14, 14, 32, 64, 1, stride=2)
    result = solve_layer(factorize(stride2, PaddingPolicy(max_prime=7)), simba)
    assert result.rounds == 2 and result.pads
    counts["stride2-3x3-14"] = len(leaves)
    for seed in range(400):
        model = random_instance(seed, max_space=60_000)
        if model is not None:
            solve(model)
    counts["random"] = len(leaves)
    steps = list(counts.values())
    assert all(b > a for a, b in zip([0] + steps, steps)), counts
    assert any(leaves) and not all(leaves)  # with and without menus


def test_t_sums_matches_reference(simba):
    """The traffic sums over occupied positions only are the reference's,
    float for float, on random (not necessarily feasible) assignments."""
    rng = random.Random(5)
    models = [build_model(factorize(SUITE_LAYERS["conv28"]), simba)]
    models += [m for m in map(random_instance, range(200)) if m is not None]
    checked = 0
    for model in models:
        for _ in range(20):
            x = {fi: rng.choice(model.choices[fi]) for fi in range(model.F)}
            assert model._t_sums(x) == reference_t_sums(model, x)
            checked += 1
    assert checked > 1000

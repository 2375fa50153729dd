import dataclasses
import hashlib
import itertools
import math
import random
import types
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mipsched.solver
from helpers import (
    SUITE_LAYERS,
    binding_partition_instance,
    highs_objective,
    mirror_instance,
    objective_name,
    random_instance,
    reference_canonical_assignment,
    reference_derive_menus,
    reference_factor_bounds,
    reference_factor_knapsack,
    reference_kn_gain,
    reference_lagrangian,
    reference_listed_zmax,
    reference_penalized_bound,
    reference_penalized_knapsack,
    reference_plain_bound,
    reference_plain_knapsack,
    reference_run_lookahead,
    reference_t_sums,
    square_instance,
    toy_two_level,
)
from mipsched.arch import ArchSpec, MemLevel, MemTensorMatrix
from mipsched.cli import solve_layer
from mipsched.formulation import MipModel, ObjectiveWeights, PartitionSpec, build_model
from mipsched.schedule import render
from mipsched.solver import (
    EPS_PRUNE,
    TOLERANCE,
    SolverOptions,
    SpaceTooLarge,
    _Incumbent,
    _LevelState,
    _Search,
    _zmax,
    assignment_space_size,
    exhaustive_solve,
    solve,
)
from mipsched.workload import DIM_NAMES, LayerDims, PaddingPolicy, factorize


# the benchmark's fully connected layer: 1x1, C1024 K1000, batch 16
FC_LAYER = LayerDims(1, 1, 1, 1, 1024, 1000, 16)


def new_search(model):
    """The search `solve` runs on `model`, at its root, before the dive."""
    return _Search(model, _Incumbent(), math.inf)


def small_model():
    pf = factorize(LayerDims(1, 1, 2, 1, 3, 2, 1))
    return build_model(pf, toy_two_level())


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
    """conv28 under the comp objective finds an incumbent within a few
    thousand nodes but does not prove it optimal in 120 s (millions of
    nodes), so a 0.5 s limit always stops the search holding a feasible
    incumbent."""
    model = build_model(factorize(SUITE_LAYERS["conv28"]), simba,
                        ObjectiveWeights(0, 1, 0))
    # 1e-6 s has expired before the search starts
    for limit in (0.5, 1e-6):
        sol = solve(model, SolverOptions(time_limit_s=limit))
        assert sol.status == "timeout"
        if limit == 0.5:
            assert sol.x_assignment is not None
        if sol.x_assignment is not None:
            assert model.constraint_violations(sol.x_assignment, sol.menu_selection) == []
            assert -math.inf < sol.stats.bound <= sol.objective_value
            assert sol.stats.gap == sol.objective_value - sol.stats.bound
        else:  # stopped before the proof expanded the root
            assert (sol.stats.bound, sol.stats.gap) == (-math.inf, math.inf)


def test_timeout_bound_is_a_lower_bound(monkeypatch):
    """A search stopped after a given number of nodes reports as its
    bound a lower bound on the optimum, at most the incumbent's objective,
    and the gap between the two; a finished proof reports the optimum
    itself with no gap.  Checked against the exhaustive oracle at several
    stopping points of each search."""
    real = _Search.timed_out
    stop = [math.inf]

    def timed_out(sh):
        if sh.nodes >= stop[0]:
            sh.stopped = True
        return real(sh)

    monkeypatch.setattr(_Search, "timed_out", timed_out)
    stopped = 0
    for seed in range(120):
        model = random_instance(seed, max_space=60_000)
        if model is None:
            continue
        oracle = exhaustive_solve(model)
        stop[0] = math.inf
        full = solve(model)
        if full.status == "optimal":
            assert (full.stats.bound, full.stats.gap) == (full.objective_value, 0.0)
        for frac in (0.25, 0.5, 0.75):
            stop[0] = int(full.stats.nodes * frac)
            sol = solve(model)
            if sol.status != "timeout" or sol.x_assignment is None:
                continue
            assert sol.stats.bound <= oracle.objective_value <= sol.objective_value, seed
            assert sol.stats.gap == sol.objective_value - sol.stats.bound
            stopped += sol.stats.bound > -math.inf
    assert stopped > 20, stopped


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


# random instances with partition menus (19-326) and without (345-394)
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
def test_penalized_bound_dominates_lagrangian(simba, monkeypatch, tol):
    """At every root child, the Lagrangian-penalized knapsack bound is a
    number and, by LP duality, at least the Lagrangian bound at the same
    multipliers; both grant each slack the same tolerance.  The duality
    holds row by row where both bounds read the same budget cut.  On a
    model with menus they read different ones: the Lagrangian bound the
    cut of J, over every menu, and the row of menu i that of J-i, over
    the others, which need not be the smaller.  So the penalized bound
    with the Lagrangian cut on every row dominates everywhere, and the
    penalized bound itself wherever its rows read that cut or one of them
    is not a menu row, which reads it.  The partition models at the
    benchmark's budget have positive cuts at the root."""
    monkeypatch.setattr(mipsched.solver, "TOLERANCE", tol)
    models = list(pen_models(simba))
    for name, dims in (("deep512", SUITE_LAYERS["deep512"]), ("fc", FC_LAYER)):
        models.append((f"{name}-partition", build_model(
            factorize(dims), simba, partition=PartitionSpec(budget_bytes=306367))))
    checked = cut = 0
    for name, model in models:
        assert model is not None, name
        search = new_search(model)
        search.tighten()  # no incumbent: the penalized rows at the root's multipliers
        if not search.pen_at[1]:
            continue  # no finite constraint carries weight, or F = 1
        same = [search.lagr_cut] * search.ncons
        menu_rows = {ci for ci, *_rest in search.menu_fit}
        dominates = (search.pen_cut == same
                     or any(row[0] not in menu_rows for row in search.pen_at[1]))
        fi = search.order[0]
        for child in search._children(0):
            _b, I, k, _q, choice, t_after = child
            slacks = [search.rhs[ci] - choice.row[ci] + tol
                      for ci in range(search.ncons)]
            if min(slacks, default=0.0) < 0.0:
                continue
            base = model.coef[fi][(I, k)].static + model.w_t * t_after
            refund = sum(lam * slacks[ci] for ci, lam in search.lam_active)
            pen = search._kn_bound(search.pen_at, base, 0, choice.row, -math.inf,
                                   math.inf, refund, search.pen_cut)
            pen_same = search._kn_bound(search.pen_at, base, 0, choice.row, -math.inf,
                                        math.inf, refund, same)
            lagr = search._lagr_bound(base, 0, choice.row)
            assert not math.isnan(pen), name
            assert pen_same >= lagr - 1e-9, (name, choice.cc, pen_same, lagr)
            if dominates:
                assert pen >= lagr - 1e-9, (name, choice.cc, pen, lagr)
            checked += 1
            cut += search.lagr_cut > 0.0
    assert checked > 0 and cut > 0, (checked, cut)


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
@pytest.mark.parametrize("name", ["conv28-fixed", "conv28-partition", "deep512-partition",
                                  "deep512-partition-150000", "fc-partition",
                                  "stride2-3x3-14-padded"])
def test_matches_highs(simba, name):
    """Models past the exhaustive oracle: HiGHS on the raw MIP checks the
    branch-and-bound's optimum independently.  conv28 has 14 factors; the
    stride-2 layer's final halo round solves 17 factors under capacity
    pads.  The partition models take the benchmark's budget, where the
    budget-tightened rhs cuts deep512's search by more than half, and
    deep512 also a tight one, where the budget's cuts of the bounds cut
    the most."""
    pytest.importorskip("scipy.optimize")
    if name == "stride2-3x3-14-padded":
        stride2 = LayerDims(3, 3, 14, 14, 32, 64, 1, stride=2)
        result = solve_layer(factorize(stride2, PaddingPolicy(max_prime=7)), simba)
        assert result.rounds == 2 and result.pads
        model, sol = result.model, result.solution
    else:
        layer, kind, *budget = name.split("-")
        dims = FC_LAYER if layer == "fc" else SUITE_LAYERS[layer]
        budget = int(budget[0]) if budget else 306367
        partition = PartitionSpec(budget_bytes=budget) if kind == "partition" else None
        model = build_model(factorize(dims), simba, partition=partition)
        sol = solve(model)
    assert sol.status == "optimal"
    reference = highs_objective(model)
    assert reference is not None
    assert abs(sol.objective_value - reference) <= 1e-9


def _answer(sol):
    return sol.status, sol.objective_value, sol.x_assignment, sol.menu_selection


def test_branch_order_does_not_change_the_answer(simba, monkeypatch):
    """Seeded permutations of `_Search._branch_order` give the default
    order's answer, bit for bit: on the oracle models, where that is also
    the exhaustive oracle's, and on conv28.  Only the node counts move.
    Each permutation moves the default order's mirror runs as blocks, so
    every run stays contiguous: the exactness of deciding an image on its
    leaf's buffer sums rests on that invariant, and the solver's answer is
    claimed for the orders that keep it, not for every permutation."""
    default = _Search._branch_order

    def shuffled(rng):
        def order(self):
            runs = {}
            for fi in default(self):
                runs.setdefault(self.mirror_of[fi], []).append(fi)
            runs = list(runs.values())
            rng.shuffle(runs)
            return [fi for run in runs for fi in run]
        return order

    cases = [(f"seed{seed}", random_instance(seed, max_space=60_000), 2)
             for seed in range(200)]
    cases.append(("conv28", build_model(factorize(SUITE_LAYERS["conv28"]), simba), 2))
    checked = moved = 0
    for name, model, perms in cases:
        if model is None:
            continue
        monkeypatch.setattr(_Search, "_branch_order", default)
        base = solve(model)
        if name != "conv28":
            assert _answer(base) == _answer(exhaustive_solve(model)), name
        nodes = set()
        for p in range(perms):
            order = shuffled(random.Random(p))
            monkeypatch.setattr(_Search, "_branch_order", order)
            sol = solve(model)
            assert _answer(sol) == _answer(base), (name, p)
            nodes.add(sol.stats.nodes)
            checked += 1
        moved += bool(nodes - {base.stats.nodes})
        if name == "conv28":
            assert nodes - {base.stats.nodes}, "no permutation moved the search"
    assert checked > 150 and moved > 20, (checked, moved)


def test_search_counts_pinned(simba):
    """Exact (nodes, leaves) of the branch-and-bound on fixed models.  Any
    change to a bound, the child order or the pruning moves them; a change
    that only makes nodes cheaper must leave them as they are."""
    counts = {}
    for name in ("tiny", "conv28", "deep512", "wide256"):
        sol = solve(build_model(factorize(SUITE_LAYERS[name]), simba))
        counts[name] = (sol.stats.nodes, sol.stats.leaves)
    for name, dims in (("conv28", SUITE_LAYERS["conv28"]),
                       ("deep512", SUITE_LAYERS["deep512"]), ("fc", FC_LAYER)):
        sol = solve(build_model(factorize(dims), simba,
                                partition=PartitionSpec(budget_bytes=306367)))
        counts[f"{name}-partition"] = (sol.stats.nodes, sol.stats.leaves)
    stride2 = LayerDims(3, 3, 14, 14, 32, 64, 1, stride=2)
    result = solve_layer(factorize(stride2, PaddingPolicy(max_prime=7)), simba)
    stats = result.solution.stats
    counts["stride2-3x3-14"] = (result.rounds, stats.nodes, stats.leaves)
    stride2 = LayerDims(1, 1, 28, 28, 64, 128, 1, stride=2)
    result = solve_layer(factorize(stride2, PaddingPolicy(max_prime=7)), simba)
    stats = result.solution.stats
    counts["stride2-1x1-28"] = (result.rounds, stats.nodes, stats.leaves)
    # combined; combined with menus; traffic with menus; combined; combined
    # with menus
    for seed in (82, 101, 22, 214, 245):
        model = random_instance(seed, max_space=60_000)
        sol = solve(model)
        counts[seed] = (objective_name(model.weights), bool(model.menus),
                        sol.stats.nodes, sol.stats.leaves)
    assert counts == {
        "tiny": (10, 2),
        "conv28": (484, 25),
        "deep512": (1_456, 8),
        "wide256": (2_524, 39),
        "conv28-partition": (103, 11),
        "deep512-partition": (2_213, 36),
        "fc-partition": (566, 21),
        "stride2-3x3-14": (2, 456, 25),
        "stride2-1x1-28": (2, 5_676, 778),
        82: ("combined", False, 38, 13),
        101: ("combined", True, 8, 3),
        22: ("traffic", True, 37, 25),
        214: ("combined", False, 44, 13),
        245: ("combined", True, 6, 2),
    }


def test_batch_layer_pinned(simba):
    """ResNet-50's res2 3x3 layer at batch 2: N's 2 shares a mirror run
    with P's and Q's 2s, so most of its leaves' decisions are images.  Its
    rounds, nodes and leaves, summed over the halo rounds, and its
    rendered schedule are pinned."""
    result = solve_layer(factorize(LayerDims(3, 3, 56, 56, 64, 64, 2),
                                   PaddingPolicy(max_prime=7)), simba)
    stats = result.stats
    assert (result.rounds, stats.nodes, stats.leaves) == (2, 46_297, 4_211)
    assert result.solution.objective_value == 4.229419688230415
    digest = hashlib.sha256(render(result.schedule).encode()).hexdigest()
    assert digest == "9e1fca3ea08097754604a5786e652121c352ae87257d7616481218fc08a5e6ae"


def test_bound_tables_pinned(simba):
    """sha256 of the repr of the bound tables on fixed models, so a change
    to how they are built cannot move a single float unnoticed, and of the
    budget's on the models with menus: each menu's `_menu_hull` at the
    root's floor and the root's rhs and Lagrangian cut; of what `tighten`
    builds after the dive: the incumbent's objective,
    the Polyak rebuild's multipliers and `lagr_suffix`, the penalized rows
    and the root's rhs and cuts at those multipliers; and the symmetry
    breaking's `prev_same`, which no bound reads, as a list."""
    models = {
        "conv28": build_model(factorize(SUITE_LAYERS["conv28"]), simba),
        "conv28-partition": build_model(factorize(SUITE_LAYERS["conv28"]), simba,
                                        partition=PartitionSpec(budget_bytes=306367)),
        22: random_instance(22, max_space=60_000),  # traffic with menus
    }
    digests = {}
    budget_digests = {}
    polyak_digests = {}
    prev_same = {}
    for name, model in models.items():
        search = new_search(model)
        prev_same[name] = search.prev_same
        if search.menu_fit:
            hulls = [search._menu_hull(mi, k) for mi, k in enumerate(search.floors[0])]
            budget = (hulls, search.rhs, search.lagr_cut)
            budget_digests[name] = hashlib.sha256(repr(budget).encode()).hexdigest()
        assert not hasattr(search, "__dict__")  # __slots__ keeps attribute reads fast
        search.pen_at = search._build_knapsack(search.lam)
        tables = (search.order, search.suffix_min, search.lam_active,
                  search.lagr_suffix, search.kn_at, search.pen_at)
        # the Polyak rebuild against the dive's incumbent, and what
        # `tighten` derives at its multipliers
        search = new_search(model)
        search.dfs(0, dive=True)
        assert search.inc.x is not None
        search.tighten()
        rebuilt = (search.inc.obj, search.lam_active, search.lagr_suffix,
                   search.pen_at, search.rhs, search.lagr_cut, search.pen_cut)
        polyak_digests[name] = hashlib.sha256(repr(rebuilt).encode()).hexdigest()
        digests[name] = hashlib.sha256(repr(tables).encode()).hexdigest()
    assert digests == {
        "conv28":
            "2635fd4f47499df893594e6ee3cee5feb189008508af99eaafc27d929c965de6",
        "conv28-partition":
            "b91339450c5b0a61ea6e6dbdea7ed6ce206444f1af72697de32b1f0ea83a74e0",
        22:
            "e6d7202c8e46a4d6b3d153aaedf39b56131c7efa6068767aa2d3c3225c95e8e8",
    }
    assert budget_digests == {
        "conv28-partition":
            "cdc50d252f0912742f96a79418c0c1116c62e9b11b20284ae7fbad3af2c73266",
        22:
            "6af46961649ff5d94b78ba1b5bad33a05da660052385d4f95211b10bf114da98",
    }
    assert polyak_digests == {
        "conv28":
            "7666a90adb39f2cb92362f9a185512ddf82db4f2d27afe2440a5414373425474",
        "conv28-partition":
            "68aae34a59a6ee5d836644feaa1cde26e6d15904c6e18614a95dd3b705fbc2a2",
        22:
            "b61a7deff9dba69e0be3ca183ccb1e7a148e2a7f776092b4f05ded19b67e6d1c",
    }
    # conv28 is R3 S3, P 2 2 7, Q 2 2 7, C 2 2 2, K 2 2, N 3 in factor
    # order: Q's first 2 (factor 5) follows P's last (3), Q's 7 (7) P's 7
    # (4) and S's 3 (1) R's 3 (0)
    conv28 = [None, 0, None, 2, None, 3, 5, 4, None, 8, 9, None, 11, None]
    assert prev_same == {"conv28": conv28, "conv28-partition": conv28,
                         22: [None, None, None]}
    # seed 214's factor 2 follows factor 1 in their run
    assert new_search(random_instance(214, max_space=60_000)).prev_same == [
        None, None, 1, None]


def reference_gain_table(cw, cg, dens):
    """The reference's gain at each whole capacity below a row's hull
    weight `cw[-1]`."""
    return [reference_kn_gain(cw, cg, dens, k) for k in range(math.ceil(cw[-1]))]


def assert_rows_match(table, ref_table):
    """Every field of every knapsack row equals the reference's; in place
    of the reference's whole-tail flag a row holds a gain table exactly
    when the flag is set, and the table holds the reference's gain at
    each whole capacity below the tail's hull weight, bit for bit."""
    assert len(table) == len(ref_table)
    for rows, ref_rows in zip(table, ref_table):
        assert len(rows) == len(ref_rows)
        for row, ref in zip(rows, ref_rows):
            ci, lam_i, gains, cost0, cw, cg, dens = row
            assert (ci, lam_i, cost0, cw, cg, dens) == ref[:2] + ref[3:]
            assert (gains is not None) == ref[2]
            if gains is not None:
                assert repr(gains) == repr(reference_gain_table(cw, cg, dens))


def test_knapsack_bounds_match_reference(simba, monkeypatch):
    """Every knapsack bound a solve evaluates in `_node_bound`, plain and
    penalized, against the frozen reference of the two separate bounds.
    The penalized bound, a max that starts from the child's node bound, is
    bit-identical, and so are its tables, whole-tail
    marks included (`assert_rows_match`).  The plain bound agrees within
    1e-12 (the reference skips a constraint whose capacity covers its
    tail's whole hull weight; the evaluator computes that term, equal to
    the suffix bound in exact arithmetic), and both give the same verdict
    against the incumbent.
    Both bounds are seen rounding a capacity down on conv28."""
    real = _Search._kn_bound
    refs = {}  # "plain" / "penalized" -> (the solver's table, the reference's)
    calls = {"plain": 0, "penalized": 0}
    rounded = {"plain": 0, "penalized": 0}  # calls with a fraction cut off

    def cuts_fraction(sh, pos, row, ci, whole, tail_w):
        """The reference rounds this row's capacity down below both the
        slack and the tail's weight, so the rounding moves its gain."""
        slack = sh.rhs[ci] - sh.con_lhs[ci] - row[ci] + TOLERANCE
        return whole and 0.0 < slack and math.floor(slack) < min(slack, tail_w)

    def reference_for(kind, table, build, sh):
        held = refs.get(kind)
        if held is None or held[0] is not table:
            held = refs[kind] = (table, build(sh))
        return held[1]

    def checked(sh, table, base, pos, row, best, thresh, refund, budget_cut):
        b = real(sh, table, base, pos, row, best, thresh, refund, budget_cut)
        cut = sh.inc.obj + EPS_PRUNE
        if table is sh.pen_at:
            assert budget_cut is sh.pen_cut
            ref_table = reference_for("penalized", table,
                                      reference_penalized_knapsack, sh)
            assert_rows_match(table, ref_table)
            ref = reference_penalized_bound(sh, ref_table, base, pos, row, best)
            # the evaluator stops at the first term past `thresh`; without
            # the stop it is the reference's max, float for float
            assert real(sh, table, base, pos, row, best, math.inf, refund,
                        budget_cut) == ref
            calls["penalized"] += 1
            rounded["penalized"] += any(
                cuts_fraction(sh, pos, row, ci, whole, cw[-1])
                for ci, _lam, whole, _c0, cw, _cg, _d in ref_table[pos + 1])
        else:
            assert table is sh.kn_at and refund == 0.0
            assert not any(budget_cut)
            ref_table = reference_for("plain", table, reference_plain_knapsack, sh)
            ref = max(best,
                      reference_plain_bound(sh, ref_table, base, pos, row, thresh))
            assert abs(b - ref) <= 1e-12, (b, ref)
            calls["plain"] += 1
            rounded["plain"] += any(
                cuts_fraction(sh, pos, row, ci, whole, tail_w)
                for ci, whole, tail_w, _c0, _segs in ref_table[pos + 1])
        assert (b > cut) == (ref > cut), (b, ref, cut)
        return b

    monkeypatch.setattr(_Search, "_kn_bound", checked)
    conv28 = factorize(SUITE_LAYERS["conv28"])
    solve(build_model(conv28, simba))
    solve(build_model(conv28, simba, partition=PartitionSpec(budget_bytes=306367)))
    conv28_calls = dict(calls)
    assert all(rounded.values()), rounded
    for seed in range(400):
        model = random_instance(seed, max_space=60_000)
        if model is not None:
            solve(model)
    assert all(conv28_calls.values()), conv28_calls
    assert all(calls[kind] > conv28_calls[kind] for kind in calls), calls


def test_gain_tables_are_exact(simba, monkeypatch):
    """Every entry of every whole-tail row's gain table, in the plain and
    the penalized tables, is the bisect path's gain at that whole
    capacity, bit for bit; and `_kn_bound` on such a row is the bisect
    path at the rounded-down slack, just below, at and between whole
    slacks and past the table's end.  The tables do not read the
    tolerance; the stub searches grant none, so a slack is exactly s."""
    models = {
        "conv28": build_model(factorize(SUITE_LAYERS["conv28"]), simba),
        "conv28-partition": build_model(factorize(SUITE_LAYERS["conv28"]), simba,
                                        partition=PartitionSpec(budget_bytes=306367)),
    }
    for seed in range(400):
        model = random_instance(seed, max_space=60_000)
        if model is not None:
            models[seed] = model
    tables = entries = 0
    searches = {name: new_search(model) for name, model in models.items()}
    monkeypatch.setattr(mipsched.solver, "TOLERANCE", 0.0)
    for name, search in searches.items():
        search.pen_at = search._build_knapsack(search.lam)
        for table in (search.kn_at, search.pen_at):
            for rows in table:
                for _ci, lam_i, gains, cost0, cw, cg, dens in rows:
                    if gains is None:
                        continue
                    assert repr(gains) == repr(reference_gain_table(cw, cg, dens)), name
                    tables += 1
                    entries += len(gains)
                    # a one-constraint search whose slack is exactly s
                    one = [[(0, lam_i, gains, cost0, cw, cg, dens)]]
                    n = len(gains)
                    slacks = [x for k in range(n + 1) for x in (k - 1e-12, k, k + 0.5)]
                    for s in slacks + [n + 3]:
                        stub = types.SimpleNamespace(rhs=[s], con_lhs=[0.0])
                        b = _Search._kn_bound(stub, one, 0.0, -1, [0.0], -math.inf,
                                              math.inf, 0.0, [0.0])
                        upper = 0.0 + cost0 - (0.0 - lam_i * s)
                        gain = reference_kn_gain(cw, cg, dens, math.floor(s))
                        assert repr(b) == repr(upper - gain), (name, s)
    assert tables > 100 and entries > tables


def test_cached_chain_profile_is_exact(simba, monkeypatch):
    """At every `_children` call that inserts into a chain, the chain
    profile it reads, the node's `profile`, equals a fresh
    `_chain_profile()` of the chains as they stand; the cache is both
    built and inherited."""
    real_children = _Search._children
    real_t_delta = _Search._t_delta
    fresh = []  # the profile of the chains of the `_children` call running
    counts = {"calls": 0, "inherited": 0}

    def t_delta(sh, profile, I, q, fi):
        assert profile == fresh[0]
        fresh[1] = True
        return real_t_delta(sh, profile, I, q, fi)

    def children(sh, pos):
        held = sh.profile
        fresh[:] = [sh._chain_profile(), False]
        out = real_children(sh, pos)
        if fresh[1]:
            counts["calls"] += 1
            counts["inherited"] += held is not None
        return out

    monkeypatch.setattr(_Search, "_t_delta", t_delta)
    monkeypatch.setattr(_Search, "_children", children)
    solve(build_model(factorize(SUITE_LAYERS["conv28"]), simba))
    stride2 = LayerDims(3, 3, 14, 14, 32, 64, 1, stride=2)
    result = solve_layer(factorize(stride2, PaddingPolicy(max_prime=7)), simba)
    assert result.rounds == 2
    for seed in range(400):
        model = random_instance(seed, max_space=60_000)
        if model is not None:
            solve(model)
    assert 0 < counts["inherited"] < counts["calls"], counts


def test_search_state_is_a_function_of_the_path(simba, monkeypatch):
    """At every `_children` call the node's sums are the left folds, from
    0.0 in branch order, of the class records on its path, bit for bit:
    `con_lhs` of their rows, and `static_sum` of their static
    objectives.  So no dive, sibling or earlier subtree moves a
    bound.  After a solve the search is back at its root exactly: nothing
    saved, every buffer sum 0.0."""
    real_children = _Search._children
    searches = []
    calls = {}

    def children(sh, pos):
        if not searches or searches[-1] is not sh:
            searches.append(sh)
        path = [sh.choice_rec[fi] for fi in sh.order[:pos]]
        lhs = [0.0] * sh.ncons
        static = 0.0
        for rec in path:
            lhs = [a + b for a, b in zip(lhs, rec.row)]
            static += rec.static
        assert repr(sh.con_lhs) == repr(lhs), pos
        assert repr(sh.static_sum) == repr(static)
        assert len(sh.saved) == pos
        name = objective_name(sh.m.weights)
        calls[name] = calls.get(name, 0) + 1
        return real_children(sh, pos)

    def solved(model):
        before = len(searches)
        solve(model)
        if len(searches) > before:
            sh = searches[-1]
            assert sh.saved == []
            assert repr(sh.con_lhs) == repr([0.0] * sh.ncons)

    monkeypatch.setattr(_Search, "_children", children)
    for name in ("conv28", "wide256"):
        solved(build_model(factorize(SUITE_LAYERS[name]), simba))
    solved(build_model(factorize(SUITE_LAYERS["deep512"]), simba,
                       partition=PartitionSpec(budget_bytes=306367)))
    for seed in range(300):
        model = random_instance(seed)
        if model is not None:
            solved(model)
    assert len(searches) > 100
    assert {"combined", "traffic"} <= set(calls), calls


def partition_models(simba):
    """Benchmark partition models and a sample of ones whose budget binds."""
    for dims in (SUITE_LAYERS["conv28"], SUITE_LAYERS["deep512"], FC_LAYER):
        yield build_model(factorize(dims), simba,
                          partition=PartitionSpec(budget_bytes=306367))
    for seed in range(150):
        model = binding_partition_instance(seed)
        if model is not None:
            yield model


def test_menu_floors_and_rhs_follow_the_path(simba, monkeypatch):
    """At every `_children` call, of the dive and of the proof's plunges
    and jumps, the node's menu floors and their byte total equal a fresh
    `_floors` of its buffer sums, and the rhs its children's bounds read,
    `rhs`, equals `_menu_rhs` of them, bit for bit.  The rhs moves: more
    than 100 nodes read another rhs than the call before them did."""
    real_children = _Search._children
    counts = {"calls": 0, "moved": 0}
    last = [None]  # the rhs the previous call read

    def children(sh, pos):
        out = real_children(sh, pos)
        floors, total = sh._floors()
        assert sh.floors == (tuple(floors), total)
        if total <= sh.m.budget_bytes:
            fresh = sh._menu_rhs(tuple(floors), total)
            assert repr(sh.rhs) == repr(fresh)
        counts["moved"] += last[0] is not None and sh.rhs != last[0]
        last[0] = sh.rhs
        counts["calls"] += 1
        return out

    monkeypatch.setattr(_Search, "_children", children)
    for model in partition_models(simba):
        last[0] = None
        solve(model)
    assert counts["moved"] > 100, counts


def test_proof_jumps(simba, monkeypatch):
    """The proof leaves its plunge for the best open node: on conv28 and
    on wide256 some `_goto` of the proof moves the search off its path to
    a node other than the root."""
    real_goto = _Search._goto
    jumps = []

    def goto(sh, path, target):
        if target is not path[0] and target is not path[-1]:
            jumps[-1] += 1
        return real_goto(sh, path, target)

    monkeypatch.setattr(_Search, "_goto", goto)
    for name in ("conv28", "wide256"):
        jumps.append(0)
        assert solve(build_model(factorize(SUITE_LAYERS[name]), simba)).status == "optimal"
    assert all(jumps), jumps


def test_full_open_list_searches_depth_first(simba, monkeypatch):
    """Once the proof's open list holds `MAX_OPEN` nodes, the nodes it
    takes from it are searched depth-first, and the answers stay those of
    the uncapped search: on conv28, a partition model and the oracle
    models, with the cap at 3."""
    cases = [build_model(factorize(SUITE_LAYERS["conv28"]), simba),
             build_model(factorize(SUITE_LAYERS["conv28"]), simba,
                         partition=PartitionSpec(budget_bytes=306367))]
    cases += [random_instance(seed, max_space=60_000) for seed in range(100)]
    cases = [model for model in cases if model is not None]
    expected = [_answer(solve(model)) for model in cases]
    real_dfs = _Search.dfs
    fallbacks = []

    def dfs(sh, pos, dive=False):
        if not dive and pos == len(sh.saved):
            fallbacks.append(pos)
        return real_dfs(sh, pos, dive)

    monkeypatch.setattr(mipsched.solver, "MAX_OPEN", 3)
    monkeypatch.setattr(_Search, "dfs", dfs)
    for model, answer in zip(cases, expected):
        assert _answer(solve(model)) == answer
    assert len(fallbacks) > 50, len(fallbacks)


def test_stored_bound_decides_as_a_fresh_one(simba, monkeypatch):
    """A child's bound is computed once, at its parent's expansion, and an
    open node is pruned on it when it is taken: a heap pop, a plunge, or
    a `dfs` sibling's turn.  At each take a fresh `_node_bound` at its
    parent, against the incumbent of that moment, prunes it exactly when
    the stored `child[0]` exceeds `inc.obj + EPS_PRUNE`, and otherwise
    equals it.  The default open list checks pops and plunges; a cap of 3
    sends the proof to `dfs`, where siblings are pruned at their turn.
    Some takes come after the incumbent improved since the expansion."""
    real_children = _Search._children
    real_apply = _Search._apply
    real_goto = _Search._goto
    seen = {"taken": 0, "popped": 0, "pruned": 0, "later": 0}
    expanded_at = {}  # id of a child -> (the child, inc.obj at its expansion)
    walking = [False, False]  # inside `_goto`; the next apply takes a pop

    def check(sh, pos, child):
        fresh = sh._node_bound(pos, child[4], child[5])
        pruned = child[0] > sh.inc.obj + EPS_PRUNE
        assert (fresh is None) == pruned, (fresh, child[0], sh.inc.obj)
        assert pruned or fresh == child[0]
        seen["later"] += sh.inc.obj < expanded_at[id(child)][1]
        return pruned

    def children(sh, pos):
        out = real_children(sh, pos)
        for child in out:
            expanded_at[id(child)] = (child, sh.inc.obj)
        for child in out:  # each is checked as `dfs` or `prove` reaches it
            if check(sh, pos, child):
                seen["pruned"] += 1
            yield child

    def apply(sh, pos, child):
        if not walking[0]:
            assert not check(sh, pos, child)
            seen["taken"] += 1
            seen["popped"] += walking[1]
            walking[1] = False
        return real_apply(sh, pos, child)

    def goto(sh, path, target):
        walking[0] = True
        real_goto(sh, path, target)
        walking[:] = [False, True]

    cases = [build_model(factorize(SUITE_LAYERS[name]), simba)
             for name in ("conv28", "wide256")]
    cases.append(build_model(factorize(SUITE_LAYERS["conv28"]), simba,
                             partition=PartitionSpec(budget_bytes=306367)))
    cases += [random_instance(seed, max_space=60_000) for seed in range(100)]
    cases = [model for model in cases if model is not None]
    expected = [_answer(solve(model)) for model in cases]
    monkeypatch.setattr(_Search, "_children", children)
    monkeypatch.setattr(_Search, "_apply", apply)
    monkeypatch.setattr(_Search, "_goto", goto)
    for cap in (mipsched.solver.MAX_OPEN, 3):
        monkeypatch.setattr(mipsched.solver, "MAX_OPEN", cap)
        for model, answer in zip(cases, expected):
            walking[1] = False
            assert _answer(solve(model)) == answer
            expanded_at.clear()
    assert seen["taken"] > seen["popped"] > 1000 and seen["later"] > 100, seen
    assert seen["pruned"] > 20, seen


def test_derive_menus_matches_reference(simba, monkeypatch):
    """At every leaf that derives its menus, the selection is the
    reference scan's (`helpers.reference_derive_menus`), on partition
    models whose budget binds and on three benchmark layers at two
    budgets; leaves both keep every menu at its least admissible entry
    and grow one above it.  No search leaf overflows the budget, since
    `_children` drops such a child, so drawn buffer sums, some past the
    largest entry, check the two where there is no selection as well."""
    real = _Search._derive_menus
    seen = {"least": 0, "grown": 0, "none": 0}

    def checked(sh):
        sel = real(sh)
        assert sel == reference_derive_menus(sh)
        if sel is None:
            seen["none"] += 1
        elif any(ei > bisect_left(fits, sh.con_lhs[ci] + pad)
                 for ei, (ci, pad, fits, _s, _r) in zip(sel, sh.menu_fit)):
            seen["grown"] += 1
        else:
            seen["least"] += 1
        return sel

    monkeypatch.setattr(_Search, "_derive_menus", checked)
    for seed in range(700):
        model = binding_partition_instance(seed)
        if model is not None:
            solve(model)
    for dims in (SUITE_LAYERS["conv28"], SUITE_LAYERS["deep512"], FC_LAYER):
        for budget in (306367, 80000):
            solve(build_model(factorize(dims), simba,
                              partition=PartitionSpec(budget_bytes=budget)))
    assert seen["least"] and seen["grown"] and not seen["none"], seen

    rng = random.Random(19)
    for seed in range(700):
        model = binding_partition_instance(seed)
        if model is None:
            continue
        sh = new_search(model)
        for _ in range(10):
            menu_cons = {ci for ci, *_rest in sh.menu_fit}
            sh.con_lhs = [rng.uniform(0.0, rhs + 1.0) if ci in menu_cons
                          else 0.0 for ci, rhs in enumerate(sh.con_rhs)]
            sh.floors = sh._floors()
            sh._derive_menus()
    assert seen["none"], seen


def fill_model(c: int, buf: float):
    """Three levels, C = `c` and K = 3; the middle level's buffers hold
    `buf` elements."""
    arch = ArchSpec(
        levels=(
            MemLevel("L0", (4.0, 4.0, 4.0)),
            MemLevel("L1", (buf, buf, buf), spatial_fanout=4, is_noc_boundary=True),
            MemLevel("Mem", (math.inf,) * 3),
        ),
        B=MemTensorMatrix(rows=((1, 1, 1),) * 3),
        name="exact-fill",
    )
    return build_model(factorize(LayerDims(1, 1, 1, 1, c, 3, 1)), arch)


def exact_fill_model():
    """The optimum holds C's factors 7, 2 and 2 below the middle level, 28
    input elements in its 28-element buffer.  In floats that buffer's
    slack after the 7 is an ulp short of 2, so rounding it down without
    the tolerance cuts the optimum."""
    return fill_model(28, 28.0)


def test_whole_tail_rounding_keeps_oracle_identity():
    """A knapsack capacity rounded down on a whole tail cuts no optimum: on
    a model whose optimum fills a buffer exactly with 2-factors behind a
    7-factor, and on every random model with a whole-tail row, the answer
    is the exhaustive oracle's."""
    fill = exact_fill_model()
    ia = next(c for c in fill.check_cons if c.name == "buffer[L1/IA]")
    assert ia.rhs - math.log2(7) < 2.0
    models = {"exact-fill": fill}
    for seed in range(400):
        model = random_instance(seed, max_space=60_000)
        if model is None:
            continue
        search = new_search(model)
        if any(whole for rows in reference_plain_knapsack(search)
               for _ci, whole, *_rest in rows):
            models[seed] = model
    assert len(models) > 50
    for name, model in models.items():
        sol = solve(model)
        oracle = exhaustive_solve(model)
        assert sol.status == oracle.status, name
        assert sol.objective_value == oracle.objective_value, name
        assert sol.x_assignment == oracle.x_assignment, name
        assert sol.menu_selection == oracle.menu_selection, name
    x = exhaustive_solve(fill).x_assignment
    below = [f.prime for fi, f in enumerate(fill.factors)
             if f.j == 4 and x[fi][0] == 0]  # C's factors at L0
    assert sorted(below) == [2, 2, 7]


def run_completion_fits(sh, pos, rec) -> bool:
    """Whether the members of the child's mirror run that follow depth
    `pos` can take records of non-increasing rep, at or below `rec.rep`,
    whose weights, added one at a time from the child's `con_lhs`, pass
    every capacity check.  Brute force over the run's completions, each
    (member, rep limit, sums) state tried once."""
    mc = sh.mirror_of[sh.order[pos]]
    rest = [g for g in sh.order[pos + 1:] if sh.mirror_of[g] == mc]
    tried = set()

    def fits(k, limit, sums):
        if any(t > cap for t, cap in zip(sums, sh.cap)):
            return False
        if k == len(rest) or (k, limit, sums) in tried:
            return k == len(rest)
        tried.add((k, limit, sums))
        return any(
            fits(k + 1, r.rep, tuple(t + add for t, add in zip(sums, r.row)))
            for r in sh.classes[rest[k]] if r.rep <= limit
        )

    start = tuple(lhs + add for lhs, add in zip(sh.con_lhs, rec.row))
    return fits(0, rec.rep, start)


def test_run_lookahead_cuts_only_leafless_children(simba, monkeypatch):
    """Every child the run lookahead drops has no completion of its
    mirror run that passes the capacity checks: the records of the
    remaining members are enumerated by brute force.  A dropped child is
    one that passes the rep limit and the capacity check but never
    reaches the menu or the node bound."""
    real_children = _Search._children
    real_floors = _Search._child_floors
    reached = []  # rows that got past the filters in this `_children` call
    cuts = []

    def reaching(real_bound):
        def bound(sh, pos, rec, t_after):
            reached.append(rec.row)
            return real_bound(sh, pos, rec, t_after)
        return bound

    def floors(sh, rec):
        reached.append(rec.row)
        return real_floors(sh, rec)

    def children(sh, pos):
        reached.clear()
        out = real_children(sh, pos)
        fi = sh.order[pos]
        prev = sh.prev_same[fi]
        limit = None if prev is None else sh.choice_rec[prev].rep
        for rec in sh.classes[fi]:
            if limit is not None and rec.rep > limit:
                continue
            if any(sh.con_lhs[ci] + add > sh.cap[ci] for ci, add in rec.items):
                continue
            if any(row is rec.row for row in reached):
                continue
            assert not run_completion_fits(sh, pos, rec)
            cuts.append(rec)
        return out

    monkeypatch.setattr(_Search, "_children", children)
    monkeypatch.setattr(_Search, "_node_bound", reaching(_Search._node_bound))
    monkeypatch.setattr(_Search, "_child_floors", floors)
    counts = {}
    solve(build_model(factorize(SUITE_LAYERS["conv28"]), simba))
    counts["conv28"] = len(cuts)
    solve(build_model(factorize(SUITE_LAYERS["conv28"]), simba,
                      partition=PartitionSpec(budget_bytes=306367)))
    counts["conv28-partition"] = len(cuts)
    stride2 = LayerDims(3, 3, 14, 14, 32, 64, 1, stride=2)
    result = solve_layer(factorize(stride2, PaddingPolicy(max_prime=7)), simba)
    assert result.rounds == 2
    counts["stride2-3x3-14"] = len(cuts)
    fired = []
    for seed in range(400):
        model = random_instance(seed, max_space=60_000)
        if model is not None:
            before = len(cuts)
            solve(model)
            if len(cuts) > before:
                fired.append(seed)
    steps = list(counts.values())
    assert all(b > a for a, b in zip([0] + steps, steps)), counts
    assert fired


def tightened_rhs_excess(model) -> tuple[int, int]:
    """(feasible leaves, menu constraints on which a leaf's final buffer
    sum passes the tightened rhs of one of its prefixes plus `TOLERANCE`).

    A feasible leaf is a class record per factor whose buffer sums,
    added in branch order, pass every capacity check, and whose menus'
    least admissible entries fit the budget; ranks and chains add nothing
    to the sums, so they are left out, and so are the symmetry breaking
    and every prune.  Each prefix's rhs is `_Search._menu_rhs` of the
    floors at the prefix's sums; a prefix over the budget counts as an rhs
    of -inf."""
    sh = new_search(model)
    m = sh.m
    menu_cons = [(ci, c.pad, m.menus[c.menu].entries)
                 for ci, c in enumerate(m.check_cons) if c.menu is not None]
    counts = [0, 0]

    def fits_budget(lhs):
        total = 0
        for ci, pad, entries in menu_cons:
            sizes = [ent.nbytes for ent in entries if lhs[ci] + pad <= ent.e + TOLERANCE]
            if not sizes:
                return False
            total += sizes[0]
        return total <= m.budget_bytes

    def walk(pos, lhs, tight):
        if pos == m.F:
            if fits_budget(lhs):
                counts[0] += 1
                counts[1] += sum(lhs[ci] > tight[ci] + TOLERANCE for ci, _p, _e in menu_cons)
            return
        sh.con_lhs = lhs
        floors, total = sh._floors()
        rhs = (sh._menu_rhs(tuple(floors), total) if total <= m.budget_bytes
               else [-math.inf] * sh.ncons)
        tight = [min(a, b) for a, b in zip(tight, rhs)]
        for rec in sh.classes[sh.order[pos]]:
            nxt = [a + b for a, b in zip(lhs, rec.row)]
            if all(x <= cap for x, cap in zip(nxt, sh.cap)):
                walk(pos + 1, nxt, tight)

    walk(0, [0.0] * sh.ncons, list(sh.con_rhs))
    return tuple(counts)


def test_tightened_rhs_is_sound(monkeypatch):
    """On partition models whose budget binds, the search with the
    budget-tightened rhs gives the exhaustive oracle's answer, and every
    feasible leaf keeps each menu constraint within the tightened rhs of
    every prefix of it in branch order, plus the tolerance.  The check
    has teeth: an rhs one menu entry tighter is passed by some leaf.  The
    tightening moves the node count of a few models only; these searches
    are a handful of nodes each."""
    real = _Search._menu_rhs

    def loose(sh, floors, total):
        return sh.con_rhs

    def one_entry_tighter(sh, floors, total):
        rhs = real(sh, floors, total)
        for ci, _pad, _fits, _sizes, rhs_of in sh.menu_fit:
            rhs[ci] = rhs_of[max(rhs_of.index(rhs[ci]) - 1, 0)]
        return rhs

    models = moved = leaves = tighter_excess = 0
    for seed in range(700):
        model = binding_partition_instance(seed)
        if model is None:
            continue
        models += 1
        sol = solve(model)
        assert _answer(sol) == _answer(exhaustive_solve(model)), seed
        n, excess = tightened_rhs_excess(model)
        assert excess == 0, seed
        leaves += n
        with monkeypatch.context() as mp:
            mp.setattr(_Search, "_menu_rhs", loose)
            moved += solve(model).stats.nodes != sol.stats.nodes
            mp.setattr(_Search, "_menu_rhs", one_entry_tighter)
            tighter_excess += tightened_rhs_excess(model)[1]
    assert models > 150 and leaves > models
    assert moved >= 2, moved
    assert tighter_excess > 0


def budget_max(sh, floors, lam_m, skip=None) -> float:
    """The integer maximum, by brute force over the menus' entries, of the
    sum over the menus but `skip` of lambda_i times the rhs of menu i's
    entry: each entry at or above its floor in `floors`, `skip` at its
    floor, and their bytes within the budget."""
    m = sh.m
    choices = []
    for mi, (menu, floor) in enumerate(zip(m.menus, floors)):
        pad = m.check_cons[sh.menu_fit[mi][0]].pad
        entries = menu.entries[floor:floor + 1] if mi == skip else menu.entries[floor:]
        choices.append([(ent.nbytes, lam_m[mi] * (ent.e - pad)) for ent in entries])
    best = -math.inf
    for pick in itertools.product(*choices):
        if sum(nbytes for nbytes, _v in pick) <= m.budget_bytes:
            best = max(best, sum(v for mi, (_b, v) in enumerate(pick) if mi != skip))
    return best


def assert_budget_cuts_admissible(sh, state, lam_m, memo) -> tuple[int, int]:
    """Check a node's `_menu_state` `state`, at menu multipliers `lam_m`,
    against `budget_max`, kept in `memo` for the model `sh` solves;
    returns (1 if the Lagrangian cut is positive, the count of positive
    cuts of menu rows)."""
    rhs, lagr_cut, pen_cut = state
    floors = sh.floors[0]
    menu_cis = [ci for ci, *_rest in sh.menu_fit]
    total = sum(lam_i * rhs[ci] for lam_i, ci in zip(lam_m, menu_cis))
    positive = 0
    for mi in (None, *range(len(floors))):
        if mi is not None and (not lam_m[mi] or pen_cut is None):
            continue
        key = (floors, lam_m, mi)
        if key not in memo:
            memo[key] = budget_max(sh, floors, lam_m, mi)
        if mi is None:
            bound, cut = total - memo[key], lagr_cut
        else:
            ci = menu_cis[mi]
            bound, cut = total - lam_m[mi] * rhs[ci] - memo[key], pen_cut[ci]
            positive += cut > 0.0
        assert cut <= max(0.0, bound) + 1e-9, (mi, cut, bound)
    if pen_cut is not None:
        active = {ci for lam_i, ci in zip(lam_m, menu_cis) if lam_i}
        assert all(cut == lagr_cut for ci, cut in enumerate(pen_cut)
                   if ci not in active)
    return int(lagr_cut > 0.0), positive


def test_budget_cuts_are_admissible(monkeypatch):
    """At every node a solve expands, the budget's cut of the Lagrangian
    bound is at most the node's sum over the menu rows of lambda_i times
    its rhs less the integer maximum of that sum over the menu selections
    at or above the node's floors within the budget (`budget_max`), or 0
    where that maximum is no less; and the cut of the penalized row of
    menu i at most the same with i held at its floor and left out of the
    sum.  So the LP maxima J and J-i the cuts come from are at least the
    integer ones, and every other row takes the Lagrangian cut.  Checked
    on partition models whose budget binds, menus of 4 to 32 elements, at
    the solve's multipliers, where menu rows are rarely priced, and at
    drawn positive multipliers on every menu row, where the menus compete
    for the budget and the cuts are positive."""
    real = _Search._children
    seen = {"nodes": 0, "cut": 0, "pen": 0}
    memo = {}
    rng = random.Random(5)
    solving = [None]  # the model the memo holds maxima for

    def children(sh, pos):
        if sh.m is not solving[0]:
            memo.clear()
            solving[0] = sh.m
        menu_cis = [ci for ci, *_rest in sh.menu_fit]
        lam_m = tuple(sh.lam[ci] for ci in menu_cis)
        state = (sh.rhs, sh.lagr_cut, sh.pen_cut)
        assert_budget_cuts_admissible(sh, state, lam_m, memo)
        drawn = tuple(rng.choice([0.25, 0.5, 1.0, 2.0]) for _ in lam_m)
        held = sh.lam
        sh.lam = held[:]
        for ci, lam_i in zip(menu_cis, drawn):
            sh.lam[ci] = lam_i
        state = sh._menu_state(*sh.floors)
        sh.lam = held
        cut, pen = assert_budget_cuts_admissible(sh, state, drawn, memo)
        seen["nodes"] += 1
        seen["cut"] += cut
        seen["pen"] += pen
        return real(sh, pos)

    monkeypatch.setattr(_Search, "_children", children)
    for seed in range(400):
        model = binding_partition_instance(seed)
        if model is not None:
            solve(model)
    assert seen["nodes"] > 200 and seen["cut"] > 50 and seen["pen"] > 50, seen


def test_run_lookahead_keeps_an_exact_fit(monkeypatch):
    """The optimum fills the 8-element input buffer of the middle level
    with C's run of three 2s, so the lookahead at the first 2 reaches the
    capacity exactly; the answer is the exhaustive oracle's.  With no
    tolerance the capacity is the sum itself, and the child is kept."""
    model = fill_model(8, 8.0)
    sol = solve(model)
    oracle = exhaustive_solve(model)
    assert sol.status == oracle.status == "optimal"
    assert sol.objective_value == oracle.objective_value
    assert sol.x_assignment == oracle.x_assignment
    x = oracle.x_assignment
    below = [f.prime for fi, f in enumerate(model.factors)
             if f.j == 4 and x[fi][0] == 0]  # C's factors at L0
    assert below == [2, 2, 2]

    ci = next(ci for ci, c in enumerate(model.check_cons) if c.name == "buffer[L1/IA]")
    assert model.check_cons[ci].rhs == 3.0
    monkeypatch.setattr(mipsched.solver, "TOLERANCE", 0.0)
    sh = new_search(model)
    assert sh.cap[ci] == 3.0
    pos = next(pos for pos, fi in enumerate(sh.order) if sh.run_rem[fi] == 2)
    for p in range(pos):  # assign K's 3 ahead of the run
        sh._apply(p, sh._children(p)[0])
    at_l0 = [rec for rec in sh.classes[sh.order[pos]] if rec.I == 0]
    assert at_l0 and all(rec.row[ci] == 1.0 for rec in at_l0)
    kept = [child[4] for child in sh._children(pos)]
    assert all(rec in kept for rec in at_l0)


def benchmark_models(simba):
    """The models of the benchmark's solver ops: the suite layers, the
    partition layers at its budget, and every round of its stride-2
    layers."""
    models = [build_model(factorize(SUITE_LAYERS[name]), simba)
              for name in ("tiny", "conv28", "deep512", "wide256")]
    models += list(partition_models(simba))[:3]
    models.append(build_model(factorize(FC_LAYER), simba))
    for dims in ((3, 3, 28, 28, 64, 64, 1), (3, 3, 14, 14, 32, 64, 1),
                 (1, 1, 28, 28, 64, 128, 1)):
        pf = factorize(LayerDims(*dims, stride=2), PaddingPolicy(max_prime=7))
        result = solve_layer(pf, simba)
        assert result.rounds == 2
        models += [build_model(pf, simba), result.model]
    return models


def test_mirror_class_tables_match_the_factor_build(simba):
    """The bound tables built once per mirror class equal the factor by
    factor build, by repr: each factor's mirror class's costs, and
    `suffix_min` and `lagr_suffix` (`helpers.reference_factor_bounds`)
    at the root and after `tighten`; and the knapsack rows
    (`helpers.reference_factor_knapsack`, which re-sorts the pool and
    re-sums it from the start at every depth) at lam = 0 and at
    `tighten`'s multipliers.  On the benchmark's solver models, the
    padded stride-2 ones of both rounds among them, and the seeded draws
    of `random_instance`."""
    models = benchmark_models(simba)
    models += [model for model in map(random_instance, range(200)) if model is not None]
    priced = 0
    for model in models:
        sh = new_search(model)
        costs = [sh.costs[mc] for mc in sh.mirror_of]
        assert repr((costs, sh.suffix_min, sh.lagr_suffix)) == repr(
            reference_factor_bounds(sh))
        assert repr(sh.kn_at) == repr(reference_factor_knapsack(sh, [0.0] * sh.ncons))
        sh.dfs(0, dive=True)
        if sh.inc.x is not None:
            sh.tighten()
            assert repr(sh.lagr_suffix) == repr(reference_factor_bounds(sh)[2])
            assert repr(sh.pen_at) == repr(reference_factor_knapsack(sh, sh.lam))
            priced += bool(sh.lam_active) and any(sh.pen_at)
    assert len(models) > 100 and priced > 40, (len(models), priced)


class _ReferenceSearch(_Search):
    """`_Search` whose multipliers come from `helpers.reference_lagrangian`."""

    __slots__ = ()
    _build_lagrangian = reference_lagrangian


def test_lagrangian_matches_the_reference(simba):
    """The subgradient loop, which drops dominated records, keeps the
    subgradient per pick vector and skips the terms that add 0.0, moves no
    float against `helpers.reference_lagrangian`, which does every step in
    full: by repr, `lam`, `lam_active` and `lagr_suffix` at the root, and
    after the dive and `tighten` (the Polyak rebuild against the dive's
    incumbent) the same and the rhs and the penalized cuts at those
    multipliers.  On the benchmark's solver models and the seeded draws of
    `random_instance` and `square_instance`."""
    models = benchmark_models(simba)
    models += [model for draw in (random_instance, square_instance)
               for model in map(draw, range(400)) if model is not None]
    state = lambda sh: repr((sh.lam, sh.lam_active, sh.lagr_suffix))
    rebuilt = budgeted = 0
    for model in models:
        sh, ref = (cls(model, _Incumbent(), math.inf) for cls in (_Search, _ReferenceSearch))
        assert state(sh) == state(ref)
        for search in (sh, ref):
            search.dfs(0, dive=True)
            search.tighten()
        assert state(sh) + repr((sh.rhs, sh.pen_cut)) == state(ref) + repr((ref.rhs, ref.pen_cut))
        rebuilt += sh.inc.x is not None and bool(sh.lam_active)
        budgeted += sh.floors is not None and sh.floors[1] <= model.budget_bytes
    assert len(models) > 300 and rebuilt > 100 and budgeted > 25, (len(models), rebuilt, budgeted)


def test_zmax_matches_the_listing_reference():
    """`_zmax` over sorted pins, each gap scanned down only to the rank it
    needs, returns what listing every gap's free ranks returned
    (`helpers.reference_listed_zmax`), on seeded random embeddable level
    states: for a placement outside the chain and at every unpinned
    chain position."""
    rng = random.Random(31)
    found = 0
    for _ in range(3000):
        Z = rng.randint(1, 12)
        chain_len = rng.randint(1, Z)
        # an embedding of the chain; the unpinned chain ranks stay free
        ranks = sorted(rng.sample(range(Z), chain_len))
        pinned = sorted(rng.sample(range(chain_len), rng.randint(0, chain_len)))
        others = [z for z in range(Z) if z not in ranks]
        used = {ranks[p] for p in pinned} | set(
            rng.sample(others, rng.randint(0, len(others))))
        st = _LevelState(chain_len)
        st.used = used
        st.chain_pins = [(p, ranks[p]) for p in pinned]
        ref = types.SimpleNamespace(used=used, chain_len=chain_len,
                                    chain_pins={p: ranks[p] for p in pinned})
        for pos in [None, *(p for p in range(chain_len) if p not in pinned)]:
            z = _zmax(st, pos, Z)
            assert z == reference_listed_zmax(ref, pos, Z), (Z, st.chain_pins, used, pos)
            found += z is not None
    assert found > 5000, found


def test_run_lookahead_matches_reference(simba):
    """The run lookahead's tables, built once per mirror run from its
    first member's records, equal the reference's build factor by factor
    in reverse branch order (`helpers.reference_run_lookahead`), bit for
    bit: on the oracle draws of seeds 0-199 and on the benchmark's solver
    models."""
    models = [model for draw in (random_instance, mirror_instance,
                                 binding_partition_instance)
              for model in map(draw, range(200)) if model is not None]
    models += benchmark_models(simba)
    runs = 0
    for model in models:
        sh = new_search(model)
        assert (repr((sh.prev_same, sh.run_rem, sh.run_need))
                == repr(reference_run_lookahead(sh)))
        runs += any(sh.run_rem)
    assert len(models) > 250 and runs > 150, (len(models), runs)


def test_every_leaf_entered_passes_the_incumbent(simba, monkeypatch):
    """A leaf is decided with no estimate to gate it: every leaf a search
    enters has its static sum plus its weighted traffic, a lower bound on
    its objective, within `inc.obj + EPS_PRUNE`.  Its last child's bound
    was at least that against the same incumbent.  Checked on the benchmark's
    solver models and the oracle draws, with the open list at its default
    and capped at 3, where the proof searches depth-first."""
    real_leaf = _Search._leaf
    seen = {"held": 0}

    def leaf(sh):
        est = sh.static_sum + sh.m.w_t * sh.t_cur
        assert est <= sh.inc.obj + EPS_PRUNE, (est, sh.inc.obj)
        seen["held"] += sh.inc.x is not None
        return real_leaf(sh)

    models = benchmark_models(simba)
    models += [model for model in map(random_instance, range(200)) if model is not None]
    monkeypatch.setattr(_Search, "_leaf", leaf)
    for cap in (mipsched.solver.MAX_OPEN, 3):
        monkeypatch.setattr(mipsched.solver, "MAX_OPEN", cap)
        for model in models:
            solve(model)
    assert seen["held"] > 5000, seen


def test_infeasible_models_are_searched_at_most_once(simba):
    """A pad above its buffer's capacity leaves a constraint with rhs < 0,
    which every assignment violates, so `solve` reports the model
    infeasible without a search, where a search of each of these two
    takes tens of thousands of nodes to find no leaf.  A dive that ends
    without a leaf has searched the whole tree, so the proof does not
    search it again: the conv28 partition at a budget of 191 B, which no
    floors fit, takes the dive's one node."""
    for pads, witness in (({(0, 0): 40.0}, "buffer[Register/W]"),
                          ({(4, 1): 40.0}, "buffer[GlobalBuf/IA]")):
        sol = solve(build_model(factorize(LayerDims(3, 1, 4, 1, 2, 4, 1)), simba,
                                capacity_pads=pads))
        assert (sol.status, sol.witness) == ("infeasible", (witness,))
        assert (sol.stats.nodes, sol.stats.leaves) == (0, 0)
        assert (sol.stats.bound, sol.stats.gap) == (math.inf, math.inf)
    model = build_model(factorize(SUITE_LAYERS["conv28"]), simba,
                        partition=PartitionSpec(budget_bytes=191))
    sol = solve(model)
    assert (sol.status, sol.witness, sol.stats.nodes) == ("infeasible", ("budget",), 1)


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


def test_menu_past_its_pad_is_infeasible_for_both_solvers():
    """On a partition model whose pad is above every entry of a buffer's
    menu, no entry holds even an empty buffer, so the root's floors are
    past the budget and no child fits: both solvers report the model
    infeasible, and the budget's multipliers and cuts have no selection
    to price."""
    pf = factorize(LayerDims(1, 1, 2, 1, 3, 2, 1))
    model = build_model(pf, toy_two_level(), capacity_pads={(0, 0): 9.0},
                        partition=PartitionSpec(budget_bytes=192, e_min=2))
    menu = model.menus[0]
    assert model.check_cons[0].pad > menu.entries[-1].e
    sol = solve(model)
    assert sol.status == exhaustive_solve(model).status == "infeasible"
    assert sol.witness == ("buffer[Buf/W]",)


def slot_leaf(sh, slots, chains):
    """The choice classes and chains of the leaf whose slots (per factor
    its choice class and chain place or None) are `slots`, its chains as
    long as `chains`: a chained factor sits in the chain of its record's
    level."""
    choice_cls = [cc for cc, _pos in slots]
    out = {I: [None] * len(chain) for I, chain in chains.items()}
    for fi, (cc, pos) in enumerate(slots):
        if pos is not None:
            out[next(rec.I for rec in sh.classes[fi] if rec.cc == cc)][pos] = fi
    return choice_cls, out


def image_moves(image, F):
    """The (member, source) moves of an image of `_Search._images`."""
    first, gather = image
    return [(fi, src) for fi, src in enumerate(gather(range(F)), first) if fi != src]


def image_of(recs, chains, moves):
    """The records and chains of the image whose moves are `moves`: each
    member takes its source's record and, if chained, its chain place."""
    img = recs[:]
    sigma = {}
    for fi, src in moves:
        rec = img[fi] = recs[src]
        if rec.chained:
            sigma[src] = fi
    return img, {I: [sigma.get(fi, fi) for fi in chain] for I, chain in chains.items()}


def test_canonical_assignment_matches_reference(simba, monkeypatch):
    """Every canonical pass of a solve, of a leaf or of one of its images,
    gets exactly the assignment of the reference that tries every rank of
    every level, given the slots alone.  A pass given the incumbent's key
    returns None only for a leaf whose reference assignment does not beat
    the incumbent; given a key that is just above, or just below, its own
    in one entry and below it in every later one, it compares each pin's
    entry as it is made, returning None when the pass's key is the larger
    and going on unbounded once it is the smaller."""
    real = mipsched.solver.canonical_assignment
    leaves = []
    early = []

    def checked(model, slots, chains, sh, bound_key=None):
        x = real(model, slots, chains, sh, bound_key)
        ref = reference_canonical_assignment(model, *slot_leaf(sh, slots, chains))
        if x is None:
            assert bound_key is not None and bound_key is sh.inc.key
            menu_sel = sh._derive_menus()
            ref_obj = model.objective_of(ref)
            assert not sh.inc.beats(ref_obj, model.lex_key(ref, menu_sel))
            early.append(1)
        else:
            assert x == ref
        if model.F:
            # an incumbent whose key is just above, or just below, the
            # leaf's at entry r - 1, and below every later entry; r runs
            # over the factors from pass to pass
            key = [-model.choice_index[fi][ref[fi]] for fi in range(model.F)]
            r = 1 + len(leaves) % model.F
            for step, want in ((1, ref), (-1, None)):
                bound = (*key[:r - 1], key[r - 1] + step,
                         *[-len(model.choice_index[0]) - 1] * (model.F - r))
                assert real(model, slots, chains, sh, bound) == want
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
    assert early  # the early exit ran


def test_leaf_decision_matches_full_path(simba, monkeypatch):
    """Every decision of a solve, of a leaf or of one of its images,
    against the full path it replaces, each image's records and chains
    built from its moves: its buffer sums are the left fold of its
    records in branch order; its objective, from the leaf's folds and
    traffic term, resumed from the leaf's prefix sums for an image, equals
    `objective_of` on its reference canonical assignment, float for
    float; every canonical pass given the incumbent's key keys it as an
    unbounded pass does, or stops where its key is the larger; and,
    deciding the leaf and then its images in order against the incumbent
    each meets, the same image is offered and accepted exactly when that
    path would accept it, and leaves the same incumbent.  The leaf is its
    own first image, with no move, offered first and at its own
    objective, `objective_from` of its records and chains, bit for bit;
    it decides itself from the search state, and that state, its buffer
    sums' list included, is as it was once its images are done; some
    leaves have images and some have none.  Checked on tiny, conv28 with and
    without menus, both rounds of the stride-2 3x3-14 layer, and the
    `random_instance` (seeds 0-399) and `mirror_instance` (0-199) draws,
    with and without menus, over all five objective modes and chained
    mirror runs."""
    real_leaf = _Search._leaf
    real_decide = _Search._decide
    real_offer = _Search._offer
    real_close = MipModel.objective_close
    real_canon = mipsched.solver.canonical_assignment
    closed = []  # every objective `objective_close` gives, in order
    offered = []  # (objective, accepted, image) of every offer, in order
    seen = {"modes": set(), "images": 0, "chained": 0, "early": 0, "on_objective": 0}
    decided = []  # the states decided at the running leaf
    images = []  # per leaf, its images

    def recorded_close(model, sums, traffic):
        obj = real_close(model, sums, traffic)
        closed.append(obj)
        return obj

    def offer(sh, leaf, obj, image):
        accepted = real_offer(sh, leaf, obj, image)
        offered.append((obj, accepted, image))
        return accepted

    def canon(model, slots, chains, sh, bound_key=None):
        x = real_canon(model, slots, chains, sh, bound_key)
        fresh = real_canon(model, slots, chains, sh)
        key = [-model.choice_index[fi][fresh[fi]] for fi in range(model.F)]
        if x is None:
            assert key > list(bound_key[:model.F])
            seen["early"] += 1
        else:
            assert [-model.choice_index[fi][x[fi]] for fi in range(model.F)] == key
        return x

    def state(recs, chains):
        return recs[:], {I: chain[:] for I, chain in chains.items()}

    def decide(sh, recs, chains, menu_sel):
        before = state(recs, chains)
        decided.append(before)
        con_lhs = sh.con_lhs
        m, inc = sh.m, sh.inc
        inc_obj = inc.obj
        assert menu_sel == sh._derive_menus()
        images = sh._images(recs)
        assert images[0][0] == m.F and image_moves(images[0], m.F) == []
        # the full path of the leaf and of each image, in decision order,
        # against a copy of the incumbent
        sim = _Incumbent()
        sim.offer(inc.obj, inc.key, inc.x, inc.menu)
        refs, expect = [], []
        for image in images:
            moves = image_moves(image, m.F)
            img, img_chains = image_of(recs, chains, moves)
            lhs = [0.0] * sh.ncons  # its own fold, in branch order
            for fi in sh.order:
                lhs = [a + b for a, b in zip(lhs, img[fi].row)]
            assert repr(sh.con_lhs) == repr(lhs)
            x = reference_canonical_assignment(m, [rec.cc for rec in img], img_chains)
            obj = m.objective_of(x)
            refs.append(obj)
            seen["on_objective"] += obj > sim.obj
            if obj <= sim.obj:
                key = m.lex_key(x, menu_sel)
                ok = (sim.beats(obj, key)
                      and not m.constraint_violations(x, menu_sel))
                expect.append((obj, ok, image))
                if ok:
                    sim.offer(obj, key, x, menu_sel)
            seen["chained"] += any(recs[src].chained for _fi, src in moves)
        walk = [(I, m.factors[fi]) for I, chain in chains.items() for fi in chain]
        leaf_obj = m.objective_from(recs, walk)
        closed.clear()
        offered.clear()
        accepted = real_decide(sh, recs, chains, menu_sel)
        assert state(recs, chains) == before and sh.con_lhs is con_lhs
        assert list(map(repr, closed)) == list(map(repr, refs))
        assert repr(closed[0]) == repr(leaf_obj)
        assert offered == expect
        if refs[0] <= inc_obj:  # the leaf itself is offered, and first
            assert offered[0][2] is images[0]
        assert accepted == any(ok for _obj, ok, _image in expect)
        assert (inc.obj, inc.key, inc.x, inc.menu) == (sim.obj, sim.key, sim.x, sim.menu)
        seen["modes"].add((objective_name(m.weights), bool(m.menus)))
        seen["images"] += len(images) - 1
        return accepted

    def leaf(sh):
        before = state(sh.choice_rec, sh.chains)
        con_lhs = sh.con_lhs
        decided.clear()
        accepted = real_leaf(sh)
        assert state(sh.choice_rec, sh.chains) == before and sh.con_lhs is con_lhs
        if decided:  # a leaf with no menu that holds its sums is not decided
            assert decided == [before]
            images.append(len(sh._images(sh.choice_rec)) - 1)
        return accepted

    monkeypatch.setattr(MipModel, "objective_close", recorded_close)
    monkeypatch.setattr(mipsched.solver, "canonical_assignment", canon)
    monkeypatch.setattr(_Search, "_offer", offer)
    monkeypatch.setattr(_Search, "_decide", decide)
    monkeypatch.setattr(_Search, "_leaf", leaf)
    canonicalized = {}
    solve(build_model(factorize(SUITE_LAYERS["tiny"]), simba))
    sol = solve(build_model(factorize(SUITE_LAYERS["conv28"]), simba))
    canonicalized["conv28"] = (sol.stats.leaves, sol.stats.canonicalized)
    solve(build_model(factorize(SUITE_LAYERS["conv28"]), simba,
                      partition=PartitionSpec(budget_bytes=306367)))
    stride2 = LayerDims(3, 3, 14, 14, 32, 64, 1, stride=2)
    result = solve_layer(factorize(stride2, PaddingPolicy(max_prime=7)), simba)
    assert result.rounds == 2
    stats = result.solution.stats
    canonicalized["stride2-3x3-14"] = (stats.leaves, stats.canonicalized)
    for draw, seeds in ((random_instance, range(400)), (mirror_instance, range(200))):
        for seed in seeds:
            for model in (draw(seed, 60_000), binding_partition_instance(seed, draw=draw)):
                if model is not None:
                    solve(model)
    modes = ("combined", "util", "comp", "traffic")
    assert seen["modes"] == {(mode, menus) for mode in modes for menus in (False, True)}
    assert seen["images"] > 2000 and seen["chained"] > 1000, seen
    assert seen["early"] > 1000, seen
    assert seen["on_objective"] > 10, seen
    assert any(images) and not all(images)
    # all the leaves, and the decisions, of leaves and of images, offered
    # on their canonical key, early exits included (last round of the
    # stride-2 layer)
    assert canonicalized == {
        "conv28": (25, 66),
        "stride2-3x3-14": (25, 41),
    }


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
            walk = model._temporal_walk(x)
            assert model._walk_t_sums(walk) == reference_t_sums(model, x)
            checked += 1
    assert checked > 1000


def mirror_runs(model) -> list[str]:
    """The mirror runs of `_Search` that span two identical classes or
    more, each as its factors' dimensions and primes in branch order."""
    sh = new_search(model)
    name = lambda fi: DIM_NAMES[model.factors[fi].j] + str(model.factors[fi].prime)
    return sorted(" ".join(map(name, run)) for run in sh.mirrors)


def test_mirror_classes_come_from_the_model(simba):
    """conv28 (3x3, 28x28) mirrors R's 3 with S's, P's 7 with Q's and P's
    2s with Q's; N's 2s join P's and Q's where the arch treats the three
    alike, and so do dimensions whose factorizations differ.  A layer with
    R != S and P != Q and no shared prime has none.  A halo round's
    capacity pads sit in the rhs, not in the rows, so the padded model
    keeps its classes; a spatial limit that lets P map spatially and not
    Q makes their records differ, and keeps P and Q apart."""
    conv28 = factorize(SUITE_LAYERS["conv28"])
    assert mirror_runs(build_model(conv28, simba)) == ["P2 P2 Q2 Q2", "P7 Q7", "R3 S3"]
    five = factorize(LayerDims(1, 1, 4, 2, 2, 2, 4))
    assert mirror_runs(build_model(five, simba)) == ["P2 P2 N2 N2 Q2"]
    uneven = factorize(LayerDims(3, 3, 28, 14, 8, 4, 3))
    assert mirror_runs(build_model(uneven, simba)) == ["P2 P2 Q2", "P7 Q7", "R3 S3"]
    assert mirror_runs(build_model(factorize(LayerDims(3, 5, 7, 25, 8, 4, 3)),
                                   simba)) == []

    stride2 = LayerDims(3, 3, 14, 14, 32, 64, 1, stride=2)
    result = solve_layer(factorize(stride2, PaddingPolicy(max_prime=7)), simba)
    assert result.rounds == 2 and result.pads
    assert mirror_runs(result.model) == ["P2 Q2", "P7 Q7", "R3 S3"]

    at = next(I for I, level in enumerate(simba.levels) if level.spatial_fanout > 1)
    levels = list(simba.levels)
    levels[at] = dataclasses.replace(levels[at], allowed_spatial_dims=frozenset({0, 1, 2, 4, 5, 6}))
    no_q = dataclasses.replace(simba, levels=tuple(levels))
    assert mirror_runs(build_model(conv28, no_q)) == ["R3 S3"]


def test_branch_order_keeps_mirror_runs_contiguous(simba):
    """Every mirror class takes consecutive depths of the branch order,
    and every row entry of every member's records is 0.0 or the class's
    one log-factor.  So an image, which re-deals a run's slots over the
    run's own depths, folds the buffer sums as its leaf does, bit for bit.
    Checked on the oracle draws and on random simba layers whose dims
    share primes across dimensions, where a key by identical class alone
    split a run (7 of the 168 `mirror_instance` models, 23 of the 30
    layers)."""
    models = [m for draw in (random_instance, square_instance, mirror_instance)
              for m in map(draw, range(300)) if m is not None]
    rng = random.Random(7)
    for _ in range(30):
        dims = LayerDims(*(rng.choice([1, 2, 3, 4, 6, 7, 8, 12, 14, 16, 28])
                           for _ in range(7)))
        models.append(build_model(factorize(dims), simba))
    spanning = 0  # models with a mirror run over two identical classes
    for model in models:
        sh = new_search(model)
        runs = {}
        for depth, fi in enumerate(sh.order):
            runs.setdefault(sh.mirror_of[fi], []).append(depth)
            assert {add for rec in sh.classes[fi] for add in rec.row} <= {0.0, sh.lg[fi]}
        for depths in runs.values():
            assert depths == list(range(depths[0], depths[0] + len(depths)))
            assert len({sh.lg[sh.order[d]] for d in depths}) == 1
        spanning += bool(sh.mirrors)
    assert len(models) == 454 and spanning > 300, spanning


def spans_two_identical_classes(model) -> bool:
    sh = new_search(model)
    return any(len({sh.cls_of[fi] for fi in run}) > 1 for run in sh.mirrors)


def test_square_instances_match_the_oracle():
    """Small instances drawn square, R = S or P = Q or both, with and
    without partition menus under a binding budget: the branch-and-bound
    with its mirror runs and leaf images gives the exhaustive oracle's
    answer bit for bit, in every objective mode."""
    checked = {False: 0, True: 0}
    modes = set()
    for seed in range(300):
        for menus in (False, True):
            model = (binding_partition_instance(seed, draw=square_instance) if menus
                     else square_instance(seed))
            if model is None:
                continue
            assert spans_two_identical_classes(model), seed
            assert _answer(solve(model)) == _answer(exhaustive_solve(model)), (seed, menus)
            checked[menus] += 1
            modes.add(objective_name(model.weights))
    assert checked[False] > 80 and checked[True] > 40, checked
    assert modes == {"combined", "util", "comp", "traffic"}


def test_unequal_mirror_classes_match_the_oracle():
    """Small instances whose mirror classes join identical classes of
    unequal sizes, P != Q sharing a prime or N sharing its 2s with P or
    Q, with and without partition menus under a binding budget: the
    branch-and-bound gives the exhaustive oracle's answer bit for bit, in
    every objective mode."""
    checked = {False: 0, True: 0}
    modes = set()
    for seed in range(300):
        for menus in (False, True):
            model = (binding_partition_instance(seed, draw=mirror_instance) if menus
                     else mirror_instance(seed))
            if model is None:
                continue
            sh = new_search(model)
            sizes = [{sum(sh.cls_of[g] == sh.cls_of[fi] for g in run) for fi in run}
                     for run in sh.mirrors]
            assert any(len(counts) > 1 for counts in sizes), seed
            assert _answer(solve(model)) == _answer(exhaustive_solve(model)), (seed, menus)
            checked[menus] += 1
            modes.add((objective_name(model.weights), menus))
    assert checked[False] > 150 and checked[True] > 40, checked
    assert modes == {(mode, menus) for mode in ("combined", "util", "comp", "traffic")
                     for menus in (False, True)}


def test_images_reach_the_answer_the_cut_removes(simba, monkeypatch):
    """This util-mode layer's answer is a leaf its mirror runs cut: Q's 3
    sits above P's 3 and follows it in their run.  The kept leaf, with
    the two 3s' places traded, adds the same terms in another order and
    lands an ulp higher.  The answer is accepted only as an image decided
    at that leaf."""
    model = build_model(factorize(LayerDims(3, 3, 6, 6, 1, 64, 1)), simba,
                        ObjectiveWeights(1, 0, 0))
    sh = new_search(model)
    threes = {(DIM_NAMES.index("P"), 3), (DIM_NAMES.index("Q"), 3)}
    (first, later), = [run for run in sh.mirrors
                       if {(model.factors[fi].j, model.factors[fi].prime)
                           for fi in run} == threes]
    assert sh.prev_same[later] == first
    real_offer = _Search._offer
    accepted = []  # per accepted decision, whether it decided an image

    def offer(sh, leaf, obj, image):
        ok = real_offer(sh, leaf, obj, image)
        if ok:
            accepted.append(image[0] < sh.m.F)  # the leaf itself moves no factor
        return ok

    monkeypatch.setattr(_Search, "_offer", offer)
    sol = solve(model)
    x = sol.x_assignment
    assert accepted[-1]

    def rep(assignment, fi):
        I, _z, k = assignment[fi]
        return model.coef[fi][(I, k)].rep

    assert rep(x, later) > rep(x, first)
    kept = {**x, first: x[later], later: x[first]}
    assert rep(kept, later) <= rep(kept, first)
    assert not model.constraint_violations(kept)
    assert sol.objective_value == model.objective_of(x) < model.objective_of(kept)
    assert repr(sol.objective_value) == "-38.26466250649041"


@pytest.mark.slow
def test_res3_3x3_takes_two_rounds(simba):
    """ResNet-50's res3 3x3 layer (3 3 28 28 128 128): the first round's
    answer fails the halo check, so the pipeline re-solves once.  A first
    round that reported another member of the answer's orbit, one ulp
    higher, passed the check and stopped after one round at 0.00703."""
    result = solve_layer(factorize(LayerDims(3, 3, 28, 28, 128, 128, 1)), simba)
    assert result.rounds == 2
    assert result.solution.status == "optimal"
    assert round(result.solution.objective_value, 5) == 1.00703

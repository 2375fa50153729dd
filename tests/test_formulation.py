import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    OBJECTIVE_TERMS,
    SUITE_LAYERS,
    random_instance,
    reference_choice_coefficients,
    reference_conv28_schedule,
    reference_factor_coefficients,
    toy_two_level,
)
from mipsched.arch import ArchSpec, MemLevel, MemTensorMatrix
from mipsched.formulation import (
    SPATIAL,
    TEMPORAL,
    FormulationError,
    ObjectiveWeights,
    PartitionSpec,
    build_model,
)
from mipsched.schedule import encode
from mipsched.solver import exhaustive_solve, solve
from mipsched.workload import LayerDims, factorize


def tiny_pf():
    return factorize(LayerDims(3, 1, 1, 1, 1, 4, 3))


def raw_constraints(model, *kinds):
    return [c for c in model.raw().constraints if c.kind in kinds]


def three_level_arch(w_cap_elems=16, extra_all=1 << 20):
    """Inner PE level, one bounded weight buffer, unbounded backing."""
    return ArchSpec(
        levels=(
            MemLevel("PE", (float(extra_all),) * 3, spatial_fanout=1, is_noc_boundary=True),
            MemLevel("WBuf", (float(w_cap_elems), 0.0, 0.0)),
            MemLevel("Mem", (math.inf,) * 3),
        ),
        B=MemTensorMatrix(rows=((1, 1, 1), (1, 0, 0), (1, 1, 1))),
        name="toy3",
    )


class TestAssignmentConstraints:
    def test_exactly_one_per_factor(self, simba):
        assigns = raw_constraints(build_model(tiny_pf(), simba), "assign")
        assert len(assigns) == 4  # one per prime factor
        for c in assigns:
            assert c.sense == "==" and c.rhs == 1.0
            assert all(coef == 1.0 for _vid, coef in c.terms)

    def test_at_most_one_per_slot(self, simba):
        slots = raw_constraints(build_model(tiny_pf(), simba), "slot")
        assert len(slots) == 6 * 4  # every level reserves a slot per factor
        assert all(c.sense == "<=" and c.rhs == 1.0 for c in slots)

    def test_all_unit_layer_trivially_feasible(self, simba):
        pf = factorize(LayerDims(1, 1, 1, 1, 1, 1, 1))
        model = build_model(pf, simba)
        assert raw_constraints(model, "assign", "slot") == []
        sol = solve(model)
        assert sol.status == "optimal" and sol.objective_value == 0.0

    def test_double_assignment_violates_raw(self, simba):
        model = build_model(tiny_pf(), simba)
        vals = model.raw_values({0: (5, 0, TEMPORAL), 1: (5, 1, TEMPORAL),
                                 2: (5, 2, TEMPORAL), 3: (5, 3, TEMPORAL)})
        raw = model.raw()
        vals[raw.x_id[(0, 5, 1, TEMPORAL)]] = 1.0  # factor 0 assigned twice
        assert any(name.startswith("assign") for name in model.check_raw(vals))


class TestBufferConstraints:
    def test_feasible_at_boundary(self):
        # four two-sided channel factors exactly fill a 16-element buffer
        arch = three_level_arch(w_cap_elems=16)
        pf = factorize(LayerDims(1, 1, 1, 1, 4, 4, 1))
        model = build_model(pf, arch)
        x = {fi: (0, fi, TEMPORAL) for fi in range(4)}
        assert model.constraint_violations(x) == []
        con = next(c for c in model.check_cons if c.kind == "buffer" and c.level == 1)
        lhs = sum(
            model.coef[fi][(0, TEMPORAL)].row[model.check_cons.index(con)]
            for fi in range(4)
        )
        assert math.isclose(lhs, con.rhs, rel_tol=1e-12)  # 2*2*2*2 = 16 exactly

    def test_one_more_factor_overflows(self):
        arch = three_level_arch(w_cap_elems=16)
        pf = factorize(LayerDims(3, 1, 1, 1, 4, 4, 1))  # adds a kernel factor of 3
        model = build_model(pf, arch)
        x = {fi: (0, fi, TEMPORAL) for fi in range(5)}
        bad = model.constraint_violations(x)
        assert any("WBuf" in b for b in bad)  # 48 elements > 16

    def test_unrelated_factors_do_not_count(self):
        arch = three_level_arch(w_cap_elems=2)
        pf = factorize(LayerDims(1, 1, 8, 8, 1, 1, 1))  # P, Q unrelated to weights
        model = build_model(pf, arch)
        x = {fi: (0, fi, TEMPORAL) for fi in range(model.F)}
        assert model.constraint_violations(x) == []

    def test_both_mappings_count(self):
        # spatial and temporal variables of inner-level factors both appear
        model = build_model(tiny_pf(), toy_two_level(cap=4.0))
        cons = raw_constraints(model, "buffer")
        ci = next(
            i for i, c in enumerate(model.check_cons) if c.kind == "buffer"
        )
        contrib = model.coef[0][(0, SPATIAL)].row[ci]
        assert contrib == 0.0  # level 0 is the bounded level itself
        assert cons  # constraints exist for the bounded level


class TestSpatialConstraints:
    def test_reference_schedule_fits_noc(self, simba):
        pf = factorize(LayerDims(3, 3, 28, 28, 8, 4, 3))
        model = build_model(pf, simba)
        x = encode(reference_conv28_schedule(simba), pf)
        assert model.constraint_violations(x) == []
        ci = next(
            i
            for i, c in enumerate(model.check_cons)
            if c.kind == "spatial" and c.level == 4
        )
        lhs = sum(
            model.coef[fi][(I, k)].row[ci]
            for fi, (I, z, k) in x.items()
        )
        assert math.isclose(lhs, math.log2(12))  # 3*2*2 across 16 engines

    def test_spatial_overflow_infeasible(self, simba):
        pf = factorize(LayerDims(3, 3, 1, 1, 1, 2, 1))
        model = build_model(pf, simba)
        x = {fi: (4, fi, SPATIAL) for fi in range(3)}  # 3*3*2 = 18 > 16
        assert any("spatial" in b for b in model.constraint_violations(x))

    def test_no_spatial_assignments_trivial(self, simba):
        pf = tiny_pf()
        model = build_model(pf, simba)
        x = {fi: (5, fi, TEMPORAL) for fi in range(4)}
        assert not any(
            "spatial" in b for b in model.constraint_violations(x)
        )
        assert raw_constraints(model, "spatial")  # constraints still exist


class TestObjectives:
    def test_everything_outermost_zero_util(self, simba):
        model = build_model(tiny_pf(), simba)
        x = {fi: (5, fi, TEMPORAL) for fi in range(4)}
        assert model.term_values(x)["util"] == 0.0

    def test_single_buffer_util(self):
        # two kernel-width factors of 2 resident inside: log2(4) = 2
        arch = three_level_arch(w_cap_elems=64)
        pf = factorize(LayerDims(4, 1, 1, 1, 1, 1, 1))
        model = build_model(pf, arch)
        x = {0: (0, 0, TEMPORAL), 1: (0, 1, TEMPORAL)}
        terms = model.term_values(x)
        assert terms["util"] == 2.0

    def test_util_bounded_by_capacity_sum(self, simba):
        model = build_model(tiny_pf(), simba)
        sol = solve(model)
        cap_sum = sum(c.rhs for c in model.check_cons if c.kind == "buffer")
        assert model.term_values(sol.x_assignment)["util"] <= cap_sum + 1e-9

    def test_comp_of_reference_schedule(self, simba):
        pf = factorize(LayerDims(3, 3, 28, 28, 8, 4, 3))
        model = build_model(pf, simba)
        x = encode(reference_conv28_schedule(simba), pf)
        assert math.isclose(model.term_values(x)["comp"], math.log2(7056), rel_tol=1e-12)

    def test_comp_plus_spatial_is_total_work(self, simba):
        pf = factorize(LayerDims(3, 3, 28, 28, 8, 4, 3))
        model = build_model(pf, simba)
        sol = solve(model)
        comp = model.term_values(sol.x_assignment)["comp"]
        spatial = sum(
            model.factors[fi].lg
            for fi, (I, z, k) in sol.x_assignment.items()
            if k == SPATIAL
        )
        total = sum(math.log2(d) for d in pf.padded if d > 1)
        assert math.isclose(comp + spatial, total, rel_tol=1e-9)

    def test_everything_spatial_zero_comp(self):
        arch = toy_two_level(fanout=8, cap=1024.0)
        pf = factorize(LayerDims(1, 1, 1, 1, 1, 8, 1))
        model = build_model(pf, arch)
        x = {fi: (0, fi, SPATIAL) for fi in range(3)}
        assert model.term_values(x)["comp"] == 0.0

    def test_transfer_size_term(self, simba):
        # weight tile of 3*3*2*2 below the boundary
        pf = factorize(LayerDims(3, 3, 1, 1, 2, 2, 1))
        model = build_model(pf, simba)
        x = {fi: (0, fi, TEMPORAL) for fi in range(model.F)}
        terms = model.term_values(x)
        assert math.isclose(terms["D_W"], math.log2(36), rel_tol=1e-12)
        assert terms["L_W"] == terms["L_IA"] == terms["L_OA"] == 0.0

    def test_no_outer_temporal_means_no_iterations(self, simba):
        pf = factorize(LayerDims(3, 3, 1, 1, 2, 2, 1))
        model = build_model(pf, simba)
        x = {fi: (0, fi, TEMPORAL) for fi in range(model.F)}
        terms = model.term_values(x)
        assert terms["T_W"] == terms["T_IA"] == terms["T_OA"] == 0.0


class TestRawModel:
    def test_var_count_before_fixing(self, simba):
        pf = tiny_pf()
        model = build_model(pf, simba)
        assert model.F * (model.H * model.Z) * 2 == 4 * (6 * 4) * 2
        # spatial variables only exist where the fanout admits them
        x_vars = sum(len(ch) for ch in model.choices)
        spatial_levels = sum(1 for l in simba.levels if l.spatial_fanout > 1)
        assert x_vars == 4 * 4 * (6 + spatial_levels)

    def test_solver_solution_satisfies_raw_model(self, simba):
        """The solver's answer satisfies the raw model, and the raw
        objective there is `objective_of` it, under the default weights
        and under unequal ones."""
        pf = tiny_pf()
        for weights in (ObjectiveWeights(), ObjectiveWeights(2, 0.5, 1.5)):
            model = build_model(pf, simba, weights)
            sol = solve(model)
            vals = model.raw_values(sol.x_assignment, sol.menu_selection)
            assert model.check_raw(vals) == []
            raw_obj = sum(vals[vid] * c for vid, c in model.raw().objective.items())
            assert math.isclose(raw_obj, model.objective_of(sol.x_assignment), rel_tol=1e-12)

    def test_linearization_exact_by_enumeration(self):
        arch = toy_two_level(fanout=2, cap=64.0)
        pf = factorize(LayerDims(1, 1, 2, 1, 1, 2, 1))
        model = build_model(pf, arch)
        raw = model.raw()
        import itertools

        for choice in itertools.product(model.choices[0], model.choices[1]):
            if choice[0][:2] == choice[1][:2]:
                continue  # rank collision
            x = {0: choice[0], 1: choice[1]}
            vals = model.raw_values(x)
            if not model.constraint_violations(x):
                assert model.check_raw(vals) == []
            for (v, gi, fi), pid in raw.p_id.items():
                I, z = model.g_positions[gi]
                xv = vals[raw.x_id[(fi, I, z, TEMPORAL)]]
                yv = vals[raw.y_id[(v, gi)]]
                assert vals[pid] == xv * yv  # product variable is exact

    def test_y_monotone_in_solutions(self, simba):
        pf = factorize(LayerDims(1, 1, 4, 1, 2, 4, 2))
        model = build_model(pf, simba)
        sol = solve(model)
        vals = model.raw_values(sol.x_assignment)
        raw = model.raw()
        for v in range(3):
            prev = 0.0
            for gi in range(len(model.g_positions)):
                cur = vals[raw.y_id[(v, gi)]]
                assert cur >= prev
                prev = cur


class TestComposeObjective:
    def test_partition_vars_view(self):
        arch = TestPartition().two_buffer_arch()
        pf = factorize(LayerDims(1, 1, 1, 1, 4, 4, 1))
        model = build_model(
            pf, arch, partition=PartitionSpec(budget_bytes=24, e_min=3, e_max=4, include_baseline=False)
        )
        cons = raw_constraints(model, "menu", "budget", "buffer")
        assert len(model.menus) == 2
        kinds = {c.kind for c in cons}
        assert kinds == {"menu", "budget", "buffer"}

    def test_single_modes_match_weighted_combined(self):
        """A single-term objective is the other two weights at 0: with only
        w_c positive the search finds the oracle's optimum, which is the
        compute term of its answer, and doubling w_c doubles it exactly."""
        arch = toy_two_level(fanout=2, cap=16.0)
        pf = factorize(LayerDims(1, 1, 2, 1, 3, 2, 1))
        model = build_model(pf, arch, ObjectiveWeights(0, 1, 0))
        comp_only = solve(model)
        oracle = exhaustive_solve(model)
        assert comp_only.objective_value == oracle.objective_value
        assert math.isclose(comp_only.objective_value,
                            model.term_values(comp_only.x_assignment)["comp"])
        doubled = solve(build_model(pf, arch, ObjectiveWeights(0, 2, 0)))
        assert doubled.objective_value == 2 * comp_only.objective_value

    def test_util_mode_is_negated_maximization(self):
        arch = toy_two_level(fanout=2, cap=16.0)
        pf = factorize(LayerDims(1, 1, 2, 1, 3, 2, 1))
        model = build_model(pf, arch, ObjectiveWeights(1, 0, 0))
        sol = solve(model)
        assert sol.objective_value <= 0.0
        assert math.isclose(
            -sol.objective_value, model.term_values(sol.x_assignment)["util"]
        )

    def test_default_weights_have_all_terms(self, simba):
        model = build_model(tiny_pf(), simba, ObjectiveWeights())
        x = {0: (0, 0, TEMPORAL), 1: (4, 0, TEMPORAL), 2: (4, 1, SPATIAL), 3: (5, 0, TEMPORAL)}
        t = model.term_values(x)
        expect = -t["util"] + t["comp"] + t["traffic"]
        assert math.isclose(model.objective_of(x), expect, rel_tol=1e-9)

    def test_weight_validation(self):
        # with every weight zero every schedule ties at 0
        with pytest.raises(FormulationError,
                           match="^objective needs a positive w_u, w_c or w_t$"):
            ObjectiveWeights(0, 0, 0)
        # one positive weight is enough, whatever the others are
        for weights in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)):
            ObjectiveWeights(*weights)
        with pytest.raises(FormulationError):
            ObjectiveWeights(-1, 1, 1)
        # the three weights are the whole objective
        with pytest.raises(TypeError):
            ObjectiveWeights(mode="util")


class TestPartition:
    def two_buffer_arch(self):
        return ArchSpec(
            levels=(
                MemLevel("PE", (0.0, 0.0, 0.0), spatial_fanout=1, is_noc_boundary=True),
                MemLevel("WBuf", (16.0, 0.0, 0.0)),
                MemLevel("IBuf", (0.0, 16.0, 0.0)),
                MemLevel("Mem", (math.inf,) * 3),
            ),
            B=MemTensorMatrix(rows=((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1))),
            name="twobuf",
        )

    def test_menu_selection_under_budget(self):
        arch = self.two_buffer_arch()
        pf = factorize(LayerDims(1, 1, 1, 1, 4, 4, 1))
        spec = PartitionSpec(budget_bytes=24, e_min=3, e_max=4, include_baseline=False)
        model = build_model(pf, arch, partition=spec)
        assert [len(m.entries) for m in model.menus] == [2, 2]
        # 8 + 16 = 24 bytes fits; 16 + 16 = 32 does not
        x = {fi: (3, fi, TEMPORAL) for fi in range(4)}
        assert model.constraint_violations(x, (0, 1)) == []
        assert any("budget" in b for b in model.constraint_violations(x, (1, 1)))

    def test_empty_menu_raises(self):
        arch = self.two_buffer_arch()
        pf = factorize(LayerDims(1, 1, 1, 1, 4, 4, 1))
        with pytest.raises(FormulationError):
            build_model(
                pf, arch, partition=PartitionSpec(budget_bytes=4, e_min=4, include_baseline=False)
            )

    def test_budget_must_be_positive(self):
        with pytest.raises(FormulationError):
            PartitionSpec(budget_bytes=0)

    def test_infeasible_budget_reported(self):
        arch = self.two_buffer_arch()
        pf = factorize(LayerDims(1, 1, 1, 1, 4, 4, 1))
        spec = PartitionSpec(budget_bytes=10, e_min=3, e_max=4, include_baseline=False)
        model = build_model(pf, arch, partition=spec)
        sol = solve(model)
        assert sol.status == "infeasible"
        assert sol.witness and "budget" in sol.witness
        assert exhaustive_solve(model).status == "infeasible"

    def test_baseline_menu_reproduces_fixed_model(self):
        arch = self.two_buffer_arch()
        pf = factorize(LayerDims(1, 1, 1, 1, 4, 4, 1))
        fixed = solve(build_model(pf, arch))
        # menu restricted to exactly the baseline sizes, ample budget
        spec = PartitionSpec(budget_bytes=10_000, e_min=4, e_max=4)
        model = build_model(pf, arch, partition=spec)
        pinned = solve(model)
        assert pinned.status == "optimal"
        assert pinned.objective_value == fixed.objective_value


@given(st.integers(min_value=0, max_value=3000))
@settings(max_examples=40, deadline=None)
def test_assignment_conservation(seed):
    model = random_instance(seed)
    if model is None:
        return
    sol = solve(model)
    if sol.status != "optimal":
        return
    per_dim = {}
    for fi, (I, z, k) in sol.x_assignment.items():
        f = model.factors[fi]
        per_dim[f.j] = per_dim.get(f.j, 0.0) + f.lg
    for j, total in per_dim.items():
        assert math.isclose(total, math.log2(model.pf.padded[j]), rel_tol=1e-9)


def coef_models(simba):
    conv28 = factorize(SUITE_LAYERS["conv28"])
    for name, dims in SUITE_LAYERS.items():
        yield name, build_model(factorize(dims), simba)
    for term, weights in zip(OBJECTIVE_TERMS, ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
        yield f"conv28-{term}", build_model(conv28, simba, ObjectiveWeights(*weights))
    yield "conv28-partition", build_model(
        conv28, simba, partition=PartitionSpec(budget_bytes=306367)
    )
    for seed in range(200):
        model = random_instance(seed)
        if model is not None:
            yield seed, model


def test_choice_coefficients_match_reference(simba):
    """Every choice's record holds the per-term rules' coefficients, bit
    for bit; every member of a choice class has its representative's
    objective coefficients and constraint row; and `classes` lists each
    class's first record in order of first appearance."""
    for name, model in coef_models(simba):
        ref = reference_choice_coefficients(model)
        for fi in range(model.F):
            coef = model.coef[fi]
            assert list(coef) == model.collapsed[fi], name
            firsts = {}
            for ck, rec in coef.items():
                got = (rec.util, rec.comp, rec.dl_v, rec.dl, rec.self_t, rec.static,
                       rec.row)
                assert repr(got) == repr(ref[fi][ck]), (name, fi, ck)
                assert (rec.I, rec.k) == ck and ck in rec.cc and rec.rep == max(rec.cc)
                assert rec.items == tuple((ci, a) for ci, a in enumerate(rec.row) if a)
                rep = firsts.setdefault(rec.cc, rec)
                assert rep is coef[rec.cc[0]], (name, fi, ck)
                assert (repr((rep.util, rep.comp, rep.dl_v, rep.row))
                        == repr((rec.util, rec.comp, rec.dl_v, rec.row))), (name, fi, ck)
            assert model.classes[fi] == list(firsts.values()), name


def record_fields(rec):
    return (rec.I, rec.k, rec.util, rec.comp, rec.dl_v, rec.dl, rec.self_t,
            rec.static, rec.row, rec.items, rec.chained, rec.cc, rec.rep)


def test_alike_factors_share_one_build(simba):
    """The factors of one identical class share one `coef` dict and one
    `classes` list, and the factors of one dimension one `choices` list,
    `choice_index` dict and `collapsed` list; and every record equals the
    factor's own build (`helpers.reference_factor_coefficients`), field
    for field, as do its classes' (level, mapping) and its choices."""
    shared = 0
    for name, model in coef_models(simba):
        ref_coef, ref_classes = reference_factor_coefficients(model)
        first_of_cls, first_of_dim = {}, {}
        for fi, f in enumerate(model.factors):
            head = first_of_cls.setdefault(f.cls, fi)
            assert model.coef[fi] is model.coef[head], (name, fi)
            assert model.classes[fi] is model.classes[head], (name, fi)
            shared += head != fi
            dim_head = first_of_dim.setdefault(f.j, fi)
            for table in (model.choices, model.choice_index, model.collapsed):
                assert table[fi] is table[dim_head], (name, fi)
            got = {ck: record_fields(rec) for ck, rec in model.coef[fi].items()}
            assert repr(got) == repr(ref_coef[fi]), (name, fi)
            assert [(rec.I, rec.k) for rec in model.classes[fi]] == ref_classes[fi]
            ch = [(I, z, k) for I in range(model.H) for z in range(model.Z)
                  for k in (SPATIAL, TEMPORAL)
                  if k == TEMPORAL or (I, SPATIAL) in model.collapsed[fi]]
            assert model.choices[fi] == ch, (name, fi)
            assert model.choice_index[fi] == {c: i for i, c in enumerate(ch)}
    assert shared > 100, shared

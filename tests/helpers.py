"""Shared test utilities: small random instances, reference schedules,
and the checks that stand outside the solver (the exhaustive oracle and
the raw MIP view's variable vector and constraint check)."""

import itertools
import math
import random
import time
from bisect import bisect_left
from collections import Counter
from functools import reduce
from operator import add

from mipsched import costmodel, search
from mipsched.arch import (
    IA,
    NUM_TENSORS,
    TENSOR_NAMES,
    ArchSpec,
    MemLevel,
    MemTensorMatrix,
    Violation,
    default_simba_arch,
    log2_capacity,
)
from mipsched.formulation import (
    SPATIAL,
    TEMPORAL,
    TOLERANCE,
    ObjectiveWeights,
    PartitionSpec,
    build_model,
)
from mipsched.schedule import CostReport, Loop, Schedule
from mipsched.search import SpaceTooLarge
from mipsched.solver import LAGRANGIAN_ITERS, Solution, SolveStats, _upper_hull
from mipsched.workload import DIM_INDEX, DIM_NAMES, LayerDims, PaddingPolicy, factorize
from run_suite import SUITE as SUITE_LAYERS

J = DIM_INDEX

OBJECTIVE_TERMS = ("util", "comp", "traffic")  # the terms of w_u, w_c, w_t


def objective_name(weights: ObjectiveWeights) -> str:
    """The term whose weight is the only positive one, else "combined"."""
    terms = zip(OBJECTIVE_TERMS, (weights.w_u, weights.w_c, weights.w_t))
    positive = [name for name, w in terms if w > 0]
    return positive[0] if len(positive) == 1 else "combined"


def random_instance(seed: int, max_space: int = 250_000):
    """Small solvable instance for oracle comparisons, or None if the
    drawn configuration exceeds the space budget."""
    rng = random.Random(seed)
    dims = [1] * 7
    for j in rng.sample(range(7), k=rng.randint(1, 4)):
        dims[j] = rng.choice([2, 3, 4, 5, 6, 8, 9])
    layer = LayerDims(*dims, stride=rng.choice([1, 1, 2]))
    return _random_target_model(rng, seed, layer, max_space)


def square_instance(seed: int, max_space: int = 60_000):
    """A small instance drawn square, R = S or P = Q or both, with at
    least one of them above 1, on `random_instance`'s kind of target and
    weights; None when it exceeds the space budget."""
    rng = random.Random(seed)
    dims = [1] * 7
    while dims[0] == dims[2] == 1:
        dims[0] = dims[1] = rng.choice([1, 2, 3, 4])
        dims[2] = dims[3] = rng.choice([1, 2, 3, 4, 6])
    if rng.random() < 0.3:
        dims[rng.choice([4, 5, 6])] = rng.choice([2, 3])
    layer = LayerDims(*dims, stride=rng.choice([1, 1, 2]))
    return _random_target_model(rng, seed, layer, max_space)


def mirror_instance(seed: int, max_space: int = 60_000):
    """A small instance whose mirrored dimensions have unequal factor
    counts: P != Q sharing a prime, or N sharing its 2s with P or Q, on
    `random_instance`'s kind of target and weights; None when it exceeds
    the space budget."""
    rng = random.Random(seed)
    dims = [1] * 7
    if rng.random() < 0.5:
        dims[2], dims[3] = rng.choice([(2, 4), (4, 2), (3, 9), (9, 3), (4, 6), (6, 4)])
    else:
        dims[6], dims[rng.choice([2, 3])] = rng.choice([(2, 4), (4, 2), (4, 6), (2, 8)])
    if rng.random() < 0.3:
        dims[rng.choice([0, 4, 5])] = rng.choice([2, 3])
    layer = LayerDims(*dims, stride=rng.choice([1, 1, 2]))
    return _random_target_model(rng, seed, layer, max_space)


def _random_target_model(rng, seed, layer, max_space):
    """`layer` on a target, weights and optional budget drawn from `rng`,
    or None when the model cannot be built or exceeds `max_space`."""
    pf = factorize(layer, PaddingPolicy(max_prime=7))

    H = rng.randint(2, 3)
    noc_at = rng.randrange(H - 1)
    levels = []
    for i in range(H):
        if i == H - 1:
            caps, fanout = (math.inf,) * 3, 1
        else:
            caps = tuple(float(rng.choice([4, 8, 16, 32, 64])) for _ in range(3))
            fanout = rng.choice([1, 2, 4])
        levels.append(
            MemLevel(f"L{i}", caps, spatial_fanout=fanout, is_noc_boundary=(i == noc_at))
        )
    rows = [[1, 1, 1] if i == H - 1 else [rng.choice([0, 1]) for _ in range(3)] for i in range(H)]
    for v in range(3):
        if not any(rows[i][v] for i in range(H - 1)):
            rows[rng.randrange(H - 1)][v] = 1
    arch = ArchSpec(
        levels=tuple(levels),
        B=MemTensorMatrix(rows=tuple(tuple(r) for r in rows)),
        precision_bytes=(1, 1, rng.choice([1, 3])),
        name=f"rand{seed}",
    )
    term = rng.choice(["combined", "combined", "util", "comp", "traffic", "combined"])
    drawn = [rng.choice([0.5, 1, 2]) for _ in OBJECTIVE_TERMS]
    # a single-term objective keeps only its own weight
    weights = ObjectiveWeights(*(
        w if term in ("combined", name) else 0.0 for name, w in zip(OBJECTIVE_TERMS, drawn)
    ))
    partition = None
    if rng.random() < 0.2:
        partition = PartitionSpec(budget_bytes=rng.choice([48, 96, 192]), e_min=2)
    try:
        model = build_model(pf, arch, weights, partition=partition)
    except Exception:
        return None
    if assignment_space_size(model) > max_space:
        return None
    return model


def binding_partition_instance(seed: int, max_space: int = 60_000,
                               draw=random_instance):
    """`draw(seed)`'s layer, target and weights with partition menus of 4
    to 32 elements (and the baseline capacity) under a byte budget that
    binds; None when `draw` gives no model, the target has no menu, or
    the model's space exceeds `max_space`.  The budget is drawn from the
    sum of the menus' smallest entries up to that sum plus one largest
    entry, and below the sum of the largest entries, so a buffer can grow
    only as far as the others' sizes let it.  `random_instance`'s own
    budgets of 48-192 B rarely bind."""
    model = draw(seed, max_space)
    if model is None:
        return None

    def build(budget):
        spec = PartitionSpec(budget_bytes=budget, e_min=2, e_max=5)
        return build_model(model.pf, model.arch, model.weights, partition=spec)

    menus = build(1 << 20).menus
    lo = sum(menu.entries[0].nbytes for menu in menus)
    hi = sum(menu.entries[-1].nbytes for menu in menus)
    if hi <= lo:
        return None
    top = max(menu.entries[-1].nbytes for menu in menus)
    budget = random.Random(seed).randint(lo, min(hi - 1, lo + top))
    model = build(budget)
    if assignment_space_size(model) > max_space:
        return None
    return model


def toy_two_level(fanout: int = 4, cap: float = 64.0) -> ArchSpec:
    """Minimal two-level target: one bounded NoC-boundary buffer + backing."""
    return ArchSpec(
        levels=(
            MemLevel("Buf", (cap, cap, cap), spatial_fanout=fanout, is_noc_boundary=True),
            MemLevel("Mem", (math.inf,) * 3),
        ),
        B=MemTensorMatrix(rows=((1, 1, 1), (1, 1, 1))),
        name="toy2",
    )


def toy_three_level() -> ArchSpec:
    """Register, NoC-boundary buffer and backing store, with small buffers
    and a fanout of 2, so that most random draws are invalid."""
    return ArchSpec(
        levels=(
            MemLevel("Reg", (4.0, 4.0, 4.0), spatial_fanout=2),
            MemLevel("Buf", (16.0, 16.0, 16.0), spatial_fanout=2, is_noc_boundary=True),
            MemLevel("Mem", (math.inf,) * 3),
        ),
        B=MemTensorMatrix(rows=((1, 1, 1), (1, 1, 1), (1, 1, 1))),
        precision_bytes=(1, 1, 1),
        name="toy3",
    )


def tight_ia_arch() -> ArchSpec:
    """Register, NoC-boundary GlobalBuf and DRAM, fanout 4 at both on-chip
    levels, with room for only two input elements in GlobalBuf: on a
    stride-2 layer the halo window decides many assignments."""
    return ArchSpec(
        levels=(
            MemLevel("Register", (64.0, 64.0, 64.0), spatial_fanout=4),
            MemLevel("GlobalBuf", (64.0, 2.0, 64.0), spatial_fanout=4, is_noc_boundary=True),
            MemLevel("DRAM", (math.inf,) * 3),
        ),
        B=MemTensorMatrix(rows=((1, 1, 1), (1, 1, 1), (1, 1, 1))),
        name="tightia",
    )


def reference_conv28_schedule(arch=None) -> Schedule:
    """Hand-built 28x28 schedule (the inconsistent inner channel tile is
    dropped; the shared-buffer-level spatial loops sit at the NoC fanout
    and the innermost channel split at the MAC fanout)."""
    arch = arch or default_simba_arch()
    return Schedule(
        levels=(
            (Loop(J["Q"], 2, False), Loop(J["C"], 8, True)),
            (Loop(J["P"], 2, False), Loop(J["S"], 3, False)),
            (Loop(J["P"], 2, False),),
            (),
            (
                Loop(J["K"], 2, True),
                Loop(J["K"], 2, True),
                Loop(J["R"], 3, True),
                Loop(J["N"], 3, False),
                Loop(J["Q"], 7, False),
                Loop(J["P"], 7, False),
            ),
            (Loop(J["Q"], 2, False),),
        ),
        level_names=tuple(l.name for l in arch.levels),
        layer=LayerDims(3, 3, 28, 28, 8, 4, 3),
        arch_name=arch.name,
    )


def reference_tiny_schedule(arch_name: str = "simba") -> Schedule:
    """Four-factor example: K split spatially across two levels, N the
    innermost temporal loop of the shared buffer, R spatial outermost."""
    arch = default_simba_arch()
    return Schedule(
        levels=(
            (),
            (),
            (),
            (Loop(J["K"], 2, True),),
            (Loop(J["N"], 3, False), Loop(J["K"], 2, True), Loop(J["R"], 3, True)),
            (),
        ),
        level_names=tuple(l.name for l in arch.levels),
        layer=LayerDims(3, 1, 1, 1, 1, 4, 3),
        arch_name=arch_name,
    )


def input_fanout_arch() -> ArchSpec:
    """Baseline variant granting the input buffer a spatial fanout, so
    MAC-lane parallelism can bind there (the four-factor example uses it)."""
    base = default_simba_arch()
    levels = list(base.levels)
    levels[3] = MemLevel("InputBuf", (0, 8 * 1024, 0), spatial_fanout=8)
    return ArchSpec(levels=tuple(levels), name="simba-ibfan")


def highs_objective(model, time_limit_s: float = 300.0) -> float | None:
    """Optimum of `model.raw()` from scipy's HiGHS MILP at zero relative
    gap, recomputed from the rounded solution; None if HiGHS does not
    finish.  Callers skip when scipy is missing."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    raw = model.raw()
    n = len(raw.var_names)
    c = np.zeros(n)
    for vid, coef in raw.objective.items():
        c[vid] = coef
    rows, cols, vals, lo, hi = [], [], [], [], []
    for i, con in enumerate(raw.constraints):
        for vid, coef in con.terms:
            rows.append(i)
            cols.append(vid)
            vals.append(coef)
        lo.append(-np.inf if con.sense == "<=" else con.rhs)
        hi.append(np.inf if con.sense == ">=" else con.rhs)
    A = coo_matrix((vals, (rows, cols)), shape=(len(raw.constraints), n)).tocsr()
    binary = np.array([kind in ("x", "part", "y", "prod") for kind in raw.var_kinds])
    res = milp(
        c,
        constraints=LinearConstraint(A, lo, hi),
        integrality=binary.astype(int),
        bounds=Bounds(np.zeros(n), np.where(binary, 1.0, np.inf)),
        options={"time_limit": time_limit_s, "mip_rel_gap": 0.0},
    )
    if res.status != 0 or res.x is None:
        return None
    x = np.where(binary, np.round(res.x), res.x)
    return float(sum(coef * x[vid] for vid, coef in raw.objective.items()))


# ----------------------------------------------------------------------
# the checks outside the solver: the raw MIP view's variable vector and
# constraint check, an assignment's objective, and the exhaustive oracle.
# None of them calls a function of `mipsched.solver`.
# ----------------------------------------------------------------------

EXHAUSTIVE_SPACE_LIMIT = 10_000_000


def raw_values(
    model,
    x_assign: dict[int, tuple[int, int, int]],
    menu_sel: tuple[int, ...] | None = None,
) -> list[float]:
    """Full variable vector of `model.raw()` for an assignment, with the
    indicator and product variables derived minimally (their optimal
    completion)."""
    raw = model.raw()
    vals = [0.0] * len(raw.var_names)
    for fi, (I, z, k) in x_assign.items():
        vals[raw.x_id[(fi, I, z, k)]] = 1.0
    if model.menus:
        for mi, base in enumerate(raw.menu_id_base):
            vals[base + menu_sel[mi]] = 1.0
    occ = {}
    for fi, (I, z, k) in x_assign.items():
        if k == TEMPORAL and I >= model.noc:
            occ[(I, z)] = fi
    arch = model.arch
    for v in range(NUM_TENSORS):
        y = 0.0
        for gi, (I, z) in enumerate(model.g_positions):
            fi = occ.get((I, z))
            if fi is not None:
                f = model.factors[fi]
                if arch.A.related(f.j, v) and arch.B.stores(I, v):
                    y = 1.0
            vals[raw.y_id[(v, gi)]] = y
            if fi is not None and y:
                vals[raw.p_id[(v, gi, fi)]] = 1.0
    return vals


def check_raw(model, vals: list[float]) -> list[str]:
    """Violated constraints of `model.raw()` for a full variable vector,
    each within `TOLERANCE`."""
    bad = []
    for con in model.raw().constraints:
        lhs = sum(vals[vid] * c for vid, c in con.terms)
        if con.sense == "<=" and lhs > con.rhs + TOLERANCE:
            bad.append(con.name)
        elif con.sense == ">=" and lhs < con.rhs - TOLERANCE:
            bad.append(con.name)
        elif con.sense == "==" and abs(lhs - con.rhs) > TOLERANCE:
            bad.append(con.name)
    return bad


def objective_of(model, x_assign: dict[int, tuple[int, int, int]]) -> float:
    """Objective value of a complete assignment: each factor's record's
    static objective folded left in factor order (`reduce`, not `sum`,
    which compensates on Python >= 3.12), closed with the traffic walk by
    `objective_close`, as the solver closes a leaf's, float for float."""
    recs = []
    for fi in range(model.F):
        I, z, k = x_assign[fi]
        recs.append(model.coef[fi][(I, k)])
    static_sum = reduce(add, [rec.static for rec in recs], 0.0)
    return model.objective_close(
        static_sum, model._walk_t_sums(model._temporal_walk(x_assign))[1])


def assignment_space_size(model) -> int:
    size = 1
    for fi in range(model.F):
        size *= len(model.choices[fi])
    for menu in model.menus:
        size *= len(menu.entries)
    return size


def exhaustive_solve(model, space_limit: int = EXHAUSTIVE_SPACE_LIMIT) -> Solution:
    """Enumerate every assignment with the exactly-one structure, filter by
    the constraints, and return the global optimum under the same
    tie-break as `solve`.  Guarded by `space_limit`."""
    size = assignment_space_size(model)
    if size > space_limit:
        raise SpaceTooLarge(f"assignment space {size} exceeds limit {space_limit}")
    t0 = time.perf_counter()
    m = model
    tol = TOLERANCE
    F = m.F
    ncons = len(m.check_cons)
    rhs = [c.rhs for c in m.check_cons]
    pads = [c.pad for c in m.check_cons]
    con_of_menu = {c.menu: ci for ci, c in enumerate(m.check_cons) if c.menu is not None}

    best_obj = math.inf
    best_key = None
    best_x = None
    best_menu = None
    x: dict[int, tuple[int, int, int]] = {}
    occupied: set[tuple[int, int]] = set()
    stats = SolveStats()

    def leaf(menu_sel):
        nonlocal best_obj, best_key, best_x, best_menu
        stats.leaves += 1
        obj = objective_of(m, x)
        key = m.lex_key(x, menu_sel)
        if best_x is None or (obj, key) < (best_obj, best_key):
            best_obj, best_key, best_x, best_menu = obj, key, dict(x), menu_sel

    def menu_rec(lhs: list[float], mi: int, used: int, sel: list[int]):
        if mi == len(m.menus):
            leaf(tuple(sel))
            return
        ci = con_of_menu[mi]
        for ei, ent in enumerate(m.menus[mi].entries):
            if lhs[ci] + pads[ci] > ent.e + tol:
                continue
            if used + ent.nbytes > m.budget_bytes:
                continue
            sel.append(ei)
            menu_rec(lhs, mi + 1, used + ent.nbytes, sel)
            sel.pop()

    def rec(fi: int, lhs: list[float]):
        """Every completion of factors fi.. below the capacity sums `lhs`,
        each level summing into its own copy."""
        stats.nodes += 1
        if fi == F:
            if m.menus:
                menu_rec(lhs, 0, 0, [])
            else:
                leaf(None)
            return
        for I, z, k in m.choices[fi]:
            if (I, z) in occupied:
                continue
            nxt = lhs[:]
            for ci, add in m.coef[fi][(I, k)].items:
                nxt[ci] += add
                if nxt[ci] > rhs[ci] + tol:
                    break
            else:
                occupied.add((I, z))
                x[fi] = (I, z, k)
                rec(fi + 1, nxt)
                del x[fi]
                occupied.discard((I, z))

    # contributions are never negative, so a non-menu constraint whose rhs
    # is below 0 is violated by every assignment, even one adding nothing
    if not any(c.menu is None and 0.0 > c.rhs + tol for c in m.check_cons):
        rec(0, [0.0] * ncons)
    stats.wall_time_s = time.perf_counter() - t0
    if best_x is None:
        return Solution("infeasible", None, None, None, stats)
    return Solution("optimal", best_obj, best_x, best_menu, stats)


# ----------------------------------------------------------------------
# reference copies of the leaf canonicalization and the traffic sums as
# they were before the chainless-level rank rule; the solver must match
# them exactly
# ----------------------------------------------------------------------


class _RefLevelState:
    __slots__ = ("used", "chain_pins", "chain_len", "fixed_unpinned")

    def __init__(self, chain_len: int, fixed_here: int):
        self.used: set[int] = set()
        self.chain_pins: dict[int, int] = {}
        self.chain_len = chain_len
        self.fixed_unpinned = fixed_here


def reference_level_feasible(st: _RefLevelState, Z: int) -> bool:
    if Z - len(st.used) < st.fixed_unpinned:
        return False
    pins = sorted(st.chain_pins.items())
    prev_pos, prev_z = -1, -1
    for pos, z in pins:
        if z <= prev_z:
            return False
        run = pos - prev_pos - 1
        if run > 0:
            avail = sum(1 for zz in range(prev_z + 1, z) if zz not in st.used)
            if avail < run:
                return False
        prev_pos, prev_z = pos, z
    run = st.chain_len - prev_pos - 1
    if run > 0:
        avail = sum(1 for zz in range(prev_z + 1, Z) if zz not in st.used)
        if avail < run:
            return False
    return True


def reference_zmax(st: _RefLevelState, pos, Z: int, fixed: bool):
    if pos is None:
        lo, hi = -1, Z
    else:
        lo = max((z for p, z in st.chain_pins.items() if p < pos), default=-1)
        hi = min((z for p, z in st.chain_pins.items() if p > pos), default=Z)
    for z in range(hi - 1, lo, -1):
        if z in st.used:
            continue
        st.used.add(z)
        if fixed:
            st.fixed_unpinned -= 1
        if pos is not None:
            st.chain_pins[pos] = z
        ok = reference_level_feasible(st, Z)
        st.used.discard(z)
        if fixed:
            st.fixed_unpinned += 1
        if pos is not None:
            del st.chain_pins[pos]
        if ok:
            return z
    return None


def reference_listed_zmax(st, pos, Z: int):
    """`solver._zmax` as it listed every gap's free ranks: `st.chain_pins`
    maps each pinned chain position to its rank."""
    bounds = [(-1, -1), *sorted(st.chain_pins.items()), (st.chain_len, Z)]
    for gap in range(len(bounds) - 1, 0, -1):
        p0, z0 = bounds[gap - 1]
        p1, z1 = bounds[gap]
        if pos is not None and not p0 < pos < p1:
            continue
        free = [z for z in range(z1 - 1, z0, -1) if z not in st.used]
        if pos is not None:
            return free[p1 - pos - 1]
        if len(free) > p1 - p0 - 1:
            return free[0]


def reference_canonical_assignment(model, choice_cls, chains):
    """Lexicographically smallest raw assignment of a leaf class, found by
    trying every rank of every level with `reference_zmax`."""
    Z = model.Z
    chain_pos = {}
    for I, lst in chains.items():
        for pos, fi in enumerate(lst):
            chain_pos[fi] = pos

    remaining = {}
    fixed_count = {}
    for fi, options in enumerate(choice_cls):
        p = (options, chain_pos.get(fi))
        remaining.setdefault(model.factors[fi].cls, []).append(p)
        option_levels = {I for I, _k in options}
        if len(option_levels) == 1:
            I = next(iter(option_levels))
            fixed_count[I] = fixed_count.get(I, 0) + 1

    all_levels = {I for options in choice_cls for I, _k in options}
    all_levels.update(chains.keys())
    states = {
        I: _RefLevelState(len(chains.get(I, [])), fixed_count.get(I, 0))
        for I in all_levels
    }

    def pin(I, z, pos, fixed):
        st = states[I]
        st.used.add(z)
        if fixed:
            st.fixed_unpinned -= 1
        if pos is not None:
            st.chain_pins[pos] = z

    def unpin(I, z, pos, fixed):
        st = states[I]
        st.used.discard(z)
        if fixed:
            st.fixed_unpinned += 1
        if pos is not None:
            del st.chain_pins[pos]

    F = model.F

    def rec(fi):
        if fi == F:
            return []
        cls = model.factors[fi].cls
        cands = []
        seen = set()
        for p in remaining[cls]:
            if p in seen:
                continue
            seen.add(p)
            options, pos = p
            fixed = len({I for I, _k in options}) == 1
            for I, k in options:
                z = reference_zmax(states[I], pos, Z, fixed)
                if z is not None:
                    cands.append(((I, z, k), p, fixed))
        if not cands:
            return None
        best = max(c[0] for c in cands)
        tied = [c for c in cands if c[0] == best]
        results = []
        for (I, z, k), p, fixed in tied:
            remaining[cls].remove(p)
            pin(I, z, p[1], fixed)
            suffix = rec(fi + 1)
            unpin(I, z, p[1], fixed)
            remaining[cls].append(p)
            if suffix is not None:
                results.append([(I, z, k)] + suffix)
        if not results:
            return None
        if len(results) == 1:
            return results[0]

        def key_of(assign_suffix):
            return tuple(
                -model.choice_index[fi + off][c]
                for off, c in enumerate(assign_suffix)
            )

        return min(results, key=key_of)

    suffix = rec(0)
    if suffix is None:
        raise RuntimeError("canonicalization failed on a feasible leaf")
    return {fi: suffix[fi] for fi in range(F)}


def reference_t_sums(model, x_assign):
    """Traffic iteration sums scanning every position of every level at or
    above the NoC, tensor by tensor."""
    occ = {}
    for fi, (I, z, k) in x_assign.items():
        if k == TEMPORAL and I >= model.noc:
            occ[(I, z)] = fi
    arch = model.arch
    per_v = [0.0, 0.0, 0.0]
    total = 0.0
    for v in range(NUM_TENSORS):
        y = False
        for I, z in model.g_positions:
            fi = occ.get((I, z))
            if fi is None:
                continue
            f = model.factors[fi]
            if arch.A.related(f.j, v) and arch.B.stores(I, v):
                y = True
            if y:
                per_v[v] += f.lg
                total += f.lg
    return per_v, total


def reference_choice_coefficients(model):
    """Per factor, (level, mapping) -> (util, comp, dl_v, dl, self_t,
    static, row), computed by the per-term dict-of-dicts rules that
    `ChoiceCoef` replaced: one dict per objective term, and per check
    constraint a per-factor dict of the choices it holds."""
    arch = model.arch
    w_u, w_c, w_t = model.weights.w_u, model.weights.w_c, model.weights.w_t
    pairs = arch.on_chip_pairs
    out = []
    for fi, f in enumerate(model.factors):
        rel = [arch.A.related(f.j, v) for v in range(NUM_TENSORS)]
        relcount = sum(rel)
        coefs = {}
        for I, k in model.collapsed[fi]:
            u = f.lg * sum(1 for (Ic, v) in pairs if Ic > I and rel[v])
            c = f.lg if k == TEMPORAL else 0.0
            per_v = [0.0, 0.0, 0.0]
            if I < model.noc:
                for v in range(NUM_TENSORS):
                    if rel[v]:
                        per_v[v] = f.lg
            elif I == model.noc and k == SPATIAL:
                for v in range(NUM_TENSORS):
                    if rel[v]:
                        per_v[v] = f.lg
            d = f.lg * relcount if (I < model.noc or (I == model.noc and k == SPATIAL)) else 0.0
            s = 0.0
            if k == TEMPORAL and I >= model.noc:
                s = f.lg * sum(
                    1 for v in range(NUM_TENSORS) if rel[v] and arch.B.stores(I, v)
                )
            coefs[(I, k)] = (u, c, tuple(per_v), d, s, -w_u * u + w_c * c + w_t * d)
        out.append(coefs)

    # constraint contributions, in the order the check constraints are made
    names = []
    contribs = []
    for I, v in pairs:
        if math.isinf(log2_capacity(arch, I, v)) and model.partition is None:
            continue
        per_factor = []
        for fi, f in enumerate(model.factors):
            d = {}
            if arch.A.related(f.j, v):
                for Ic, k in model.collapsed[fi]:
                    if Ic < I:
                        d[(Ic, k)] = f.lg
            per_factor.append(d)
        names.append(f"buffer[{arch.levels[I].name}/{TENSOR_NAMES[v]}]")
        contribs.append(per_factor)
    for I in range(model.H):
        if arch.levels[I].spatial_fanout <= 1:
            continue
        per_factor = []
        for fi, f in enumerate(model.factors):
            d = {}
            if (I, SPATIAL) in out[fi]:
                d[(I, SPATIAL)] = f.lg
            per_factor.append(d)
        names.append(f"spatial[{arch.levels[I].name}]")
        contribs.append(per_factor)
    assert names == [con.name for con in model.check_cons]

    for fi, coefs in enumerate(out):
        for (I, k), terms in coefs.items():
            row = [contrib[fi].get((I, k), 0.0) for contrib in contribs]
            coefs[(I, k)] = terms + (row,)
    return out


def reference_factor_coefficients(model):
    """`MipModel`'s records and class records as it built them factor by
    factor, each factor from its own: per factor, (level, mapping) -> the
    record's fields (`I`, `k`, `util`, `comp`, `dl_v`, `dl`, `self_t`,
    `static`, `row`, `items`, `chained`, `cc`, `rep`), and its classes'
    (level, mapping) in order of first appearance."""
    arch = model.arch
    w_u, w_c, w_t = model.weights.w_u, model.weights.w_c, model.weights.w_t
    pairs = arch.on_chip_pairs
    coefs, classes = [], []
    for fi, f in enumerate(model.factors):
        rel = [arch.A.related(f.j, v) for v in range(NUM_TENSORS)]
        relcount = sum(rel)
        fields = {}
        groups = {}
        for I, k in model.collapsed[fi]:
            u = f.lg * sum(1 for (Ic, v) in pairs if Ic > I and rel[v])
            c = f.lg if k == TEMPORAL else 0.0
            lifted = I < model.noc or (I == model.noc and k == SPATIAL)
            per_v = tuple(f.lg if lifted and rel[v] else 0.0
                          for v in range(NUM_TENSORS))
            d = f.lg * relcount if lifted else 0.0
            chained = k == TEMPORAL and I >= model.noc
            s = 0.0
            if chained:
                s = f.lg * sum(1 for v in range(NUM_TENSORS)
                               if rel[v] and arch.B.stores(I, v))
            row = [
                f.lg
                if (con.kind == "buffer" and rel[con.tensor] and I < con.level)
                or (con.kind == "spatial" and I == con.level and k == SPATIAL)
                else 0.0
                for con in model.check_cons
            ]
            fields[(I, k)] = [I, k, u, c, per_v, d, s, -w_u * u + w_c * c + w_t * d, row,
                              tuple((ci, add) for ci, add in enumerate(row) if add),
                              chained]
            sig = ("chain", I) if chained else ("free", k, u, c, per_v, tuple(row))
            groups.setdefault(sig, []).append((I, k))
        for members in groups.values():
            cc = tuple(members)
            for ck in members:
                fields[ck] += [cc, max(cc)]
        coefs.append({ck: tuple(rec) for ck, rec in fields.items()})
        classes.append([members[0] for members in groups.values()])
    return coefs, classes


# ----------------------------------------------------------------------
# frozen copies of the exact validator and cost model that rescanned the
# loops for every dimension tile (`dim_tile`) and validated every loop
# order; the one-pass versions must agree with them exactly
# ----------------------------------------------------------------------


def reference_dim_tile(schedule, j, below_level):
    t = 1
    for I in range(below_level):
        for loop in schedule.levels[I]:
            if loop.dim == j:
                t *= loop.bound
    return t


def reference_tile_elements(schedule, arch, level, v, halo=False):
    if halo and v == IA:
        p_t = reference_dim_tile(schedule, J["P"], level)
        q_t = reference_dim_tile(schedule, J["Q"], level)
        r_t = reference_dim_tile(schedule, J["R"], level)
        s_t = reference_dim_tile(schedule, J["S"], level)
        c_t = reference_dim_tile(schedule, J["C"], level)
        n_t = reference_dim_tile(schedule, J["N"], level)
        stride = schedule.layer.stride
        width = (p_t - 1) * stride + r_t
        height = (q_t - 1) * stride + s_t
        return width * height * c_t * n_t
    t = 1
    for j in arch.A.dims_of(v):
        t *= reference_dim_tile(schedule, j, level)
    return t


def _reference_iterations(schedule, arch, v):
    noc = arch.noc_level
    seen = False
    t = 1
    for I in range(noc, arch.num_levels):
        for loop in schedule.levels[I]:
            if loop.spatial:
                continue
            if arch.A.related(loop.dim, v) and arch.B.stores(I, v):
                seen = True
            if seen:
                t *= loop.bound
    return t


def reference_traffic_terms(schedule, arch):
    noc = arch.noc_level
    out = []
    for v in range(NUM_TENSORS):
        d = reference_tile_elements(schedule, arch, noc, v, halo=False)
        link = 1
        for loop in schedule.levels[noc]:
            if loop.spatial and arch.A.related(loop.dim, v):
                link *= loop.bound
        iters = _reference_iterations(schedule, arch, v)
        out.append(costmodel.TensorTraffic(d, link, iters, d * link * iters))
    return tuple(out)


def reference_validate(schedule, arch, halo=True):
    out = []
    if len(schedule.levels) != arch.num_levels:
        out.append(
            Violation(
                "level-count",
                schedule.arch_name,
                f"schedule has {len(schedule.levels)} levels, arch {arch.num_levels}",
            )
        )
        return out
    for j, bound in enumerate(schedule.layer.as_tuple()):
        prod = reference_dim_tile(schedule, j, len(schedule.levels))
        if prod < bound:
            out.append(
                Violation(
                    "dimension-underflow", DIM_NAMES[j], f"loop product {prod} < bound {bound}"
                )
            )
    for I, lvl in enumerate(arch.levels):
        sp = 1
        for loop in schedule.levels[I]:
            if loop.spatial:
                sp *= loop.bound
        if sp > lvl.spatial_fanout:
            out.append(
                Violation(
                    "spatial-overflow",
                    lvl.name,
                    f"spatial product {sp} > fanout {lvl.spatial_fanout}",
                )
            )
        for loop in schedule.levels[I]:
            if loop.spatial and not lvl.spatial_allowed(loop.dim):
                out.append(
                    Violation(
                        "spatial-dim",
                        lvl.name,
                        f"dimension {DIM_NAMES[loop.dim]} may not map spatially here",
                    )
                )
    for I, v in arch.on_chip_pairs:
        cap = arch.capacity_elements(I, v)
        if math.isinf(cap):
            continue
        tile = reference_tile_elements(schedule, arch, I, v, halo=halo)
        if tile > cap:
            out.append(
                Violation(
                    "capacity",
                    f"{arch.levels[I].name}/{TENSOR_NAMES[v]}",
                    f"tile {tile} elements > capacity {int(cap)}",
                    (I, v),
                )
            )
    return out


def reference_evaluate(schedule, arch):
    util = []
    for I in range(arch.num_levels):
        row = []
        for v in range(NUM_TENSORS):
            if arch.B.stores(I, v):
                row.append(reference_tile_elements(schedule, arch, I, v, halo=False))
            else:
                row.append(None)
        util.append(tuple(row))
    cycles = 1
    for loops in schedule.levels:
        for loop in loops:
            if not loop.spatial:
                cycles *= loop.bound
    traffic = reference_traffic_terms(schedule, arch)
    nbytes = sum(t.total_elems * arch.precision_bytes[v] for v, t in enumerate(traffic))
    latency = max(cycles, math.ceil(nbytes / arch.noc_bandwidth))
    return CostReport(
        utilization=tuple(util),
        compute_cycles=cycles,
        traffic=traffic,
        traffic_bytes=nbytes,
        latency_cycles=latency,
    )


def _reference_distinct_orders(items):
    if not items:
        yield ()
        return
    seen = set()
    for idx in range(len(items)):
        head = items[idx]
        if head in seen:
            continue
        seen.add(head)
        rest = items[:idx] + items[idx + 1 :]
        for tail in _reference_distinct_orders(rest):
            yield (head,) + tail


def reference_assignments(pf, arch):
    """Every raw (level, mapping) assignment, as one (level, binding) per
    factor, identical factors in non-decreasing order, depth first."""
    flat = pf.flat()
    F = len(flat)
    H = arch.num_levels

    def maps(fi, current):
        if fi == F:
            yield list(current)
            return
        j = flat[fi][0]
        prev_cap = None
        if fi > 0 and flat[fi - 1][0] == j and flat[fi - 1][2] == flat[fi][2]:
            prev_cap = current[fi - 1]
        for I in range(H):
            options = [(I, TEMPORAL)]
            if arch.levels[I].spatial_allowed(j):
                options.append((I, SPATIAL))
            for opt in options:
                if prev_cap is not None and opt < prev_cap:
                    continue
                current.append(opt)
                yield from maps(fi + 1, current)
                current.pop()

    return maps(0, [])


def reference_first_order(pf, arch, assignment):
    """The schedule of a raw assignment with each level's loops in factor
    order."""
    per_level = [[] for _ in range(arch.num_levels)]
    for (I, k), (j, _n, prime, _lg) in zip(assignment, pf.flat()):
        per_level[I].append(Loop(j, prime, k == SPATIAL))
    return Schedule(
        levels=tuple(map(tuple, per_level)),
        level_names=tuple(lvl.name for lvl in arch.levels),
        layer=pf.dims,
        arch_name=arch.name,
    )


def order_count(loops) -> int:
    """Distinct orders of one level's loops: the multinomial
    len(loops)! / prod(mult!) over the multiplicities of identical loops."""
    count = math.factorial(len(loops))
    for mult in Counter(loops).values():
        count //= math.factorial(mult)
    return count


def reference_enumerate_all(pf, arch, limit=1_000_000, halo=True):
    """Every valid schedule, validating each loop order separately."""
    flat = pf.flat()
    H = arch.num_levels
    Z = max(1, len(flat))
    space = 1
    for j, n, prime, _lg in flat:
        per = 0
        for I in range(H):
            per += Z * (2 if arch.levels[I].spatial_allowed(j) else 1)
        space *= max(per, 1)
    if space > limit:
        raise SpaceTooLarge(f"assignment space {space} exceeds limit {limit}")
    level_names = tuple(lvl.name for lvl in arch.levels)

    for assignment in reference_assignments(pf, arch):
        per_level = [[] for _ in range(H)]
        for fi, (I, k) in enumerate(assignment):
            j, n, prime, _lg = flat[fi]
            per_level[I].append((j, prime, k == SPATIAL))

        def levels_product(I, acc):
            if I == H:
                yield tuple(acc)
                return
            for order in _reference_distinct_orders(per_level[I]):
                acc.append(tuple(Loop(j, p, sp) for j, p, sp in order))
                yield from levels_product(I + 1, acc)
                acc.pop()

        for levels in levels_product(0, []):
            sched = Schedule(
                levels=levels, level_names=level_names, layer=pf.dims, arch_name=arch.name
            )
            if not reference_validate(sched, arch, halo=halo):
                yield sched


def reference_enumerate_best(pf, arch, metric, limit=1_000_000, halo=True):
    """`search.enumerate_best` as it was before it bounded assignments:
    every NoC key the walk reaches is scored, once, for its least value
    and the first combination of the upper levels' class representatives
    that reaches it.  It reads `search.order_part` and `search.with_cycles`
    through the module, so a test can count its calls."""
    H = arch.num_levels
    scored_from = H if metric == "compute" else arch.noc_level
    reps_of = {}
    lows_of = {}
    least_of = {}
    count = 0
    best = None  # (value, levels)
    for loops, cycles, _counts, codes, total in search._walk(pf, arch, limit, halo):
        count += total
        if scored_from == H:
            if best is None or cycles < best[0]:
                best = (cycles, tuple(map(tuple, loops)))
            continue
        key = (*codes[scored_from:], cycles)
        least = least_of.get(key)
        if least is None:
            upper = key[:-1]
            lows = lows_of.get(upper)
            if lows is None:
                for code, level in zip(upper, loops[scored_from:]):
                    if code not in reps_of:
                        reps_of[code] = search._class_orders(tuple(level))
                row = costmodel.tile_table(loops[:scored_from])[-1]
                part = search.order_part(tuple(loops[scored_from]), row, arch, metric)
                lows = lows_of[upper] = []
                for combo in itertools.product(*map(reps_of.get, upper)):
                    value = part(costmodel.noc_iterations(((),) * scored_from + combo, arch))
                    if not lows or value < lows[-1][0]:
                        lows.append((value, combo))
            for low, combo in lows:
                value = search.with_cycles(low, cycles, metric)
                if least is None or value < least[0]:
                    least = (value, combo)
            least_of[key] = least
        value, combo = least
        if best is None or value < best[0]:
            best = (value, tuple(map(tuple, loops[:scored_from])) + combo)
    if best is None:
        return count, None
    return count, best

# ----------------------------------------------------------------------
# reference copies of the two knapsack bounds as they were before they
# shared one table builder and one evaluator: the plain bound walked
# per-depth hull segment lists built at zero multipliers, the penalized
# bound bisected cumulative arrays built at the root multipliers.  Both
# grant every slack the tolerance, and both round the capacity of a
# constraint down to a whole number where every class record of the
# unassigned tail weighs a whole number on it.  `sh` is the solver's
# `_Search`; besides its model-derived fields, the bounds read the node's
# buffer sums `con_lhs` and its rhs `rhs`.
# ----------------------------------------------------------------------


def _reference_suffix(sh, values):
    out = [0.0] * (sh.m.F + 1)
    for idx in range(sh.m.F - 1, -1, -1):
        out[idx] = out[idx + 1] + values[sh.order[idx]]
    return out


def reference_run_lookahead(sh):
    """The run lookahead's tables, `(prev_same, run_rem, run_need)`, built
    factor by factor in reverse branch order: each factor's previous member
    of its mirror run, the members that follow it, and per class record r
    the (ci, w) pairs where w, the least weight on ci over the records with
    rep <= r.rep of every member that follows, is positive (0.0 when none
    follows)."""
    F = sh.m.F
    prev_same = [None] * F
    before = {}
    for fi in sh.order:
        run = before.setdefault(sh.mirror_of[fi], [])
        prev_same[fi] = run[-1] if run else None
        run.append(fi)
    run_rem = [0] * F
    run_need = [[] for _ in range(F)]
    after = {}
    for fi in reversed(sh.order):
        rest = after.setdefault(sh.mirror_of[fi], [])
        run_rem[fi] = len(rest)
        pool = {(r.rep, tuple(r.row)) for gi in rest for r in sh.classes[gi]}
        for rec in sh.classes[fi]:
            rows = [row for rep, row in pool if rep <= rec.rep]
            least = [min((row[ci] for row in rows), default=0.0)
                     for ci in range(sh.ncons)]
            run_need[fi].append(
                tuple((ci, w) for ci, w in enumerate(least) if w > 0.0))
        rest.append(fi)
    return prev_same, run_rem, run_need


def reference_whole_tails(model, order, ci):
    """Per depth, whether every class record of every factor that `order`
    leaves unassigned there weighs a whole number on constraint `ci`."""
    F = model.F
    return [all(float(rec.row[ci]).is_integer()
                for fi in order[idx:] for rec in model.classes[fi])
            for idx in range(F + 1)]


def reference_lagrangian(sh, upper=None):
    """`_Search._build_lagrangian` without its shortcuts: every record of
    every mirror class priced, the usage summed and the subgradient formed
    at every step, and every multiplier term added and updated.  Sets
    `lam`, `lam_active` and `lagr_suffix` on `sh`."""
    F = sh.m.F
    ncons = sh.ncons
    con_rhs = sh.con_rhs
    finite = [ci for ci in range(ncons) if not math.isinf(con_rhs[ci])]
    # past the budget at the root no child fits, and there is no
    # selection to price
    budgeted = sh.floors is not None and sh.floors[1] <= sh.m.budget_bytes
    lam = [0.0] * ncons
    best_lam = list(lam)
    best_val = -math.inf
    if F and finite:
        # per mirror class, in number order, its first member's records
        # and costs
        mirror_of = sh.mirror_of
        per_class = [
            [(cost, [(ci, w) for ci, w in rec.items if not math.isinf(con_rhs[ci])])
             for rec, cost in zip(sh.classes[fi], costs)]
            for fi, costs in zip(sh.heads, sh.costs)]
        scale = max(abs(x) for x in [min(costs) for costs in sh.costs] + [1.0])
        beta = 1.2
        stall = 0
        for it in range(LAGRANGIAN_ITERS):
            priced = []
            for options in per_class:
                bc, bw = math.inf, ()
                for cost, ws in options:
                    t = cost
                    for ci, w in ws:
                        t += lam[ci] * w
                    if t < bc:
                        bc, bw = t, ws
                priced.append((bc, bw))
            val = 0.0
            usage = [0.0] * ncons
            for mc in mirror_of:
                bc, bw = priced[mc]
                val += bc
                for ci, w in bw:
                    usage[ci] += w
            rhs = sh._budget_rhs(lam) if budgeted else con_rhs
            for ci in finite:
                val -= lam[ci] * rhs[ci]
            if val > best_val + 1e-12:
                best_val = val
                best_lam = list(lam)
                stall = 0
            else:
                stall += 1
                if stall >= 10:
                    beta *= 0.6
                    stall = 0
                    if beta < 1e-3:
                        break
            g = [usage[ci] - rhs[ci] for ci in finite]
            norm2 = sum([x * x for x in g])
            if norm2 <= 1e-18:
                break
            if upper is not None and upper > val:
                step = beta * (upper - val) / norm2
            else:
                step = 0.4 * scale / ((1.0 + 0.15 * it) * math.sqrt(norm2))
            for ci, gi in zip(finite, g):
                x = lam[ci] + step * gi
                lam[ci] = x if x > 0.0 else 0.0
    # the multipliers every bound reads, one below 1e-12 as 0.0: dense,
    # and the positive ones as (ci, lambda) pairs
    lam = sh.lam = [l if l > 1e-12 else 0.0 for l in best_lam]
    sh.lam_active = [(ci, l) for ci, l in enumerate(lam) if l]
    lagr_min = []  # per mirror class, from its first member
    for fi, costs in zip(sh.heads, sh.costs):
        best = math.inf
        for rec, t in zip(sh.classes[fi], costs):
            for ci, w in rec.items:
                if lam[ci]:
                    t += lam[ci] * w
            if t < best:
                best = t
        lagr_min.append(best)
    sh.lagr_suffix = sh._suffix(lagr_min)


def reference_build_knapsack(sh, costs, lam):
    """Per constraint, the tail's total hull weight, its cheapest
    zero-weight cost, its density-sorted hull segments and whether it
    weighs only whole numbers, each per depth; and the constraints that
    carry weight, tightest first."""
    F = sh.m.F
    tables = []
    for ci in range(sh.ncons):
        lam_i = lam[ci]
        cost0_row = []
        seg_w_row = [0.0] * F
        per_factor_segs = []
        for fi in range(F):
            pts = []
            zero_costs = []
            for rec, cost in zip(sh.classes[fi], costs[fi]):
                w = rec.row[ci]
                if lam_i:
                    cost -= lam_i * w
                if w > 0.0:
                    pts.append((w, cost))
                else:
                    zero_costs.append(cost)
            c0 = min(zero_costs)
            cost0_row.append(c0)
            dedup = {}
            for w, cost in pts:
                g = c0 - cost
                if g > 0.0 and g > dedup.get(w, 0.0):
                    dedup[w] = g
            gains = sorted(dedup.items())
            segs = []
            if gains:
                hull = [(0.0, 0.0)]
                for w, g in gains:
                    if g <= hull[-1][1]:
                        continue
                    hull.append((w, g))
                    while len(hull) >= 3:
                        (w1, g1), (w2, g2), (w3, g3) = hull[-3:]
                        if (g2 - g1) * (w3 - w2) <= (g3 - g2) * (w2 - w1):
                            hull.pop(-2)
                        else:
                            break
                for (pw, pg), (w, g) in zip(hull, hull[1:]):
                    segs.append(((g - pg) / (w - pw), w - pw))
                    seg_w_row[fi] += w - pw
            per_factor_segs.append(segs)
        segs_at = [[] for _ in range(F + 1)]
        pool = []
        for idx in range(F - 1, -1, -1):
            pool = sorted(
                pool + [(d, idx, w) for d, w in per_factor_segs[sh.order[idx]]],
                key=lambda s: (-s[0], s[1], s[2]),
            )
            segs_at[idx] = [(d, w) for d, _i, w in pool]
        tables.append((_reference_suffix(sh, seg_w_row),
                       _reference_suffix(sh, cost0_row), segs_at,
                       reference_whole_tails(sh.m, sh.order, ci)))

    def tightness(ci):
        rhs = sh.con_rhs[ci]
        w = tables[ci][0][0]
        if w <= 0.0 or math.isinf(rhs):
            return math.inf
        return rhs / w

    order = sorted(
        (ci for ci in range(sh.ncons) if tables[ci][0][0] > 0.0), key=tightness
    )
    return tables, order


def reference_factor_bounds(sh):
    """The search's costs, `suffix_min` and `lagr_suffix` at its
    multipliers `sh.lam`, built factor by factor from each factor's own
    records."""
    costs = [[rec.static + sh.m.w_t * rec.self_t for rec in recs] for recs in sh.classes]
    lagr_min = []
    for recs, factor_costs in zip(sh.classes, costs):
        best = math.inf
        for rec, t in zip(recs, factor_costs):
            for ci, w in rec.items:
                if sh.lam[ci]:
                    t += sh.lam[ci] * w
            best = min(best, t)
        lagr_min.append(best)
    return (costs, _reference_suffix(sh, [min(c) for c in costs]),
            _reference_suffix(sh, lagr_min))


def reference_factor_knapsack(sh, lam):
    """`_Search._build_knapsack(lam)` as it was built factor by factor:
    every factor's hull from its own records, and at every depth the
    pool sorted and its cumulative sums rebuilt from the start, each
    whole capacity's segment found by a bisect."""
    F = sh.m.F
    priced = [
        [cost + sum(lam[ci] * add for ci, add in rec.items)
         for rec, cost in zip(recs, costs)]
        for recs, costs in zip(sh.classes, reference_factor_bounds(sh)[0])
    ]
    tables = {}
    for ci in range(sh.ncons):
        if math.isinf(sh.con_rhs[ci]):
            continue
        lam_i = lam[ci]
        cost0_row = []
        seg_w_row = [0.0] * F
        per_factor_segs = []
        for fi in range(F):
            pts = []
            zero_costs = []
            for rec, cost in zip(sh.classes[fi], priced[fi]):
                w = rec.row[ci]
                if lam_i:
                    cost -= lam_i * w
                if w > 0.0:
                    pts.append((w, cost))
                else:
                    zero_costs.append(cost)
            c0 = min(zero_costs)
            cost0_row.append(c0)
            dedup = {}
            for w, cost in pts:
                g = c0 - cost
                if g > 0.0 and g > dedup.get(w, 0.0):
                    dedup[w] = g
            gains = sorted(dedup.items())
            segs = []
            if gains:
                hull = _upper_hull([(0.0, 0.0), *gains])
                for (pw, pg), (w, g) in zip(hull, hull[1:]):
                    segs.append(((g - pg) / (w - pw), w - pw))
                    seg_w_row[fi] += w - pw
            per_factor_segs.append(segs)
        total_w = _reference_suffix(sh, seg_w_row)[0]
        if total_w <= 0.0:
            continue
        cost0_suffix = _reference_suffix(sh, cost0_row)
        rows = [None] * (F + 1)
        pool = []
        whole = True
        for idx in range(F - 1, 0, -1):
            whole = whole and all(float(rec.row[ci]).is_integer()
                                  for rec in sh.classes[sh.order[idx]])
            pool += [(-d, idx, w) for d, w in per_factor_segs[sh.order[idx]]]
            pool.sort()
            cw, cg, dens = [0.0], [0.0], []
            for neg, _i, dw in pool:
                density = -neg
                cw.append(cw[-1] + dw)
                cg.append(cg[-1] + density * dw)
                dens.append(density)
            gains = None
            if whole:
                gains = []
                for k in range(math.ceil(cw[-1])):
                    j = bisect_left(cw, k, 1) - 1
                    gains.append(cg[j] + dens[j] * (k - cw[j]))
            rows[idx] = (ci, lam_i, gains, cost0_suffix[idx], cw, cg, dens)
        tables[ci] = (sh.con_rhs[ci] / total_w, rows)
    order = sorted(tables, key=lambda ci: tables[ci][0])
    kn_at = [[] for _ in range(F + 1)]
    for nxt in range(1, F):
        kn_at[nxt] = [tables[ci][1][nxt] for ci in order]
    return kn_at


def reference_plain_knapsack(sh):
    """Per depth, (i, whole tail, tail hull weight, tail cost0, hull
    segments) for each constraint that carries weight, tightest first, at
    zero multipliers."""
    tabs, order = reference_build_knapsack(sh, reference_factor_bounds(sh)[0],
                                           [0.0] * sh.ncons)
    return [[(ci, tabs[ci][3][nxt], tabs[ci][0][nxt], tabs[ci][1][nxt],
              tabs[ci][2][nxt])
             for ci in order]
            for nxt in range(sh.m.F + 1)]


def reference_penalized_knapsack(sh):
    """Per depth, (i, lambda_i, whole tail, tail cost0, cumulative weights,
    cumulative gains, densities) for each finite constraint that carries
    weight, with every constraint priced at the multipliers
    `sh.lam_active`."""
    lam = [0.0] * sh.ncons
    for ci, value in sh.lam_active:
        lam[ci] = value
    priced = [
        [cost + sum(lam[ci] * add for ci, add in rec.items)
         for rec, cost in zip(recs, costs)]
        for recs, costs in zip(sh.classes, reference_factor_bounds(sh)[0])
    ]
    tabs, order = reference_build_knapsack(sh, priced, lam)
    pen_at = [[] for _ in range(sh.m.F + 1)]
    finite = [ci for ci in order if not math.isinf(sh.con_rhs[ci])]
    for nxt in range(1, sh.m.F):
        row = []
        for ci in finite:
            _w, cost0_suffix, segs_at, whole = tabs[ci]
            cw, cg, dens = [0.0], [0.0], []
            for density, dw in segs_at[nxt]:
                cw.append(cw[-1] + dw)
                cg.append(cg[-1] + density * dw)
                dens.append(density)
            row.append((ci, lam[ci], whole[nxt], cost0_suffix[nxt], cw, cg, dens))
        pen_at[nxt] = row
    return pen_at


def reference_plain_bound(sh, kn_at, base, pos, row, threshold):
    """Max over single-constraint knapsack relaxations at zero multipliers,
    returning early once `threshold` is exceeded; each capacity is the
    slack plus the tolerance, rounded down on a whole tail, and a
    constraint whose capacity covers its tail's hull weight is skipped."""
    best = -math.inf
    for ci, whole, w_suffix, cost0, segs in kn_at[pos + 1]:
        capacity = sh.rhs[ci] - sh.con_lhs[ci] - row[ci] + TOLERANCE
        if whole:
            capacity = math.floor(capacity)
        if capacity >= w_suffix:
            continue
        gain = 0.0
        if capacity > 0.0:
            for density, dw in segs:
                if dw >= capacity:
                    gain += density * capacity
                    break
                gain += density * dw
                capacity -= dw
        b = base + cost0 - gain
        if b > best:
            best = b
            if b > threshold:
                return b
    return best


def reference_kn_gain(cw, cg, dens, capacity):
    """The multiple-choice knapsack LP's gain at `capacity`, from a row's
    cumulative hull weights `cw`, gains `cg` and densities `dens`: a
    bisect for the segment the capacity ends in."""
    if capacity >= cw[-1]:
        return cg[-1]
    if capacity > 0.0:
        j = bisect_left(cw, capacity, 1) - 1
        return cg[j] + dens[j] * (capacity - cw[j])
    return 0.0


def reference_penalized_bound(sh, pen_at, base, pos, row, threshold):
    """max(threshold, max over constraints i of the Lagrangian-penalized
    knapsack bound), every slack with the tolerance `TOLERANCE`; the
    knapsack's capacity is that slack, rounded down on a whole tail, while
    the refund keeps the slack as it is, less the node's budget cut of
    row i, `sh.pen_cut[i]` (0.0 on a model without menus; the cuts
    themselves are checked against a brute force by
    `test_budget_cuts_are_admissible`)."""
    rhs = sh.rhs
    refund = 0.0
    for ci, lam in sh.lam_active:
        refund += lam * (rhs[ci] - sh.con_lhs[ci] - row[ci] + TOLERANCE)
    best = threshold
    for ci, lam_i, whole, cost0, cw, cg, dens in pen_at[pos + 1]:
        slack = rhs[ci] - sh.con_lhs[ci] - row[ci] + TOLERANCE
        upper = base + cost0 - (refund - lam_i * slack - sh.pen_cut[ci])
        if upper <= best:
            continue
        capacity = math.floor(slack) if whole else slack
        b = upper - reference_kn_gain(cw, cg, dens, capacity)
        if b > best:
            best = b
    return best


def reference_derive_menus(sh):
    """A leaf's menu selection as the solver derived it by a scan: each
    menu's least entry that holds its buffer sum `sh.con_lhs[ci]` plus the
    pad, then, menu by menu, the largest entry from there down that
    leaves room in the budget for the least entries of the menus after
    it; None when a menu has no such entry."""
    m = sh.m
    if not m.menus:
        return None
    firsts = []
    for ci, pad, fits, _sizes, _rhs_of in sh.menu_fit:
        ei = bisect_left(fits, sh.con_lhs[ci] + pad)
        if ei == len(fits):
            return None
        firsts.append(ei)
    n = len(m.menus)
    suffix = [0] * (n + 1)
    for mi in range(n - 1, -1, -1):
        suffix[mi] = suffix[mi + 1] + m.menus[mi].entries[firsts[mi]].nbytes
    sel = []
    used = 0
    for mi, menu in enumerate(m.menus):
        chosen = None
        for ei in range(len(menu.entries) - 1, firsts[mi] - 1, -1):
            ent = menu.entries[ei]
            if used + ent.nbytes + suffix[mi + 1] <= m.budget_bytes:
                chosen = ei
                used += ent.nbytes
                break
        if chosen is None:
            return None
        sel.append(chosen)
    return tuple(sel)

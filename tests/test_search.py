import dataclasses
import hashlib
import itertools
import math
import random

import pytest

from helpers import (
    SUITE_LAYERS,
    order_count,
    reference_assignments,
    reference_enumerate_all,
    reference_evaluate,
    reference_first_order,
    tight_ia_arch,
    toy_three_level,
    toy_two_level,
)
from mipsched import search
from mipsched.costmodel import compute_cycles, noc_iterations, tile_table
from mipsched.formulation import ObjectiveWeights, build_model
from mipsched.schedule import (
    Loop, encode, placement_checks, serialize, tile_violations, validate,
)
from mipsched.search import (
    METRICS,
    NoValidScheduleError,
    SearchConfig,
    enumerate_all,
    enumerate_best,
    metric_value,
    order_part,
    draw_schedule,
    random_search,
    with_cycles,
)
from mipsched.solver import SpaceTooLarge, solve
from mipsched.workload import NUM_DIMS, LayerDims, factorize


def test_draws_pinned(simba):
    """Draws 0-199 of seeds 0, 11 and 77 on four layers, serialized, hash
    to a pinned digest: a draw is a function of its seed and index, and
    its schedule is the one `decode` builds from the drawn assignment."""
    digest = hashlib.sha256()
    layers = [SUITE_LAYERS["tiny"], SUITE_LAYERS["conv28"], SUITE_LAYERS["wide256"],
              LayerDims(1, 1, 1, 1, 1, 1, 1)]
    for dims in layers:
        pf = factorize(dims)
        for seed in (0, 11, 77):
            for i in range(200):
                digest.update(serialize(draw_schedule(pf, simba, seed, i)))
    assert digest.hexdigest() == (
        "4e4c42c794ccac937b0e38887a1143bbbccb0ed4192a45364a49559162da4675")


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(samples=3, valid_target=5)
    with pytest.raises(ValueError):
        SearchConfig(metric="watts")


def test_fixed_seed_is_reproducible(simba):
    pf = factorize(LayerDims(3, 3, 28, 28, 8, 4, 3))
    cfg = SearchConfig(samples=2000, valid_target=5, seed=7)
    a = random_search(pf, simba, cfg)
    b = random_search(pf, simba, cfg)
    assert a[0] == b[0]
    assert a[2].draws == b[2].draws and a[2].valid == b[2].valid


def test_draws_do_not_depend_on_sample_budget(simba):
    # draw i is a pure function of (seed, i): enlarging the budget keeps
    # the early draws identical, so any sharding scheme agrees
    pf = factorize(LayerDims(3, 3, 28, 28, 8, 4, 3))
    small = random_search(pf, simba, SearchConfig(samples=500, valid_target=3, seed=3))
    large = random_search(pf, simba, SearchConfig(samples=50_000, valid_target=3, seed=3))
    assert small[0] == large[0]


def test_valid_target_one_stops_immediately(simba):
    pf = factorize(LayerDims(1, 1, 1, 1, 1, 4, 1))
    sched, rep, stats = random_search(pf, simba, SearchConfig(samples=100, valid_target=1, seed=0))
    assert stats.valid == 1
    assert validate(sched, simba) == []


def test_every_returned_schedule_is_valid(simba):
    pf = factorize(LayerDims(3, 3, 14, 14, 256, 256, 1))
    sched, rep, stats = random_search(pf, simba, SearchConfig(samples=5000, valid_target=5, seed=1))
    assert validate(sched, simba) == []
    assert rep.latency_cycles == metric_value(rep, "latency")


def test_validity_rate_below_one(simba):
    # wide layer: a noticeable share of raw draws violates a capacity
    pf = factorize(LayerDims(3, 3, 14, 14, 256, 256, 1))
    cfg = SearchConfig(samples=400, valid_target=400, seed=0)
    try:
        _s, _r, stats = random_search(pf, simba, cfg)
    except NoValidScheduleError:  # pragma: no cover - would also prove the point
        return
    assert stats.valid < stats.draws


def test_no_valid_schedule_error(simba):
    pf = factorize(LayerDims(3, 3, 14, 14, 256, 256, 1))
    # find one invalid draw and restrict the budget to exactly that draw
    for seed in range(200):
        try:
            random_search(pf, simba, SearchConfig(samples=1, valid_target=1, seed=seed))
        except NoValidScheduleError:
            return
    pytest.fail("expected at least one invalid first draw in 200 seeds")


class TestEnumerate:
    def test_all_unit_layer_single_schedule(self, simba):
        pf = factorize(LayerDims(1, 1, 1, 1, 1, 1, 1))
        scheds = list(enumerate_all(pf, simba))
        assert len(scheds) == 1
        assert all(not loops for loops in scheds[0].levels)

    def test_single_factor_count(self):
        arch = toy_two_level(fanout=2)
        pf = factorize(LayerDims(1, 1, 1, 1, 1, 2, 1))
        scheds = list(enumerate_all(pf, arch))
        # one factor, two levels, spatial allowed at the inner one
        assert len(scheds) == len({(s.levels, s.arch_name) for s in scheds}) == 3

    def test_all_yielded_are_valid_and_distinct(self):
        arch = toy_two_level(fanout=4, cap=8.0)
        pf = factorize(LayerDims(1, 1, 2, 1, 1, 4, 1))
        scheds = list(enumerate_all(pf, arch))
        assert scheds
        assert len({s.levels for s in scheds}) == len(scheds)
        for s in scheds:
            assert validate(s, arch) == []

    def test_stream_optimum_matches_solver(self):
        arch = toy_two_level(fanout=4, cap=16.0)
        pf = factorize(LayerDims(1, 1, 2, 1, 3, 2, 1))
        model = build_model(pf, arch, ObjectiveWeights())
        best = min(
            model.objective_of(encode(s, pf)) for s in enumerate_all(pf, arch)
        )
        sol = solve(model)
        assert math.isclose(best, sol.objective_value, rel_tol=1e-12)

    def test_space_guard(self, simba):
        pf = factorize(LayerDims(3, 3, 28, 28, 8, 4, 3))
        with pytest.raises(SpaceTooLarge):
            next(iter(enumerate_all(pf, simba, limit=1000)))


def _assignment(sched):
    """The (level, mapping) assignment of a schedule: its loops per level
    without their order."""
    return tuple(
        tuple(sorted((l.dim, l.bound, l.spatial) for l in loops)) for loops in sched.levels
    )


# toy2's NoC boundary is level 0, so every loop order can move the traffic;
# simba's is level 4 of 6
ENUMERATE_CASES = pytest.mark.parametrize(
    "arch_name,dims,stride",
    [
        pytest.param("toy2", (1, 1, 2, 1, 1, 4, 1), 1, id="toy2-p2k4"),
        pytest.param("toy2", (3, 1, 2, 1, 2, 2, 1), 2, id="toy2-r3p2c2k2-s2"),
        pytest.param("toy2", (3, 3, 2, 2, 1, 2, 1), 2, id="toy2-r3s3p2q2k2-s2"),
        pytest.param("simba", (3, 1, 2, 1, 2, 2, 1), 1, id="simba-r3p2c2k2"),
    ],
)


def _walk_verdicts(monkeypatch):
    """The verdicts of the enumeration walk's checks, in call order: its
    root's `tile_violations` call, then one call per placement of the
    compiled checks that `placement_checks` returns; every `validate`
    call from `search` is an error."""
    verdicts = []

    def counting(*args, **kwargs):
        got = tile_violations(*args, **kwargs)
        verdicts.append(not got)
        return got

    def compiling(*args):
        passes = placement_checks(*args)

        def recorded():
            ok = passes()
            verdicts.append(ok)
            return ok

        return recorded

    def no_validate(*args, **kwargs):
        raise AssertionError("the enumeration walk called validate")

    monkeypatch.setattr(search, "tile_violations", counting)
    monkeypatch.setattr(search, "placement_checks", compiling)
    monkeypatch.setattr(search, "validate", no_validate)
    return verdicts


def _carried_rows(monkeypatch, pf, arch, halo):
    """Per assignment of a walk with no capacity pruned (`live_capacities`
    patched to keep every finite one), its loops and the tile row that
    the walk carries for each level with a finite capacity."""
    held = [[[1] * NUM_DIMS for _ in range(arch.num_levels)]]

    def holding(*args):
        held[0] = args[4]  # the walk's own rows
        return placement_checks(*args)

    out = []
    with monkeypatch.context() as m:
        m.setattr(search, "live_capacities", lambda arch, *_: list(arch.finite_capacities))
        m.setattr(search, "placement_checks", holding)
        for loops, *_state in search._walk(pf, arch, 10**7, halo):
            rows = {I: tuple(held[0][I]) for I, _v, _cap in arch.finite_capacities}
            out.append((tuple(map(tuple, loops)), rows))
    return out


def _reference_walk(pf, arch, halo):
    """What the walk should decide, by `validate` on each partial
    assignment in depth-first order (a partial one cannot cover every
    dimension, so underflow is ignored there): the verdicts of the nodes
    whose ancestors all pass, and the number of nodes of the uncut tree."""
    F = len(pf.flat())
    prefixes = {}  # insertion order is depth-first preorder
    for a in reference_assignments(pf, arch):
        for d in range(F + 1):
            prefixes.setdefault(tuple(a[:d]), None)
    ok = {}
    for p in prefixes:
        if p and not ok.get(p[:-1]):
            continue  # below a failed node, or not reached
        got = validate(reference_first_order(pf, arch, p), arch, halo=halo)
        ok[p] = not [v for v in got if v.kind != "dimension-underflow"]
    return list(ok.values()), len(prefixes)


@ENUMERATE_CASES
def test_enumerate_matches_reference(simba, monkeypatch, arch_name, dims, stride):
    """The walk yields the same schedules, in the same order, as
    validating every loop order: one verdict per node of the assignment
    tree, never one per loop order and never a `validate` call; invalid
    assignments are skipped whole."""
    arch = simba if arch_name == "simba" else toy_two_level(fanout=4, cap=16.0)
    pf = factorize(LayerDims(*dims, stride=stride))
    expected = list(reference_enumerate_all(pf, arch, limit=10**7))
    visited, _nodes = _reference_walk(pf, arch, halo=True)
    verdicts = _walk_verdicts(monkeypatch)
    got = list(enumerate_all(pf, arch, limit=10**7))
    assert got == expected
    assert verdicts == visited
    assert verdicts.count(False) > 0  # the skip path ran


@ENUMERATE_CASES
def test_enumerate_scores_match_reference(simba, arch_name, dims, stride):
    """Scoring a loop order by the split scorer, its order part from the
    assignment's NoC-level loops and row and the order's own NoC
    iteration counts, then its compute cycles, equals a full reference
    evaluation of that order, for every order and for traffic and
    latency; the assignment's compute cycles equal the reference's
    compute metric, which no order moves."""
    arch = simba if arch_name == "simba" else toy_two_level(fanout=4, cap=16.0)
    noc = arch.noc_level
    pf = factorize(LayerDims(*dims, stride=stride))
    firsts = ((tuple(map(tuple, loops)), cycles)
              for loops, cycles, *_state in search._walk(pf, arch, 10**7, True))
    first = None
    orders = 0
    moved = False  # some order's traffic differs from its first order's
    for sched in enumerate_all(pf, arch, limit=10**7):
        if first is None or _assignment(sched) != _assignment(first):
            # a new assignment: enumerate_all opens it with its first order
            levels, cycles = next(firsts)
            rows = tile_table(levels)
            first = sched
            assert sched.levels == levels
            parts = {
                m: order_part(levels[noc], rows[noc], arch, m) for m in ("traffic", "latency")
            }
            first_traffic = metric_value(reference_evaluate(first, arch), "traffic")
        orders += 1
        ref = reference_evaluate(sched, arch)
        for metric, part in parts.items():
            iters = noc_iterations(sched.levels, arch)
            got = with_cycles(part(iters), cycles, metric)
            assert got == metric_value(ref, metric), (sched.levels, metric)
        assert cycles == metric_value(ref, "compute"), sched.levels
        moved |= metric_value(ref, "traffic") != first_traffic
    assert next(firsts, None) is None
    assert orders > 0
    assert moved


@pytest.mark.parametrize("loops,count", [
    ((), 1),
    ((Loop(0, 3, False),), 1),
    ((Loop(0, 3, False), Loop(2, 2, False)), 2),
    ((Loop(5, 2, False), Loop(5, 2, False)), 1),
    ((Loop(5, 2, False), Loop(5, 2, False), Loop(5, 2, True), Loop(2, 2, False)), 12),
])
def test_order_count_is_the_number_of_distinct_orders(loops, count):
    assert order_count(loops) == count == len(set(itertools.permutations(loops)))


# toy2 without fanout keeps every loop temporal; there the traffic winner
# is not its assignment's first order
BEST_CASES = pytest.mark.parametrize(
    "arch_name,dims,stride",
    [
        *ENUMERATE_CASES.args[1],
        pytest.param("toy2-f1", (3, 1, 2, 1, 2, 2, 1), 1, id="toy2-f1-r3p2c2k2"),
    ],
)


def _brute_best(pf, arch, halo=True):
    """The number of valid schedules and, per metric, the (value, levels)
    a strict-`<` scan of a full reference evaluation of each finds."""
    count = 0
    brute = {m: None for m in METRICS}
    for sched in reference_enumerate_all(pf, arch, limit=10**7, halo=halo):
        count += 1
        report = reference_evaluate(sched, arch)
        for metric, best in brute.items():
            value = metric_value(report, metric)
            if best is None or value < best[0]:
                brute[metric] = (value, sched.levels)
    return count, brute


@BEST_CASES
def test_enumerate_best_matches_brute_force(simba, monkeypatch, arch_name, dims, stride):
    """For every metric, `enumerate_best` counts what `enumerate_all`
    yields and finds what a strict-`<` scan of a full reference
    evaluation of every loop order finds, value and levels, on one walk
    over the assignments: the same verdicts as `enumerate_all`'s walk,
    and no `validate` call."""
    arch = {
        "simba": simba,
        "toy2": toy_two_level(fanout=4, cap=16.0),
        "toy2-f1": toy_two_level(fanout=1, cap=16.0),
    }[arch_name]
    pf = factorize(LayerDims(*dims, stride=stride))
    count, brute = _brute_best(pf, arch)
    firsts = {tuple(map(tuple, loops)) for loops, *_state in search._walk(pf, arch, 10**7, True)}

    verdicts = _walk_verdicts(monkeypatch)
    assert count == sum(1 for _ in enumerate_all(pf, arch, limit=10**7))
    per_scan = list(verdicts)
    for metric in METRICS:
        verdicts.clear()
        got_count, (value, sched) = enumerate_best(pf, arch, metric, limit=10**7)
        assert (got_count, value, sched.levels) == (count, *brute[metric]), metric
        assert verdicts == per_scan
        assert validate(sched, arch) == []
    if arch_name == "toy2-f1":
        assert brute["traffic"][1] not in firsts


# each case has an invalid assignment and a subtree the walk cuts, under
# either halo mode
WALK_CASES = pytest.mark.parametrize(
    "arch,dims,stride",
    [
        pytest.param(toy_two_level(fanout=4, cap=4.0), (1, 1, 2, 1, 2, 4, 1), 1, id="capacity"),
        pytest.param(toy_two_level(fanout=2, cap=64.0), (1, 1, 4, 1, 1, 2, 1), 1, id="fanout"),
        pytest.param(tight_ia_arch(), (3, 1, 4, 1, 2, 2, 1), 2, id="halo-s2"),
    ],
)


@WALK_CASES
@pytest.mark.parametrize("halo", [True, False])
def test_walk_verdicts_match_validate(monkeypatch, arch, dims, stride, halo):
    """The walk decides each node of the assignment tree as `validate`
    decides that partial assignment, cuts below every failed node, and
    yields exactly the raw assignments `validate` passes, in order, each
    with its compute cycles and, with no capacity pruned, the true tile
    row of every level with a finite capacity; counts and winners equal
    the per-order reference under the same halo mode."""
    pf = factorize(LayerDims(*dims, stride=stride))
    visited, nodes = _reference_walk(pf, arch, halo)
    verdicts = _walk_verdicts(monkeypatch)
    walked = [(tuple(map(tuple, loops)), cycles)
              for loops, cycles, *_state in search._walk(pf, arch, 10**7, halo)]
    monkeypatch.undo()
    assert verdicts == visited
    assert len(verdicts) < nodes  # some subtree was cut

    firsts = [reference_first_order(pf, arch, a) for a in reference_assignments(pf, arch)]
    valid = [s for s in firsts if not validate(s, arch, halo=halo)]
    assert 0 < len(valid) < len(firsts)
    assert walked == [(s.levels, compute_cycles(s)) for s in valid]
    assert _carried_rows(monkeypatch, pf, arch, halo) == [
        (s.levels, {I: s.tiles[I] for I, _v, _cap in arch.finite_capacities}) for s in valid
    ]

    count, brute = _brute_best(pf, arch, halo)
    assert count == sum(1 for _ in enumerate_all(pf, arch, limit=10**7, halo=halo))
    for metric in METRICS:
        got_count, (value, sched) = enumerate_best(pf, arch, metric, limit=10**7, halo=halo)
        assert (got_count, value, sched.levels) == (count, *brute[metric]), metric


def test_enumerate_best_without_a_valid_schedule():
    """No valid assignment: a zero count and no best."""
    arch = toy_two_level(fanout=1, cap=1.0)
    pf = factorize(LayerDims(1, 1, 2, 1, 1, 2, 1))
    assert next(search._walk(pf, arch, 1_000_000, True), None) is None
    assert enumerate_best(pf, arch, "latency") == (0, None)


def _walk_instances():
    """Seeded random layers of at most five factors, at stride 1 and 2, on
    the toy architectures, one of them with a level that maps only C and K
    spatially; and the all-ones layer on each."""
    toy3 = toy_three_level()
    restricted = dataclasses.replace(toy3, levels=(
        dataclasses.replace(toy3.levels[0], allowed_spatial_dims=frozenset({4, 5})),
        *toy3.levels[1:],
    ))
    archs = [toy_two_level(fanout=4, cap=16.0), toy3, restricted, tight_ia_arch()]
    out = [(arch, LayerDims(1, 1, 1, 1, 1, 1, 1)) for arch in archs]
    rng = random.Random(0)
    while len(out) < 40:
        dims = [1] * 7
        for j in rng.sample(range(7), k=rng.randint(1, 3)):
            dims[j] = rng.choice([2, 3, 4, 6])
        layer = LayerDims(*dims, stride=rng.choice([1, 2]))
        if len(factorize(layer).flat()) <= 5:
            out.append((archs[len(out) % len(archs)], layer))
    return out


@pytest.mark.parametrize("halo", [True, False])
def test_walk_carries_counts_codes_and_exact_checks(monkeypatch, halo):
    """With every finite capacity live (`live_capacities` patched to prune
    none), the walk carries the true tile row of every level that has
    one, and at every node its compiled check (`placement_checks`)
    decides as the full `tile_violations` does on those rows and the
    spatial products.  The walk with the capacities `live_capacities`
    keeps yields the same states, so a capacity it drops never fails.  At
    every yielded assignment each level's carried count is its
    `order_count`, the carried total is their product, and each code
    stands for its loop sequence and no other."""
    verdicts = []

    def full_alongside(arch, halo, stride, capacities, rows, spatial, *placement):
        passes = placement_checks(arch, halo, stride, capacities, rows, spatial, *placement)

        def checked():
            got = passes()
            full = tile_violations(rows, spatial, arch, stride, halo)
            assert got == (not full)
            verdicts.append(got)
            return got

        return checked

    def states(pf, arch):
        return [
            (tuple(map(tuple, loops)), cycles, tuple(counts), tuple(codes), total)
            for loops, cycles, counts, codes, total in search._walk(pf, arch, 10**12, halo)
        ]

    strides = set()
    dropped = kept = 0
    for arch, layer in _walk_instances():
        pf = factorize(layer)
        strides.add(layer.stride)
        live = search.live_capacities(arch, halo, layer.stride, pf.padded)
        dropped += len(arch.finite_capacities) - len(live)
        kept += len(live)
        with monkeypatch.context() as m:
            m.setattr(search, "live_capacities", lambda arch, *_: list(arch.finite_capacities))
            m.setattr(search, "placement_checks", full_alongside)
            checked = states(pf, arch)
        assert checked == states(pf, arch)
        assert _carried_rows(monkeypatch, pf, arch, halo) == [
            (levels, {I: tile_table(levels)[I] for I, _v, _cap in arch.finite_capacities})
            for levels, *_state in checked
        ]
        level_of, code_of = {}, {}
        for levels, cycles, counts, codes, total in checked:
            assert list(counts) == [order_count(level) for level in levels]
            assert total == math.prod(counts)
            for code, level in zip(codes, levels):
                assert level_of.setdefault(code, level) == level
                assert code_of.setdefault(level, code) == code
        assert len(checked) == sum(1 for _ in search._walk(pf, arch, 10**12, halo))
    assert strides == {1, 2}
    assert True in verdicts and False in verdicts
    assert dropped > 0 and kept > 0


def test_enumerate_work_pinned(simba, monkeypatch):
    """The exact work of `enumerate_best` on the benchmark's enumerate
    layer (R3 S1 P2 Q1 C4 K2 N1 on simba, halo, latency): one compiled
    check per placement, the walk's valid assignments, one order part per
    code of the upper levels (which also fix the NoC row), its NoC keys
    (upper codes and compute cycles) and the `with_cycles` values that
    score each of them once, and the schedules counted.  A change that
    only makes this work cheaper must leave it as it is."""
    work = dict.fromkeys(("checks", "assignments", "order parts", "values"), 0)
    keys = set()
    walk, part, value_of = search._walk, search.order_part, search.with_cycles
    noc = simba.noc_level

    def compiling(*args):
        passes = placement_checks(*args)

        def counted():
            work["checks"] += 1
            return passes()

        return counted

    def walking(*args):
        for state in walk(*args):
            work["assignments"] += 1
            keys.add((*state[3][noc:], state[1]))
            yield state

    def parting(*args):
        work["order parts"] += 1
        return part(*args)

    def valuing(*args):
        work["values"] += 1
        return value_of(*args)

    monkeypatch.setattr(search, "placement_checks", compiling)
    monkeypatch.setattr(search, "_walk", walking)
    monkeypatch.setattr(search, "order_part", parting)
    monkeypatch.setattr(search, "with_cycles", valuing)
    count, (value, _sched) = enumerate_best(
        factorize(LayerDims(3, 1, 2, 1, 4, 2, 1)), simba, "latency", limit=10**12)
    assert (count, value) == (75_492, 5)
    assert len(keys) == 1_587
    assert work == {
        "checks": 21_312, "assignments": 18_410, "order parts": 630, "values": 1_850,
    }


def _reference_class_orders(loops):
    """The definition: the first distinct order of each class of orders
    sharing their temporal subsequence, in order of first appearance."""
    reps = {}
    for order in search._distinct_orders(loops):
        reps.setdefault(tuple(l for l in order if not l.spatial), order)
    return tuple(reps.values())


@pytest.mark.parametrize("seed", range(8))
def test_class_orders_match_their_definition(seed):
    rng = random.Random(seed)
    pool = [Loop(0, 3, False), Loop(0, 3, True), Loop(2, 2, False), Loop(2, 2, True),
            Loop(5, 2, False), Loop(4, 2, True), Loop(4, 2, False)]
    for _ in range(200):
        loops = tuple(rng.choice(pool[:rng.randint(1, 7)]) for _ in range(rng.randint(0, 6)))
        assert search._class_orders(loops) == _reference_class_orders(loops), loops

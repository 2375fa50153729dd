import itertools
import math

import pytest

from helpers import reference_enumerate_all, reference_evaluate, toy_two_level
from mipsched import search
from mipsched.formulation import ObjectiveWeights, build_model
from mipsched.schedule import Loop, encode, validate
from mipsched.search import (
    METRICS,
    NoValidScheduleError,
    SearchConfig,
    enumerate_all,
    enumerate_best,
    metric_value,
    order_count,
    order_scorer,
    random_search,
    valid_assignments,
)
from mipsched.solver import SpaceTooLarge, solve
from mipsched.workload import LayerDims, factorize


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
    assert stats.validity_rate < 1.0


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


@ENUMERATE_CASES
def test_enumerate_matches_reference(simba, monkeypatch, arch_name, dims, stride):
    """Validating once per assignment yields the same schedules, in the
    same order, as validating every loop order; invalid assignments are
    skipped whole."""
    arch = simba if arch_name == "simba" else toy_two_level(fanout=4, cap=16.0)
    pf = factorize(LayerDims(*dims, stride=stride))
    expected = list(reference_enumerate_all(pf, arch, limit=10**7))
    verdicts = []

    def counting_validate(sched, arch, halo=True):
        got = validate(sched, arch, halo=halo)
        verdicts.append(not got)
        return got

    monkeypatch.setattr(search, "validate", counting_validate)
    got = list(enumerate_all(pf, arch, limit=10**7))
    assert got == expected
    # one call per assignment, some of them invalid (the skip path ran)
    assert verdicts.count(True) == len({_assignment(s) for s in got})
    assert verdicts.count(False) > 0
    assert len(verdicts) < len(got)


@ENUMERATE_CASES
def test_enumerate_scores_match_reference(simba, arch_name, dims, stride):
    """Scoring a loop order from its assignment's order-free terms and its
    own NoC iteration counts equals a full reference evaluation of that
    order, for every order and every metric."""
    arch = simba if arch_name == "simba" else toy_two_level(fanout=4, cap=16.0)
    pf = factorize(LayerDims(*dims, stride=stride))
    firsts = iter(valid_assignments(pf, arch, limit=10**7))
    first = None
    orders = 0
    moved = False  # some order's traffic differs from its first order's
    for sched in enumerate_all(pf, arch, limit=10**7):
        if first is None or _assignment(sched) != _assignment(first):
            # a new assignment: enumerate_all opens it with its first order
            first = next(firsts)
            assert sched == first
            scorers = {m: order_scorer(first, arch, m) for m in METRICS}
            first_traffic = metric_value(reference_evaluate(first, arch), "traffic")
        orders += 1
        ref = reference_evaluate(sched, arch)
        for metric, score in scorers.items():
            assert score(sched.levels) == metric_value(ref, metric), (sched.levels, metric)
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


@BEST_CASES
def test_enumerate_best_matches_brute_force(simba, monkeypatch, arch_name, dims, stride):
    """For every metric, `enumerate_best` counts what `enumerate_all`
    yields and finds what a strict-`<` scan of a full reference
    evaluation of every loop order finds, value and levels, validating
    each assignment once."""
    arch = {
        "simba": simba,
        "toy2": toy_two_level(fanout=4, cap=16.0),
        "toy2-f1": toy_two_level(fanout=1, cap=16.0),
    }[arch_name]
    pf = factorize(LayerDims(*dims, stride=stride))
    count = 0
    brute = {m: None for m in METRICS}  # metric -> (value, levels)
    for sched in reference_enumerate_all(pf, arch, limit=10**7):
        count += 1
        report = reference_evaluate(sched, arch)
        for metric, best in brute.items():
            value = metric_value(report, metric)
            if best is None or value < best[0]:
                brute[metric] = (value, sched.levels)
    firsts = {first.levels for first in valid_assignments(pf, arch, limit=10**7)}

    calls = []

    def counting_validate(sched, arch, halo=True):
        got = validate(sched, arch, halo=halo)
        calls.append(not got)
        return got

    monkeypatch.setattr(search, "validate", counting_validate)
    assert count == sum(1 for _ in enumerate_all(pf, arch, limit=10**7))
    # one validate per assignment, valid or not
    assert calls.count(True) == len(firsts)
    per_scan = len(calls)
    for metric in METRICS:
        calls.clear()
        got_count, (value, sched) = enumerate_best(pf, arch, metric, limit=10**7)
        assert (got_count, value, sched.levels) == (count, *brute[metric]), metric
        assert len(calls) == per_scan
        assert validate(sched, arch) == []
    if arch_name == "toy2-f1":
        assert brute["traffic"][1] not in firsts


def test_enumerate_best_without_a_valid_schedule():
    """No valid assignment: a zero count and no best."""
    arch = toy_two_level(fanout=1, cap=1.0)
    pf = factorize(LayerDims(1, 1, 2, 1, 1, 2, 1))
    assert next(valid_assignments(pf, arch), None) is None
    assert enumerate_best(pf, arch, "latency") == (0, None)

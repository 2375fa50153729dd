"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines and measured values.
"""

import math
import time

import pytest

from helpers import SUITE_LAYERS, exhaustive_solve, random_instance
from mipsched.arch import ArchSpec, MemLevel, MemTensorMatrix
from mipsched.costmodel import compute_cycles, tile_elements, traffic_terms
from mipsched.cli import baseline_total_bytes, solve_layer
from mipsched.formulation import ObjectiveWeights, PartitionSpec, build_model
from mipsched.schedule import encode, evaluate, parse, render, serialize, validate
from mipsched.search import SearchConfig, draw_schedule, random_search
from mipsched.solver import solve
from mipsched.workload import LayerDims, factorize


def report(line: str):
    print(f"\n[acceptance] {line}")


def test_01_oracle_optimality():
    """Branch-and-bound matches the exhaustive oracle exactly on >= 30
    generated instances (<= 8 factors, <= 3 levels) within 60 s total."""
    t0 = time.perf_counter()
    checked = 0
    seed = 0
    while checked < 30:
        seed += 1
        assert seed < 4000, "instance generator exhausted"
        model = random_instance(seed, max_space=80_000)
        if model is None or model.F > 8:
            continue
        oracle = exhaustive_solve(model)
        sol = solve(model)
        assert sol.status == oracle.status, f"seed {seed}"
        if sol.status == "optimal":
            assert sol.objective_value == oracle.objective_value, f"seed {seed}"
            assert sol.x_assignment == oracle.x_assignment, f"seed {seed}"
            assert sol.menu_selection == oracle.menu_selection, f"seed {seed}"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(f"PASS 1 oracle optimality: {checked} instances identical in {elapsed:.1f}s")


def test_02_validity(simba, solved_suite):
    """Every solver-emitted suite schedule passes the exact validator."""
    for name, (pf, result, _t) in solved_suite.items():
        assert result.solution.status == "optimal", name
        assert validate(result.schedule, simba, halo=True) == [], name
    report(f"PASS 2 validity: {len(solved_suite)}/{len(solved_suite)} suite schedules valid")


def test_03_log_product_duality(simba, solved_suite):
    """Linear objective terms equal log2 of the product-domain values."""
    worst = 0.0
    for name, (pf, result, _t) in solved_suite.items():
        model = result.model
        terms = model.term_values(encode(result.schedule, pf))
        traffic = traffic_terms(result.schedule, simba)
        pairs = [(terms["comp"], compute_cycles(result.schedule))]
        util = 1
        for I, v in simba.on_chip_pairs:
            util *= tile_elements(result.schedule, simba, I, v, halo=False)
        pairs.append((terms["util"], util))
        for v, tname in enumerate(("W", "IA", "OA")):
            pairs.append((terms[f"D_{tname}"], traffic[v].per_transfer_elems))
            pairs.append((terms[f"L_{tname}"], traffic[v].link_multiplier))
            pairs.append((terms[f"T_{tname}"], traffic[v].iterations))
        for linear, product in pairs:
            expect = math.log2(product)
            err = abs(linear - expect) / max(abs(expect), 1.0)
            worst = max(worst, err)
            assert err <= 1e-9, name
    report(f"PASS 3 log/product duality: worst relative error {worst:.2e}")


def test_04_conservation(simba, solved_suite):
    """compute cycles x spatial fanout product == total padded iteration
    volume, for suite schedules and 1,000 seeded random valid draws."""

    def check(sched, pf):
        spatial = 1
        for loops in sched.levels:
            for loop in loops:
                if loop.spatial:
                    spatial *= loop.bound
        assert compute_cycles(sched) * spatial == math.prod(pf.padded)

    for name, (pf, result, _t) in solved_suite.items():
        check(result.schedule, pf)
    pf = factorize(SUITE_LAYERS["wide256"])
    found = 0
    i = 0
    while found < 1000:
        assert i < 100_000
        sched = draw_schedule(pf, simba, 11, i)
        i += 1
        if validate(sched, simba):
            continue
        check(sched, pf)
        found += 1
    report(f"PASS 4 conservation: suite + {found} random valid schedules exact")


def test_05_spread(simba):
    """Valid schedules for the wide 3x3/256-channel layer differ by at
    least 2x in modeled latency across >= 1,000 samples."""
    pf = factorize(SUITE_LAYERS["wide256"])
    latencies = []
    i = 0
    while len(latencies) < 1000 and i < 100_000:
        sched = draw_schedule(pf, simba, 5, i)
        i += 1
        if validate(sched, simba):
            continue
        latencies.append(evaluate(sched, simba).latency_cycles)
    assert len(latencies) >= 1000
    ratio = max(latencies) / min(latencies)
    assert ratio >= 2.0
    report(f"PASS 5 spread: max/min latency ratio {ratio:.1f} over {len(latencies)} schedules")


def test_06_baseline_dominance(simba, solved_suite):
    """Solver latency <= best-of-5 random on >= 90% of suite layers."""
    wins = 0
    ratios = []
    for name, (pf, result, _t) in solved_suite.items():
        solver_lat = result.report.latency_cycles
        best, rep, _stats = random_search(
            pf, simba, SearchConfig(samples=20_000, valid_target=5, seed=0)
        )
        random_lat = rep.latency_cycles
        ratios.append(random_lat / solver_lat)
        if solver_lat <= random_lat:
            wins += 1
    frac = wins / len(solved_suite)
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    assert frac >= 0.9
    report(
        f"PASS 6 dominance: solver wins {wins}/{len(solved_suite)} layers, "
        f"random/solver latency geomean {geomean:.2f}x"
    )


def test_07_one_shot_speed(simba, solved_suite):
    """Proven-optimal solve within 30 s per suite layer; a full 20K-draw
    random search stays within the same budget."""
    for name, (_pf, result, elapsed) in solved_suite.items():
        assert result.solution.status == "optimal", name
        assert elapsed < 30.0, f"{name} took {elapsed:.1f}s"
    pf = factorize(SUITE_LAYERS["wide256"])
    t0 = time.perf_counter()
    random_search(pf, simba, SearchConfig(samples=20_000, valid_target=20_000, seed=0))
    sample_t = time.perf_counter() - t0
    assert sample_t < 30.0
    times = ", ".join(f"{n}={t:.1f}s" for n, (_p, _r, t) in solved_suite.items())
    report(f"PASS 7 speed: {times}; 20K draws in {sample_t:.1f}s")


def _partition_pair_arch():
    return ArchSpec(
        levels=(
            MemLevel("PE", (0.0, 0.0, 0.0), spatial_fanout=1, is_noc_boundary=True),
            MemLevel("Buf", (16.0, 16.0, 48.0)),
            MemLevel("Mem", (math.inf,) * 3),
        ),
        B=MemTensorMatrix(rows=((0, 0, 0), (1, 1, 1), (1, 1, 1))),
        name="pairbuf",
    )


def test_08_partition_cooptimization(simba, solved_suite):
    """(a) chosen bytes within budget; (b) co-optimized objective never
    worse than the fixed baseline; (c) a crafted layer pair provably
    prefers different partitions."""
    budget = baseline_total_bytes(simba)
    for name, (pf, fixed, _t) in solved_suite.items():
        part = solve_layer(
            pf,
            simba,
            ObjectiveWeights(),
            partition=PartitionSpec(budget_bytes=budget),
            deadline=time.perf_counter() + 120,
        )
        assert part.solution.status == "optimal", name
        model = part.model
        total = sum(
            model.menus[mi].entries[ei].nbytes
            for mi, ei in enumerate(part.solution.menu_selection)
        )
        assert total <= budget, name
        assert part.solution.objective_value <= fixed.solution.objective_value + 1e-9, name

    arch = _partition_pair_arch()
    spec = PartitionSpec(budget_bytes=12, e_min=0, e_max=4, include_baseline=False)
    menus = {}
    for label, dims in (("weights", LayerDims(4, 2, 1, 1, 1, 1, 1)),
                        ("channels", LayerDims(1, 1, 1, 1, 8, 1, 1))):
        model = build_model(factorize(dims), arch, ObjectiveWeights(), partition=spec)
        oracle = exhaustive_solve(model)
        assert oracle.status == "optimal"
        menus[label] = tuple(
            model.menus[mi].entries[ei].elements
            for mi, ei in enumerate(oracle.menu_selection)
        )
    assert menus["weights"] != menus["channels"]
    report(
        "PASS 8 partition: all suite budgets respected, co-opt <= baseline; "
        f"crafted pair picks {menus['weights']} vs {menus['channels']} elements"
    )


def test_09_round_trips_and_golden(simba, solved_suite):
    """Serialization round trips exactly; the reference rendering matches
    the frozen golden file byte for byte."""
    from pathlib import Path

    from helpers import reference_tiny_schedule

    count = 0
    for name, (pf, result, _t) in solved_suite.items():
        assert parse(serialize(result.schedule)) == result.schedule
        count += 1
    pf = factorize(SUITE_LAYERS["conv28"])
    for i in range(200):
        sched = draw_schedule(pf, simba, 23, i)
        if validate(sched, simba):
            continue
        assert parse(serialize(sched)) == sched
        count += 1
    golden = (Path(__file__).parent / "golden" / "tiny_render.txt").read_text()
    assert render(reference_tiny_schedule()) == golden
    report(f"PASS 9 round trips: {count} schedules; golden render byte-identical")


def test_10_determinism(simba):
    """Identical solutions and serialized schedules over three repeated solves."""
    from mipsched.schedule import decode

    pf = factorize(SUITE_LAYERS["deep512"])
    model = build_model(pf, simba, ObjectiveWeights())
    outputs = []
    for _ in range(3):
        sol = solve(model, time.perf_counter() + 120)
        sched = decode(sol.x_assignment, pf, simba)
        outputs.append((sol.status, sol.objective_value, sol.x_assignment, serialize(sched)))
    assert outputs[0] == outputs[1] == outputs[2]
    runs = {
        random_search(pf, simba, SearchConfig(samples=3000, valid_target=5, seed=9))[0]
        for _ in range(2)
    }
    assert len(runs) == 1
    report("PASS 10 determinism: identical outputs over 3 repeated solves")

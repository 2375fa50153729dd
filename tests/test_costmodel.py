import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    J,
    reference_conv28_schedule,
    reference_dim_tile,
    reference_evaluate,
    reference_tile_elements,
    reference_validate,
    toy_three_level,
    toy_two_level,
)
from mipsched.arch import IA, NUM_TENSORS, OA, TENSOR_NAMES, W, ArchSpec, MemLevel, MemTensorMatrix
from mipsched.costmodel import (
    compute_cycles, row_tile, tile_dims, tile_elements, tile_reader, traffic_terms, transfer_terms,
)
from mipsched.formulation import build_model
from mipsched.schedule import Loop, Schedule, encode, evaluate, validate
from mipsched.search import draw_schedule
from mipsched.workload import NUM_DIMS, LayerDims, factorize


def noc_schedule(simba, loops, layer=None):
    return Schedule(
        levels=((), (), (), (), tuple(loops), ()),
        level_names=tuple(l.name for l in simba.levels),
        layer=layer or LayerDims(3, 3, 4, 4, 4, 4, 3),
        arch_name="simba",
    )


def noc_links(simba, loops):
    """`transfer_terms`' per-tensor link multipliers of NoC-level `loops`."""
    sched = noc_schedule(simba, loops)
    noc = simba.noc_level
    return transfer_terms(sched.levels[noc], sched.tiles[noc], simba)[1]


class TestClassify:
    """The link kind of a spatial NoC-level loop: a dimension related to a
    tensor splits it across PEs (unicast, its links multiply); an
    unrelated one multicasts weights and inputs, or reduces outputs, on
    the same links."""

    def test_output_column_spatial_is_weight_multicast(self, simba):
        links = noc_links(simba, [Loop(J["P"], 4, True)])
        assert links[W] == 1
        assert links[OA] == 4

    def test_channel_spatial_is_weight_unicast_output_reduction(self, simba):
        links = noc_links(simba, [Loop(J["C"], 4, True)])
        assert links[W] == 4
        assert links[IA] == 4
        assert links[OA] == 1

    def test_temporal_loops_not_classified(self, simba):
        assert noc_links(simba, [Loop(J["C"], 4, False)]) == (1, 1, 1)


class TestIterations:
    def test_no_outer_loops_single_transfer(self, simba):
        sched = noc_schedule(simba, [])
        terms = traffic_terms(sched, simba)
        assert all(t.iterations == 1 for t in terms)

    def test_outer_irrelevant_counts_after_relevant(self, simba):
        # K (weight-relevant) inside, then N (weight-irrelevant) outside:
        # the batch loop still multiplies weight transfers
        sched = noc_schedule(simba, [Loop(J["K"], 2, False), Loop(J["N"], 3, False)])
        terms = traffic_terms(sched, simba)
        assert terms[W].iterations == 6

    def test_irrelevant_alone_is_free(self, simba):
        sched = noc_schedule(simba, [Loop(J["N"], 3, False)])
        assert traffic_terms(sched, simba)[W].iterations == 1

    def test_storability_gates_trigger(self, simba):
        # the shared buffer does not hold outputs, so an output-relevant
        # loop there cannot start output traffic; at the backing store the
        # same loop does
        inner = noc_schedule(simba, [Loop(J["N"], 3, False)])
        assert traffic_terms(inner, simba)[OA].iterations == 1
        outer = Schedule(
            levels=((), (), (), (), (), (Loop(J["N"], 3, False),)),
            level_names=inner.level_names,
            layer=inner.layer,
            arch_name="simba",
        )
        assert traffic_terms(outer, simba)[OA].iterations == 3

    def test_monotone_when_outer_loop_added(self, simba):
        base = noc_schedule(simba, [Loop(J["K"], 2, False)])
        more = Schedule(
            levels=((), (), (), (), base.levels[4], (Loop(J["Q"], 2, False),)),
            level_names=base.level_names,
            layer=base.layer,
            arch_name="simba",
        )
        t0 = traffic_terms(base, simba)
        t1 = traffic_terms(more, simba)
        for v in range(3):
            assert t1[v].iterations >= t0[v].iterations


class TestTerms:
    def test_reference_values(self, simba):
        terms = traffic_terms(reference_conv28_schedule(simba), simba)
        assert terms[W].total_elems == 24 * 12 * 1
        assert terms[IA].total_elems == 64 * 1 * 294
        assert terms[OA].total_elems == 8 * 4 * 2

    def test_tile_elements_halo(self, simba):
        # inside the input buffer: P,Q tiles 4x2 with kernel tiles 1x3
        # resident below give a physical 4x4 window over 8 channels
        sched = reference_conv28_schedule(simba)
        plain = tile_elements(sched, simba, 3, IA, halo=False)
        with_halo = tile_elements(sched, simba, 3, IA, halo=True)
        assert plain == 4 * 2 * 8
        assert with_halo == 4 * 4 * 8


@given(st.integers(min_value=0, max_value=20_000))
@settings(max_examples=120, deadline=None)
def test_log_product_duality(simba, seed):
    """Each linear objective term equals log2 of the product-domain value."""
    pf = factorize(LayerDims(3, 3, 28, 28, 8, 4, 3))
    sched = draw_schedule(pf, simba, seed, 0)
    if validate(sched, simba):
        return
    model = build_model(pf, simba)
    terms = model.term_values(encode(sched, pf))
    rep_terms = traffic_terms(sched, simba)
    names = ("W", "IA", "OA")
    for v in range(3):
        t = rep_terms[v]
        assert math.isclose(terms[f"D_{names[v]}"], math.log2(t.per_transfer_elems), rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(terms[f"L_{names[v]}"], math.log2(t.link_multiplier), rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(terms[f"T_{names[v]}"], math.log2(t.iterations), rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(terms["comp"], math.log2(compute_cycles(sched)), rel_tol=1e-9, abs_tol=1e-9)
    util = 0.0
    for I, v in simba.on_chip_pairs:
        util += math.log2(tile_elements(sched, simba, I, v, halo=False))
    assert math.isclose(terms["util"], util, rel_tol=1e-9, abs_tol=1e-9)


def _check_against_reference(arch, layer, draws):
    """Compare every tile, dimension product, verdict and cost report of
    `draws` random schedules, and of each with its outermost level emptied
    (a dimension underflow when that level held loops), with the frozen
    per-dimension-rescan copies.  Returns the number of valid draws, the
    number whose halo input tile exceeds the plain one at some on-chip
    level, and the violation kinds seen."""
    pf = factorize(layer)
    valid = halo_wider = 0
    kinds = set()
    for i in range(draws):
        sched = draw_schedule(pf, arch, 11, i)
        short = Schedule(
            levels=sched.levels[:-1] + ((),),
            level_names=sched.level_names,
            layer=sched.layer,
            arch_name=sched.arch_name,
        )
        for I in range(arch.num_levels + 1):
            for v in range(NUM_TENSORS):
                for halo in (False, True):
                    assert tile_elements(sched, arch, I, v, halo=halo) == reference_tile_elements(
                        sched, arch, I, v, halo=halo
                    )
        for j in range(len(J)):
            assert sched.dim_product(j) == reference_dim_tile(sched, j, arch.num_levels)
        halo_wider += any(
            tile_elements(sched, arch, I, IA, halo=True) > tile_elements(sched, arch, I, IA)
            for I, v in arch.on_chip_pairs
            if v == IA
        )
        for s in (sched, short):
            for halo in (True, False):
                got = validate(s, arch, halo=halo)
                assert got == reference_validate(s, arch, halo=halo)
                kinds.update(x.kind for x in got)
                for x in got:  # a capacity violation's indices name its slice
                    if x.kind == "capacity":
                        I, v = x.slice
                        assert x.where == f"{arch.levels[I].name}/{TENSOR_NAMES[v]}"
            assert evaluate(s, arch) == reference_evaluate(s, arch)
        valid += not validate(sched, arch)
    return valid, halo_wider, kinds


def test_one_pass_matches_reference(simba):
    """Tiles from the prefix-product table, `validate` and `evaluate` equal
    the frozen per-dimension-rescan code on random draws over three
    architectures and stride-2 layers, where the halo window and the
    plain input tile differ."""
    cases = [
        (simba, LayerDims(3, 3, 28, 28, 8, 4, 3, stride=2), 500),
        (simba, LayerDims(3, 3, 14, 14, 256, 256, 1, stride=2), 500),
        (toy_two_level(fanout=2, cap=16.0), LayerDims(3, 3, 4, 4, 2, 2, 1, stride=2), 500),
        (toy_three_level(), LayerDims(3, 3, 4, 4, 2, 2, 1, stride=2), 1500),
    ]
    valid = halo_wider = 0
    kinds = set()
    for arch, layer, draws in cases:
        got = _check_against_reference(arch, layer, draws)
        valid += got[0]
        halo_wider += got[1]
        kinds |= got[2]
    total = sum(draws for _a, _l, draws in cases)
    assert 0 < valid < total / 2
    assert halo_wider > total / 2
    assert {"capacity", "spatial-overflow", "dimension-underflow"} <= kinds


def test_tile_readers_match_row_tile(simba):
    """Each tensor's `tile_reader`, halo on and off, at strides 1-3, reads
    from a row, tuple or list, the tile that `row_tile` and the frozen
    per-dimension rescan read from a schedule whose innermost level
    spells that row, on seeded random rows; it reads no entry outside
    `tile_dims` and never falls as an entry grows, which the enumeration
    walk's compiled checks rely on."""
    rng = random.Random(7)
    for arch in (simba, toy_two_level(), toy_three_level()):
        for stride in (1, 2, 3):
            for halo in (False, True):
                for v in range(NUM_TENSORS):
                    read = tile_reader(arch, v, stride, halo)
                    dims = tile_dims(arch, v, halo)
                    for _ in range(40):
                        row = [rng.randint(1, 9) for _ in range(NUM_DIMS)]
                        inner = tuple(Loop(j, b, False) for j, b in enumerate(row) if b > 1)
                        sched = Schedule(
                            levels=(inner,) + ((),) * (arch.num_levels - 1),
                            level_names=tuple(l.name for l in arch.levels),
                            layer=LayerDims(1, 1, 1, 1, 1, 1, 1, stride=stride),
                            arch_name=arch.name,
                        )
                        want = reference_tile_elements(sched, arch, 1, v, halo=halo)
                        assert read(row) == read(tuple(row)) == want
                        assert row_tile(tuple(row), arch, v, stride, halo) == want
                        j = rng.randrange(NUM_DIMS)
                        row[j] += rng.randint(1, 3)
                        grown = read(row)
                        assert grown > want if j in dims else grown == want

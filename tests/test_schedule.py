from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    J,
    input_fanout_arch,
    reference_conv28_schedule,
    reference_tiny_schedule,
)
from mipsched.formulation import SPATIAL, TEMPORAL, build_model
from mipsched.schedule import (
    EncodeError,
    Loop,
    MalformedSolutionError,
    Schedule,
    ScheduleParseError,
    decode,
    encode,
    evaluate,
    parse,
    render,
    serialize,
    validate,
)
from mipsched.solver import solve
from mipsched.workload import DIM_NAMES, LayerDims, factorize

GOLDEN = Path(__file__).parent / "golden"


class TestDecode:
    def test_four_factor_example(self):
        # K's inner tile spatial in the input buffer; the shared level runs
        # N temporal innermost, then K and R spatial
        arch = input_fanout_arch()
        pf = factorize(LayerDims(3, 1, 1, 1, 1, 4, 3))
        x = {
            0: (4, 3, SPATIAL),  # R outermost spatial at the shared level
            1: (3, 0, SPATIAL),  # inner K tile in the input buffer
            2: (4, 2, SPATIAL),  # outer K tile spatial
            3: (4, 1, TEMPORAL),  # N temporal, lowest rank of the level
        }
        sched = decode(x, pf, arch)
        gb = sched.levels[4]
        assert [(DIM_NAMES[l.dim], l.bound, l.spatial) for l in gb] == [
            ("N", 3, False),
            ("K", 2, True),
            ("R", 3, True),
        ]
        assert [(DIM_NAMES[l.dim], l.bound) for l in sched.levels[3]] == [("K", 2)]
        assert validate(sched, arch) == []

    def test_all_unit_layer_decodes_empty(self, simba):
        pf = factorize(LayerDims(1, 1, 1, 1, 1, 1, 1))
        sched = decode({}, pf, simba)
        assert all(not loops for loops in sched.levels)

    def test_missing_factor_rejected(self, simba):
        pf = factorize(LayerDims(3, 1, 1, 1, 1, 4, 3))
        with pytest.raises(MalformedSolutionError):
            decode({0: (0, 0, TEMPORAL)}, pf, simba)

    def test_decode_encode_round_trip(self, simba):
        pf = factorize(LayerDims(3, 3, 28, 28, 8, 4, 3))
        model = build_model(pf, simba)
        sol = solve(model)
        sched = decode(sol.x_assignment, pf, simba)
        x = encode(sched, pf)
        again = decode(x, pf, simba)
        assert again == sched

    def test_encode_splits_composite_bounds(self, simba):
        pf = factorize(LayerDims(3, 3, 28, 28, 8, 4, 3))
        sched = reference_conv28_schedule(simba)
        x = encode(sched, pf)
        assert len(x) == 14  # one slot per prime factor
        # the channel tile of 8 becomes three adjacent rank-2 factors
        channel = [(fi, izk) for fi, izk in x.items() if pf.flat()[fi][0] == J["C"]]
        assert sorted(izk for _fi, izk in channel) == [
            (0, 1, SPATIAL),
            (0, 2, SPATIAL),
            (0, 3, SPATIAL),
        ]

    def test_encode_rejects_mismatched_bounds(self, simba):
        pf = factorize(LayerDims(3, 3, 28, 28, 8, 4, 3))
        bad = Schedule(
            levels=((), (), (), (), (Loop(J["K"], 4, False),), ()),
            level_names=tuple(l.name for l in simba.levels),
            layer=LayerDims(3, 3, 28, 28, 8, 4, 3),
            arch_name="simba",
        )
        with pytest.raises(EncodeError):
            encode(bad, pf)


class TestValidate:
    def test_reference_schedule_valid(self, simba):
        assert validate(reference_conv28_schedule(simba), simba) == []

    def test_spatial_overflow(self, simba):
        sched = Schedule(
            levels=(
                (),
                (),
                (),
                (),
                (Loop(J["R"], 3, True), Loop(J["S"], 3, True), Loop(J["K"], 2, True)),
                (),
            ),
            level_names=tuple(l.name for l in simba.levels),
            layer=LayerDims(3, 3, 1, 1, 1, 2, 1),
            arch_name="simba",
        )
        v = validate(sched, simba)
        assert any(x.kind == "spatial-overflow" for x in v)  # 18 engines > 16

    def test_dimension_underflow(self, simba):
        sched = Schedule(
            levels=((), (), (), (), (Loop(J["K"], 2, False),), ()),
            level_names=tuple(l.name for l in simba.levels),
            layer=LayerDims(1, 1, 1, 1, 1, 4, 1),
            arch_name="simba",
        )
        v = validate(sched, simba)
        assert any(x.kind == "dimension-underflow" and x.where == "K" for x in v)

    def test_capacity_violation(self, simba):
        # 4096 output-channel weights exceed the 3 KB accumulation buffer
        sched = Schedule(
            levels=(
                (Loop(J["K"], 2, False),) * 11,
                (),
                (),
                (),
                (),
                (),
            ),
            level_names=tuple(l.name for l in simba.levels),
            layer=LayerDims(1, 1, 1, 1, 1, 2048, 1),
            arch_name="simba",
        )
        v = validate(sched, simba)
        assert any(x.kind == "capacity" and "AccumBuf" in x.where for x in v)

    def test_halo_stricter_than_plain(self, simba):
        # a 90x90 output tile with a 3-wide kernel inside the input buffer:
        # the plain product (8100) fits in 8 KB, the physical 92x92 window
        # (8464) does not
        sched = Schedule(
            levels=(
                (),
                (),
                (Loop(J["P"], 90, False), Loop(J["Q"], 90, False),
                 Loop(J["R"], 3, False), Loop(J["S"], 3, False)),
                (),
                (),
                (),
            ),
            level_names=tuple(l.name for l in simba.levels),
            layer=LayerDims(3, 3, 90, 90, 1, 1, 1),
            arch_name="simba",
        )
        assert validate(sched, simba, halo=False) == []
        v = validate(sched, simba, halo=True)
        assert any(x.kind == "capacity" and "InputBuf" in x.where for x in v)

    def test_stride_enlarges_input_window(self, simba):
        layer = LayerDims(3, 3, 60, 60, 1, 1, 1, stride=2)
        sched = Schedule(
            levels=(
                (),
                (),
                (Loop(J["P"], 60, False), Loop(J["Q"], 60, False),
                 Loop(J["R"], 3, False), Loop(J["S"], 3, False)),
                (),
                (),
                (),
            ),
            level_names=tuple(l.name for l in simba.levels),
            layer=layer,
            arch_name="simba",
        )
        # window (60-1)*2+3 = 121 per side: far beyond the 8 KB input buffer
        v = validate(sched, simba, halo=True)
        assert any(x.kind == "capacity" and "InputBuf" in x.where for x in v)


class TestRender:
    def test_golden_four_factor(self):
        text = render(reference_tiny_schedule())
        assert text == (GOLDEN / "tiny_render.txt").read_text()

    def test_spatial_line_present(self):
        text = render(reference_tiny_schedule())
        assert "spatial_for k1 = [0 : 2) :" in text

    def test_empty_schedule_is_comment_skeleton(self, simba):
        pf = factorize(LayerDims(1, 1, 1, 1, 1, 1, 1))
        sched = decode({}, pf, simba)
        text = render(sched)
        body = [l for l in text.splitlines() if not l.startswith("//")]
        assert body == []
        assert "// Register level" in text

    def test_padded_loops_annotated(self, simba):
        pf = factorize(LayerDims(1, 1, 1, 1, 1, 13, 1))
        model = build_model(pf, simba)
        sol = solve(model)
        sched = decode(sol.x_assignment, pf, simba)
        text = render(sched)
        assert "// padded" in text

    def test_distinct_schedules_render_differently(self, simba):
        a = reference_tiny_schedule()
        b = Schedule(
            levels=a.levels,
            level_names=a.level_names,
            layer=a.layer,
            arch_name="other",
        )
        c = Schedule(
            levels=((), (), (), (Loop(J["K"], 2, False),),
                    a.levels[4], ()),
            level_names=a.level_names,
            layer=a.layer,
            arch_name="simba",
        )
        texts = {render(a), render(b), render(c)}
        assert len(texts) == 3


class TestSerialization:
    def test_round_trip_reference(self, simba):
        sched = reference_conv28_schedule(simba)
        assert parse(serialize(sched)) == sched

    def test_byte_stable(self):
        sched = reference_tiny_schedule()
        assert serialize(sched) == serialize(sched)

    def test_truncated_input_reports_position(self):
        data = serialize(reference_tiny_schedule())
        clipped = b"\n".join(data.splitlines()[:-2])
        with pytest.raises(ScheduleParseError) as err:
            parse(clipped)
        assert err.value.line > 0

    def test_bad_mapping_token(self):
        data = serialize(reference_tiny_schedule()).decode()
        broken = data.replace("loop 3 0 K 2 s", "loop 3 0 K 2 x", 1)
        with pytest.raises(ScheduleParseError) as err:
            parse(broken)
        assert "mapping" in str(err.value)

    def test_bad_header(self):
        with pytest.raises(ScheduleParseError):
            parse(b"schedule v999\nend\n")

    @pytest.mark.parametrize(
        "good, bad, column",
        [("levels 6", "levels six", 8), ("level 0 Register", "level one Register", 7),
         ("loop 3 0 K 2 s", "loop 3 x K 2 s", 8)],
        ids=["level-count", "level-index", "loop-rank"],
    )
    def test_bad_integer_field_reports_position(self, good, bad, column):
        data = serialize(reference_tiny_schedule()).decode()
        lineno = data.splitlines().index(good) + 1
        with pytest.raises(ScheduleParseError) as err:
            parse(data.replace(good, bad, 1))
        assert (err.value.line, err.value.column) == (lineno, column)
        assert "must be an integer" in str(err.value)

    @pytest.mark.parametrize(
        "good, bad, column, message",
        [("loop 4 1 K 2 s", "loop 4 4 K 2 s", 8, "rank 4 out of order"),
         ("loop 4 1 K 2 s", "  loop 4 4 K 2 s", 10, "rank 4 out of order"),
         ("loop 3 0 K 2 s", "loop 3 0 K 2 2", 14, "mapping must be"),
         ("layer 3 1 1 1 1 4 3 stride 1", "layer 3 1 1 1 1 4 3 stride 0", 28,
          "stride must be >= 1"),
         ("layer 3 1 1 1 1 4 3 stride 1", "layer 3 1 1 1 0 4 3 stride 1", 15,
          "dimension C must be >= 1"),
         ("levels 6", "levels", 8, "must be an integer")],
        ids=["rank", "indented-rank", "mapping", "stride", "bound", "missing-count"],
    )
    def test_error_points_at_field(self, good, bad, column, message):
        """The column is the field's own, even where its text occurs
        earlier in the line, and a bad layer value is a parse error."""
        data = serialize(reference_tiny_schedule()).decode()
        lineno = data.splitlines().index(good) + 1
        with pytest.raises(ScheduleParseError) as err:
            parse(data.replace(good, bad, 1))
        assert (err.value.line, err.value.column) == (lineno, column)
        assert message in str(err.value)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random_draws(self, simba, seed):
        from mipsched.search import draw_schedule

        pf = factorize(LayerDims(3, 3, 28, 28, 8, 4, 3))
        sched = draw_schedule(pf, simba, seed, 0)
        assert parse(serialize(sched)) == sched


class TestEvaluate:
    def test_reference_costs(self, simba):
        rep = evaluate(reference_conv28_schedule(simba), simba)
        assert rep.compute_cycles == 7056
        w, ia, oa = rep.traffic
        assert (w.per_transfer_elems, w.link_multiplier, w.iterations) == (24, 12, 1)
        assert (ia.per_transfer_elems, ia.link_multiplier, ia.iterations) == (64, 1, 294)
        assert (oa.per_transfer_elems, oa.link_multiplier, oa.iterations) == (8, 4, 2)
        assert rep.traffic_bytes == 288 + 18816 + 64 * 3
        assert rep.latency_cycles == 7056

    def test_conservation(self, simba):
        sched = reference_conv28_schedule(simba)
        rep = evaluate(sched, simba)
        spatial = 1
        for loops in sched.levels:
            for loop in loops:
                if loop.spatial:
                    spatial *= loop.bound
        import math

        padded = math.prod(factorize(sched.layer).padded)
        assert rep.compute_cycles * spatial == padded

    def test_report_text_stable(self, simba):
        rep = evaluate(reference_conv28_schedule(simba), simba)
        text = rep.to_text(tuple(l.name for l in simba.levels))
        assert text == rep.to_text(tuple(l.name for l in simba.levels))
        assert "compute_cycles 7056" in text

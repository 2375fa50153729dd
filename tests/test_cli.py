import math
from pathlib import Path

import pytest

from mipsched.cli import (
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TIMEOUT,
    ConfigError,
    baseline_total_bytes,
    load_arch,
    load_layer,
    main,
    parse_sections,
)
from mipsched.schedule import parse as parse_schedule

TINY_LAYER = """\
[layer]
R=3
S=1
P=1
Q=1
C=1
K=4
N=3
Stride=1
"""

CONV28_LAYER = """\
[layer]
R=3
S=3
P=28
Q=28
C=8
K=4
N=3
"""

TOY_ARCH = """\
[arch]
name=toy
precision=1,1,3
bandwidth=8
[level]
name=Buf
capacity=64,64,64
fanout=4
noc=true
[level]
name=Mem
capacity=inf,inf,inf
fanout=1
"""


@pytest.fixture
def tiny_layer(tmp_path):
    p = tmp_path / "tiny.layer"
    p.write_text(TINY_LAYER)
    return str(p)


@pytest.fixture
def conv28_layer(tmp_path):
    p = tmp_path / "conv28.layer"
    p.write_text(CONV28_LAYER)
    return str(p)


@pytest.fixture
def toy_arch(tmp_path):
    p = tmp_path / "toy.arch"
    p.write_text(TOY_ARCH)
    return str(p)


class TestParsing:
    def test_layer_file(self, tiny_layer):
        dims = load_layer(tiny_layer)
        assert dims.as_tuple() == (3, 1, 1, 1, 1, 4, 3)
        assert dims.stride == 1

    def test_layer_missing_key(self, tmp_path):
        p = tmp_path / "bad.layer"
        p.write_text("[layer]\nR=3\n")
        with pytest.raises(ConfigError):
            load_layer(str(p))

    def test_arch_file(self, toy_arch):
        arch = load_arch(toy_arch)
        assert arch.name == "toy"
        assert arch.num_levels == 2
        assert arch.noc_level == 0
        assert math.isinf(arch.levels[1].capacity_bytes[0])

    def test_arch_matrix_override(self, tmp_path):
        text = TOY_ARCH + (
            "[matrix_b]\nBuf=1,1,0\nMem=1,1,1\n"
        )
        p = tmp_path / "o.arch"
        p.write_text(text)
        arch = load_arch(str(p))
        assert arch.B[0] == (1, 1, 0)

    def test_sections_report_line(self):
        with pytest.raises(ConfigError) as err:
            parse_sections("R=3\n", "x.cfg")
        assert "x.cfg:1" in str(err.value)


class TestSolveCommand:
    def test_solve_writes_schedule_and_report(self, tiny_layer, tmp_path, capsys):
        out = tmp_path / "tiny.sched"
        code = main(["solve", "--layer", tiny_layer, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "objective" in captured.out
        assert "spatial_for" in captured.out
        assert "latency_cycles" in captured.out
        sched = parse_schedule(out.read_bytes())
        assert sched.layer.as_tuple() == (3, 1, 1, 1, 1, 4, 3)

    def test_stdout_deterministic(self, tiny_layer, capsys):
        assert main(["solve", "--layer", tiny_layer]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["solve", "--layer", tiny_layer]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second

    def test_malformed_layer_exits_parse(self, tmp_path, capsys):
        p = tmp_path / "bad.layer"
        p.write_text("[layer]\nR=three\n")
        assert main(["solve", "--layer", str(p)]) == EXIT_PARSE

    def test_missing_file_exits_io(self, tiny_layer, tmp_path, capsys):
        assert main(["solve", "--layer", "/nonexistent/x.layer"]) == 5
        # a directory where a file is expected is unreadable too
        for argv in (
            ["solve", "--layer", str(tmp_path)],
            ["solve", "--layer", tiny_layer, "--arch", str(tmp_path)],
        ):
            assert main(argv) == 5
            assert "error: " in capsys.readouterr().err

    def test_bad_stride_names_file(self, tmp_path, capsys):
        p = tmp_path / "bad.layer"
        p.write_text(TINY_LAYER.replace("Stride=1", "Stride=x"))
        assert main(["solve", "--layer", str(p)]) == EXIT_PARSE
        assert f"error: {p}: Stride must be an integer" in capsys.readouterr().err

    def test_zero_budget_partition_infeasible(self, tiny_layer, capsys):
        code = main(["solve", "--layer", tiny_layer, "--budget", "0"])
        assert code == EXIT_INFEASIBLE

    def test_tiny_budget_partition_infeasible(self, tiny_layer, capsys):
        code = main(["partition", "--layer", tiny_layer, "--budget", "1"])
        assert code == EXIT_INFEASIBLE
        out, err = capsys.readouterr()
        assert out == ""
        assert "infeasible: budget" in err

    @pytest.mark.parametrize("command", ["solve", "partition"])
    def test_out_directory_exits_io(self, command, tiny_layer, tmp_path, capsys):
        argv = [command, "--layer", tiny_layer, "--out", str(tmp_path)]
        if command == "partition":
            from mipsched.arch import default_simba_arch

            argv += ["--budget", str(baseline_total_bytes(default_simba_arch()))]
        assert main(argv) == EXIT_IO
        assert f"error: cannot write {tmp_path}" in capsys.readouterr().err

    def test_invalid_schedule_exits_infeasible(self, tiny_layer, monkeypatch, capsys):
        import mipsched.cli
        from mipsched.schedule import ScheduleViolation

        bad = ScheduleViolation("spatial", "GlobalBuf", "fanout exceeded")
        monkeypatch.setattr(mipsched.cli, "validate", lambda *a, **kw: [bad])
        assert main(["solve", "--layer", tiny_layer]) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "error: solver produced an invalid schedule: spatial at GlobalBuf" in err


class TestEvaluateCommand:
    def test_round_trip_evaluate(self, tiny_layer, tmp_path, capsys):
        out = tmp_path / "tiny.sched"
        assert main(["solve", "--layer", tiny_layer, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["evaluate", "--schedule", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "compute_cycles" in text

    def test_corrupt_schedule_exits_parse(self, tmp_path, capsys):
        p = tmp_path / "bad.sched"
        p.write_text("schedule v1\nlayer oops\n")
        assert main(["evaluate", "--schedule", str(p)]) == EXIT_PARSE


class TestCompareCommand:
    def test_table_deterministic(self, tiny_layer, conv28_layer, capsys):
        args = [
            "compare",
            "--layer",
            tiny_layer,
            "--layer",
            conv28_layer,
            "--seed",
            "0",
            "--samples",
            "2000",
        ]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        header, *rows = [l for l in first.splitlines() if l]
        assert header.split() == [
            "layer",
            "solver_metric",
            "random_metric",
            "ratio",
            "draws",
            "valid",
        ]
        geo = [r for r in rows if r.startswith("geomean")]
        assert len(geo) == 1

    def test_ratio_non_negative(self, tiny_layer, capsys):
        assert main(["compare", "--layer", tiny_layer, "--seed", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        row = [l for l in out.splitlines() if l.startswith("tiny")][0]
        ratio = float(row.split()[3])
        assert ratio >= 0.0


class TestPartitionCommand:
    def test_partition_within_budget(self, conv28_layer, capsys):
        from mipsched.arch import default_simba_arch

        budget = baseline_total_bytes(default_simba_arch())
        code = main(["partition", "--layer", conv28_layer, "--budget", str(budget)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        total_line = [l for l in out.splitlines() if l.startswith("total_bytes")][0]
        total = int(total_line.split()[1])
        assert total <= budget
        part = float([l for l in out.splitlines() if l.startswith("partition_objective")][0].split()[1])
        base = float([l for l in out.splitlines() if l.startswith("baseline_objective")][0].split()[1])
        assert part <= base + 1e-9


class TestSweepCommand:
    def test_single_point_matches_solve(self, tiny_layer, capsys):
        assert main(["solve", "--layer", tiny_layer]) == EXIT_OK
        solve_out = capsys.readouterr().out
        objective = float(
            [l for l in solve_out.splitlines() if l.startswith("objective")][0].split()[1]
        )
        assert main(["sweep", "--layer", tiny_layer]) == EXIT_OK
        sweep_out = capsys.readouterr().out
        row = [l for l in sweep_out.splitlines() if l.startswith("1 1 1")][0]
        assert math.isclose(float(row.split()[3]), objective, rel_tol=1e-12)
        assert row.endswith("best")

    def test_traffic_weight_toggle(self, tiny_layer, capsys):
        code = main(["sweep", "--layer", tiny_layer, "--sweep-wt", "0,1"])
        assert code == EXIT_OK
        rows = [l for l in capsys.readouterr().out.splitlines() if l[:1].isdigit()]
        assert len(rows) == 2
        # the grid includes the defaults, so the best latency cannot exceed
        # the default triple's latency
        best = min(int(r.split()[4]) for r in rows)
        default_row = [r for r in rows if r.startswith("1 1 1")][0]
        assert best <= int(default_row.split()[4])


ENUM_SMALL_LAYER = "[layer]\nR=3\nS=1\nP=2\nQ=1\nC=2\nK=2\nN=1\nStride=1\n"

# helpers.toy_two_level(fanout=4, cap=16.0) as a file: the NoC boundary is
# level 0, so the loop order of every level moves the traffic
TOY2_ARCH = """\
[arch]
name=toy2
precision=1,1,3
bandwidth=8
[level]
name=Buf
capacity=16,16,16
fanout=4
noc=true
[level]
name=Mem
capacity=inf,inf,inf
fanout=1
"""

GOLDEN = Path(__file__).parent / "golden"


class TestEnumerateCommand:
    def test_enumerate_stdout_unchanged(self, tmp_path, capsys):
        """Count, best latency and first-best render of a small layer on
        the baseline target, byte for byte as recorded in the golden file
        (10,608 valid schedules out of 10,632 candidate loop orders)."""
        p = tmp_path / "small.layer"
        p.write_text(ENUM_SMALL_LAYER)
        code = main(["enumerate", "--limit", "2000000", "--layer", str(p)])
        assert code == EXIT_OK
        golden = (GOLDEN / "enumerate_small.txt").read_text()
        assert capsys.readouterr().out == golden

    @pytest.mark.parametrize("metric", ["traffic", "compute"])
    def test_enumerate_metric_stdout_unchanged(self, metric, tmp_path, capsys):
        """The same layer under the other metrics, byte for byte."""
        p = tmp_path / "small.layer"
        p.write_text(ENUM_SMALL_LAYER)
        code = main(
            ["enumerate", "--limit", "2000000", "--metric", metric, "--layer", str(p)]
        )
        assert code == EXIT_OK
        golden = (GOLDEN / f"enumerate_small_{metric}.txt").read_text()
        assert capsys.readouterr().out == golden

    def test_enumerate_toy2_stdout_unchanged(self, tmp_path, capsys):
        """Latency on a two-level target whose NoC boundary is the inner
        level, stride 2 (3,240 valid schedules), byte for byte."""
        arch = tmp_path / "toy2.arch"
        arch.write_text(TOY2_ARCH)
        p = tmp_path / "toy2.layer"
        p.write_text("[layer]\nR=3\nS=3\nP=2\nQ=2\nC=1\nK=2\nN=1\nStride=2\n")
        code = main(["enumerate", "--arch", str(arch), "--layer", str(p)])
        assert code == EXIT_OK
        golden = (GOLDEN / "enumerate_toy2_latency.txt").read_text()
        assert capsys.readouterr().out == golden

    def test_enumerate_limit_exits_limit_reached(self, tmp_path, capsys):
        """An assignment space above --limit is a limit reached, like a
        timeout: exit 4, the error on stderr, nothing on stdout."""
        p = tmp_path / "big.layer"
        p.write_text("[layer]\nR=3\nS=3\nP=28\nQ=28\nC=64\nK=64\nN=1\n")
        code = main(["enumerate", "--limit", "1000", "--layer", str(p)])
        assert code == EXIT_TIMEOUT == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: assignment space ")

    def test_enumerate_small(self, tmp_path, toy_arch, capsys):
        p = tmp_path / "small.layer"
        p.write_text("[layer]\nR=1\nS=1\nP=2\nQ=1\nC=3\nK=1\nN=1\n")
        code = main(["enumerate", "--layer", str(p), "--arch", toy_arch])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        count = int([l for l in out.splitlines() if l.startswith("valid_schedules")][0].split()[1])
        assert count > 0

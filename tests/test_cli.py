import hashlib
import json
import math
import re
import time
from pathlib import Path

import pytest

from mipsched.cli import (
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TIMEOUT,
    _ARCH_KEYS,
    _LAYER_KEYS,
    ConfigError,
    baseline_total_bytes,
    build_parser,
    config_from_args,
    load_arch,
    load_layer,
    main,
    parse_sections,
)
from helpers import reference_enumerate_all, tight_ia_arch
from mipsched.schedule import parse as parse_schedule
from mipsched.search import SearchConfig, random_search
from mipsched.workload import factorize

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
# the built-in dimension-to-tensor rows, as an arch file's [matrix_a]
MATRIX_A = "[matrix_a]\nR=1,0,0\nS=1,0,0\nP=0,1,1\nQ=0,1,1\nC=1,1,0\nK=1,0,1\nN=0,1,1\n"


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


# a GlobalBuf with room for two input elements: the halo window of a
# stride-2 layer decides validity
TIGHT_IA_ARCH = """\
[arch]
name=tightia
precision=1,1,3
bandwidth=8
[level]
name=Register
capacity=64,64,64
fanout=4
[level]
name=GlobalBuf
capacity=64,2,64
fanout=4
noc=true
[level]
name=DRAM
capacity=inf,inf,inf
fanout=1
"""
TIGHT_IA_LAYER = "[layer]\nR=3\nS=1\nP=4\nQ=1\nC=2\nK=2\nN=1\nStride=2\n"


@pytest.fixture
def tight_ia(tmp_path):
    """Paths of the tight-input arch and its R3 P4 C2 K2 stride-2 layer."""
    arch = tmp_path / "tightia.arch"
    arch.write_text(TIGHT_IA_ARCH)
    layer = tmp_path / "r3p4.layer"
    layer.write_text(TIGHT_IA_LAYER)
    assert load_arch(str(arch)) == tight_ia_arch()
    return str(arch), str(layer)


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

    @pytest.mark.parametrize("buf, mem", [("1", "0"), ("TRUE", "False"), ("Yes", "NO")])
    def test_noc_flag_spellings(self, buf, mem, tmp_path):
        """`noc` takes 1/true/yes and 0/false/no in any case."""
        p = tmp_path / "flags.arch"
        p.write_text(TOY_ARCH.replace("noc=true", f"noc={buf}") + f"noc={mem}\n")
        assert [lvl.is_noc_boundary for lvl in load_arch(str(p)).levels] == [True, False]

    @pytest.mark.parametrize("text, line, value", [
        (TOY_ARCH + "noc=ture\n", 10, "ture"),
        (TOY_ARCH + "noc=on\n", 10, "on"),
        (TOY_ARCH.replace("noc=true", "noc=yes please"), 5, "yes please"),
    ], ids=["ture", "on", "yes-please"])
    def test_bad_noc_flag_exits_parse(self, text, line, value, tiny_layer, tmp_path,
                                      capsys):
        """Any other `noc` value is an error that names the file, the
        level's line and the value: read as false, a misspelled flag on a
        second level solved an arch the file does not describe, and on the
        only NoC level it was reported as a missing NoC boundary."""
        p = tmp_path / "bad.arch"
        p.write_text(text)
        assert main(["solve", "--layer", tiny_layer, "--arch", str(p)]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {p}:{line}: bad [level] section: "
                       f"noc must be 1/true/yes or 0/false/no, got {value!r}\n")

    def test_sections_report_line(self):
        with pytest.raises(ConfigError) as err:
            parse_sections("R=3\n", "x.cfg", _LAYER_KEYS)
        assert "x.cfg:1" in str(err.value)

    @pytest.mark.parametrize(
        "body, message",
        [("R=3\nS=3\nR=5\n", "x.layer:4: key R repeats line 2"),
         ("Stride=2\nstride=1\n", "x.layer:3: key stride repeats line 2")],
        ids=["same-key", "other-case"],
    )
    def test_repeated_key_is_an_error(self, body, message):
        """A key given twice in one section names its line and the first
        one's, whatever the case of either; the same key in another
        section is no repeat."""
        with pytest.raises(ConfigError) as err:
            parse_sections("[layer]\n" + body, "x.layer", _LAYER_KEYS)
        assert str(err.value) == message
        sections = parse_sections("[level]\nname=a\n[level]\nname=b\n", "x.arch",
                                  _ARCH_KEYS)
        assert [body for _name, body, _line in sections] == [{"name": "a"}, {"name": "b"}]

    def test_repeated_layer_section_is_an_error(self, tmp_path):
        """A layer file holds one [layer]: a second one, which used to
        replace the first, names its line and the first one's."""
        p = tmp_path / "two.layer"
        p.write_text(TINY_LAYER + TINY_LAYER.replace("K=4", "K=2"))
        with pytest.raises(ConfigError) as err:
            load_layer(str(p))
        assert str(err.value) == f"{p}:10: [layer] repeats line 1"

    @pytest.mark.parametrize("extra, message", [
        ("[arch]\nbandwidth=16\n", ":14: [arch] repeats line 1"),
        ("[matrix_a]\nR=1,0,1\n[matrix_a]\nS=1,0,1\n", ":16: [matrix_a] repeats line 14"),
        ("[matrix_b]\nBuf=1,1,0\n[MATRIX_B]\nMem=1,1,1\n", ":16: [matrix_b] repeats line 14"),
    ], ids=["arch", "matrix_a", "matrix_b"])
    def test_repeated_arch_section_is_an_error(self, extra, message, tmp_path):
        """An arch file holds at most one [arch], [matrix_a] and
        [matrix_b], in any case; a second one no longer replaces the keys
        it names.  [level] repeats, one section per level."""
        p = tmp_path / "twice.arch"
        p.write_text(TOY_ARCH + extra)
        with pytest.raises(ConfigError) as err:
            load_arch(str(p))
        assert str(err.value) == f"{p}{message}"
        p.write_text(TOY_ARCH + "[level]\nname=Far\ncapacity=inf,inf,inf\n")
        assert load_arch(str(p)).num_levels == 3

    def test_repeated_layer_section_exits_parse(self, tmp_path, capsys):
        p = tmp_path / "two.layer"
        p.write_text(TINY_LAYER + TINY_LAYER.replace("K=4", "K=2"))
        assert main(["solve", "--layer", str(p)]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {p}:10: [layer] repeats line 1\n"

    def test_repeated_layer_key_exits_parse(self, tmp_path, capsys):
        p = tmp_path / "twice.layer"
        p.write_text(TINY_LAYER.replace("Stride=1", "Stride=1\nstride=2"))
        assert main(["solve", "--layer", str(p)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"error: {p}:" in err and "key stride repeats line" in err

    def test_keys_match_in_any_case(self, tight_ia, tmp_path, capsys):
        """Layer and arch keys match in any case: `STRIDE=2` solves the
        stride-2 layer, stdout for stdout, and an arch file whose keys are
        capitalized is the same arch."""
        p = tmp_path / "upper.layer"
        p.write_text("[layer]\nR=3\nS=3\nP=14\nQ=14\nC=32\nK=64\nN=1\nSTRIDE=2\n")
        assert main(["solve", "--layer", str(p)]) == EXIT_OK
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
        assert digest == expected["stride2/3x3-14-c32-k64"]["sha256"]
        arch, _layer = tight_ia
        upper = tmp_path / "upper.arch"
        upper.write_text(re.sub(r"^(\w+)=", lambda m: m[1].capitalize() + "=", TIGHT_IA_ARCH,
                                flags=re.M))
        assert "Fanout=4" in upper.read_text()
        assert load_arch(str(upper)) == load_arch(arch)

    @pytest.mark.parametrize("suffix, text, message", [
        (".layer", TINY_LAYER.replace("Stride=1", "Strde=2"), ":9: unknown key Strde in [layer]"),
        (".arch", TOY_ARCH.replace("fanout=4", "fanuot=16"), ":8: unknown key fanuot in [level]"),
        (".arch", TOY_ARCH.replace("[level]\nname=Mem", "[levle]\nname=Mem"),
         ":10: unknown section [levle]"),
    ], ids=["layer-key", "level-key", "section"])
    def test_unknown_key_or_section_exits_parse(self, suffix, text, message, tiny_layer,
                                                tmp_path, capsys):
        """A key or section outside a file's documented set, which used to
        be read as absent (a misspelled stride solved as stride 1, a
        misspelled fanout as fanout 1), is an error at its line."""
        p = tmp_path / f"typo{suffix}"
        p.write_text(text)
        argv = ["solve", "--layer", str(p)] if suffix == ".layer" else [
            "solve", "--layer", tiny_layer, "--arch", str(p)]
        assert main(argv) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {p}{message}\n"

    @pytest.mark.parametrize("rows, extra, message", [
        ("[matrix_b]\nBuf=1,1,1\nMem=1,1,1\n", "Bfu=0,0,0\n", ": [matrix_b] unknown row Bfu"),
        (MATRIX_A, "X=1,1,1\n", ": [matrix_a] unknown row X"),
        (MATRIX_A, "r=1,1,1\n", ":22: key r repeats line 15"),
    ], ids=["level-row", "dim-row", "lowercase-dim-row"])
    def test_unknown_matrix_row_exits_parse(self, rows, extra, message, tiny_layer,
                                            tmp_path, capsys):
        """A matrix row that names no level or no dimension, which used to
        be dropped without a word, is an error naming file, section and
        row; the matrix without it solves."""
        p = tmp_path / "rows.arch"
        p.write_text(TOY_ARCH + rows)
        assert main(["solve", "--layer", tiny_layer, "--arch", str(p)]) == EXIT_OK
        capsys.readouterr()
        p.write_text(TOY_ARCH + rows + extra)
        assert main(["solve", "--layer", tiny_layer, "--arch", str(p)]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {p}{message}\n"


def test_second_main_call_still_needs_its_layer(tiny_layer, capsys):
    """`main` builds its parser once per process, and one call's --layer
    does not carry over: a second call without it is still an error."""
    assert main(["solve", "--layer", tiny_layer]) == EXIT_OK
    capsys.readouterr()
    assert main(["solve"]) == EXIT_PARSE
    assert capsys.readouterr().err == "error: --layer is required\n"


def help_options(command: str, capsys) -> list[str]:
    """The options `mipsched <command> -h` lists, in order."""
    with pytest.raises(SystemExit):
        main([command, "-h"])
    text = capsys.readouterr().out
    return re.findall(r"^  (-[-\w]+)", text.split("\noptions:\n", 1)[1], re.M)


def test_every_command_lists_the_same_options(capsys):
    """Every command's `-h` lists the same options, in the same order."""
    listed = {command: help_options(command, capsys)
              for command in ("solve", "evaluate", "compare", "partition", "sweep",
                              "enumerate")}
    assert listed["solve"][:4] == ["-h", "--arch", "--layer", "--schedule"]
    assert len(listed["solve"]) == 18
    assert all(options == listed["solve"] for options in listed.values()), listed


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

    def test_timeout_reports_bound_and_gap(self, conv28_layer, capsys):
        """A solve stopped by --time-limit exits 4 with nothing on stdout,
        and its status line on stderr gives the best open bound and the
        gap to the incumbent: conv28 under the comp objective holds an
        incumbent within half a second but does not prove it."""
        code = main(["solve", "--layer", conv28_layer, "--weights", "0,1,0",
                     "--time-limit", "0.5"])
        assert code == EXIT_TIMEOUT
        out, err = capsys.readouterr()
        assert out == ""
        line = err.splitlines()[0]
        m = re.fullmatch(r"status timeout bound (\S+) gap (\S+)", line)
        assert m, line
        bound, gap = float(m[1]), float(m[2])
        assert math.isfinite(bound) and 0.0 <= gap < math.inf

    def test_stats_sum_the_halo_rounds(self, tmp_path, capsys):
        """The stderr statistics of a solve that needs a second halo round
        are the totals of both rounds: 290 + 456 nodes, 30 + 25 leaves;
        stdout is the benchmark's recorded output for this layer."""
        p = tmp_path / "s2.layer"
        p.write_text("[layer]\nR=3\nS=3\nP=14\nQ=14\nC=32\nK=64\nN=1\nStride=2\n")
        assert main(["solve", "--layer", str(p)]) == EXIT_OK
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert lines[0] == "status optimal"
        assert re.fullmatch(r"nodes 746 leaves 55 wall \d+\.\d{3}s rounds 2",
                            lines[1]), lines[1]
        expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == expected["stride2/3x3-14-c32-k64"]["sha256"]

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

    @pytest.mark.parametrize(
        "good, bad, message",
        [("bandwidth=8", "bandwidth=fast", "bandwidth must be a number"),
         ("precision=1,1,3", "precision=1,x,3",
          "expected three comma-separated integers: 1,x,3"),
         ("fanout=1\n", "fanout=1\n[matrix_b]\nBuf=2,1,1\nMem=1,1,1\n",
          "[matrix_b] bad row (2, 1, 1); entries must be 0/1 triples")],
        ids=["bandwidth", "precision", "matrix-row"],
    )
    def test_bad_arch_value_names_file(self, tiny_layer, tmp_path, capsys,
                                        good, bad, message):
        p = tmp_path / "bad.arch"
        p.write_text(TOY_ARCH.replace(good, bad))
        assert main(["solve", "--layer", tiny_layer, "--arch", str(p)]) == EXIT_PARSE
        assert f"error: {p}: {message}" in capsys.readouterr().err

    def test_repeated_level_name_exits_parse(self, tmp_path, capsys):
        """The baseline arch as a file, with level 3 named like level 1:
        level names key the [matrix_b] rows and the schedule files, so
        the file is rejected before the stride-2 layer is solved."""
        levels = [("Register", "64,64,64", "fanout=64\n"), ("AccumBuf", "0,0,3072", ""),
                  ("WeightBuf", "32768,0,0", ""), ("AccumBuf", "0,8192,0", ""),
                  ("GlobalBuf", "131072,131072,0", "fanout=16\nnoc=true\n"),
                  ("DRAM", "inf,inf,inf", "")]
        arch = tmp_path / "twin.arch"
        arch.write_text("[arch]\nname=twin\n" + "".join(
            f"[level]\nname={name}\ncapacity={caps}\n{extra}" for name, caps, extra in levels))
        layer = tmp_path / "s2.layer"
        layer.write_text("[layer]\nR=3\nS=3\nP=28\nQ=28\nC=64\nK=64\nN=1\nStride=2\n")
        code = main(["solve", "--arch", str(arch), "--layer", str(layer)])
        assert code == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: level-name at AccumBuf: level 3 repeats an earlier name\n"

    def test_zero_budget_partition_infeasible(self, tiny_layer, capsys):
        code = main(["solve", "--layer", tiny_layer, "--budget", "1"])
        assert code == EXIT_INFEASIBLE
        assert "infeasible: budget" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["solve", "--budget", "-5"],
                                      ["partition", "--budget", "-5"],
                                      ["partition", "--budget", "0"],
                                      ["partition"],
                                      ["solve", "--budget", "0"]])
    def test_bad_budget_is_a_usage_error(self, argv, tiny_layer, capsys):
        """A budget below one byte, or partition without a budget, is an
        argument error for every command; a positive budget that nothing
        fits is an infeasible partition (above)."""
        code = main([*argv, "--layer", tiny_layer])
        assert code == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "--budget" in err

    @pytest.mark.parametrize("command", ["solve", "partition", "sweep", "enumerate"])
    def test_second_layer_is_a_usage_error(self, command, tiny_layer, capsys):
        """Every command but compare reads one layer: a second --layer is a
        usage error that names the flag, before any layer is read."""
        code = main([command, "--budget", "1000", "--layer", tiny_layer,
                     "--layer", "missing.layer"])
        assert code == EXIT_PARSE == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: --layer given 2 times; {command} takes one "
                       "(compare takes many)\n")

    @pytest.mark.parametrize("layers", [["missing.layer"], ["a.layer", "b.layer"]])
    def test_evaluate_with_a_layer_is_a_usage_error(self, layers, tmp_path, capsys):
        """evaluate reads its schedule only: any --layer is a usage error
        that names the flag, before any file is opened."""
        argv = ["evaluate", "--schedule", str(tmp_path / "missing.sched")]
        for layer in layers:
            argv += ["--layer", str(tmp_path / layer)]
        assert main(argv) == EXIT_PARSE == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --layer given; evaluate reads no layer (it takes --schedule)\n"

    @pytest.mark.parametrize("args, message", [
        (["--time-limit", "0"], "--time-limit must be positive, got 0"),
        (["--time-limit", "-1"], "--time-limit must be positive, got -1"),
        (["--time-limit", "nan"], "--time-limit must be positive, got nan"),
        (["--max-prime", "1"], "--max-prime must be 0 (off) or >= 2, got 1"),
        (["--max-prime", "-3"], "--max-prime must be 0 (off) or >= 2, got -3"),
        (["--valid-target", "0"], "--valid-target must be >= 1, got 0"),
        (["--samples", "0"], "--samples must be >= --valid-target (5), got 0"),
        (["--samples", "4", "--valid-target", "8"],
         "--samples must be >= --valid-target (8), got 4"),
    ])
    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_out_of_range_value_names_its_flag(self, command, args, message,
                                               tiny_layer, capsys):
        """A value out of its flag's range is a usage error that names the
        flag and the value given, before any layer is read."""
        code = main([command, *args, "--layer", tiny_layer])
        assert code == EXIT_PARSE == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    def test_tiny_budget_partition_infeasible(self, tiny_layer, capsys):
        code = main(["partition", "--layer", tiny_layer, "--budget", "1"])
        assert code == EXIT_INFEASIBLE
        out, err = capsys.readouterr()
        assert out == ""
        assert "infeasible: budget" in err

    @pytest.mark.parametrize("command", ["solve", "partition"])
    def test_factorless_layer_over_budget_infeasible(self, command, tmp_path, capsys):
        """An all-ones layer has no factors, so its root is a leaf that no
        child's menu check priced: the leaf itself must reject the budget."""
        p = tmp_path / "ones.layer"
        p.write_text(TINY_LAYER.replace("R=3", "R=1").replace("K=4", "K=1").replace("N=3", "N=1"))
        assert main([command, "--layer", str(p), "--budget", "1"]) == EXIT_INFEASIBLE
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
        from mipsched.arch import Violation

        bad = Violation("spatial", "GlobalBuf", "fanout exceeded")
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


    def test_time_limit_bounds_the_random_search(self, tiny_layer, capsys):
        """--time-limit bounds the random baseline too: it stops drawing at
        the command's deadline, its row reads `timeout` with the draws made
        and found valid so far, and the command exits 4."""
        t0 = time.perf_counter()
        code = main(["compare", "--layer", tiny_layer, "--time-limit", "0.5",
                     "--samples", "100000000", "--valid-target", "100000000"])
        elapsed = time.perf_counter() - t0
        assert code == EXIT_TIMEOUT
        header, row = capsys.readouterr().out.splitlines()
        name, solver_metric, status, ratio, draws, valid = row.split()
        assert (name, status, ratio) == ("tiny", "timeout", "-")
        assert int(solver_metric) > 0 and 0 < int(valid) <= int(draws) < 100_000_000
        assert elapsed < 2.5

    def test_compare_no_halo_random_baseline(self, tight_ia, capsys):
        """compare --no-halo validates the random baseline's draws without
        the halo too: its columns are those of a halo-free random search,
        which differ from the halo search's here."""
        arch, layer = tight_ia
        code = main(["compare", "--no-halo", "--seed", "0", "--arch", arch, "--layer", layer])
        assert code == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1].split()
        pf = factorize(load_layer(layer))
        cfg = SearchConfig(seed=0)
        columns = {}
        for halo in (False, True):
            _s, report, stats = random_search(pf, load_arch(arch), cfg, halo=halo)
            columns[halo] = [str(report.latency_cycles), str(stats.draws), str(stats.valid)]
        assert [row[2], *row[4:]] == columns[False] != columns[True]


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


    def test_partition_reports_both_solves(self, conv28_layer, capsys):
        """Each of partition's two solves prints its status and search
        statistics on stderr, labelled baseline and partition, in the
        format of `solve`; stdout is the benchmark's recorded output for
        this layer and budget, byte for byte."""
        code = main(["partition", "--layer", conv28_layer, "--budget", "306367"])
        assert code == EXIT_OK
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert lines[0] == "baseline status optimal"
        assert re.fullmatch(r"baseline nodes 484 leaves 25 wall \d+\.\d{3}s rounds 1",
                            lines[1]), lines[1]
        assert lines[2] == "partition status optimal"
        assert re.fullmatch(r"partition nodes 103 leaves 11 wall \d+\.\d{3}s rounds 1",
                            lines[3]), lines[3]
        assert len(lines) == 4
        expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == expected["partition/conv28"]["sha256"]

    def test_time_limit_bounds_the_command(self, conv28_layer, monkeypatch):
        """`--time-limit` is one deadline for both of partition's solves:
        each gets the time left, and a pipeline that starts past the
        deadline times out without solving."""
        import mipsched.cli
        from mipsched.arch import default_simba_arch
        from mipsched.workload import factorize

        real = mipsched.cli.solve
        limits = []

        def recording(model, opts):
            limits.append(opts.time_limit_s)
            return real(model, opts)

        monkeypatch.setattr(mipsched.cli, "solve", recording)
        argv = ["partition", "--layer", conv28_layer, "--budget", "306367",
                "--time-limit", "60"]
        assert main(argv) == EXIT_OK
        assert len(limits) == 2 and all(0 < t <= 60 for t in limits), limits
        assert limits[1] < limits[0], limits

        pf = factorize(load_layer(conv28_layer))
        result = mipsched.cli.solve_layer(pf, default_simba_arch(),
                                          deadline=time.perf_counter() - 1.0)
        assert result.solution.status == "timeout" and result.rounds == 1
        assert len(limits) == 2  # no solve ran


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

    def test_each_point_reported_on_stderr(self, tiny_layer, capsys):
        """Each grid point's status and search line go to stderr as its
        solve ends, prefixed with its weights; stdout keeps only the
        table."""
        code = main(["sweep", "--layer", tiny_layer, "--sweep-wt", "0,1"])
        assert code == EXIT_OK
        out, err = capsys.readouterr()
        assert [line.split(" ", 2)[:2] for line in err.splitlines()] == [
            ["1,1,0", "status"], ["1,1,0", "nodes"],
            ["1,1,1", "status"], ["1,1,1", "nodes"]]
        assert "status" not in out and "nodes" not in out

    def test_negative_zero_weight_is_zero(self, tiny_layer, capsys):
        """`-0` in a grid or in --weights is the weight 0: a sweep prints
        the table `0` gives, where it used to print `-0`, and the parsed
        weight carries no sign."""
        tables = []
        for grid in ("-0,1", "0,1"):
            code = main(["sweep", "--layer", tiny_layer, f"--sweep-wt={grid}"])
            assert code == EXIT_OK
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1] and "\n1 1 0 " in tables[0]
        args = build_parser().parse_args(["solve", "--weights=1,1,-0"])
        assert math.copysign(1.0, config_from_args(args).weights.w_t) == 1.0

    def test_duplicate_grid_value_marks_one_best(self, tiny_layer, capsys):
        """Two grid points with the same weights tie on latency; only the
        first is marked best."""
        code = main(["sweep", "--layer", tiny_layer, "--sweep-wt", "1,1"])
        assert code == EXIT_OK
        rows = [l for l in capsys.readouterr().out.splitlines() if l[:1].isdigit()]
        assert len(rows) == 2 and rows[0].split()[:5] == rows[1].split()[:5]
        assert [r.endswith(" best") for r in rows] == [True, False]

    @pytest.mark.parametrize("grid", [("--sweep-wt", "1,nan"),
                                      ("--sweep-wt", "1,inf"),
                                      ("--sweep-wu", "1,-2")])
    def test_bad_grid_value_prints_nothing(self, grid, tiny_layer, capsys):
        """Every grid point's weights are checked before the header, so a
        bad value leaves stdout empty; it is an argument error."""
        code = main(["sweep", "--layer", tiny_layer, *grid])
        assert code == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: objective weights must be finite and non-negative")


# single-term objectives, the other two weights at 0, with the stdout
# sha256, nodes, leaves and halo rounds that `--obj util|comp|traffic`
# gave before the weights became the only spelling
DEEP512_LAYER = "[layer]\nR=3\nS=3\nP=7\nQ=7\nC=512\nK=512\nN=1\n"
STRIDE2_LAYER = "[layer]\nR=3\nS=3\nP=14\nQ=14\nC=32\nK=64\nN=1\nStride=2\n"
SINGLE_TERM_SOLVES = {
    "tiny-util": (TINY_LAYER, "1,0,0", 32, 13, 1,
                  "3c41211cf26c4cc7db57e14046d23857c125c41cb8a05708e137b868bdc5ce6d"),
    "tiny-comp": (TINY_LAYER, "0,1,0", 29, 11, 1,
                  "a74961c639e9263d4e6ba1f6abcb082dffda9b91deb307fbf625bcf59d7d5910"),
    "tiny-traffic": (TINY_LAYER, "0,0,1", 165, 48, 1,
                     "1a1ca2ca5f83e4301ed3be0eed423723f3662679e3f570427152089706c3d3d2"),
    "deep512-util": (DEEP512_LAYER, "1,0,0", 6_359, 951, 1,
                     "fb1bf4c275ba6a05d863abf9c3dd26f7e008bfa71c06a0392b8020eed28924a8"),
    "stride2-3x3-14-util": (STRIDE2_LAYER, "1,0,0", 1_362, 292, 2,
                            "aedbcddbd2d6b50c825feb2e27529e5841b7d5038c90c8fe5ebdd19a52be36a8"),
}


class TestObjectiveWeights:
    @pytest.mark.parametrize("name", SINGLE_TERM_SOLVES)
    def test_single_term_solves_pinned(self, name, tmp_path, capsys):
        """A single-term objective is the other weights at 0: each solves
        to the recorded stdout, byte for byte, with the recorded search."""
        layer, weights, nodes, leaves, rounds, digest = SINGLE_TERM_SOLVES[name]
        p = tmp_path / "layer.layer"
        p.write_text(layer)
        assert main(["solve", "--layer", str(p), "--weights", weights]) == EXIT_OK
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert lines[0] == "status optimal"
        assert re.fullmatch(rf"nodes {nodes} leaves {leaves} wall \d+\.\d{{3}}s rounds {rounds}",
                            lines[1]), lines[1]
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, flag, value", [
        (["solve", "--weights", "a,1,1"], "--weights", "'a,1,1'"),
        (["sweep", "--sweep-wt", ""], "--sweep-wt", "''"),
        (["sweep", "--sweep-wu", "1,,2"], "--sweep-wu", "'1,,2'"),
    ])
    def test_unparsable_number_names_its_flag(self, argv, flag, value,
                                              tiny_layer, capsys):
        """A value that is not a comma-separated list of numbers is an
        argument error that names the flag and the value given."""
        code = main([*argv, "--layer", tiny_layer])
        assert code == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {flag} needs comma-separated numbers, got {value}\n"

    @pytest.mark.parametrize("weights", ["1,1,nan", "nan,1,1", "1,inf,1", "-1,1,1"])
    def test_bad_weight_rejected(self, weights, tiny_layer, capsys):
        """A NaN or infinite weight is refused like a negative one, as an
        argument error: with NaN the search could prune nothing and reported
        `objective nan`."""
        code = main(["solve", "--layer", tiny_layer, f"--weights={weights}"])
        assert code == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: objective weights must be finite")

    def test_all_zero_weights_rejected(self, tiny_layer, capsys):
        """Weights that are all zero tie every schedule at 0 and used to
        run out the whole time limit; they are an argument error, and for
        `sweep` before the header is printed, at any point of the grid."""
        for argv in (["solve", "--weights=0,0,0"],
                     ["sweep", "--sweep-wu=1,0", "--sweep-wc=0", "--sweep-wt=0"]):
            code = main([*argv, "--layer", tiny_layer, "--time-limit", "5"])
            assert code == EXIT_PARSE
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: objective needs a positive w_u, w_c or w_t\n"

    @pytest.mark.parametrize("obj, weights", [
        ("util", "0,1,1"), ("comp", "1,0,1"), ("traffic", "1,1,0"),
    ])
    def test_zero_weight_mode_rejected(self, obj, weights, tiny_layer, capsys):
        """What a single-term mode with a zero weight built (`--obj util
        --weights 0,1,1` kept w_u alone) is the all-zero objective: an
        argument error for `solve` and for `sweep`, before the header.  The
        same weights given alone are a combined objective and solve."""
        term = ("util", "comp", "traffic").index(obj)
        kept = ",".join(w if i == term else "0" for i, w in enumerate(weights.split(",")))
        assert kept == "0,0,0"
        for argv in (["solve", f"--weights={kept}"],
                     ["sweep", *(f"--sweep-{w}={v}" for w, v
                                 in zip(("wu", "wc", "wt"), kept.split(",")))]):
            code = main([*argv, "--layer", tiny_layer, "--time-limit", "5"])
            assert code == EXIT_PARSE
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: objective needs a positive w_u, w_c or w_t\n"
        assert main(["solve", "--layer", tiny_layer, f"--weights={weights}",
                     "--time-limit", "5"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err.splitlines()[0] == "status optimal"

    def test_balance_mode_rejected(self, tiny_layer, capsys):
        """`--obj` is gone, with every mode it named: the weights are the
        whole objective (`--obj util` is `--weights 1,0,0`), and argparse
        rejects the option with exit 2 and nothing on stdout."""
        for obj in ("balance", "util", "combined"):
            with pytest.raises(SystemExit) as exc:
                main(["solve", "--layer", tiny_layer, "--obj", obj])
            assert exc.value.code == EXIT_PARSE
            out, err = capsys.readouterr()
            assert out == ""
            assert "unrecognized arguments: --obj" in err

    def test_overflowing_weights_rejected(self, tiny_layer, capsys):
        """Weights whose objective overflows (an infinite coefficient, or
        -inf + inf in one) are refused before the solve, with nothing on
        stdout, a sweep's header included: they used to report `bound nan
        gap nan` once the time limit ran out.  Large weights that stay
        finite still solve."""
        for argv in (["solve", "--weights=1e308,1e308,1e308"],
                     ["sweep", "--sweep-wt=1,1e308", "--sweep-wu=1e308"]):
            code = main([*argv, "--layer", tiny_layer, "--time-limit", "10"])
            assert code == EXIT_PARSE
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: objective weights")
        assert main(["solve", "--layer", tiny_layer, "--weights=1e300,1,1"]) == EXIT_OK
        assert capsys.readouterr().err.startswith("status optimal")


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
ROOT = Path(__file__).parent.parent


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

    @pytest.mark.parametrize("metric", ["traffic", "compute"])
    def test_enumerate_toy2_metric_stdout_unchanged(self, metric, tmp_path, capsys):
        """The same toy2 layer under the other metrics, byte for byte."""
        arch = tmp_path / "toy2.arch"
        arch.write_text(TOY2_ARCH)
        p = tmp_path / "toy2.layer"
        p.write_text("[layer]\nR=3\nS=3\nP=2\nQ=2\nC=1\nK=2\nN=1\nStride=2\n")
        code = main(["enumerate", "--arch", str(arch), "--layer", str(p), "--metric", metric])
        assert code == EXIT_OK
        golden = (GOLDEN / f"enumerate_toy2_{metric}.txt").read_text()
        assert capsys.readouterr().out == golden

    def test_enumerate_benchmark_layer_stdout_unchanged(self, tmp_path, capsys):
        """The benchmark's enumerate layer (75,492 valid schedules), byte
        for byte; the golden file is the stdout whose sha256 the benchmark
        checks."""
        p = tmp_path / "bench.layer"
        p.write_text("[layer]\nR=3\nS=1\nP=2\nQ=1\nC=4\nK=2\nN=1\nStride=1\n")
        code = main(["enumerate", "--limit", str(10**12), "--layer", str(p)])
        assert code == EXIT_OK
        golden = (GOLDEN / "enumerate_r3s1p2.txt").read_text()
        assert capsys.readouterr().out == golden
        expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
        digest = hashlib.sha256(golden.encode()).hexdigest()
        assert digest == expected["enumerate/r3s1p2"]["sha256"]

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

    def test_time_limit_bounds_the_enumeration(self, tmp_path, capsys):
        """An enumeration still running at the --time-limit deadline stops
        there: exit 4, the error on stderr, nothing on stdout, as past
        --limit.  This layer's full run counts 10,468,080 schedules in
        several seconds."""
        p = tmp_path / "e.layer"
        p.write_text("[layer]\nR=3\nS=1\nP=2\nQ=2\nC=4\nK=4\nN=1\n")
        t0 = time.perf_counter()
        code = main(["enumerate", "--limit", str(10**13), "--time-limit", "0.5",
                     "--layer", str(p)])
        elapsed = time.perf_counter() - t0
        assert code == EXIT_TIMEOUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: enumeration reached its deadline\n"
        assert elapsed < 2.5

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_limit_below_one_is_a_usage_error(self, limit, tmp_path, capsys):
        """A --limit below 1 is a bad argument, not a limit reached."""
        p = tmp_path / "small.layer"
        p.write_text(ENUM_SMALL_LAYER)
        code = main(["enumerate", "--limit", limit, "--layer", str(p)])
        assert code == EXIT_PARSE == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --limit must be >= 1\n"

    def test_enumerate_halo_default_unchanged(self, tight_ia, capsys):
        """Where the input halo decides validity, the default output is
        byte for byte as recorded (3,212 valid schedules)."""
        arch, layer = tight_ia
        code = main(["enumerate", "--limit", str(10**8), "--arch", arch, "--layer", layer])
        assert code == EXIT_OK
        golden = (GOLDEN / "enumerate_tightia.txt").read_text()
        assert capsys.readouterr().out == golden

    def test_enumerate_no_halo_counts_plain_tiles(self, tight_ia, capsys):
        """--no-halo counts the schedules that validate with plain input
        tiles, every loop order checked by the reference validator."""
        arch, layer = tight_ia
        code = main(
            ["enumerate", "--no-halo", "--limit", str(10**8), "--arch", arch, "--layer", layer]
        )
        assert code == EXIT_OK
        pf = factorize(load_layer(layer))
        plain = sum(
            1 for _ in reference_enumerate_all(pf, load_arch(arch), limit=10**8, halo=False)
        )
        assert plain != 3212
        assert capsys.readouterr().out.splitlines()[0] == f"valid_schedules {plain}"

    def test_enumerate_small(self, tmp_path, toy_arch, capsys):
        p = tmp_path / "small.layer"
        p.write_text("[layer]\nR=1\nS=1\nP=2\nQ=1\nC=3\nK=1\nN=1\n")
        code = main(["enumerate", "--layer", str(p), "--arch", toy_arch])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        count = int([l for l in out.splitlines() if l.startswith("valid_schedules")][0].split()[1])
        assert count > 0

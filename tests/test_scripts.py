"""The experiment scripts under scripts/ still import and parse options."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(script, *args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("script", ["run_suite.py", "partition_study.py", "spread_experiment.py"])
def test_script_help_exits_zero(script):
    proc = run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout.lower()


def test_partition_study_exits_4_on_a_timeout():
    """A solve stopped by the time limit is not a result: the study names
    it and exits 4 (`EXIT_TIMEOUT`), as `mipsched` does."""
    proc = run_script("partition_study.py", "--time-limit", "1e-6")
    assert proc.returncode == 4, (proc.stdout, proc.stderr)
    assert "partition solve timeout" in proc.stdout


def test_run_suite_exits_4_on_a_timeout():
    """The suite, like the study, names a solve stopped by the time limit
    and exits 4 (`EXIT_TIMEOUT`)."""
    proc = run_script("run_suite.py", "--time-limit", "1e-6")
    assert proc.returncode == 4, (proc.stdout, proc.stderr)
    assert "tiny - timeout" in proc.stdout


@pytest.mark.parametrize("script, args, message", [
    ("run_suite.py", ["--time-limit", "0"], "--time-limit must be positive, got 0"),
    ("partition_study.py", ["--time-limit", "0"], "--time-limit must be positive, got 0"),
    ("partition_study.py", ["--budget", "0"], "--budget must be >= 1"),
    ("partition_study.py", ["--budget", "-1"], "--budget must be >= 1"),
    ("spread_experiment.py", ["--valid", "0"], "--valid must be >= 1"),
    ("spread_experiment.py", ["--max-draws", "0"], "--max-draws must be >= 1"),
    ("spread_experiment.py", ["--bins", "0"], "--bins must be >= 1"),
])
def test_out_of_range_option_is_an_argument_error(script, args, message):
    """An option out of its range exits 2 with argparse's usage error and
    nothing on stdout, before any solve or draw: these used to end in a
    traceback, and `partition_study.py --budget 0` in a study at the
    baseline budget."""
    proc = run_script(script, *args)
    assert proc.returncode == 2, (proc.stdout, proc.stderr)
    assert proc.stdout == ""
    assert f"error: {message}" in proc.stderr


def test_spread_experiment_exits_3_with_no_valid_draw():
    """Seed 0's first draw exceeds a spatial fanout; with no valid schedule to
    report the experiment says so and exits 3 (`EXIT_INFEASIBLE`)."""
    proc = run_script("spread_experiment.py", "--seed", "0", "--max-draws", "1")
    assert proc.returncode == 3, (proc.stdout, proc.stderr)
    assert proc.stdout == "no valid schedule in 1 draws\n"

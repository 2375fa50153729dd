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

"""Smoke test for the scripts the README documents: each runs to exit 0, and
a refused argument exits 2 with the message on stderr only."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/run_checks.py"],
        ["scripts/bmz_sweep.py", "--max-weight", "3"],
        ["scripts/oracle_convergence.py", "--cutoffs", "100", "500"],
    ],
    ids=lambda argv: Path(argv[0]).stem,
)
def test_script_exits_zero(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout


def _refusal(script, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, script, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


# a refused argument is reported as the CLI reports it, before any suite is printed
@pytest.mark.parametrize("script", ["scripts/run_checks.py", "scripts/bmz_sweep.py"])
def test_negative_max_weight_refused(script):
    proc = _refusal(script, "--max-weight", "-1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: max weight must be nonnegative, got -1\n")


@pytest.mark.parametrize("script", ["scripts/run_checks.py", "scripts/bmz_sweep.py", "scripts/oracle_convergence.py"])
def test_tolerance_below_precision_refused(script):
    proc = _refusal(script, "--tol", "1e-13")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: tolerance below supported precision (min 1e-12)\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["x1(x0)"], "expected y-decorations, found x0"),
        (["y2", "y2(y1)"], "leaf decorated y1 makes the nested sum divergent (needs index >= 2)"),
        (["y2(y3"], "expected ')', found end of input (at position 5)"),
        (["--cutoffs", "100", "10"], "tail bound derivation assumes N >= 50"),
    ],
    ids=["x-tree", "divergent", "parse-error", "small-cutoff"],
)
def test_oracle_convergence_refusals(argv, message):
    # every tree and cutoff is checked before the first line is printed
    proc = _refusal("scripts/oracle_convergence.py", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")

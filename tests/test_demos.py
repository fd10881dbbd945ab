"""Every narrative demo runs to completion and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# The exact stdout of each demo, and of the gcd trace below, as recorded
# from the implementation.  A change that means to alter one re-records it:
#   PYTHONPATH=src python demos/05_rewriting_gcd.py > tests/golden/05_rewriting_gcd.out
GOLDEN = ROOT / "tests" / "golden"
GCD_TRACE = ["src/evocat/stdlib.evo", "--entry", "gcd", "--arg", "arg1=12", "--arg", "arg2=8"]


def test_all_demos_found():
    assert DEMOS, "no demos found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert proc.stdout.encode() == (GOLDEN / f"{demo.stem}.out").read_bytes()


def test_gcd_trace_bytes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "evocat.cli", "trace", *GCD_TRACE],
        cwd=ROOT, env=env, capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "gcd_trace.out").read_bytes()

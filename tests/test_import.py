"""What ``import evocat`` loads: every process pays for it before its first
transition, so the package keeps heavy standard modules off that path."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# ``dataclasses`` pulls in ``inspect``, ``ast`` and ``dis``; ``load_stdlib``
# is the one user of ``importlib.resources``
UNLOADED = ("dataclasses", "inspect", "ast", "dis", "importlib.resources")

PROBE = f"""
import sys
import evocat
print(" ".join(name for name in {UNLOADED!r} if name in sys.modules))
stdlib = evocat.load_stdlib()
print(" ".join(label for label in ("gcd", "fact", "div", "Date", "deriv", "heap") if stdlib.child(label) is not None))
"""


def test_import_loads_no_heavy_module_and_the_stdlib_still_loads():
    # -S skips the site hooks, which may preload any of these modules
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-S", "-c", PROBE], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    loaded, labels = done.stdout.split("\n")[:2]
    assert loaded == ""
    assert labels == "gcd fact div Date deriv heap"

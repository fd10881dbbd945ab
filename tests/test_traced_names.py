"""Every function the benchmark's tracer wraps still exists.

``perfbench/tracing.py`` names its targets as ``(module, attr)`` pairs and
rebinds them by those names; a rename or deletion in ``evocat`` would
otherwise surface only when the traced benchmark runs.  The tracer is
loaded from its file and not changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def targets():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
        spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_every_traced_target_resolves(targets):
    assert targets
    for module, attr in targets:
        owner = importlib.import_module(f"evocat.{module}")
        if "." in attr:  # Class.method: the tracer wraps the class's own entry
            cls_name, meth = attr.split(".")
            owner = getattr(owner, cls_name, None)
            assert isinstance(owner, type), f"{module}.{cls_name}"
            assert callable(owner.__dict__.get(meth)), f"{module}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module}.{attr}"

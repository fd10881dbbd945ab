import os
import random
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True, scope="session")
def checkout_on_subprocess_path():
    """pytest's `pythonpath` setting reaches this process only; the CLI
    tests start `python -m evocat.cli`, which must import this checkout."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xEC0C)

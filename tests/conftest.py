import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# Every property test runs the same examples on every run, however slow.
settings.register_profile("wreathkit", deadline=None, derandomize=True)
settings.load_profile("wreathkit")

sys.path.insert(0, str(Path(__file__).parent))

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def children_import_this_checkout():
    """The few tests that start an interpreter (`test_layout.PROCESS_TESTS`)
    let it import the package from this checkout, as the test process does."""
    paths = [SRC, os.environ.get("PYTHONPATH")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
        yield

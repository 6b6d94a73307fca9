import os
from pathlib import Path

import numpy as np
import pytest

from cbfcert.cli import BLAS_THREAD_VARIABLES

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def fresh_env():
    """Environment for a fresh interpreter that imports the package from this
    tree, with none of the BLAS thread variables (importing ``cbfcert.cli``
    in this process has set them)."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env

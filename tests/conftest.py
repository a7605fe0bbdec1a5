import time

import numpy as np
import pytest

from csanet.autodiff import precision
from csanet.verification import run_scope


@pytest.fixture
def f64():
    """Run a test in 64-bit mode (oracle and gradient comparisons)."""
    with precision("float64"):
        yield


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(12345))


@pytest.fixture(scope="session")
def model_mini_check():
    """The model-mini gradient check, run once per session: (report, seconds).

    It takes most of a minute; test_gradients and acceptance criterion 01
    share it, and criterion 01 counts its seconds against its own bound.
    """
    start = time.time()
    report = run_scope("model-mini")
    return report, time.time() - start

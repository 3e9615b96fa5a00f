import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# The CLI tests run ``python -m orderunit`` in child processes, which import
# the package from the same source tree as this process.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

import orderunit as ou

HS2_ROWS = [[1.0, 0.0], [1.0, 1.0]]
HS4_ROWS = [
    [1.0, 0.0, 0.0, 0.0],
    [1.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0, 1.0],
    [1.0, 0.0, 0.0, 1.0],
]


@pytest.fixture(scope="session")
def orth2():
    return ou.orthant(2)


@pytest.fixture(scope="session")
def orth3():
    return ou.orthant(3)


@pytest.fixture(scope="session")
def orth4():
    return ou.orthant(4)


@pytest.fixture(scope="session")
def hs2():
    return ou.halfspace_space(HS2_ROWS, [1.0, 1.0])


@pytest.fixture(scope="session")
def hs4():
    return ou.halfspace_space(HS4_ROWS, [1.0, 1.0, 1.0, 1.0])


@pytest.fixture(scope="session")
def cap2():
    # v({0}) = 0.3, v({1}) = 0.6, v(full) = 1
    return ou.capacity_from_dict(2, {1: 0.3, 2: 0.6, 3: 1.0})


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from setfield import SetSystem, generate


@pytest.fixture
def K2():
    return generate([[1, 2]])


@pytest.fixture
def K3():
    return generate([[1, 2, 3]])


@pytest.fixture
def linear10():
    return generate([[1, 2], [2, 3], [3, 4], [5, 6]])


@pytest.fixture
def nonclosed_pair():
    """The two-element set system that is not a simplicial complex."""
    return SetSystem([[1, 3, 4], [4]])


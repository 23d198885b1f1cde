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


@pytest.fixture
def tracked_wheels(monkeypatch):
    """A list that grows by the wheel of each spectral.track_wheel call,
    which wheel_permutations makes only for a wheel that falls back."""
    from setfield import spectral

    tracked = []
    track = spectral.track_wheel

    def counting(system, h, wheel, *args, **kwargs):
        tracked.append(wheel)
        return track(system, h, wheel, *args, **kwargs)

    monkeypatch.setattr(spectral, "track_wheel", counting)
    return tracked

import pytest

import fedprune.lanes


@pytest.fixture
def use_lanes(monkeypatch):
    """use_lanes(n): lane-parallel code runs on n lanes, however small its work."""

    def use(n):
        monkeypatch.setattr(fedprune.lanes, "LANES", n)
        monkeypatch.setattr(fedprune.lanes, "MIN_WORK", 0)

    return use

"""Fixtures shared by the test modules."""

import pytest

from swiptsim import experiments


@pytest.fixture
def design_calls(monkeypatch) -> list:
    """The argument tuples of every predistorter design that a pass makes
    during the test."""
    calls = []
    real = experiments.design_from_scratch

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "design_from_scratch", counting)
    return calls

import numpy as np
import pytest

from qatlab import quantizer


def pytest_collection_modifyitems(items):
    """Mark every test that uses the ten-seed ``trend_runs`` fixture as
    slow, so ``pytest -m "not slow"`` skips the fixture's long runs."""
    for item in items:
        if "trend_runs" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def rounding_calls(monkeypatch):
    """The shapes of the arrays passed to quantizer.round_half_away, one
    entry per call, from the start of the test on."""
    calls = []
    original = quantizer.round_half_away

    def counting(z, out=None):
        calls.append(np.shape(z))
        return original(z, out=out)

    monkeypatch.setattr(quantizer, "round_half_away", counting)
    return calls

import pytest


def pytest_collection_modifyitems(items):
    """Mark every test that uses the ten-seed ``trend_runs`` fixture as
    slow, so ``pytest -m "not slow"`` skips the fixture's long runs."""
    for item in items:
        if "trend_runs" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)

import pytest

from cmstruct import search as search_module


class _InProcessPool:
    """Stands in for ``search._Pool``: records ``processes`` and runs
    the tasks here, one at a time as the caller reads the results."""

    def __init__(self, requested, processes):
        requested.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, iterable):
        return map(fn, iterable)


@pytest.fixture
def in_process_pool(monkeypatch):
    """Run parallel searches in this process; returns the pool sizes asked for."""
    requested: list[int] = []
    monkeypatch.setattr(
        search_module, "_Pool",
        lambda processes: _InProcessPool(requested, processes),
    )
    return requested

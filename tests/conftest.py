"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture(autouse=True)
def one_worker_unless_set(monkeypatch):
    """Start every test with ``MIRRORMATCH_WORKERS`` unset, whatever the shell exports."""
    monkeypatch.delenv("MIRRORMATCH_WORKERS", raising=False)


@pytest.fixture
def set_workers(monkeypatch):
    """A function that sets ``MIRRORMATCH_WORKERS`` to a count for the rest of the test."""
    return lambda count: monkeypatch.setenv("MIRRORMATCH_WORKERS", str(count))

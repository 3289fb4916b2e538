"""Fixtures shared by several test modules."""

from __future__ import annotations

from pathlib import Path

import pytest

from agentmesh import identity

HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    """Every test under this directory turns warnings into errors, so an
    unclosed socket, an object left to the collector or a deprecation fails
    the test that caused it."""
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


@pytest.fixture
def cryptography_backend(monkeypatch):
    """Run a test on the `cryptography` Ed25519 backend, whatever the module
    chose at import."""
    monkeypatch.setattr(identity, "_backend", identity._Cryptography())

"""Fixtures shared by several test modules."""

from __future__ import annotations

import pytest

from agentmesh import identity


@pytest.fixture
def cryptography_backend(monkeypatch):
    """Run a test on the `cryptography` Ed25519 backend, whatever the module
    chose at import. The key cache holds the backend's handles, so it is
    emptied on the way in and out."""
    monkeypatch.setattr(identity, "_backend", identity._Cryptography())
    identity._public_key.cache_clear()
    yield
    identity._public_key.cache_clear()

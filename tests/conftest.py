"""Shared fixtures."""

import pytest

from surfenc import decoder


@pytest.fixture(autouse=True)
def _cold_decoders():
    """Every test starts with no shared decoder state, whatever ran before it."""
    decoder._shared_state.cache_clear()

"""Fixtures shared by the test modules."""

import pytest

from msc3 import spectral


@pytest.fixture
def helper_at_any_order(monkeypatch):
    """top_eigen hands stacks of any matrix order to its helper thread.

    It does so only from spectral._HELPER_MIN_N on, where the helper pays;
    this lowers that to 1, so that tests on small matrices still run the
    helper wherever the process rule starts one.
    """
    monkeypatch.setattr(spectral, "_HELPER_MIN_N", 1)

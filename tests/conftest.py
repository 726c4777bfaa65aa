"""Shared test fixtures."""

from collections import Counter

import pytest

import levysketch.level as level_module


@pytest.fixture
def solver_calls(monkeypatch) -> Counter:
    """Counts, under "n", the root solves the level module starts."""
    calls = Counter()
    original = level_module.solve_monotone_increasing

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(level_module, "solve_monotone_increasing", counting)
    return calls

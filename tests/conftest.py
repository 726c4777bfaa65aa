"""Shared test fixtures."""

from collections import Counter

import pytest

import levysketch.level as level_module


@pytest.fixture
def full_evals(monkeypatch) -> Counter:
    """Counts, under "n", the full level evaluations the level module
    starts: root solves and direct gammaincinv inversions."""
    calls = Counter()

    def counting(original):
        def counted(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)
        return counted

    for name in ("solve_monotone_increasing", "gammaincinv"):
        monkeypatch.setattr(level_module, name, counting(getattr(level_module, name)))
    return calls

"""Verification helpers below the suites: frontier-size statistics."""

import pytest

from levysketch.randomness import parse_seed
from levysketch.verify import FrontierStats, frontier_size_stats

SEED = parse_seed("0af1")


def test_frontier_stats_n1():
    stats = frontier_size_stats(1, 50, SEED)
    assert stats.mean == 1.0
    assert stats.max_size == 1
    assert isinstance(stats, FrontierStats)


def test_frontier_stats_h4():
    stats = frontier_size_stats(4, 20_000, SEED)
    assert abs(stats.mean - 25 / 12) <= 3 * stats.stderr


def test_frontier_stats_validation():
    with pytest.raises(ValueError):
        frontier_size_stats(0, 10, SEED)
    with pytest.raises(ValueError):
        frontier_size_stats(5, 0, SEED)

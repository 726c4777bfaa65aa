"""Ground-truth distributions and the goodness-of-fit machinery itself."""

import math

import numpy as np
import pytest

from levysketch.level import F0, F1, FHalf, Log, SoftCap
from levysketch.oracle import (
    ExactDistribution,
    UndersampledError,
    chi_square_gof,
    edge_weight,
    exact_distribution,
    exact_edge_distribution,
    exact_wor_distribution,
    ks_test_exponential,
)
from levysketch.randomness import parse_seed

SEED = parse_seed("0af1")


def test_exact_distribution_basics():
    d = exact_distribution({7: 1.0}, Log())
    assert d.support == (7,) and d.probs == (1.0,)
    d = exact_distribution({1: 1.0, 2: 4.0}, FHalf())
    assert d.prob_of(1) == pytest.approx(1 / 3)
    assert d.prob_of(2) == pytest.approx(2 / 3)
    d = exact_distribution({1: 1.0, 2: 1.0}, SoftCap(0.7))
    assert d.probs == (0.5, 0.5)


def test_exact_distribution_errors():
    with pytest.raises(ValueError):
        exact_distribution({}, F1())
    with pytest.raises(ValueError):
        exact_distribution({1: 0.0}, F1())


def test_exact_distribution_homogeneity():
    x = {1: 1.0, 2: 3.0, 3: 0.5}
    for g in (F1(), FHalf()):
        base = exact_distribution(x, g)
        scaled = exact_distribution({k: 7.3 * v for k, v in x.items()}, g)
        for p, q in zip(base.probs, scaled.probs):
            assert p == pytest.approx(q, rel=1e-12)
    # presence weight: uniform over present keys regardless of masses
    d = exact_distribution(x, F0())
    assert all(p == pytest.approx(1 / 3) for p in d.probs)


def test_exact_distribution_validation():
    with pytest.raises(ValueError):
        ExactDistribution((1, 2), (0.7, 0.7))
    with pytest.raises(ValueError):
        ExactDistribution((1,), (-1.0,))


def test_wor_k1_matches_plain():
    x = {1: 1.0, 2: 2.0, 3: 5.0}
    d = exact_distribution(x, FHalf())
    w = exact_wor_distribution(x, FHalf(), 1)
    for key, p in zip(d.support, d.probs):
        assert w[(key,)] == pytest.approx(p, rel=1e-12)


def test_wor_hand_computed():
    w = exact_wor_distribution({"a": 1.0, "b": 2.0}, F1(), 2)
    assert w[("a", "b")] == pytest.approx(1 / 3)
    assert w[("b", "a")] == pytest.approx(2 / 3)


def test_wor_symmetric_uniform():
    w = exact_wor_distribution({1: 2.0, 2: 2.0, 3: 2.0}, Log(), 3)
    assert len(w) == 6
    for p in w.values():
        assert p == pytest.approx(1 / 6, rel=1e-12)


def test_wor_marginal_consistency():
    x = {1: 1.0, 2: 2.0, 3: 4.0, 4: 0.5}
    d = exact_distribution(x, Log())
    w = exact_wor_distribution(x, Log(), 3)
    for key, p in zip(d.support, d.probs):
        marginal = sum(q for tup, q in w.items() if tup[0] == key)
        assert marginal == pytest.approx(p, rel=1e-10)


@pytest.mark.parametrize("small", [1e-17, 1e-15])
def test_wor_keeps_small_weights(small):
    # the weight left after the heavy key is summed afresh, not as
    # total - heavy: that difference was 0 at 1e-17 (ZeroDivisionError), and
    # at 1e-15 it gave (1, 2, 3) 0.5012 and a law summing to 1.0024
    w = exact_wor_distribution({1: 1.0, 2: small, 3: small}, F1(), 3)
    assert w[(1, 2, 3)] == w[(1, 3, 2)] == pytest.approx(0.5, rel=1e-14)
    assert w[(2, 1, 3)] == w[(3, 1, 2)] == pytest.approx(small, rel=1e-14)
    assert w[(2, 3, 1)] == pytest.approx(small * small, rel=1e-14)
    assert math.fsum(w.values()) == pytest.approx(1.0, abs=1e-15)


def test_wor_caps():
    x = {i: 1.0 for i in range(9)}
    with pytest.raises(ValueError):
        exact_wor_distribution(x, F1(), 2)  # support too large
    with pytest.raises(ValueError):
        exact_wor_distribution({1: 1.0, 2: 1.0}, F1(), 3)  # k > support
    with pytest.raises(ValueError):
        exact_wor_distribution({i: 1.0 for i in range(6)}, F1(), 5)  # k cap


def test_exact_edge_distribution():
    d = exact_edge_distribution([(1, 2)], {1: 1.0, 2: 2.0})
    assert d.probs == (1.0,)
    d = exact_edge_distribution([(1, 2), (2, 3)], {1: 2.0, 2: 1.0, 3: 2.0})
    assert d.probs[0] == pytest.approx(0.5)
    # triangle ratios from independent inline arithmetic
    masses = {1: 1.0, 2: 2.0, 3: 3.0}
    d = exact_edge_distribution([(1, 2), (2, 3), (1, 3)], masses)
    raw = {
        (1, 2): math.log(1 + 1 + math.sqrt(2)) + 2 * (1 - math.exp(-3.0)),
        (1, 3): math.log(1 + 1 + math.sqrt(3)) + 2 * (1 - math.exp(-4.0)),
        (2, 3): math.log(1 + math.sqrt(2) + math.sqrt(3)) + 2 * (1 - math.exp(-5.0)),
    }
    total = sum(raw.values())
    for edge, p in zip(d.support, d.probs):
        assert p == pytest.approx(raw[edge] / total, rel=1e-12)
    # missing vertices count as zero mass
    d = exact_edge_distribution([(1, 2)], {1: 1.0})
    assert d.probs == (1.0,)
    assert edge_weight(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        exact_edge_distribution([], {1: 1.0})
    with pytest.raises(ValueError):
        exact_edge_distribution([(1, 2)], {})


def test_chi_square_exact_counts_pass():
    expected = ExactDistribution((1, 2, 3), (0.5, 0.25, 0.25))
    report = chi_square_gof({1: 500, 2: 250, 3: 250}, expected)
    assert report.statistic == 0.0
    assert report.passed
    assert report.degrees_of_freedom == 2


def test_chi_square_power():
    # a 0.1 perturbation on one cell must be detected at 1e5 samples
    rng = np.random.default_rng(0)
    expected = ExactDistribution((1, 2), (0.5, 0.5))
    counts = rng.multinomial(100_000, [0.6, 0.4])
    report = chi_square_gof({1: int(counts[0]), 2: int(counts[1])}, expected)
    assert not report.passed


def test_chi_square_calibration():
    # under the null, at least 95 of 100 experiments pass at the 1% level
    rng = np.random.default_rng(1)
    expected = ExactDistribution((1, 2, 3, 4), (0.4, 0.3, 0.2, 0.1))
    passes = 0
    for _ in range(100):
        draw = rng.multinomial(10_000, expected.probs)
        counts = {k: int(c) for k, c in zip(expected.support, draw)}
        passes += chi_square_gof(counts, expected).passed
    assert passes >= 95


def test_chi_square_preconditions():
    expected = ExactDistribution((1, 2), (0.5, 0.5))
    with pytest.raises(UndersampledError):
        chi_square_gof({1: 30, 2: 30}, expected)  # below 50 per cell
    tiny = ExactDistribution((1, 2), (0.9999, 0.0001))
    with pytest.raises(UndersampledError):
        chi_square_gof({1: 1000}, tiny)  # expected cell below 5


def test_chi_square_stray_key_fails():
    expected = ExactDistribution((1, 2), (0.5, 0.5))
    report = chi_square_gof({1: 50, 2: 49, 99: 1}, expected)
    assert not report.passed
    assert math.isinf(report.statistic)


def test_ks_calibration():
    rng = np.random.default_rng(2)
    passes = 0
    for _ in range(100):
        samples = rng.exponential(1 / 2.5, size=10_000)
        passes += ks_test_exponential(samples.tolist(), 2.5).passed
    assert passes >= 95


def test_ks_power():
    rng = np.random.default_rng(3)
    samples = rng.exponential(1.0, size=10_000)  # rate 1, tested against 2
    assert not ks_test_exponential(samples.tolist(), 2.0).passed


def test_ks_preconditions_and_finiteness():
    with pytest.raises(UndersampledError):
        ks_test_exponential([1.0] * 999, 1.0)
    with pytest.raises(ValueError):
        ks_test_exponential([1.0] * 1000, 0.0)
    # degenerate sample far in the lower tail: statistic stays finite
    report = ks_test_exponential([1e-12] * 1000, 1.0)
    assert math.isfinite(report.statistic)


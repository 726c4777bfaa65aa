"""Ground truth and statistical verification.

Everything the test suites compare against lives here: exact target
distributions computed in closed form from the weight functions (never
through the samplers being tested), the ordered without-replacement law,
the closed-form edge weight `edge_weight` that the edge-sampling circuit
targets, and the two goodness-of-fit tests the library relies on (Pearson
chi-square and one-sample Kolmogorov-Smirnov against an exponential).  The
ground truth imports no sketch code: only `level`, for the weight values,
and `numerics`, for the chi-square quantile.

Thresholds are one-sided critical values; a report passes iff its statistic
is at or below its threshold.  Suites running many tests at once should
Bonferroni-split their significance across tests (pass alpha = level / m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Mapping, Sequence

from .level import WeightFunction, weight_value
from .numerics import gammaincinv

__all__ = [
    "ExactDistribution",
    "GofReport",
    "UndersampledError",
    "exact_distribution",
    "exact_wor_distribution",
    "edge_weight",
    "exact_edge_distribution",
    "chi_square_gof",
    "ks_test_exponential",
]

_WOR_MAX_SUPPORT = 8
_WOR_MAX_K = 4


class UndersampledError(ValueError):
    """Too few samples for the test's validity preconditions."""


@dataclass(frozen=True)
class ExactDistribution:
    """A finite probability distribution over identifiers."""

    support: tuple
    probs: tuple

    def __post_init__(self) -> None:
        if len(self.support) != len(self.probs):
            raise ValueError("support and probs must have equal length")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be non-negative")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def prob_of(self, ident) -> float:
        try:
            return self.probs[self.support.index(ident)]
        except ValueError:
            return 0.0


@dataclass(frozen=True)
class GofReport:
    """Outcome of one goodness-of-fit test at a fixed significance level."""

    statistic: float
    threshold: float
    degrees_of_freedom: int
    passed: bool
    sample_count: int

    def as_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "threshold": self.threshold,
            "dof": self.degrees_of_freedom,
            "pass": self.passed,
            "samples": self.sample_count,
        }


def exact_distribution(x: Mapping, g: WeightFunction) -> ExactDistribution:
    """The target law: key v with probability G(x(v)) / sum_u G(x(u))."""
    if not x:
        raise ValueError("mass vector is empty")
    for key, mass in x.items():
        if not (mass > 0):
            raise ValueError(f"mass of {key!r} must be positive, got {mass}")
    support = tuple(sorted(x))
    weights = [weight_value(g, x[key]) for key in support]
    total = math.fsum(weights)
    if total <= 0:
        raise ValueError("all keys have zero weight")
    return ExactDistribution(support, tuple(w / total for w in weights))


def exact_wor_distribution(x: Mapping, g: WeightFunction, k: int) -> dict:
    """The ordered without-replacement law over k-tuples of distinct keys:
    each successive key is drawn proportionally to its weight among the
    remaining keys (the sequential-ratio product)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(x):
        raise ValueError(f"k={k} exceeds support size {len(x)}")
    if len(x) > _WOR_MAX_SUPPORT or k > _WOR_MAX_K:
        raise ValueError(
            f"enumeration capped at support <= {_WOR_MAX_SUPPORT}, k <= {_WOR_MAX_K}")
    support = sorted(x)
    weights = {key: weight_value(g, x[key]) for key in support}
    out = {}
    for tup in permutations(support, k):
        p = 1.0
        for i, key in enumerate(tup):
            # the weight left, summed afresh: a running difference cancels
            p *= weights[key] / math.fsum(weights[u] for u in support if u not in tup[:i])
        out[tup] = p
    assert abs(math.fsum(out.values()) - 1.0) <= 1e-12
    return out


def edge_weight(*masses: float) -> float:
    """Closed-form edge weight log(1 + sum sqrt(x)) + 2(1 - exp(-sum x))."""
    return (math.log1p(sum(math.sqrt(m) for m in masses))
            - 2.0 * math.expm1(-sum(masses)))


def exact_edge_distribution(edges: Iterable[tuple], x: Mapping) -> ExactDistribution:
    """Edge sampled with probability proportional to edge_weight of its
    endpoint masses (missing vertices count as mass zero)."""
    support = sorted(tuple(sorted(e)) for e in edges)
    if not support:
        raise ValueError("empty edge set")
    weights = [edge_weight(*(float(x.get(v, 0.0)) for v in e)) for e in support]
    total = math.fsum(weights)
    if total <= 0:
        raise ValueError("every edge has zero weight")
    return ExactDistribution(tuple(support), tuple(w / total for w in weights))


def _chi_square_critical(alpha: float, dof: int) -> float:
    # the (1 - alpha)-quantile, by the formula scipy.stats.chi2.ppf evaluates
    return 2.0 * gammaincinv(dof / 2, 1.0 - alpha)


def chi_square_gof(counts: Mapping, expected: ExactDistribution,
                   alpha: float = 0.01) -> GofReport:
    """Pearson chi-square of observed counts against an exact distribution.

    Counts on identifiers outside the support make the statistic infinite
    (they are impossible under the expected law), failing the report rather
    than raising.
    """
    n = sum(counts.values())
    if n < 50 * len(expected.support):
        raise UndersampledError(
            f"need >= {50 * len(expected.support)} samples, got {n}")
    min_cell = n * min(expected.probs)
    if min_cell < 5:
        raise UndersampledError(
            f"smallest expected cell is {min_cell:.2f}, below 5")
    support = set(expected.support)
    stray = sum(c for ident, c in counts.items() if ident not in support)
    dof = len(expected.support) - 1
    threshold = _chi_square_critical(alpha, dof)
    if stray > 0:
        return GofReport(math.inf, threshold, dof, False, n)
    stat = sum((counts.get(ident, 0) - n * p) ** 2 / (n * p)
               for ident, p in zip(expected.support, expected.probs))
    return GofReport(stat, threshold, dof, stat <= threshold, n)


def _ks_critical(alpha: float, n: int) -> float:
    # asymptotic one-sample critical value c(alpha)/sqrt(n)
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


def ks_test_exponential(samples: Sequence[float], rate: float,
                        alpha: float = 0.01) -> GofReport:
    """One-sample Kolmogorov-Smirnov test against Exp(rate)."""
    if not (rate > 0):
        raise ValueError(f"rate must be positive, got {rate}")
    n = len(samples)
    if n < 1000:
        raise UndersampledError(f"need >= 1000 samples, got {n}")
    xs = sorted(samples)
    d = 0.0
    for i, x in enumerate(xs):
        cdf = -math.expm1(-rate * x)
        d = max(d, (i + 1) / n - cdf, cdf - i / n)
    threshold = _ks_critical(alpha, n)
    return GofReport(d, threshold, 0, d <= threshold, n)

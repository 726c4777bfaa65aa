"""Statistical verification suites.

Each suite runs a set of named checks against the library's distributional
contracts and exact-replay guarantees, at the sample sizes the project
treats as its acceptance bar.  The CLI's ``verify`` command and the
acceptance test module both run these same functions, so there is exactly
one definition of "passing".

Families of simultaneous significance tests split their level across the
family (Bonferroni), keeping each suite's false-failure rate at roughly the
nominal level rather than compounding per test.  All sampling is driven by
seeds derived from one master seed, so a suite run is deterministic and a
reported pass replays exactly.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from .circuits import Circuit, EdgeSamplerSpec, build_edge_sampler, build_flat_circuit
from .level import (
    CATALOGUE,
    F0,
    F1,
    FHalf,
    KilledDriftSum,
    LevelFunction,
    eval_fhalf,
    eval_log,
    eval_softcap,
    weight_grammar,
    weight_value,
)
from .numerics import erf, poisson_tail, regularized_gamma_q
from .oracle import (
    ExactDistribution,
    chi_square_gof,
    edge_weight,
    exact_distribution,
    exact_edge_distribution,
    exact_wor_distribution,
    ks_test_exponential,
)
from .randomness import FreshSource, OracleHash, derive_seed, fresh_exp
from .samplers import GSampler, KParetoSampler, ParetoSampler, WorSampler, replay

__all__ = ["VerifyParams", "FULL_PARAMS", "QUICK_PARAMS", "CheckResult",
           "FrontierStats", "frontier_size_stats", "SUITES", "run_suite",
           "suite_names"]

SIGNIFICANCE = 0.01  # each suite's family-wise level, Bonferroni-split across its tests
CALIBRATION_DRAWS = 1_000  # draws per calibration rep, at both sample-size settings
_LAMBDAS = (0.25, 1.0, 4.0)
_SUMS = (KilledDriftSum(c=1.0, g0=1.0), KilledDriftSum(c=1.0, g0=1.0, atoms=((2.0, 0.5),)))
_STREAMS = {
    "1-2-3-4": {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0},
    "1-1-10": {1: 1.0, 2: 1.0, 3: 10.0},
}


@dataclass(frozen=True)
class VerifyParams:
    """Sample sizes for the suites; the defaults are the acceptance bar."""

    transform_draws: int = 100_000
    calibration_reps: int = 100
    residual_points: int = 10_000
    sampler_reps: int = 100_000
    universality_streams: int = 10_000
    merge_splits: int = 1_000
    wor_reps: int = 100_000
    edge_reps: int = 100_000
    hyperedge_reps: int = 20_000
    flat_equivalence_streams: int = 500
    hetero_reps: int = 20_000
    frontier_trials: tuple = ((4, 100_000), (64, 10_000), (1024, 1_000))
    long_stream_seeds: int = 100
    long_stream_keys: int = 10_000
    long_stream_mass: float = 1e6


FULL_PARAMS = VerifyParams()

# For exercising the plumbing (CLI tests, fault injection); far below the
# acceptance bar and not a substitute for it.
QUICK_PARAMS = VerifyParams(
    transform_draws=2_000,
    calibration_reps=10,
    residual_points=200,
    sampler_reps=2_000,
    universality_streams=50,
    merge_splits=30,
    wor_reps=2_000,
    edge_reps=1_500,
    hyperedge_reps=1_500,
    flat_equivalence_streams=20,
    hetero_reps=1_500,
    frontier_trials=((4, 2_000), (64, 500)),
    long_stream_seeds=3,
    long_stream_keys=500,
    long_stream_mass=1e4,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    statistic: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        text = (f"{verdict} {self.name} statistic={self.statistic:.6g} "
                f"threshold={self.threshold:.6g}")
        if self.detail:
            text += f" ({self.detail})"
        return text

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "detail": self.detail,
        }


def _harmonic(n: int) -> float:
    return math.fsum(1.0 / i for i in range(1, n + 1))


def _transform_samples(level: LevelFunction, lam: float, seed: bytes,
                       n: int) -> list[float]:
    """n draws of l_G(Y, U) with Y ~ Exp(lam), U ~ Uniform(0, 1)."""
    fs = FreshSource(seed)
    return [level.eval(fresh_exp(fs) / lam, fs.next_uniform()) for _ in range(n)]


def _transform_combos() -> list[tuple]:
    # each catalogue weight at each lambda, the sums at lam = 3 (G(3) = 4 without the atom)
    return [(g, lam) for g in CATALOGUE for lam in _LAMBDAS] + [(g, 3.0) for g in _SUMS]


def check_level_transformation(seed: bytes, params: VerifyParams) -> list[CheckResult]:
    """Draws of l_G(Y, U) must be Exp(G(lambda)) for every catalogue weight."""
    combos = _transform_combos()
    alpha = SIGNIFICANCE / len(combos)
    results = []
    for i, (g, lam) in enumerate(combos):
        samples = _transform_samples(LevelFunction(g), lam,
                                     derive_seed(seed, i), params.transform_draws)
        report = ks_test_exponential(samples, weight_value(g, lam), alpha)
        results.append(CheckResult(
            f"level/transform/{weight_grammar(g)}/lam={lam:g}",
            report.passed, report.statistic, report.threshold))
    return results


def check_level_calibration(seed: bytes, params: VerifyParams) -> list[CheckResult]:
    """Repeated runs of the transformation suite (at reduced draw counts)
    must pass at least 95% of the time; the KS level does not depend on the
    sample size, so this calibrates the suite's false-failure rate."""
    combos = _transform_combos()
    alpha = SIGNIFICANCE / len(combos)
    passes = 0
    for r in range(params.calibration_reps):
        rep_seed = derive_seed(seed, 10_000 + r)
        ok = True
        for i, (g, lam) in enumerate(combos):
            samples = _transform_samples(LevelFunction(g), lam, derive_seed(rep_seed, i),
                                         CALIBRATION_DRAWS)
            if not ks_test_exponential(samples, weight_value(g, lam), alpha).passed:
                ok = False
                break
        passes += ok
    need = math.ceil(0.95 * params.calibration_reps)
    return [CheckResult("level/calibration", passes >= need,
                        float(passes), float(need),
                        f"suite passes out of {params.calibration_reps}")]


def check_level_residuals(seed: bytes, params: VerifyParams) -> list[CheckResult]:
    """Solver-backed level functions must satisfy their defining equations to
    1e-9, and the square-root level must round-trip erf to 1e-11."""
    fs = FreshSource(seed)
    taus = (0.5, 1.0, 2.0)
    worst_softcap = worst_log = worst_roundtrip = 0.0
    log_span = math.log(1e3) - math.log(1e-3)
    for i in range(params.residual_points):
        a = math.exp(math.log(1e-3) + fs.next_uniform() * log_span)
        b = fs.next_uniform()
        tau = taus[i % 3]
        w = eval_softcap(tau, a, b)
        k = max(1, math.ceil(a / tau))
        worst_softcap = max(worst_softcap, abs(poisson_tail(k, w) - b))
        w = eval_log(a, b)
        worst_log = max(worst_log, abs(regularized_gamma_q(w, a) - b))
        h = eval_fhalf(a, b)
        worst_roundtrip = max(worst_roundtrip,
                              abs(erf(h / (2.0 * math.sqrt(a))) - b))
    return [
        CheckResult("level/residual/softcap", worst_softcap <= 1e-9,
                    worst_softcap, 1e-9),
        CheckResult("level/residual/log", worst_log <= 1e-9, worst_log, 1e-9),
        CheckResult("level/residual/fhalf-roundtrip", worst_roundtrip <= 1e-11,
                    worst_roundtrip, 1e-11),
    ]


def _tally(sketches) -> tuple[Counter, list]:
    """Counts of the sketches' sampled identifiers, and their stored values."""
    outcomes = [sketch.query() for sketch in sketches]
    return Counter(ident for ident, _ in outcomes), [h for _, h in outcomes]


def check_sampler_distributions(seed: bytes, params: VerifyParams) -> list[CheckResult]:
    """Sampled keys must follow G(x(v))/G(x) exactly (chi-square), and the
    stored value must be Exp(G(x)) (KS), per weight function and stream."""
    combos = [(g, name) for g in CATALOGUE for name in _STREAMS]
    alpha = SIGNIFICANCE / len(combos)
    results = []
    for i, (g, stream_name) in enumerate(combos):
        stream = _STREAMS[stream_name]
        counts, values = _tally(replay(partial(GSampler, LevelFunction(g)),
                                       sorted(stream.items()), params.sampler_reps,
                                       derive_seed(seed, i)))
        chi = chi_square_gof(counts, exact_distribution(stream, g), alpha)
        results.append(CheckResult(
            f"samplers/law/{weight_grammar(g)}/{stream_name}",
            chi.passed, chi.statistic, chi.threshold))
        rate = math.fsum(weight_value(g, m) for m in stream.values())
        ks = ks_test_exponential(values, rate, alpha)
        results.append(CheckResult(
            f"samplers/value-law/{weight_grammar(g)}/{stream_name}",
            ks.passed, ks.statistic, ks.threshold))
    return results


def _random_stream(rnd: random.Random, max_keys: int = 32,
                   max_updates: int = 200) -> list[tuple[int, float]]:
    n_keys = rnd.randint(1, max_keys)
    n_updates = rnd.randint(1, max_updates)
    return [(rnd.randrange(n_keys), rnd.uniform(0.05, 20.0))
            for _ in range(n_updates)]


def check_universality(seed: bytes, params: VerifyParams) -> list[CheckResult]:
    """The frontier's full evaluation must return the same (key, value) the
    dedicated scalar sampler returns, seed for seed, for every catalogue
    weight and a sum with an atom, and the bounded frontier query the same
    as the full one."""
    levels = [LevelFunction(g) for g in (*CATALOGUE, _SUMS[1])]
    mismatches = 0
    comparisons = 0
    for i in range(params.universality_streams):
        stream = _random_stream(random.Random(i))
        oracle = OracleHash(derive_seed(seed, i))
        frontier = ParetoSampler(oracle)
        for key, delta in stream:
            frontier.update(key, delta)
        for level in levels:
            scalar = GSampler(level, oracle)
            for key, delta in stream:
                scalar.update(key, delta)
            value, key = frontier.frontier.ranked(level)[0]
            if scalar.query() != (key, value) or frontier.query(level) != (key, value):
                mismatches += 1
            comparisons += 1
    return [CheckResult("samplers/universality", mismatches == 0,
                        float(mismatches), 0.0,
                        f"{comparisons} comparisons")]


def check_merge_replay(seed: bytes, params: VerifyParams) -> list[CheckResult]:
    """Splitting a stream across two shards (disjoint fresh-randomness
    counters) and merging must be bit-identical to sequential processing,
    for every sketch kind."""
    level = LevelFunction(FHalf())
    kinds: list[tuple[str, Callable]] = [
        ("gsampler", lambda o, c: GSampler(level, o, FreshSource(o.seed, c))),
        ("pareto", lambda o, c: ParetoSampler(o, FreshSource(o.seed, c))),
        ("wor", lambda o, c: WorSampler(3, level, o, FreshSource(o.seed, c))),
        ("kpareto", lambda o, c: KParetoSampler(3, o, FreshSource(o.seed, c))),
    ]
    failures = Counter()
    for i in range(params.merge_splits):
        rnd = random.Random(i)
        stream = _random_stream(rnd, max_keys=24, max_updates=120)
        cut = rnd.randint(0, len(stream))
        oracle = OracleHash(derive_seed(seed, i))
        for kind_name, make in kinds:
            sequential = make(oracle, 0)
            for key, delta in stream:
                sequential.update(key, delta)
            left = make(oracle, 0)
            for key, delta in stream[:cut]:
                left.update(key, delta)
            right = make(oracle, cut)  # disjoint counter range
            for key, delta in stream[cut:]:
                right.update(key, delta)
            left.merge_from(right)
            if left.to_bytes() != sequential.to_bytes():
                failures[kind_name] += 1
    total = sum(failures.values())
    detail = ", ".join(f"{k}: {v}" for k, v in failures.items()) or "all kinds exact"
    return [CheckResult("samplers/merge-replay", total == 0, float(total), 0.0,
                        detail)]


def check_wor_law(seed: bytes, params: VerifyParams) -> list[CheckResult]:
    """Ordered without-replacement samples must follow the sequential-ratio
    product, and the k-frontier's full evaluation must match the dedicated
    sketch seed for seed, with its bounded query agreeing."""
    x = {1: 1.0, 2: 2.0, 3: 3.0}
    k = 2
    weights = (F1(), FHalf())
    alpha = SIGNIFICANCE / len(weights)
    results = []
    for gi, g in enumerate(weights):
        level = LevelFunction(g)
        g_seed = derive_seed(seed, gi)
        stream = sorted(x.items())
        counts: Counter = Counter()
        mismatches = 0
        for wor, kpareto in zip(
                replay(partial(WorSampler, k, level), stream, params.wor_reps, g_seed),
                replay(partial(KParetoSampler, k), stream, params.wor_reps, g_seed)):
            ordered = tuple(wor.sample_ordered())
            counts[ordered] += 1
            reference = [key for _, key in kpareto.frontier.ranked(level)[:k]]
            if list(ordered) != reference or kpareto.query(level) != reference:
                mismatches += 1
        exact = exact_wor_distribution(x, g, k)
        support = tuple(sorted(exact))
        dist = ExactDistribution(support, tuple(exact[t] for t in support))
        chi = chi_square_gof(counts, dist, alpha)
        results.append(CheckResult(
            f"wor/law/{weight_grammar(g)}", chi.passed, chi.statistic,
            chi.threshold))
        results.append(CheckResult(
            f"wor/kpareto-identity/{weight_grammar(g)}", mismatches == 0,
            float(mismatches), 0.0, f"{params.wor_reps} runs"))
    return results


_TRIANGLE = EdgeSamplerSpec((1, 2, 3), ((1, 2), (2, 3), (1, 3)))
_TRIANGLE_MASSES = {1: 1.0, 2: 2.0, 3: 3.0}


def check_edge_sampling(seed: bytes, params: VerifyParams) -> list[CheckResult]:
    """Edge frequencies on the triangle must match the closed-form weight
    ratios, and the stored value must be Exp(total edge weight)."""
    exact = exact_edge_distribution(_TRIANGLE.edges, _TRIANGLE_MASSES)
    counts, values = _tally(replay(partial(Circuit, build_edge_sampler(_TRIANGLE)),
                                   sorted(_TRIANGLE_MASSES.items()), params.edge_reps, seed))
    alpha = SIGNIFICANCE / 2
    chi = chi_square_gof(counts, exact, alpha)
    total_rate = math.fsum(
        edge_weight(*(float(_TRIANGLE_MASSES[v]) for v in e))
        for e in _TRIANGLE.canonical_edges())
    ks = ks_test_exponential(values, total_rate, alpha)
    return [
        CheckResult("circuits/edge-law/triangle", chi.passed, chi.statistic,
                    chi.threshold),
        CheckResult("circuits/edge-value-law/triangle", ks.passed,
                    ks.statistic, ks.threshold),
    ]


def check_hyperedge_sampling(seed: bytes, params: VerifyParams) -> list[CheckResult]:
    """Arity-3 edges follow the same proportional law."""
    spec = EdgeSamplerSpec((1, 2, 3, 4), ((1, 2, 3), (2, 3, 4)))
    masses = {1: 1.0, 2: 2.0, 3: 3.0, 4: 0.5}
    exact = exact_edge_distribution(spec.edges, masses)
    counts, _ = _tally(replay(partial(Circuit, build_edge_sampler(spec)), sorted(masses.items()),
                              params.hyperedge_reps, seed))
    chi = chi_square_gof(counts, exact, SIGNIFICANCE)
    return [CheckResult("circuits/hyperedge-law/arity-3", chi.passed,
                        chi.statistic, chi.threshold)]


def check_flat_equivalence(seed: bytes, params: VerifyParams) -> list[CheckResult]:
    """The one-gate-per-key flat circuit must reproduce the scalar sampler
    seed for seed."""
    level = LevelFunction(FHalf())
    mismatches = 0
    for i in range(params.flat_equivalence_streams):
        rnd = random.Random(i)
        keys = list(range(rnd.randint(1, 8)))
        stream = [(rnd.choice(keys), rnd.uniform(0.1, 5.0))
                  for _ in range(rnd.randint(1, 40))]
        oracle = OracleHash(derive_seed(seed, i))
        circuit = Circuit(build_flat_circuit({k: level for k in keys}), oracle)
        scalar = GSampler(level, oracle)
        for key, delta in stream:
            circuit.update(key, delta)
            scalar.update(key, delta)
        if circuit.query() != scalar.query():
            mismatches += 1
    return [CheckResult("circuits/flat-equivalence", mismatches == 0,
                        float(mismatches), 0.0,
                        f"{params.flat_equivalence_streams} streams")]


def check_heterogeneous_flat(seed: bytes, params: VerifyParams) -> list[CheckResult]:
    """Per-key weight functions: key is sampled with probability
    G_v(x(v)) / sum_u G_u(x(u))."""
    weights = {1: LevelFunction(F1()), 2: LevelFunction(F0())}
    masses = {1: 3.0, 2: 5.0}
    # F1 contributes 3, F0 contributes 1
    exact = ExactDistribution((1, 2), (0.75, 0.25))
    counts, _ = _tally(replay(partial(Circuit, build_flat_circuit(weights)),
                              sorted(masses.items()), params.hetero_reps, seed))
    chi = chi_square_gof(counts, exact, SIGNIFICANCE)
    return [CheckResult("circuits/heterogeneous-flat", chi.passed,
                        chi.statistic, chi.threshold)]


@dataclass(frozen=True)
class FrontierStats:
    """Final-size statistics of the Pareto frontier over repeated trials."""

    mean: float
    max_size: int
    stderr: float
    trials: int


def frontier_size_stats(n: int, trials: int, seed: bytes) -> FrontierStats:
    """Final frontier size over `trials` independent runs of n unit updates
    on distinct keys.  The expected size is the n-th harmonic number."""
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be >= 1")
    sizes = [len(sampler.frontier) for sampler in
             replay(ParetoSampler, [(key, 1.0) for key in range(n)], trials, seed)]
    mean = math.fsum(sizes) / trials
    if trials > 1:
        var = math.fsum((s - mean) ** 2 for s in sizes) / (trials - 1)
        stderr = math.sqrt(var / trials)
    else:
        stderr = 0.0
    return FrontierStats(mean, max(sizes), stderr, trials)


def check_frontier_sizes(seed: bytes, params: VerifyParams) -> list[CheckResult]:
    """Mean final frontier size must sit within 3 standard errors of the
    harmonic number, and the max must stay under 4(ln n + 1)."""
    results = []
    for i, (n, trials) in enumerate(params.frontier_trials):
        stats = frontier_size_stats(n, trials, derive_seed(seed, i))
        target = _harmonic(n)
        band = 3.0 * stats.stderr
        results.append(CheckResult(
            f"frontier/mean/n={n}", abs(stats.mean - target) <= band,
            stats.mean, target, f"band +-{band:.4g}, trials={trials}"))
        bound = 4.0 * (math.log(n) + 1.0)
        results.append(CheckResult(
            f"frontier/max/n={n}", stats.max_size <= bound,
            float(stats.max_size), bound))
    return results


def check_long_stream(seed: bytes, params: VerifyParams) -> list[CheckResult]:
    """With unit-or-larger updates growing the largest mass to 1e6, the
    frontier's high-water mark must stay under 4(ln n + 1)."""
    n = params.long_stream_keys
    bound = 4.0 * (math.log(n) + 1.0)
    worst = 0
    rounds = max(1, math.ceil(math.log2(params.long_stream_mass + 1.0)))
    for s in range(params.long_stream_seeds):
        sampler = ParetoSampler(OracleHash(derive_seed(seed, s)))
        delta = 1.0
        for _ in range(rounds):
            for key in range(n):
                sampler.update(key, delta)
            delta *= 2.0
        worst = max(worst, sampler.max_size)
    return [CheckResult(
        f"frontier/long-stream/n={n}", worst <= bound, float(worst), bound,
        f"{params.long_stream_seeds} seeds, {rounds} doubling rounds")]


def _suite_level(seed, params):
    return (check_level_transformation(seed, params)
            + check_level_residuals(seed, params)
            + check_level_calibration(seed, params))


def _suite_samplers(seed, params):
    return (check_sampler_distributions(seed, params)
            + check_universality(derive_seed(seed, 1), params)
            + check_merge_replay(derive_seed(seed, 2), params))


def _suite_circuits(seed, params):
    return (check_edge_sampling(seed, params)
            + check_hyperedge_sampling(derive_seed(seed, 1), params)
            + check_flat_equivalence(derive_seed(seed, 2), params)
            + check_heterogeneous_flat(derive_seed(seed, 3), params))


def _suite_frontier(seed, params):
    return (check_frontier_sizes(seed, params)
            + check_long_stream(derive_seed(seed, 1), params))


SUITES: dict[str, Callable] = {
    "level": _suite_level,
    "samplers": _suite_samplers,
    "wor": check_wor_law,
    "circuits": _suite_circuits,
    "frontier": _suite_frontier,
}


def suite_names() -> list[str]:
    return [*SUITES, "all"]


def run_suite(name: str, seed: bytes,
              params: Optional[VerifyParams] = None) -> list[CheckResult]:
    """Run one named suite (or "all"); raises ValueError on unknown names."""
    params = params if params is not None else FULL_PARAMS
    if name == "all":
        results = []
        for i, suite in enumerate(SUITES.values()):
            results.extend(suite(derive_seed(seed, 1_000_000 + i), params))
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {suite_names()}")
    return SUITES[name](seed, params)

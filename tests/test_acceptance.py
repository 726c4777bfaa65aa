"""Acceptance suite: the library's release criteria at full scale.

Each test runs one criterion through the same check functions the CLI's
``verify`` command uses, at the published sample sizes, and prints one
pass/fail line per criterion (run with ``pytest -s`` to see them live).
The master seed is fixed, so the whole suite is deterministic: a recorded
pass replays exactly.

Criteria:
 1. value transformation law: l_G(Y, U) ~ Exp(G(lambda)) per catalogue
    weight and lambda, and two sums at lambda = 3, KS at the 1% level
    (Bonferroni across the family),
    with a 100-repetition calibration of the suite's false-failure rate
 2. exact sampling law: sampled-key frequencies match G(x(v))/G(x),
    chi-square, on two fixed streams per catalogue weight
 3. stored-value law: the kept value is Exp(G(x)), KS, same runs as (2)
 4. universality: frontier queries equal the dedicated sampler seed for
    seed, all catalogue weights and a sum with an atom, zero mismatches
 5. frontier size: harmonic-number mean within 3 standard errors and
    4(ln n + 1) max, for n = 4 / 64 / 1024
 6. without-replacement law: ordered pairs follow the sequential-ratio
    product, and the k-frontier matches the dedicated sketch exactly
 7. edge sampling: triangle edge frequencies match the closed-form ratios
 8. level residuals: solver-backed evaluations meet their defining
    equations to 1e-9 (1e-11 for the square-root round trip)
 9. merge/replay: sharded processing is bit-identical to sequential
10. long streams: frontier high-water mark stays under 4(ln n + 1) while
    the largest mass grows to 1e6 under unit-or-larger updates
"""

import pytest

from levysketch.randomness import derive_seed, parse_seed
from levysketch.verify import (
    FULL_PARAMS,
    check_edge_sampling,
    check_frontier_sizes,
    check_level_calibration,
    check_level_residuals,
    check_level_transformation,
    check_long_stream,
    check_merge_replay,
    check_sampler_distributions,
    check_universality,
    check_wor_law,
)

SEED = parse_seed("acce9ed")


def _assert_criterion(number: int, label: str, results) -> None:
    ok = all(r.passed for r in results)
    print(f"\n[criterion {number:2d}] {'PASS' if ok else 'FAIL'} {label}")
    for r in results:
        print(f"    {r.line()}")
    assert ok, f"criterion {number} failed:\n" + "\n".join(
        r.line() for r in results if not r.passed)


@pytest.fixture(scope="module")
def sampler_distribution_results():
    # criteria 2 and 3 share one heavy simulation
    return check_sampler_distributions(derive_seed(SEED, 2), FULL_PARAMS)


def test_criterion_1_transformation_law():
    results = (check_level_transformation(derive_seed(SEED, 1), FULL_PARAMS)
               + check_level_calibration(derive_seed(SEED, 1), FULL_PARAMS))
    _assert_criterion(1, "level transformation law + calibration", results)


def test_criterion_2_exact_sampling_law(sampler_distribution_results):
    results = [r for r in sampler_distribution_results
               if r.name.startswith("samplers/law/")]
    assert len(results) == 14
    _assert_criterion(2, "exact sampling law", results)


def test_criterion_3_value_law(sampler_distribution_results):
    results = [r for r in sampler_distribution_results
               if r.name.startswith("samplers/value-law/")]
    assert len(results) == 14
    _assert_criterion(3, "stored-value law", results)


def test_criterion_4_universality():
    results = check_universality(derive_seed(SEED, 4), FULL_PARAMS)
    _assert_criterion(4, "frontier/sampler seed-for-seed identity", results)


def test_criterion_5_frontier_sizes():
    results = check_frontier_sizes(derive_seed(SEED, 5), FULL_PARAMS)
    _assert_criterion(5, "harmonic frontier growth", results)


def test_criterion_6_wor_law():
    results = check_wor_law(derive_seed(SEED, 6), FULL_PARAMS)
    _assert_criterion(6, "without-replacement law + identity", results)


def test_criterion_7_edge_sampling():
    results = check_edge_sampling(derive_seed(SEED, 7), FULL_PARAMS)
    _assert_criterion(7, "edge sampling law", results)


def test_criterion_8_level_residuals():
    results = check_level_residuals(derive_seed(SEED, 8), FULL_PARAMS)
    _assert_criterion(8, "level-function residuals", results)


def test_criterion_9_merge_replay():
    results = check_merge_replay(derive_seed(SEED, 9), FULL_PARAMS)
    _assert_criterion(9, "merge/replay bit-exactness", results)


def test_criterion_10_long_streams():
    results = check_long_stream(derive_seed(SEED, 10), FULL_PARAMS)
    _assert_criterion(10, "long-stream frontier bound", results)

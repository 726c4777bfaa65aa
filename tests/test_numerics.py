"""Special functions against independent oracles, and solver behavior."""

import math

import pytest
from scipy.integrate import quad
from scipy.special import erf as scipy_erf

from levysketch.numerics import (
    BracketError,
    NoConvergenceError,
    Tolerance,
    inv_erf,
    poisson_tail,
    regularized_gamma_q,
    solve_monotone_increasing,
)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(abs=-1e-9)
    with pytest.raises(ValueError):
        Tolerance(max_iter=0)


def test_inv_erf_frozen_value():
    # digits frozen from an independent Newton refinement against a
    # series/continued-fraction erf
    assert inv_erf(0.5) == pytest.approx(0.4769362762044699, abs=1e-14)


def test_inv_erf_near_zero():
    # erf(0) = 0, and erf(y) ~ 2y/sqrt(pi) near zero
    assert inv_erf(1e-12) == pytest.approx(1e-12 * math.sqrt(math.pi) / 2, rel=1e-9)


def test_inv_erf_round_trip_through_independent_erf():
    y = inv_erf(float(scipy_erf(1.0)))
    assert y == pytest.approx(1.0, abs=1e-12)


def test_inv_erf_domain():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            inv_erf(bad)


def test_inv_erf_round_trip_grid():
    # |erf(inv_erf(b)) - b| <= 10 * rel tolerance
    for i in range(1, 1000):
        b = 1e-6 + (1.0 - 2e-6) * i / 1000
        assert abs(scipy_erf(inv_erf(b)) - b) <= 1e-11


def test_inv_erf_monotone():
    prev = 0.0
    for i in range(1, 2000):
        y = inv_erf(i / 2000)
        assert y >= prev
        prev = y


def test_gamma_q_exponential_identity():
    # Gamma(1, 1) is Exp(1), so Q(1, a) = exp(-a)
    assert regularized_gamma_q(1.0, math.log(2)) == pytest.approx(0.5, abs=1e-13)
    assert regularized_gamma_q(2.0, 0.0) == 1.0


def test_gamma_q_against_quadrature():
    # independent oracle: adaptive quadrature of the integrand
    for s, a in ((0.5, 1.0), (1.7, 0.4), (3.2, 5.0), (0.3, 0.05)):
        integral, _ = quad(lambda r: r ** (s - 1) * math.exp(-r), a, math.inf)
        expected = integral / math.gamma(s)
        assert regularized_gamma_q(s, a) == pytest.approx(expected, abs=1e-10)
    # the spec's spot value is erfc(1)
    assert regularized_gamma_q(0.5, 1.0) == pytest.approx(0.15729920705028513, abs=1e-12)


def test_gamma_q_monotone():
    values = [regularized_gamma_q(s, 1.5) for s in (0.2, 0.6, 1.1, 2.0, 4.0, 9.0)]
    assert values == sorted(values)
    values = [regularized_gamma_q(1.5, a) for a in (0.0, 0.3, 1.0, 2.5, 7.0)]
    assert values == sorted(values, reverse=True)


def test_gamma_q_domain():
    with pytest.raises(ValueError):
        regularized_gamma_q(0.0, 1.0)
    with pytest.raises(ValueError):
        regularized_gamma_q(1.0, -0.1)


def _poisson_tail_series(k: int, w: float) -> float:
    # direct summation of exp(-w) w^j / j! for j >= k
    total = 0.0
    log_term = -w + k * math.log(w) - math.lgamma(k + 1) if w > 0 else -math.inf
    term = math.exp(log_term)
    j = k
    while term > 1e-25 * (total + 1e-300) or j < k + 10:
        total += term
        j += 1
        term *= w / j
        if j > k + 100000:
            break
    return total


def test_poisson_tail_k1():
    for w in (0.0, 0.3, 1.0, 4.5):
        assert poisson_tail(1, w) == pytest.approx(-math.expm1(-w), abs=1e-13)


def test_poisson_tail_zero_rate():
    assert poisson_tail(3, 0.0) == 0.0


def test_poisson_tail_against_series():
    assert poisson_tail(3, 2.0) == pytest.approx(_poisson_tail_series(3, 2.0), abs=1e-12)
    for k in (1, 2, 5, 11, 20):
        for w in (0.1, 1.0, 7.5, 20.0, 50.0):
            assert abs(poisson_tail(k, w) - _poisson_tail_series(k, w)) <= 1e-10


def test_poisson_tail_monotone_in_rate():
    values = [poisson_tail(4, w) for w in (0.0, 0.5, 1.5, 4.0, 10.0, 30.0)]
    assert values == sorted(values)


def test_poisson_tail_domain():
    with pytest.raises(ValueError):
        poisson_tail(0, 1.0)
    with pytest.raises(ValueError):
        poisson_tail(2, -0.5)


def test_solver_identity():
    x = solve_monotone_increasing(lambda w: w, 3.5, (0.0, 10.0))
    assert x == pytest.approx(3.5, abs=1e-12)


def test_solver_exponential_cdf():
    x = solve_monotone_increasing(lambda w: -math.expm1(-w), 0.5, (0.0, 10.0))
    assert x == pytest.approx(math.log(2), abs=1e-10)


def test_solver_gamma_shape():
    f = lambda w: regularized_gamma_q(w, math.log(2))
    x = solve_monotone_increasing(f, 0.5, (1e-6, 30.0))
    assert x == pytest.approx(1.0, abs=1e-9)


def test_solver_newton_acceleration():
    calls = []

    def f(w):
        calls.append(w)
        return -math.expm1(-w)

    x = solve_monotone_increasing(f, 0.7, (0.0, 50.0), df=lambda w: math.exp(-w))
    assert x == pytest.approx(-math.log(0.3), abs=1e-10)
    assert len(calls) < 30


def test_solver_stays_in_bracket():
    import random
    rnd = random.Random(5)
    for _ in range(200):
        a = rnd.uniform(0.1, 3.0)
        lo = rnd.uniform(0.0, 2.0)
        hi = lo + rnd.uniform(0.5, 6.0)
        f = lambda w: a * w ** 3
        target = rnd.uniform(f(lo), f(hi))
        x = solve_monotone_increasing(f, target, (lo, hi))
        assert lo <= x <= hi


def test_solver_bracket_errors():
    with pytest.raises(BracketError):
        solve_monotone_increasing(lambda w: w, -1.0, (0.0, 5.0))
    with pytest.raises(BracketError):
        solve_monotone_increasing(lambda w: w, 9.0, (0.0, 5.0))
    with pytest.raises(BracketError):
        solve_monotone_increasing(lambda w: w, 1.0, (5.0, 0.0))


def test_solver_no_convergence():
    step = lambda w: 0.0 if w < 5.0 else 1.0
    with pytest.raises(NoConvergenceError):
        solve_monotone_increasing(step, 0.5, (0.0, 10.0),
                                  Tolerance(rel=1e-15, abs=1e-18, max_iter=8))

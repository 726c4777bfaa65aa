"""Level function catalogue: closed forms, defining equations, monotonicity,
and the exponential transformation law."""

import math

import pytest
from scipy.special import erf as scipy_erf
from scipy.special import erfinv as scipy_erfinv

from levysketch.level import (
    CATALOGUE,
    F0,
    F1,
    FHalf,
    KilledDriftSum,
    LevelFunction,
    Log,
    Scaled,
    SoftCap,
    eval_composite,
    eval_f0,
    eval_f1,
    eval_fhalf,
    eval_log,
    eval_scaled,
    eval_softcap,
    parse_weight,
    weight_grammar,
    weight_value,
)
from levysketch.numerics import poisson_tail, regularized_gamma_q
from levysketch.oracle import ks_test_exponential
from levysketch.randomness import FreshSource, fresh_exp, parse_seed

SEED = parse_seed("1e7e1")


def test_f0_examples():
    assert eval_f0(5.0, 1.0 - math.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)
    assert eval_f0(0.001, 0.5) == eval_f0(1000.0, 0.5) == pytest.approx(math.log(2))
    assert eval_f0(7.0, 0.9) == pytest.approx(2.302585092994046, abs=1e-12)


def test_f1_examples():
    assert eval_f1(2.5, 0.1) == 2.5
    assert eval_f1(2.5, 0.99) == 2.5
    assert eval_f1(1e-9, 0.5) == 1e-9


def test_fhalf_constant():
    # The level value is 2 sqrt(a) erfinv(b): the half-stable law with
    # Laplace exponent sqrt(z) is 1/(2 Z^2), not 1/Z^2; the plain inverse
    # square would inflate every value by sqrt(2) and break the Exp(sqrt(z))
    # transformation law (see test_transformation_law below).
    assert eval_fhalf(2.0, 0.5) == pytest.approx(
        2.0 * math.sqrt(2.0) * float(scipy_erfinv(0.5)), rel=1e-12)
    assert eval_fhalf(1e-12, 0.7) == pytest.approx(0.0, abs=1e-5)
    assert eval_fhalf(0.5, float(scipy_erf(1.0))) == pytest.approx(
        math.sqrt(2.0), rel=1e-12)


def test_softcap_k1_closed_form():
    # ceil(a / tau) = 1 reduces the tail to 1 - exp(-w)
    assert eval_softcap(1.0, 0.5, 0.5) == pytest.approx(math.log(2), abs=1e-10)


def test_softcap_forward_round_trip():
    b = poisson_tail(3, 2.0)
    assert eval_softcap(1.0, 2.5, b) == pytest.approx(2.0, abs=1e-9)


def test_softcap_step_invariance():
    # both a = 2.1 and a = 2.9 give ceil(a) = 3 at tau = 1
    assert eval_softcap(1.0, 2.1, 0.37) == eval_softcap(1.0, 2.9, 0.37)
    # at tau = 0.5, a = 0.6 and a = 0.9 both give ceil(a / tau) = 2
    assert eval_softcap(0.5, 0.6, 0.37) == eval_softcap(0.5, 0.9, 0.37)


def test_softcap_defining_equation_other_tau():
    for tau in (0.5, 2.0):
        for a, b in ((0.7, 0.2), (3.3, 0.81), (10.0, 0.5)):
            w = eval_softcap(tau, a, b)
            k = math.ceil(a / tau)
            assert poisson_tail(k, w) == pytest.approx(b, abs=1e-10)


def test_log_gamma_identity():
    # Q(1, a) = exp(-a), so the solved shape is 1 when b = exp(-a)
    assert eval_log(math.log(2), 0.5) == pytest.approx(1.0, abs=1e-9)
    assert eval_log(math.log(10), 0.1) == pytest.approx(1.0, abs=1e-9)


def test_log_monotone_spots():
    assert eval_log(1.0, 0.3) < eval_log(1.0, 0.7)
    assert eval_log(0.5, 0.5) < eval_log(2.0, 0.5)


def test_scaled():
    assert eval_scaled(2.0, 1.0) == 0.5
    assert eval_scaled(1.0, 0.773) == 0.773
    with pytest.raises(ValueError):
        eval_scaled(0.0, 1.0)


def test_domain_errors():
    for fn in (eval_f0, eval_f1, eval_fhalf, lambda a, b: eval_softcap(1.0, a, b),
               eval_log):
        with pytest.raises(ValueError):
            fn(-1.0, 0.5)
        with pytest.raises(ValueError):
            fn(0.0, 0.5)
        with pytest.raises(ValueError):
            fn(1.0, 0.0)
        with pytest.raises(ValueError):
            fn(1.0, 1.0)


def test_composite_degenerate_atom():
    g = KilledDriftSum(atoms=((1.0, 0.7),))
    assert eval_composite(g, [1.3], [0.4]) == eval_softcap(0.7, 1.3, 0.4)


def test_composite_killing_plus_drift():
    g = KilledDriftSum(c=1.0, g0=1.0)
    a1, b1, a2, b2 = 0.9, 0.35, 1.7, 0.8
    expected = min(-math.log1p(-b1), a2)
    assert eval_composite(g, [a1, a2], [b1, b2]) == pytest.approx(expected, rel=1e-14)


def test_composite_length_mismatch():
    g = KilledDriftSum(c=1.0, g0=1.0)
    with pytest.raises(ValueError):
        eval_composite(g, [1.0], [0.5])
    with pytest.raises(ValueError):
        eval_composite(g, [1.0, 2.0], [0.5])


def test_level_function_shape():
    assert LevelFunction(F0()).single_hash
    assert LevelFunction(Scaled(2.0, Log())).single_hash
    comp = LevelFunction(KilledDriftSum(c=1.0, g0=2.0, atoms=((1.0, 1.0),)))
    assert comp.term_count == 3
    assert not comp.single_hash
    with pytest.raises(ValueError):
        comp.eval(1.0, 0.5)
    scaled_comp = LevelFunction(Scaled(3.0, KilledDriftSum(c=1.0, g0=1.0)))
    assert scaled_comp.term_count == 2


def test_scaled_is_rescaled_inner():
    inner = LevelFunction(Log())
    scaled = LevelFunction(Scaled(4.0, Log()))
    a, b = 1.7, 0.62
    assert scaled.eval(a, b) == pytest.approx(inner.eval(a, b) / 4.0, rel=1e-14)


def _grids():
    fs = FreshSource(parse_seed("9d"))
    for _ in range(120):
        a1 = 0.05 + 4.0 * fs.next_uniform()
        a2 = a1 + 0.05 + 2.0 * fs.next_uniform()
        b1 = 0.02 + 0.5 * fs.next_uniform()
        b2 = b1 + 0.02 + (0.96 - b1 - 0.02) * fs.next_uniform()
        yield a1, a2, b1, b2


@pytest.mark.parametrize("g", CATALOGUE, ids=weight_grammar)
def test_two_dimensional_monotonicity(g):
    level = LevelFunction(g)
    for a1, a2, b1, b2 in _grids():
        base = level.eval(a1, b1)
        assert base <= level.eval(a2, b2)
        assert base <= level.eval(a1, b2)
        assert base <= level.eval(a2, b1)


@pytest.mark.parametrize("g", CATALOGUE, ids=weight_grammar)
def test_min_stability(g):
    # l(min(a1,a2), b) = min(l(a1,b), l(a2,b)): the property that lets a
    # per-key minimum stand in for all of a key's updates
    level = LevelFunction(g)
    for a1, a2, b1, _ in _grids():
        lhs = level.eval(min(a1, a2), b1)
        rhs = min(level.eval(a1, b1), level.eval(a2, b1))
        assert lhs == rhs


@pytest.mark.parametrize("g,lam", [(g, lam) for g in CATALOGUE
                                   for lam in (0.25, 4.0)],
                         ids=lambda p: str(p))
def test_transformation_law(g, lam):
    # l_G(Y, U) with Y ~ Exp(lam) must be Exp(G(lam)); 2e4 draws per combo
    # here, the acceptance suite runs the full-scale version
    level = LevelFunction(g)
    fs = FreshSource(parse_seed("ab5"))
    samples = []
    for _ in range(20_000):
        y = fresh_exp(fs) / lam
        u = fs.next_uniform()
        samples.append(level.eval(y, u))
    report = ks_test_exponential(samples, weight_value(g, lam), alpha=1e-4)
    assert report.passed, f"KS {report.statistic:.4f} > {report.threshold:.4f}"


def test_composite_transformation_law():
    # G(z) = 1{z>0} + z at lam = 3 gives rate 4
    level = LevelFunction(KilledDriftSum(c=1.0, g0=1.0))
    fs = FreshSource(parse_seed("ab6"))
    samples = []
    for _ in range(20_000):
        pairs = [(fresh_exp(fs) / 3.0, fs.next_uniform()) for _ in range(2)]
        samples.append(level.eval_terms(pairs))
    report = ks_test_exponential(samples, 4.0, alpha=1e-4)
    assert report.passed


def test_solver_levels_survive_extreme_arguments():
    # astronomically large first arguments must still solve (bisection
    # fallback; Newton's density underflows harmlessly)
    w = eval_softcap(1.0, 1e12, 0.5)
    assert poisson_tail(10 ** 12, w) == pytest.approx(0.5, abs=1e-6)
    w = eval_log(1e6, 0.5)
    assert regularized_gamma_q(w, 1e6) == pytest.approx(0.5, abs=1e-6)
    assert eval_fhalf(1e300, 0.5) > 0


def test_levels_at_infinite_first_argument():
    # a = Y/delta overflows to inf for subnormal deltas: the level is inf for
    # every kind whose level grows with a, and f0's ignores a altogether.
    # Just below overflow the levels are finite and no larger.
    for g in CATALOGUE:
        level = LevelFunction(g)
        for b in (1e-9, 0.3, 0.999):
            h = level.eval(math.inf, b)
            if isinstance(g, F0):
                assert h == eval_f0(1.0, b)
            else:
                assert h == math.inf
            assert math.isfinite(level.eval(1e300, b))
            assert level.eval(1e300, b) <= h
    # beyond 2^128 the solver-backed levels equal their centres
    assert eval_log(1e300, 0.3) == 1e300
    assert eval_softcap(0.5, 1e300, 0.3) == 2e300


def test_weight_values():
    assert weight_value(F0(), 0.0) == 0.0
    assert weight_value(F0(), 3.0) == 1.0
    assert weight_value(F1(), 2.5) == 2.5
    assert weight_value(FHalf(), 9.0) == 3.0
    assert weight_value(SoftCap(2.0), 1.0) == pytest.approx(1 - math.exp(-2.0))
    assert weight_value(Log(), math.e - 1) == pytest.approx(1.0)
    assert weight_value(Scaled(3.0, F1()), 2.0) == 6.0
    g = KilledDriftSum(c=0.5, g0=2.0, atoms=((1.5, 1.0),))
    assert weight_value(g, 1.0) == pytest.approx(0.5 + 2.0 + 1.5 * (1 - math.exp(-1)))
    assert weight_value(g, 0.0) == 0.0


def test_weight_validation():
    with pytest.raises(ValueError):
        SoftCap(0.0)
    with pytest.raises(ValueError):
        Scaled(-1.0, F1())
    with pytest.raises(ValueError):
        KilledDriftSum(c=-1.0)
    with pytest.raises(ValueError):
        KilledDriftSum(atoms=((0.0, 1.0),))
    with pytest.raises(ValueError):
        KilledDriftSum()  # identically zero


def test_grammar_round_trip():
    for text in ("f0", "f1", "fhalf", "log", "softcap:0.5", "scale:2:f1",
                 "scale:0.5:softcap:3", "sum:c=1,g0=0.5,atoms=2x0.5;1x3",
                 "sum:c=0,g0=1,atoms="):
        g = parse_weight(text)
        assert parse_weight(weight_grammar(g)) == g


def test_grammar_errors():
    for bad in ("f2", "softcap:", "softcap:-1", "scale:2", "sum:c=1",
                "sum:c=1,g0=0,atoms=1", "sum:c=0,g0=0,atoms=", "scale:x:f1"):
        with pytest.raises(ValueError):
            parse_weight(bad)

"""Level function catalogue: closed forms, defining equations, monotonicity,
and the exponential transformation law."""

import math
from collections import Counter

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    WeightFunction,
    eval_f0,
    eval_f1,
    eval_fhalf,
    eval_log,
    eval_softcap,
    parse_weight,
    weight_grammar,
    weight_value,
)
import levysketch.level as level_module
from levysketch.numerics import poisson_tail, regularized_gamma_q, residual, stop_width
from levysketch.oracle import ks_test_exponential
from levysketch.randomness import FreshSource, OracleHash, derive_seed, fresh_exp, parse_seed
from levysketch.samplers import GSampler, WorSampler

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
    assert LevelFunction(Scaled(2.0, F1())).eval(1.0, 0.5) == 0.5
    assert LevelFunction(Scaled(1.0, F1())).eval(0.773, 0.5) == 0.773
    with pytest.raises(ValueError):
        Scaled(0.0, F1())


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
    assert LevelFunction(g).eval(1.3, 0.4) == eval_softcap(0.7, 1.3, 0.4)


def test_composite_killing_plus_drift():
    # one (a, b) pair: killed at -log1p(-b) / c, or drifted to a at a / g0
    g = KilledDriftSum(c=2.0, g0=0.5)
    for a, b in ((0.9, 0.35), (0.1, 0.8), (5.0, 1e-300)):
        assert LevelFunction(g).eval(a, b) == min(-math.log1p(-b) / 2.0, a / 0.5)


def test_level_function_shape():
    # a sum evaluates on one pair and scales like any weight
    comp = LevelFunction(KilledDriftSum(c=1.0, g0=2.0, atoms=((1.0, 1.0),)))
    scaled = LevelFunction(Scaled(3.0, KilledDriftSum(c=1.0, g0=2.0, atoms=((1.0, 1.0),))))
    for a, b in ((1.0, 0.5), (0.2, 0.9), (7.0, 1e-9)):
        assert 0.0 < comp.eval(a, b) <= min(eval_f0(a, b), eval_f1(a, b) / 2.0,
                                           eval_softcap(1.0, a, b))
        assert scaled.eval(a, b) == pytest.approx(comp.eval(a, b) / 3.0, rel=1e-12)
    assert LevelFunction(F1()).eval_terms(2.5, 0.3) == 2.5  # the traced alias


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
    samples = [level.eval(fresh_exp(fs) / 3.0, fs.next_uniform()) for _ in range(20_000)]
    report = ks_test_exponential(samples, 4.0, alpha=1e-4)
    assert report.passed


@pytest.mark.parametrize("grammar", ["sum:c=1,g0=1,atoms=2x0.5", "sum:c=0,g0=0,atoms=1x1;2x0.3",
                                     "sum:c=0.5,g0=2,atoms=1x1;2x0.3;0.5x2"])
@pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
def test_sum_transformation_law(grammar, lam):
    # one (a, b) pair per draw: l_G(Y, U) is Exp(G(lam)) for sums with atoms
    g = parse_weight(grammar)
    level = LevelFunction(g)
    fs = FreshSource(parse_seed("ab7"))
    samples = [level.eval(fresh_exp(fs) / lam, fs.next_uniform()) for _ in range(2_000)]
    report = ks_test_exponential(samples, weight_value(g, lam), alpha=1e-4)
    assert report.passed, f"KS {report.statistic:.4f} > {report.threshold:.4f}"


def test_solver_levels_survive_extreme_arguments():
    # astronomically large first arguments must still evaluate (softcap at
    # 1e12 jumps is gammaincinv's, certified by one forward value)
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
            if g == F0():
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
    for bad in ({}, {"g0": -1.0}, {"c": math.nan}, {"atoms": ((1.0, 0.0),)},
                {"atoms": ((-1.0, 2.0), (1.0, 2.0))},  # no merge hides a negative
                {"atoms": ((math.nan, 1.0),)}):
        with pytest.raises(ValueError):
            WeightFunction(**bad)
    # a sum holds killing, drift and soft caps only, as the grammar spells it
    for kind in ("fhalf", "log"):
        with pytest.raises(ValueError, match="stand alone"):
            WeightFunction(g0=1.0, **{kind: 1.0})
    with pytest.raises(ValueError, match="stand alone"):
        WeightFunction(fhalf=1.0, log=1.0)


def test_weights_reject_infinite_coefficients():
    # at an infinite coefficient every level would be 0
    for build in (lambda: WeightFunction(log=math.inf),
                  lambda: WeightFunction(g0=math.nan),
                  lambda: Scaled(math.inf, Log()),
                  lambda: Scaled(1e300, Scaled(1e300, F1())),  # overflows to inf
                  lambda: KilledDriftSum(c=math.inf),
                  lambda: KilledDriftSum(atoms=((math.inf, 1.0),)),
                  lambda: KilledDriftSum(atoms=((1e308, 1.0), (1e308, 1.0))),  # merged
                  lambda: parse_weight("scale:inf:log"),
                  lambda: parse_weight("sum:c=inf,g0=0,atoms="),
                  lambda: parse_weight("sum:c=0,g0=1,atoms=infx1"),
                  lambda: parse_weight("sum:c=1,g0=0,atoms=1xinf"),  # an infinite rate
                  lambda: SoftCap(math.inf)):
        with pytest.raises(ValueError, match="finite"):
            build()
    assert Scaled(1e300, Scaled(1e8, F1())).g0 == 1e308


def test_grammar_round_trip():
    for text in ("f0", "f1", "fhalf", "log", "softcap:0.5", "scale:2:f1",
                 "scale:0.5:softcap:3", "sum:c=1,g0=0.5,atoms=2x0.5;1x3",
                 "sum:c=0,g0=1,atoms="):
        g = parse_weight(text)
        assert parse_weight(weight_grammar(g)) == g


def test_grammar_errors():
    for bad in ("f2", "softcap:", "softcap:-1", "scale:2", "sum:c=1",
                "sum:c=1,g0=0,atoms=1", "sum:c=0,g0=0,atoms=", "scale:x:f1",
                "sum:c=1,g0=0,atoms=,cap=5", "sum:c=1,c=2,g0=0,atoms="):
        with pytest.raises(ValueError):
            parse_weight(bad)


def test_constructors_normalise():
    assert Scaled(2, Scaled(3, Log())) == Scaled(6, Log())
    assert KilledDriftSum(c=1) == F0()
    assert hash(KilledDriftSum(c=1)) == hash(F0())
    assert KilledDriftSum(g0=1.0) == F1()
    assert KilledDriftSum(atoms=((1.0, 0.5),)) == SoftCap(0.5)
    assert Scaled(2.0, KilledDriftSum(c=1.0, g0=0.5)) == KilledDriftSum(c=2.0, g0=1.0)
    assert parse_weight("scale:2:scale:3:log") == Scaled(6.0, Log())
    # atoms run by descending tau whatever order they come in; equal taus merge
    swapped = KilledDriftSum(c=1, atoms=((2, 0.5), (1, 1)))
    assert swapped == KilledDriftSum(c=1, atoms=((1, 1), (2, 0.5)))
    assert swapped.atoms == ((1.0, 1.0), (0.5, 2.0))
    assert KilledDriftSum(atoms=((1.0, 2.0), (0.5, 1.0), (2.0, 2.0))).atoms == ((2.0, 3.0), (1.0, 0.5))


def test_grammar_prints_normalised_form():
    for text, normal in (("scale:3:scale:0.5:fhalf", "scale:1.5:fhalf"),
                         ("sum:c=0,g0=1,atoms=", "f1"),
                         ("sum:c=0,g0=0,atoms=2x0.5", "scale:2:softcap:0.5"),
                         ("scale:2:sum:c=1,g0=0.5,atoms=", "sum:c=2,g0=1,atoms="),
                         ("scale:1:log", "log")):
        assert weight_grammar(parse_weight(text)) == normal
    # a coefficient that %g would round is printed in full
    g = parse_weight("scale:3:scale:0.7:fhalf")
    assert weight_grammar(g) == f"scale:{3 * 0.7!r}:fhalf"
    assert parse_weight(weight_grammar(g)) == g


def test_grammar_spells_every_weight():
    # weights a list of terms once built but the grammar could not spell:
    # drift before killing, and a kind given twice
    pairs = ((WeightFunction(g0=1.0, c=1.0), KilledDriftSum(c=1.0, g0=1.0)),
             (parse_weight("sum:g0=1,atoms=,c=1"), KilledDriftSum(c=1.0, g0=1.0)),
             (parse_weight("sum:c=0,g0=0,atoms=1x1;2x1"), parse_weight("scale:3:softcap:1")),
             (KilledDriftSum(atoms=((2.0, 0.5), (1.0, 1.0))),
              KilledDriftSum(atoms=((1.0, 1.0), (2.0, 0.5)))))
    for g, same in pairs:
        assert g == same and hash(g) == hash(same)
        assert weight_grammar(g) == weight_grammar(same)
        assert parse_weight(weight_grammar(g)) == g
        for a, b in ((2.0, 0.3), (0.5, 0.9), (40.0, 1e-6)):
            assert LevelFunction(g).eval(a, b) == LevelFunction(same).eval(a, b)
    assert weight_grammar(parse_weight("sum:c=0,g0=0,atoms=1x1;2x1")) == "scale:3:softcap:1"
    assert weight_grammar(KilledDriftSum(c=1.0, atoms=((2.0, 0.5), (1.0, 1.0)))) == \
        "sum:c=1,g0=0,atoms=1x1;2x0.5"


def test_term_table_calls_evaluators_through_the_module(monkeypatch):
    # rebinding level.eval_<kind> (as a tracer does) must reach every kind,
    # also for a LevelFunction built before the rebinding
    kinds = ("f0", "f1", "fhalf", "softcap", "log")
    levels = [LevelFunction(Scaled(2.0, g)) for g in (F0(), F1(), FHalf(), SoftCap(0.5), Log())]
    calls = Counter()
    for k in kinds:
        original = getattr(level_module, f"eval_{k}")

        def counting(*args, _kind=k, _original=original):
            calls[_kind] += 1
            return _original(*args)

        monkeypatch.setattr(level_module, f"eval_{k}", counting)
    for level in levels:
        level.eval(1.5, 0.3)
    assert calls == Counter(kinds)
    LevelFunction(Scaled(2.0, Log())).eval(1.5, 0.3)
    assert calls["log"] == 2


# --- property: the constructors, the grammar, weight_value and eval_terms ------

_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)
_RATE = st.floats(min_value=0.1, max_value=10.0)
# atom weights on a grid of 1/16, so atoms at one tau sum exactly in any order
_GRID_WEIGHT = st.integers(1, 2 ** 14).map(lambda k: k / 16.0)

# kind -> closed-form value and level, written out from the definitions
_CLOSED = {
    "f0": (lambda p, z: 1.0 if z > 0 else 0.0, lambda p, a, b: eval_f0(a, b)),
    "f1": (lambda p, z: z, lambda p, a, b: eval_f1(a, b)),
    "fhalf": (lambda p, z: math.sqrt(z), lambda p, a, b: eval_fhalf(a, b)),
    "softcap": (lambda p, z: -math.expm1(-p * z), lambda p, a, b: eval_softcap(p, a, b)),
    "log": (lambda p, z: math.log1p(z), lambda p, a, b: eval_log(a, b)),
}


@st.composite
def _weights(draw):
    """A weight built by the constructors, a second spelling of it, its
    unscaled (kind, param, coeff) parts in normal order, the scales wrapped
    around it (outermost first), and its parts after scaling, all derived by
    hand.  A sum's atoms come shuffled, its taus often repeated."""
    if draw(st.booleans()):
        kind = draw(st.sampled_from(sorted(_CLOSED)))
        if kind == "softcap":
            tau = draw(_RATE)
            g, parts = SoftCap(tau), [("softcap", tau, 1.0)]
        else:
            g = {"f0": F0, "f1": F1, "fhalf": FHalf, "log": Log}[kind]()
            parts = [(kind, 0.0, 1.0)]
        other = parse_weight(kind if kind != "softcap" else f"softcap:{tau!r}")
    else:
        c = draw(st.just(0.0) | _POSITIVE)
        g0 = draw(st.just(0.0) | _POSITIVE)
        atoms = draw(st.lists(st.tuples(_GRID_WEIGHT, st.sampled_from((0.5, 1.0, 2.0)) | _RATE),
                              max_size=4))
        if c == g0 == 0.0 and not atoms:
            c = 1.0
        g = KilledDriftSum(c=c, g0=g0, atoms=tuple(draw(st.permutations(atoms))))
        other = KilledDriftSum(c=c, g0=g0, atoms=tuple(draw(st.permutations(atoms))))
        merged = Counter()
        for w, r in atoms:
            merged[r] += w
        parts = ([("f0", 0.0, c)] if c else []) + ([("f1", 0.0, g0)] if g0 else [])
        parts += [("softcap", r, merged[r]) for r in sorted(merged, reverse=True)]
    alphas = draw(st.lists(_POSITIVE, max_size=3))
    scaled = parts
    for alpha in reversed(alphas):
        g, other = Scaled(alpha, g), Scaled(alpha, other)
        scaled = [(kind, p, alpha * coeff) for kind, p, coeff in scaled]
    return g, other, parts, alphas, scaled


def _normal_build(parts) -> WeightFunction:
    """The weight whose fields are these normal-order parts, set by hand."""
    fields = {{"f0": "c", "f1": "g0"}.get(kind, kind): coeff
              for kind, _, coeff in parts if kind != "softcap"}
    atoms = tuple((p, coeff) for kind, p, coeff in parts if kind == "softcap")
    return WeightFunction(atoms=atoms, **fields)


def _merges_into_sequential(build, g, other) -> bool:
    """Shards of one stream under the two spellings merge into the frame a
    sketch under g fed the whole stream makes."""
    oracle = OracleHash(derive_seed(SEED, 7))
    stream = [(0, 1.5), (1, 0.25), (2, 4.0), (0, 2.0)]
    seq, left = build(LevelFunction(g), oracle), build(LevelFunction(g), oracle)
    right = build(LevelFunction(other), oracle, FreshSource(oracle.seed, 2))
    for i, (key, delta) in enumerate(stream):
        seq.update(key, delta)
        (left if i < 2 else right).update(key, delta)
    left.merge_from(right)
    return left.to_bytes() == seq.to_bytes()


@settings(max_examples=300, deadline=None)
# z stays clear of the subnormal range, where no result carries 1e-15
@given(_weights(), st.just(0.0) | st.floats(min_value=1e-200, max_value=1e3),
       st.lists(st.tuples(st.floats(min_value=1e-3, max_value=50.0),
                          st.floats(min_value=1e-6, max_value=1.0 - 1e-6)),
                min_size=5, max_size=5))
def test_weight_layer_properties(weight, z, pairs):
    g, other, parts, alphas, scaled = weight
    assert g == _normal_build(scaled)
    assert g.atoms == tuple((p, coeff) for kind, p, coeff in scaled if kind == "softcap")
    assert other == g and hash(other) == hash(g)
    assert parse_weight(weight_grammar(g)) == g
    assert weight_grammar(other) == weight_grammar(g)
    closed = sum(coeff * _CLOSED[k][0](p, z) for k, p, coeff in parts)
    for alpha in reversed(alphas):
        closed = alpha * closed
    assert weight_value(g, z) == pytest.approx(closed, rel=1e-15, abs=0.0)
    a, b = pairs[0]
    levels = [_CLOSED[k][1](p, a, b) / coeff for k, p, coeff in scaled]
    got = LevelFunction(g).eval(a, b)
    if len(levels) == 1:
        assert got == levels[0]
    else:  # a sum reaches a no later than any of its parts alone
        assert got <= min(levels) * (1.0 + 1e-9)
    assert _merges_into_sequential(GSampler, g, other)
    assert _merges_into_sequential(lambda level, *rest: WorSampler(2, level, *rest), g, other)


# --- the bound contract: record-only evaluation ------------------------------

_BOUNDED = ("log", "softcap:0.5", "softcap:1", "softcap:2", "scale:3:log",
            "sum:c=1,g0=1,atoms=2x0.5")


def _nudged(level, nudge, sign):
    if nudge == "ulp":
        return math.nextafter(level, sign * math.inf)
    return level * (1.0 + sign * nudge)


_B = st.floats(2.0 ** -53, 1.0 - 2.0 ** -53, exclude_min=True, exclude_max=True)


@st.composite
def _sums(draw):
    """A sum of two or more parts, 1 to 3 of them atoms at distinct rates (atoms
    at one rate merge into one part); killing and drift absent or in [0.1, 10]."""
    c, g0 = (draw(st.just(0.0) | st.floats(0.1, 10.0)) for _ in range(2))
    atoms = draw(st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(0.2, 5.0)),
                          min_size=1 if c or g0 else 2, max_size=3,
                          unique_by=lambda atom: atom[1]))
    return KilledDriftSum(c=c, g0=g0, atoms=tuple(atoms))


def _assert_bound_contract(level, a, b):
    # under any bound the evaluation returns the full level bit for bit, or
    # inf where the full level lies above the bound; a bound equal to the
    # level never rejects, since the (h, key) tie-break needs the tie
    full = level.eval(a, b)
    for nudge in ("ulp", 0.0, 1e-12, 1e-9, 1e-3):
        for sign in (-1.0, 1.0):
            bound = _nudged(full, nudge, sign)
            r = level.eval(a, b, bound)
            assert r == full or (r == math.inf and full > bound), (bound, r)
            if bound >= full:
                assert r == full
    return full


@settings(max_examples=400, deadline=None)
@given(grammar=st.sampled_from(_BOUNDED), e=st.floats(-6.0, 12.0), b=_B)
def test_bounded_evaluation_is_the_level_or_inf(grammar, e, b):
    _assert_bound_contract(LevelFunction(parse_weight(grammar)), 10.0 ** e, b)


@settings(max_examples=150, deadline=None)
@given(g=_sums(), e=st.floats(-6.0, 1.0), b=_B, da=st.floats(0.0, 1.0), db=st.floats(0.0, 1.0))
def test_sum_levels_keep_the_bound_contract_and_are_monotone(g, e, b, da, db):
    # random sums keep the bound contract, and the level never falls as a
    # or b rises, bit for bit: by one ulp, and by a jump of up to a
    level = LevelFunction(g)
    a = 10.0 ** e
    full = _assert_bound_contract(level, a, b)
    for a2 in (math.nextafter(a, math.inf), a * (1.0 + da)):
        assert level.eval(a2, b) >= full, a2
    for b2 in (math.nextafter(b, 1.0), b + db * (1.0 - b)):
        if b2 < 1.0:
            assert level.eval(a, b2) >= full, b2


@pytest.mark.parametrize("grammar", ["sum:c=1,g0=1,atoms=2x0.5", "sum:c=0,g0=0,atoms=1x1;2x0.3",
                                     "sum:c=0.5,g0=2,atoms=1x1;2x0.3;0.5x2",
                                     "sum:c=0,g0=0.5,atoms=3x0.1;2x7"])
def test_sum_levels_at_extreme_first_arguments(grammar):
    # a = Y / delta for subnormal deltas up to inf, and the smallest a:
    # every level returns, through the count sums, the saddlepoint and the
    # closed form past 2^128 jumps, and none falls as a rises
    level = LevelFunction(parse_weight(grammar))
    a_values = [5e-324, 1e-310, 1e-3, 1.0, 1e3, 1e4, 1e5, 1e6, 1e8, 1e12, 1e20, 1e30,
                1e-10 / 1e-310, 2.0 ** 128 * 7 * (1 + 2.0 ** -52), 1e308, 2.0 / 1e-310, math.inf]
    for b in (2.0 ** -53, 0.5, 1.0 - 2.0 ** -53):
        levels = [level.eval(a, b) for a in sorted(a_values)]
        assert all(x <= y for x, y in zip(levels, levels[1:])), (b, levels)
        assert levels[-1] == (-math.log1p(-b) / level._sum[0] if level._sum[0] else math.inf)


def test_sum_levels_step_through_b_one_half():
    # a probe's tail follows from t and a alone, so b meets one threshold
    # test: the level never falls as b steps by single ulps through 1/2,
    # where -log1p(-b) crosses log 2, in the count sums and the saddlepoint
    level = LevelFunction(parse_weight("sum:c=0,g0=0,atoms=2x0.5;1x1.5"))
    bs = [0.5 - 2.0 ** -54 * i for i in range(40, 0, -1)] + [0.5 + 2.0 ** -53 * i for i in range(40)]
    for a in (0.37, 2.71, 300.25, 1e5):
        levels = [level.eval(a, b) for b in bs]
        assert all(x <= y for x, y in zip(levels, levels[1:])), a


def test_bound_rejects_without_solving(full_evals):
    for grammar in ("log", "softcap:1", "scale:3:log"):
        level = LevelFunction(parse_weight(grammar))
        full = level.eval(2.0, 0.4)
        full_evals.clear()
        assert level.eval(2.0, 0.4, full / 2) == math.inf
        assert full_evals["n"] == 0
        assert level.eval(2.0, 0.4, full) == full
        assert full_evals["n"] == 1
    # a sum rejects on one Poisson tail: every jump at the total rate with
    # the largest tau, which is exact for one atom and looser for more
    for grammar, scale in (("sum:c=1,g0=1,atoms=2x0.5", 2), ("sum:c=0,g0=0.5,atoms=1x1;2x0.3;0.5x2", 20)):
        level = LevelFunction(parse_weight(grammar))
        full = level.eval(2.0, 0.4)
        gammas = Counter()
        with pytest.MonkeyPatch.context() as patch:
            for name in ("poisson_tail", "regularized_gamma_q"):
                original = getattr(level_module, name)
                patch.setattr(level_module, name, lambda *args, _f=original, _n=name:
                              gammas.update([_n]) or _f(*args))
            assert level.eval(2.0, 0.4, full / scale) == math.inf
        assert sum(gammas.values()) == 1
    # past _CENTRED, where levels are their centres: a = inf (a subnormal
    # delta) keeps level inf, and softcap's 2e300 lies above a bound of 1
    assert LevelFunction(Log()).eval(math.inf, 0.3, 1.0) == math.inf
    assert LevelFunction(SoftCap(0.5)).eval(1e300, 0.3, 1.0) == math.inf
    assert LevelFunction(SoftCap(0.5)).eval(1e300, 0.3, 3e300) == 2e300


def test_bound_keeps_domain_errors():
    for g in (Log(), SoftCap(1.0)):
        level = LevelFunction(g)
        for a, b in ((-1.0, 0.5), (0.0, 0.5), (1.0, 0.0), (1.0, 1.0), (math.nan, 0.5)):
            with pytest.raises(ValueError):
                level.eval(a, b, 1e-3)


@settings(max_examples=400, deadline=None)
@given(grammar=st.sampled_from(_BOUNDED + ("scale:0.2:softcap:4",)), e=st.floats(-8.0, 8.0),
       b=_B, ups=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=4))
def test_a_certified_cut_rejects_every_larger_first_argument(grammar, e, b, ups):
    # cut inverts the forward test; where one value at it certifies, the
    # bounded level is inf there and at every larger a, by one ulp or by far
    level = LevelFunction(parse_weight(grammar))
    bound = 10.0 ** e
    a = max(level.cut(b, bound), 5e-324)
    if a < math.inf and level.certifies(a, b, bound):
        for a2 in (a, math.nextafter(a, math.inf), *(a * 2.0 ** up for up in ups)):
            assert level.eval(a2, b, bound) == math.inf, a2


def test_cuts_and_inverses_by_kind():
    # a lone log or softcap part has a certified cut: at or below an a
    # whose level lies just over bound, above one whose level lies well
    # under it; fhalf has an inverse; no other kind or sum has either
    for grammar in ("log", "scale:3:log", "softcap:1", "scale:0.5:softcap:2"):
        level = LevelFunction(parse_weight(grammar))
        for a, b in ((0.3, 0.2), (2.0, 0.5), (40.0, 0.9)):
            full = level.eval(a, b)
            cut = level.cut(b, full * (1.0 - 1e-6))
            assert 0.0 <= cut <= a and level.certifies(cut, b, full * (1.0 - 1e-6))
            assert level.cut(b, full * 1.5) > a
    fhalf = LevelFunction(Scaled(3.0, FHalf()))
    for target in (1e-100, 0.3, 7.0, 1e100):
        for b in (1e-18, 0.5, 1.0 - 2.0 ** -53):
            assert fhalf.eval(fhalf.unlevel(target, b), b) == pytest.approx(target, rel=1e-14)
    for g in (F0(), F1(), FHalf(), KilledDriftSum(c=1.0, g0=1.0, atoms=((1.0, 2.0),))):
        assert LevelFunction(g).cut(0.5, 1.0) == math.inf
    for g in (F0(), F1(), Log(), SoftCap(1.0), KilledDriftSum(c=1.0, g0=1.0)):
        assert LevelFunction(g).unlevel(1.0, 0.5) == math.inf


def _within_tolerance(forward, w, b):
    """w is where a solver meeting numerics' stopping contract may stop for
    forward(w) = b: inside one stopping width of the crossing, up to the
    residual."""
    width, resid = stop_width(w), residual(b)
    return forward(w - width) <= b + resid and forward(w + width) >= b - resid


def test_softcap_converges_at_large_shapes():
    # gammaincinv's level fails the forward check at these shapes, where
    # gammainc itself loses digits, and the solver takes over
    for a in (3.16e10, 1e13):
        w = eval_softcap(1.0, a, 1e-9)
        assert _within_tolerance(lambda x: poisson_tail(math.ceil(a), x), w, 1e-9)


def _softcap_level_mp(k: int, b: float) -> float:
    """The w with P(k, w) = b at 40 digits: Newton on the log of the tail
    against log w, the upper tail Q(k, w) = 1 - b for b above 1/2."""
    with mpmath.workdps(40):
        b = mpmath.mpf(b)
        upper = b > 0.5
        target = mpmath.log1p(-b) if upper else mpmath.log(b)
        t = mpmath.log(k)
        for _ in range(200):
            x = mpmath.exp(t)
            if upper:
                log_tail = mpmath.log(mpmath.gammainc(k, x, mpmath.inf, regularized=True))
            else:
                log_tail = (k * t - x - mpmath.loggamma(k + 1)
                            + mpmath.log(mpmath.hyp1f1(1, k + 1, x)))
            # d log P / d log w = w times the Gamma(k) density over P; Q falls
            slope = mpmath.exp(k * t - x - mpmath.loggamma(k) - log_tail)
            step = (log_tail - target) / (-slope if upper else slope)
            t -= step
            if abs(step) < mpmath.mpf(10) ** -35:
                return mpmath.exp(t)
    raise AssertionError(f"oracle did not converge at k={k}, b={b}")


def test_softcap_matches_mpmath_in_both_tails():
    worst = {}
    for k in (1, 2, 7, 50, 10 ** 3, 10 ** 5):
        for b in (1e-300, 1e-15, 1e-12, 1e-6, 0.3, 0.5, 0.9, 1 - 1e-9, 1 - 2.0 ** -53):
            exact = _softcap_level_mp(k, b)
            worst[k, b] = float(abs(eval_softcap(1.0, float(k), b) - exact) / exact)
    assert max(worst.values()) <= 1e-13, max(worst.items(), key=lambda kv: kv[1])


def test_softcap_monotone_in_b_into_both_tails():
    n = 2_000
    bs = [10.0 ** (-300 + 300 * i / n) * 0.5 ** (i / n) for i in range(n)]
    bs += [1.0 - 10.0 ** (-16 + 16 * i / n) * 0.5 ** (i / n) for i in range(n)]
    bs = sorted(set(bs))
    assert len(bs) > 3_500 and bs[0] < 1e-299 and bs[-1] > 1 - 1e-15
    for k in (1, 2, 7, 50, 10 ** 3, 10 ** 5, 10 ** 7):
        levels = [eval_softcap(1.0, float(k), b) for b in bs]
        drops = [(bs[i], bs[i + 1]) for i in range(len(bs) - 1) if levels[i + 1] < levels[i]]
        assert drops == [], (k, len(drops), drops[:3])


def test_log_resolves_targets_below_the_absolute_tolerance():
    # a target below tol.abs is met to tol.rel of itself, not to tol.abs
    b = 2.0 ** -64
    w = eval_log(1e16, b)
    assert regularized_gamma_q(w, 1e16) > 0.0
    assert _within_tolerance(lambda x: regularized_gamma_q(x, 1e16), w, b)


# --- sums: one (a, b) pair, against a 40-digit phi -------------------------

def _phi_mp(c, g0, atoms, a, t):
    """c t - log1p(-T(t)) at 40 digits for atoms ((w, tau), ...), from
    1 - T above T = 1/2: each atom's Poisson masses tabulated 60 deviations
    past the counts that reach a alone, with both tails summed from them so
    that each keeps its digits, and nested sums over the outer counts."""
    t = mpmath.mpf(t)
    rem = mpmath.mpf(a) - g0 * t
    tables = []
    for w, tau in sorted(atoms, key=lambda atom: -atom[1]):
        x, tau = w * t, mpmath.mpf(tau)
        pmf = [mpmath.exp(-x)]
        for j in range(1, int(max(rem / tau, x) + 60 * mpmath.sqrt(x) + 40)):
            pmf.append(pmf[-1] * x / j)
        below, above = [mpmath.mpf(0)], [mpmath.mpf(0)]
        for p, q in zip(pmf, reversed(pmf)):
            below.append(below[-1] + p)
            above.append(above[-1] + q)
        tables.append((tau, pmf, below, above[:0:-1]))

    def chance(r, i, upper):  # P(the atoms from i on sum to r or more), or less
        if r <= 0:
            return mpmath.mpf(1 if upper else 0)
        tau, pmf, below, above = tables[i]
        k = int(mpmath.ceil(r / tau))
        if i == len(tables) - 1:
            return above[k] if upper else below[k]
        return (above[k] if upper else 0) + mpmath.fsum(
            pmf[n] * chance(r - tau * n, i + 1, upper) for n in range(k))

    T = chance(rem, 0, True)
    return c * t - (mpmath.log1p(-T) if T < 0.5 else mpmath.log(chance(rem, 0, False)))


_MP_ATOMS = ((), ((2.0, 0.5),), ((2.0, 0.5), (1.0, 1.5)), ((1.0, 1.0), (2.0, 0.3), (0.5, 2.0)))


def _mp_cases():
    """(c, g0, atoms, a, b) over a grid, plus b that put the level just
    below, on and just above a drift jump: where rem = a - g0 t crosses the
    smallest jump.  a stays off the sums of jumps (a = 2.5 = 1 + 5 * 0.3),
    where the binary rounding of each tau decides whether a count reaches a."""
    with mpmath.workdps(40):
        for c in (0.0, 1.0):
            for g0 in (0.0, 0.7):
                for atoms in _MP_ATOMS:
                    if not atoms and not (c and g0):
                        continue  # a single term, checked by its own kind
                    for a in (0.37, 2.71):
                        for b in (1e-300, 1e-12, 0.3, 0.9, 1 - 2.0 ** -53):
                            yield c, g0, atoms, a, b
                    if g0 and atoms:
                        t_jump = (mpmath.mpf(2.71) - min(tau for _, tau in atoms)) / g0
                        before = _phi_mp(c, g0, atoms, 2.71, t_jump * (1 - mpmath.mpf(10) ** -30))
                        after = _phi_mp(c, g0, atoms, 2.71, t_jump)
                        assert after > before * (1 + mpmath.mpf(10) ** -6)
                        for target in (before * (1 - mpmath.mpf(10) ** -6), (before + after) / 2,
                                       after * (1 + mpmath.mpf(10) ** -6)):
                            yield c, g0, atoms, 2.71, float(-mpmath.expm1(-target))


def test_sum_levels_match_mpmath():
    # the level is the first t with phi(t) >= -log1p(-b): within 1e-13
    # relative of the 40-digit one, found by bisection inside +-1e-6 of it
    worst = 0.0
    for c, g0, atoms, a, b in _mp_cases():
        got = LevelFunction(KilledDriftSum(c=c, g0=g0, atoms=atoms)).eval(a, b)
        with mpmath.workdps(40):
            target = -mpmath.log1p(-mpmath.mpf(b))
            lo, hi = got * (1 - mpmath.mpf(10) ** -6), got * (1 + mpmath.mpf(10) ** -6)
            if not atoms:
                exact = min(target / c, mpmath.mpf(a) / g0)
            else:
                assert _phi_mp(c, g0, atoms, a, lo) < target <= _phi_mp(c, g0, atoms, a, hi), \
                    (c, g0, atoms, a, b, got)
                for _ in range(40):  # to 1e-18 relative
                    mid = (lo + hi) / 2
                    lo, hi = (lo, mid) if _phi_mp(c, g0, atoms, a, mid) >= target else (mid, hi)
                exact = hi
            error = float(abs(got - exact) / exact)
        assert error <= 1e-13, (c, g0, atoms, a, b, got, error)
        worst = max(worst, error)
    assert worst > 0.0  # the grid reaches the rounding level somewhere


@pytest.mark.parametrize("g0", [0.0, 0.7])
def test_sum_levels_match_mpmath_at_large_counts(g0):
    # a from 30 to 1e4, off the jump lattices: the count sums start past 100
    # counts (Stirling) and stop on REL, within 1e-13 as at small a (worst
    # 3.1e-14); past 2^10 kernel calls a probe, the saddlepoint, within
    # 1e-9 for two atoms at 1e4 (worst 1.6e-10) and 1e-5 for three at 100
    # (worst 2.5e-6); the level is bracketed by +-bound of itself
    two, three = _MP_ATOMS[2], _MP_ATOMS[3]
    cases = [(two, 100.25, 1e-13), (two, 1000.25, 1e-13), (three, 30.05, 1e-13),
             (three, 100.05, 1e-5)] + ([(two, 10000.25, 1e-9)] if g0 == 0.0 else [])
    for atoms, a, bound in cases:
        level = LevelFunction(KilledDriftSum(g0=g0, atoms=atoms))
        for b in (1e-12, 0.3, 1 - 1e-9):
            got = level.eval(a, b)
            with mpmath.workdps(40):
                target = -mpmath.log1p(-mpmath.mpf(b))
                lo, hi = (mpmath.mpf(got) * (1 + sign * mpmath.mpf(bound)) for sign in (-1, 1))
                assert _phi_mp(0.0, g0, atoms, a, lo) < target <= \
                    _phi_mp(0.0, g0, atoms, a, hi), (g0, atoms, a, b, got)

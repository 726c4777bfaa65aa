"""Special functions against independent oracles, and solver behavior."""

import ast
import math
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats
from scipy.integrate import quad
from scipy.special import erf as scipy_erf

from levysketch import level, numerics, oracle, verify
from levysketch.numerics import (
    MAX_ITER,
    BracketError,
    NoConvergenceError,
    inv_erf,
    meets_contract,
    poisson_tail,
    regularized_gamma_q,
    residual,
    solve_monotone_increasing,
    stop_width,
)


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


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# b values at the ends of (0, 1) and the shapes at which a double stops
# resolving integers, cannot hold them exactly, or overflows a 64-bit int
_EDGE_B = (5e-324, 1.0 - 2.0 ** -53)
_EDGE_SHAPES = (5e-324, 2**53 + 1, 2**64 + 7, 2**100, 2.0 ** 128, math.inf)
_EDGE_X = (0.0, 5e-324, 1e-300, 1.0 - 2.0 ** -53, 1.0, 2.0 ** 53, 2.0 ** 128, 1e300, math.inf)


def test_kernels_equal_the_ufuncs_bit_for_bit():
    """The library calls scipy's C kernels through cython_special; each
    must return the bits of the scipy.special ufunc it stands in for."""
    rng = random.Random(20241018)
    n = 20_000
    bs = [_log_uniform(rng, 1e-300, 1.0) for _ in range(n // 2)]
    bs += [1.0 - _log_uniform(rng, 2.0 ** -53, 0.5) for _ in range(n // 2)]
    bs += _EDGE_B
    # shapes on the diagonal, where the ratios are neither 0 nor 1, and wide
    pairs = []
    for _ in range(n):
        s = _log_uniform(rng, 1e-6, 1e12)
        pairs.append((s, s * _log_uniform(rng, 0.1, 10.0)))
        pairs.append((_log_uniform(rng, 1e-300, 1e300), _log_uniform(rng, 1e-300, 1e300)))
    pairs += [(s, x) for s in _EDGE_SHAPES for x in _EDGE_X + _EDGE_B]
    counts = [math.ceil(_log_uniform(rng, 1.0, 1e4)) for _ in range(n)]
    counts += [math.ceil(_log_uniform(rng, 1.0, 1e15)) for _ in range(n)]
    tails = [(k, k * _log_uniform(rng, 0.1, 10.0)) for k in counts]
    tails += [(k, x) for k in (1, *_EDGE_SHAPES[1:]) for x in _EDGE_X + _EDGE_B]

    # eval_softcap's level: jump counts against seeded and edge values of b
    inverses = list(zip(counts, bs + bs))
    inverses += [(k, b) for k in (1, *_EDGE_SHAPES[1:]) for b in _EDGE_B]
    # a circuit path's threshold: log's and softcap's forward tests inverted
    # at a shape or rate and a target
    cuts = list(zip((s for s, _ in pairs), bs + bs))
    cuts += [(s, b) for s in _EDGE_SHAPES for b in _EDGE_B]

    mismatches = [("inv_erf", b) for b in bs
                  if _bits(inv_erf(b)) != _bits(float(scipy.special.erfinv(b)))]
    mismatches += [("gammaincinv", k, b) for k, b in inverses
                   if _bits(level.gammaincinv(k, b))
                   != _bits(float(scipy.special.gammaincinv(k, b)))]
    mismatches += [("gammainccinv", s, b) for s, b in cuts
                   if _bits(numerics.gammainccinv(s, b))
                   != _bits(float(scipy.special.gammainccinv(s, b)))]
    mismatches += [("gdtrib", b, w) for w, b in cuts
                   if _bits(numerics.gdtrib(1.0, b, w))
                   != _bits(float(scipy.special.gdtrib(1.0, b, w)))]
    mismatches += [("regularized_gamma_q", s, x) for s, x in pairs
                   if _bits(regularized_gamma_q(s, x))
                   != _bits(float(scipy.special.gammaincc(s, x)))]
    mismatches += [("poisson_tail", k, x) for k, x in tails
                   if _bits(poisson_tail(k, x)) != _bits(float(scipy.special.gammainc(k, x)))]

    # ndtr and erf on both signs, from subnormal to saturated; 0.0 == -0.0
    # and nan != nan, so these two compare bits
    xs = [_log_uniform(rng, 1e-300, 40.0) for _ in range(n // 2)]
    xs += [*_EDGE_X, 38.4, 8.3, 6.0, 1e-8, math.nan, -0.0]
    xs += [-x for x in xs]
    mismatches += [(name, x) for name, ours, ufunc in (
                       ("ndtr", numerics.ndtr, scipy.special.ndtr),
                       ("erf", numerics.erf, scipy.special.erf))
                   for x in xs if _bits(ours(x)) != _bits(float(ufunc(x)))]

    # oracle's chi-square threshold at verify's Bonferroni levels, the
    # benchmark's 1e-6 and the edge 0.5, against scipy.stats.chi2.ppf
    alphas = np.array([verify.SIGNIFICANCE / m for m in range(1, 21)] + [1e-6, 0.5])
    dofs = np.arange(1, 1001)
    ppf = scipy.stats.chi2.ppf(1.0 - alphas[:, None], dofs[None, :])
    mismatches += [("chi2.ppf", float(alpha), int(dof))
                   for alpha, row in zip(alphas, ppf) for dof, want in zip(dofs, row)
                   if _bits(oracle._chi_square_critical(float(alpha), int(dof)))
                   != _bits(float(want))]
    assert mismatches == []
    assert min(len(bs), len(pairs), len(tails), len(inverses), len(cuts), len(xs),
               ppf.size) >= 20_000


def test_gammaincc_rises_on_steps_up_in_a_far_less_than_the_certificate_slack():
    """A circuit path's threshold trusts one value of Q(w, a) for every
    larger a, up to level.SLACK (LevelFunction.certifies).  Q falls in a,
    but the kernel rises on some one-ulp steps up; where Q is at least
    1e-20, below any target a seed U sets, neither those rises nor those
    over wider steps come within a tenth of the slack."""
    rng = random.Random(20261019)
    rises = []
    for i in range(100_000):
        w = _log_uniform(rng, 1e-6, 1e6)
        a = w * _log_uniform(rng, 1e-3, 1e3) if i % 2 else _log_uniform(rng, 1e-300, 1e3)
        q = regularized_gamma_q(w, a)
        if q >= 1e-20:
            for up in (math.nextafter(a, math.inf), a * (1.0 + _log_uniform(rng, 1e-16, 1e-6))):
                rises.append(regularized_gamma_q(w, up) / q - 1.0)
    assert len(rises) >= 100_000
    assert max(rises) < level.SLACK / 10


def test_kernels_return_python_floats():
    for value in (inv_erf(0.5), level.gammaincinv(7, 0.5), numerics.gammainccinv(2.0, 0.5),
                  numerics.gdtrib(1.0, 0.5, 2.0), regularized_gamma_q(2, 1.0),
                  poisson_tail(2**64 + 7, 1.0), numerics.ndtr(-1.0), numerics.erf(0.5),
                  oracle._chi_square_critical(0.01, 3)):
        assert type(value) is float


def _imports(path: Path) -> set[str]:
    """The modules a source file imports, package-relative ones by bare name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:  # from . import x
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module)
    return names


def test_numerics_is_the_only_scipy_client_and_oracle_imports_no_sketch():
    package = Path(numerics.__file__).parent
    imports = {path.name: _imports(path) for path in package.glob("*.py")}
    assert {name for name, mods in imports.items()
            if any(m == "scipy" or m.startswith("scipy.") for m in mods)} == {"numerics.py"}
    sketch_code = {"circuits", "samplers", "levysketch.circuits", "levysketch.samplers"}
    assert imports["oracle.py"] & sketch_code == set()
    assert {"level", "numerics"} <= imports["oracle.py"]


def test_cli_import_leaves_scipy_stats_unloaded():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import levysketch.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    root = str(Path(numerics.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code, root], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_solver_identity():
    x = solve_monotone_increasing(lambda w: w, 3.5, 5.0)
    assert x == pytest.approx(3.5, abs=1e-12)


def test_solver_exponential_cdf():
    x = solve_monotone_increasing(lambda w: -math.expm1(-w), 0.5, 10.0)
    assert x == pytest.approx(math.log(2), abs=1e-10)


def test_solver_gamma_shape():
    f = lambda w: regularized_gamma_q(w, math.log(2))
    x = solve_monotone_increasing(f, 0.5, 30.0)
    assert x == pytest.approx(1.0, abs=1e-9)


def _centred_bracket(f, target, centre):
    """The bracket the solver promises: lo halved from centre until
    f(lo) <= target, hi doubled from centre until f(hi) >= target."""
    lo = hi = centre
    while f(lo) > target:
        lo /= 2.0
    while f(hi) < target:
        hi *= 2.0
    return lo, hi


def test_solver_stays_in_bracket():
    rnd = random.Random(5)
    for _ in range(200):
        a = rnd.uniform(0.1, 3.0)
        f = lambda w: a * w ** 3
        target = rnd.uniform(1e-6, 1e6)
        centre = _log_uniform(rnd, 1e-3, 1e3)
        lo, hi = _centred_bracket(f, target, centre)
        x = solve_monotone_increasing(f, target, centre)
        assert lo <= x <= hi
        assert meets_contract(f, x, target)


def test_solver_bracket_errors():
    # below: f(lo) stays above the target for every lo halved from centre
    points = []
    with pytest.raises(BracketError, match="below"):
        solve_monotone_increasing(lambda w: points.append(w) or w, -1.0, 5.0)
    assert points == [5.0 / 2.0 ** i for i in range(MAX_ITER)]
    # above: f(hi) stays below the target for every hi doubled from centre
    points.clear()
    with pytest.raises(BracketError, match="above"):
        solve_monotone_increasing(lambda w: points.append(w) or min(w, 5.0), 9.0, 1.0)
    assert points == [2.0 ** i for i in range(MAX_ITER + 1)]
    for centre in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(BracketError):
            solve_monotone_increasing(lambda w: w, 1.0, centre)
    assert issubclass(BracketError, ValueError)


def test_solver_no_convergence():
    # the log of a point mass's CDF: -inf tells the secant nothing, so the
    # solver bisects, and 2^180 down to a width of 1e-15 takes more than
    # MAX_ITER halvings
    points = []

    def log_step(w):
        points.append(w)
        return 0.0 if w >= 3e-3 else -math.inf

    with pytest.raises(NoConvergenceError):
        solve_monotone_increasing(log_step, math.log(0.5), 2.0 ** 180)
    # the bracket ends at lo = 2^-9, then the secant spends the whole cap
    assert len(points) - points.index(2.0 ** -9) - 1 == MAX_ITER


def test_solver_evaluates_no_point_twice(monkeypatch):
    points = []

    def recording(s, a):
        points.append(s)
        return regularized_gamma_q(s, a)

    monkeypatch.setattr(level, "regularized_gamma_q", recording)
    rnd = random.Random(8)
    for _ in range(200):
        a = _log_uniform(rnd, 1e-3, 1e6)
        b = rnd.uniform(0.0, 1.0) or 0.5
        points.clear()
        level.eval_log(a, b)
        assert len(points) == len(set(points)) > 1, (a, b)


def test_stopping_contract():
    assert residual(0.5) == 5e-13 and residual(1e-14) == 1e-15
    assert residual(2.0 ** -64) == 1e-12 * 2.0 ** -64  # below ABS: relative
    assert stop_width(0.0) == 1e-15 and stop_width(-2.0) == stop_width(2.0) == 1e-15 + 2e-12
    # within the residual, or the target between f half a width either side
    f = lambda w: w
    assert meets_contract(f, 1.0 + 4e-13, 1.0)
    assert not meets_contract(f, 1.0 + 2e-12, 1.0)
    step = lambda w: 0.0 if w < 1.0 else 1.0
    assert meets_contract(step, 1.0, 0.5) and meets_contract(step, 1.0 - 1e-13, 0.5)
    assert not meets_contract(step, 1.0 - 1e-11, 0.5)

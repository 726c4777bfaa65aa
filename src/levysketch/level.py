"""Weight functions and their level functions.

A weight function G maps a non-negative mass to a non-negative weight and is
drawn from the class realizable as

    G(z) = c * 1{z > 0}  +  g0 * z  +  sum_i  w_i * (1 - exp(-r_i * z)),

i.e. a killing part, a drift part, and finitely many soft-cap atoms, plus
the square-root and log(1 + z) weights.  Each such G has a *level function*
l_G(a, b) on (0, inf) x (0, 1) with two properties this library is built on:

* 2D-monotonicity: raising either argument never lowers the value.
* Transformation: if A ~ Exp(lam) and B ~ Uniform(0, 1) independently, then
  l_G(A, B) ~ Exp(G(lam)).

A weight is stored in its normal form: a sum of killing rate c, drift g0
and atoms ((tau_i, w_i), ...) by descending tau, equal taus merged, or fhalf
or log alone times a coefficient.  Its parts are kinds from this table, each
times a positive coefficient, and each kind has a direct evaluation:

* f0 (killing, 1{z > 0}):        l(a, b) = -log(1 - b)
* f1 (drift, z):                 l(a, b) = a
* fhalf (sqrt(z)):               l(a, b) = 2 sqrt(a) * inv_erf(b)
* softcap (1 - exp(-tau * z)):   l(a, b) = gammaincinv(ceil(a/tau), b), the w with
                                 P(Poisson(w) >= ceil(a/tau)) = b
* log (log(1 + z)):              l(a, b) solves  Q(w, a) = b  in the shape w

and a coefficient divides the level: l_{alpha G} = l_G / alpha.  The
constructors F0, F1, FHalf, SoftCap, Log, Scaled and KilledDriftSum build the
normal form, so equal weights compare equal however they were built:
Scaled(2, Scaled(3, Log())) == Scaled(6, Log()), KilledDriftSum(c=1) == F0().

Every weight evaluates on one (a, b) pair; one part through its kind's row.
A sum of more (atoms of rate w_i and jump tau_i) is the subordinator
X_t = g0*t + sum_i tau_i*N_i(w_i*t) killed at rate c, and its level is the
first double t with c*t - log1p(-T(t)) >= -log1p(-b), T(t) = P(X_t >= a), by
numerics.first_true: nondecreasing in b bit for bit, and in a as far as the
computed T is.  T is one Poisson tail for one atom, a sum over the counts of
the others for more while that costs about 2^10 kernel calls (at most 2^12
far in a tail), and past that the Lugannani-Rice saddlepoint approximation.

Record-only evaluation: softcap and log have a forward column, the increasing
function of w their level inverts at b, and a sum bounds T with all jumps at
the total rate and the largest tau.  Under a bound (default inf) that one
kernel value can prove the level above it, which then returns inf; any
other level, ties included, is evaluated in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Optional

from .numerics import (
    REL,
    first_true,
    gammainccinv,
    gammaincinv,
    gdtrib,
    inv_erf,
    meets_contract,
    ndtr,
    poisson_tail,
    regularized_gamma_q,
    residual,
    solve_monotone_increasing,
    stop_width,
)

__all__ = [
    "F0",
    "F1",
    "FHalf",
    "SoftCap",
    "Log",
    "Scaled",
    "KilledDriftSum",
    "WeightFunction",
    "LevelFunction",
    "eval_f0",
    "eval_f1",
    "eval_fhalf",
    "eval_softcap",
    "eval_log",
    "weight_value",
    "parse_weight",
    "weight_grammar",
    "CATALOGUE",
]


class _Kind(NamedTuple):
    """One row of the table of kinds."""

    value: Callable[[float, float], float]  # (param, z) -> G(z)
    level: Callable[[float, float, float], float]  # (param, a, b) -> l(a, b)
    param_name: str = ""  # set when the grammar spells "<kind>:<param>"
    # (param, a, w) -> the increasing function of w whose inverse at b is the level
    forward: Optional[Callable[[float, float, float], float]] = None
    # (param, w, target) -> an a past which forward(param, a, w) < target, uncertified
    reject: Optional[Callable[[float, float, float], float]] = None
    # (param, level, b) -> the a whose level at b is `level`, to rounding
    inverse: Optional[Callable[[float, float, float], float]] = None
    # (param, a) -> the step of a the level at a given b is constant on, or None
    step: Optional[Callable[[float, float], Optional[int]]] = None


# Each row reaches eval_<kind> through the module globals at call time, so a
# rebinding of those names on this module (a tracer, a test) takes effect.
_KINDS: dict[str, _Kind] = {
    "f0": _Kind(lambda p, z: 1.0 if z > 0 else 0.0, lambda p, a, b: eval_f0(a, b)),
    "f1": _Kind(lambda p, z: z, lambda p, a, b: eval_f1(a, b)),
    "fhalf": _Kind(lambda p, z: math.sqrt(z), lambda p, a, b: eval_fhalf(a, b),
                   inverse=lambda p, level, b: _square(level / (2.0 * inv_erf(b)))),
    "softcap": _Kind(lambda p, z: -math.expm1(-p * z),
                     lambda p, a, b: eval_softcap(p, a, b), "tau",
                     # min(): ceil(inf) raises; a smaller count only errs toward solving
                     lambda p, a, w: poisson_tail(max(math.ceil(min(a / p, _CENTRED)), 1), w),
                     reject=lambda p, w, target: (_fewest_jumps(w, target) - 1) * p,
                     step=lambda p, a: (max(math.ceil(a / p), 1)
                                        if 0.0 < a and a / p <= _CENTRED else None)),
    "log": _Kind(lambda p, z: math.log1p(z), lambda p, a, b: eval_log(a, b),
                 forward=lambda p, a, w: regularized_gamma_q(w, a),
                 reject=lambda p, w, target: gammainccinv(w, target)),
}


@dataclass(frozen=True)
class WeightFunction:
    """G(z) = c*1{z>0} + g0*z + sum_i w_i*(1 - exp(-tau_i*z)) + fhalf*sqrt(z)
    + log*log(1 + z) in normal form: atoms ((tau_i, w_i), ...) by descending
    tau with equal taus merged, and fhalf or log only as the one nonzero part."""

    c: float = 0.0
    g0: float = 0.0
    atoms: tuple[tuple[float, float], ...] = ()
    fhalf: float = 0.0
    log: float = 0.0

    def __post_init__(self) -> None:
        merged: dict[float, float] = {}
        for tau, w in sorted(self.atoms, reverse=True):
            if not (0 < tau < math.inf and w > 0):  # _lattice needs a finite tau
                raise ValueError(f"atom rate must be positive and finite, weight positive, "
                                 f"got ({tau}, {w})")
            merged[float(tau)] = merged.get(float(tau), 0.0) + w
        object.__setattr__(self, "atoms", tuple(merged.items()))
        for name in ("c", "g0", "fhalf", "log"):
            object.__setattr__(self, name, float(getattr(self, name)) or 0.0)  # no -0.0
        parts = _parts(self)
        for kind, _, coeff in parts:
            if not (0 < coeff < math.inf):  # at inf every level would be 0
                raise ValueError(f"{kind} coefficient must be positive and finite, got {coeff}")
        if not parts:
            raise ValueError("weight function is identically zero")
        if len(parts) > 1 and (self.fhalf or self.log):
            raise ValueError("fhalf and log weights stand alone, outside any sum")


def _parts(g: WeightFunction) -> list[tuple[str, float, float]]:
    """g's nonzero parts as (kind, param, coeff), in normal-form order."""
    parts = [("f0", 0.0, g.c), ("f1", 0.0, g.g0), *(("softcap", tau, w) for tau, w in g.atoms),
             ("fhalf", 0.0, g.fhalf), ("log", 0.0, g.log)]
    return [part for part in parts if part[2]]


def F0() -> WeightFunction:
    """G(z) = 1{z > 0}: distinct-element weight (unit killing rate)."""
    return WeightFunction(c=1.0)


def F1() -> WeightFunction:
    """G(z) = z: plain frequency weight (unit drift)."""
    return WeightFunction(g0=1.0)


def FHalf() -> WeightFunction:
    """G(z) = sqrt(z): square-root moment weight."""
    return WeightFunction(fhalf=1.0)


def SoftCap(tau: float) -> WeightFunction:
    """G(z) = 1 - exp(-tau * z): smooth surrogate for min(tau*z, 1) caps."""
    return WeightFunction(atoms=((tau, 1.0),))


def Log() -> WeightFunction:
    """G(z) = log(1 + z)."""
    return WeightFunction(log=1.0)


def Scaled(alpha: float, inner: WeightFunction) -> WeightFunction:
    """G = alpha * inner for a positive finite scalar alpha."""
    if not (0 < alpha < math.inf):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    return WeightFunction(alpha * inner.c, alpha * inner.g0,
                          tuple((tau, alpha * w) for tau, w in inner.atoms),
                          alpha * inner.fhalf, alpha * inner.log)


def KilledDriftSum(c: float = 0.0, g0: float = 0.0,
                   atoms: tuple[tuple[float, float], ...] = ()) -> WeightFunction:
    """G(z) = c*1{z>0} + g0*z + sum_i w_i*(1 - exp(-r_i*z)), with atoms a
    finite tuple of (weight, rate) pairs, both positive, in any order."""
    return WeightFunction(c, g0, tuple((r, w) for w, r in atoms))


CATALOGUE: tuple[WeightFunction, ...] = (
    F0(), F1(), FHalf(), SoftCap(0.5), SoftCap(1.0), SoftCap(2.0), Log(),
)


def weight_value(g: WeightFunction, z: float) -> float:
    """Evaluate G(z) in closed form: the sum of its parts' values."""
    if z < 0:
        raise ValueError(f"mass must be non-negative, got {z}")
    total = 0.0
    for kind, param, coeff in _parts(g):
        total += coeff * _KINDS[kind].value(param, z)
    return total


def _check_domain(a: float, b: float) -> None:
    if not (a > 0):
        raise ValueError(f"first argument must be positive, got {a}")
    if not (0.0 < b < 1.0):
        raise ValueError(f"second argument must be in (0, 1), got {b}")


def eval_f0(a: float, b: float) -> float:
    """Level function of 1{z>0}: pure-killing, independent of a."""
    _check_domain(a, b)
    return -math.log1p(-b)


def eval_f1(a: float, b: float) -> float:
    """Level function of z: pure drift, independent of b."""
    _check_domain(a, b)
    return a


def eval_fhalf(a: float, b: float) -> float:
    """Level function of sqrt(z).

    The half-stable process with Laplace exponent sqrt(z) has X_1 = 1/(2 Z^2)
    for a standard Gaussian Z (the plain inverse-square 1/Z^2 corresponds to
    sqrt(2 z) instead), which pins the constant: P(X_t >= a) = erf(t / (2
    sqrt(a))), so the level function is 2 sqrt(a) inv_erf(b).  A factor
    sqrt(2) here cancels when a single sampler normalizes, but shows up in
    the value law and in any circuit composing this with other gates.
    """
    _check_domain(a, b)
    return 2.0 * math.sqrt(a) * inv_erf(b)


# Both inverted levels sit within a few multiples of sqrt(c) of a centre c:
# the jump count ceil(a/tau) for softcap, a itself for log.  Beyond 2^128
# that spread is below one ulp of c, so the level is c to double precision,
# and inf at a = inf; no inversion is asked to resolve it.
_CENTRED = 2.0 ** 128


def eval_softcap(tau: float, a: float, b: float) -> float:
    """Level function of 1 - exp(-tau*z): the unique w with
    P(Poisson(w) >= ceil(a/tau)) = b.

    The process is a unit-rate Poisson counter with jump size tau, so it
    reaches level a once it has made k = ceil(a/tau) jumps (dividing by the
    jump size; at tau = 1 the two readings coincide).  P(Poisson(w) >= k)
    is the regularized lower incomplete gamma P(k, w), so the level is its
    inverse gammaincinv(k, b).  That is kept when numerics.meets_contract
    finds it within the solver's stopping contract; otherwise (jump counts
    near 1e6 and beyond, where the forward kernel itself loses digits) the
    solver finds the level from k.
    """
    if not (tau > 0):
        raise ValueError(f"tau must be positive, got {tau}")
    _check_domain(a, b)
    jumps = a / tau
    if jumps > _CENTRED:
        return jumps
    k = max(math.ceil(jumps), 1)

    def f(w: float) -> float:
        return poisson_tail(k, w)

    w = gammaincinv(k, b)
    return w if meets_contract(f, w, b) else solve_monotone_increasing(f, b, float(k))


def eval_log(a: float, b: float) -> float:
    """Level function of log(1+z): the unique shape w with Q(w, a) = b."""
    _check_domain(a, b)
    if a > _CENTRED:
        return a

    def f(w: float) -> float:
        return regularized_gamma_q(w, a)

    return solve_monotone_increasing(f, b, max(a, 1.0))


def _above(forward, param, coeff, a, b, bound) -> bool:
    """True when one forward value proves a lone part's level above bound.

    A level comes from numerics.solve_monotone_increasing or, for softcap,
    from gammaincinv kept by numerics.meets_contract.  Either way numerics'
    stopping contract holds at the level x: forward(x) >= b - residual(b),
    or forward(x + stop_width(x) / 2) >= b.  So forward(w) < b - 2 residual(b)
    puts x above w less half a stopping width; widening coeff * bound by 1e3
    stopping widths covers that and all rounding, and a level equal to bound
    is never rejected.
    """
    _check_domain(a, b)
    w = coeff * bound
    w += 1e3 * stop_width(w)
    return forward(param, a, w) < b - 2.0 * residual(b)


# The certificate's margin on one forward value.  It covers the forward
# kernels' own defect from monotone: gammaincc(w, a) rises by up to 1.5e-11
# relative on one-ulp steps up in a, and where it is at least 1e-20, below
# any target a seed sets, a test bounds its rise below SLACK / 10.
SLACK = 1e-9


def _test_point(coeff: float, b: float, bound: float) -> tuple[float, float]:
    """The (w, target) of _above's forward test at b under bound."""
    w = coeff * bound
    return w + 1e3 * stop_width(w), b - 2.0 * residual(b)


def _fewest_jumps(w: float, target: float) -> float:
    """The least count k with poisson_tail(k, w) < target, stepped to from
    the shape gdtrib(1, target, w) at which the gamma tail meets target;
    inf past 2^52 jumps or where eight steps do not settle it."""
    shape = gdtrib(1.0, target, w)
    if not 0.0 < shape < 2.0 ** 52:  # nan too
        return math.inf
    k = max(math.ceil(shape), 1)
    for _ in range(8):
        if poisson_tail(k, w) >= target:
            k += 1
        elif k > 1 and poisson_tail(k - 1, w) < target:
            k -= 1
        else:
            return k
    return math.inf


def _square(x: float) -> float:
    return x * x  # inf past the range, where x ** 2 raises


class _Costly(Exception):
    """A count sum that would take more than its budget of terms."""


def _chance(rem: float, atoms: tuple, t: float, upper: bool, budget: Optional[list]) -> float:
    """P(sum_i tau_i*N_i >= rem) if upper, else < rem, for independent
    N_i ~ Poisson(w_i*t), atoms ((tau_i, w_i), ...).  Counts of the first atom
    that reach rem alone add one tail; below them the sum runs from 12
    standard deviations under its mean until the mass left is below REL times
    the sum, clamped to [0, 1].  _Costly once budget[0] terms are spent."""
    if rem <= 0.0:
        return 1.0 if upper else 0.0
    tau, x, rest = atoms[0][0], atoms[0][1] * t, atoms[1:]
    k = max(math.ceil(min(rem / tau, _CENTRED)), 1)  # rem / tau may underflow
    if not rest:
        return poisson_tail(k, x) if upper else regularized_gamma_q(k, x)
    total = poisson_tail(k, x) if upper else 0.0
    n = max(math.floor(x - 12.0 * math.sqrt(x)), 0)
    p = math.exp(-x) if not 0 < n < k else math.exp(  # P(N = n), by Stirling past 100
        n * math.log(x) - x - math.lgamma(n + 1) if n < 100 else
        n * math.log1p((x - n) / n) + n - x - 0.5 * math.log(2.0 * math.pi * n)
        - (1.0 - 1.0 / (30.0 * n * n) + 1.0 / (105.0 * n ** 4)) / (12.0 * n))
    while n < k:
        budget[0] -= 1
        if budget[0] < 0:
            raise _Costly
        total += p * _chance(rem - tau * n, rest, t, upper, budget)
        n += 1
        p *= x / n  # P(N = n); the mass from n on is at most p / (1 - x/(n+1))
        if n + 1 > x and p <= REL * total * (1.0 - x / (n + 1)):
            break
    return min(total, 1.0)


def _saddle(rem: float, atoms: tuple, t: float, upper: bool, h: float) -> float:
    """_chance by the Lugannani-Rice saddlepoint approximation on the lattice
    h*Z, continuity-corrected (continuous at h = 0).  Newton on log K', which
    is convex, finds K'(s) = rem from s = 0, K(s) = sum_i x_i*expm1(s*tau_i),
    x_i = w_i*t; I = s*K'(s) - K(s) sums x*(v*e^v - expm1(v)), v = s*tau, by
    its series below 0.1, so w = sqrt(2I) and u = s*sqrt(K'') come from one s
    and 1/u - 1/w cancels cleanly down to its limit at the mean."""
    if h:
        rem = (math.ceil(rem / h * (1.0 - 1e-12)) - 0.5) * h  # sums of taus round off h*Z
    logs = [(tau, math.log(w * t)) for tau, w in atoms if w * t > 0.0]
    s, last = 0.0, math.inf
    for _ in range(100):  # the steps shrink until rounding stops them
        shift = max(lx + math.log(tau) + s * tau for tau, lx in logs)
        e = [(tau, math.exp(lx + s * tau - shift)) for tau, lx in logs]
        k1 = sum(tau * v for tau, v in e)  # K'(s) / e^shift
        step = (math.log(rem) - shift - math.log(k1)) * k1 / sum(tau * tau * v for tau, v in e)
        if not abs(step) < last:
            break
        s, last = s + step, abs(step)
    i_s = math.fsum(math.exp(lx) * v * v * sum(v ** j * (j + 1) / math.factorial(j + 2) for j in range(11))
                    if abs(v) < 0.1 else math.exp(lx + v) * (v - 1.0) + math.exp(lx)
                    for v, lx in ((s * tau, lx) for tau, lx in logs))
    k2, k3 = (sum(tau ** j * math.exp(lx + s * tau) for tau, lx in logs) for j in (2, 3))
    w = math.copysign(math.sqrt(max(2.0 * i_s, 0.0)), s)
    u = (2.0 * math.sinh(min(0.5 * s * h, 700.0)) / h if h else s) * math.sqrt(k2)
    correction = math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi) * (
        -k3 / (6.0 * k2 ** 1.5) if abs(w) < 1e-5 else 1.0 / u - 1.0 / w)
    return min(max(ndtr(-w) + correction if upper else ndtr(w) - correction, 0.0), 1.0)


# the kernel calls a probe's count sums may take, the saddlepoint past them:
# about 2,600 expected counts of the outer atom of two, 10 of each of three
_EXACT_WORK = 2.0 ** 10


def _tail(rem: float, atoms: tuple, t: float, upper: bool, h: float) -> float:
    """_chance where its count sums are estimated to take at most
    _EXACT_WORK kernel calls, else _saddle.  The estimate runs each outer
    atom's counts from 12 deviations under its mean x to 8 over it, or to
    those that reach rem alone; far in a tail the sums run further, and
    past four times that budget the saddlepoint takes over too."""
    if len(atoms) == 1:
        return _chance(rem, atoms, t, upper, None)
    if math.prod(
            1.0 + max(min(k, x + 2.0 * sd / 3.0) - max(x - sd, 0.0), 0.0)
            for x, sd, k in ((w * t, 12.0 * math.sqrt(w * t), rem / tau)
                             for tau, w in atoms[:-1])) <= _EXACT_WORK:
        try:
            return _chance(rem, atoms, t, upper, [4.0 * _EXACT_WORK])
        except _Costly:
            pass
    return _saddle(rem, atoms, t, upper, h)


def _sum_level(c: float, g0: float, atoms: tuple, h: float, drift: float, merged: tuple,
               a: float, b: float, bound: float = math.inf) -> float:
    """Level of c*1{z>0} + g0*z + sum_i w_i*(1 - exp(-tau_i*z)), atoms
    ((tau_i, w_i), ...) by descending tau on the lattice h*Z with mean jump
    rate drift, or inf above bound.  A probe t compares T(t) with
    -expm1(-r), r = -log1p(-b) - c*t, or where T(t) >= 1/2, 1 - T(t), summed
    on its own, with e^-r.  t and a pick the tail and the method, so each
    probe is one threshold test in b, and a whose T(t) agree bit for bit get
    the same answer.  merged, every jump at the total rate with the largest
    tau, bounds T above on one kernel call; slack covers rounding."""
    _check_domain(a, b)
    target = -math.log1p(-b)
    tau = atoms[0][0] if atoms else 1.0

    def reached(t: float, atoms: tuple = atoms, slack: float = 1.0) -> bool:
        r, rem = target - c * t, a - g0 * t
        if r <= 0.0 or rem <= 0.0:
            return True
        if len(atoms) > 1 and not reached(t, merged, 1.0 + 1e-9):
            return False  # one kernel call settles a probe far in the tail
        # the tail below 1/2 keeps its digits: P(N >= k) < 1/2 for a Poisson
        # count N once k > E[N] + 1/3, a first guess for the sum's
        upper = math.ceil(rem / tau) * tau > drift * t + tau / 3.0
        chance = _tail(rem, atoms, t, upper, h)
        if chance >= 0.5 if upper else chance > 0.5:
            upper, chance = not upper, _tail(rem, atoms, t, not upper, h)
        return chance * slack >= -math.expm1(-r) if upper else chance <= math.exp(-r) * slack

    if not atoms or a > _CENTRED * tau:  # X_t = rate * t to double precision
        level = min(target / c if c else math.inf, a / (g0 + drift) if g0 + drift else math.inf)
    elif bound < math.inf and not reached(bound, merged, 1.0 + 1e-9):
        return math.inf  # every probe up to bound fails the same test in reached
    else:
        level = first_true(reached)
    return level if level <= bound else math.inf


def _lattice(taus: list) -> float:
    """The span h of the lattice h*Z the jumps share: min(taus) over the
    least common denominator of each tau / min(taus), read as a fraction
    with denominator up to 1000 (exactly, to 1e-12); 0 where one is none."""
    ratios = [Fraction(tau) / Fraction(min(taus)) for tau in taus]
    near = [ratio.limit_denominator(1000) for ratio in ratios]
    if any(abs(n - ratio) * 10 ** 12 > ratio for n, ratio in zip(near, ratios)):
        return 0.0
    return min(taus) / math.lcm(*(n.denominator for n in near))


class LevelFunction:
    """Evaluator for the level function of a weight function on one (a, b)
    pair: a lone part's kind evaluator divided by its coefficient, or the
    sum's level of c, g0 and the atoms in their normal order."""

    def __init__(self, g: WeightFunction):
        self.weight = g
        (kind, param, coeff), *more = _parts(g)
        row = _KINDS[kind]
        self._part = (row.level, row.forward, param, coeff)
        self._lone = None if more else (row, param, coeff)
        # (a) -> the step of a this level is constant on at any fixed b, or None
        self.step = None if more or row.step is None else partial(row.step, param)
        atoms = g.atoms
        self._sum = None if not more else (
            g.c, g.g0, atoms, _lattice([tau for tau, _ in atoms] or [1.0]),
            math.fsum(tau * w for tau, w in atoms),
            ((atoms[0][0], math.fsum(w for _, w in atoms)),) if atoms else ())

    def __repr__(self) -> str:
        return f"LevelFunction({self.weight!r})"

    def eval(self, a: float, b: float, bound: float = math.inf) -> float:
        """l_G(a, b), or inf when the forward test proves it above bound."""
        if self._sum is not None:
            return _sum_level(*self._sum, a, b, bound)
        level, forward, param, coeff = self._part
        if forward is not None and bound < math.inf and _above(forward, param, coeff, a, b, bound):
            return math.inf
        return level(param, a, b) / coeff

    def cut(self, b: float, bound: float) -> float:
        """An a past which eval(a, b, bound) is inf by the forward test:
        its kind's inverse of that test at a target lowered by 2 SLACK,
        widened by 1e-9 relative; inf for a sum or a kind without one.
        Uncertified: `certifies` checks a value at or past it."""
        if self._lone is None or self._lone[0].reject is None:
            return math.inf
        row, param, coeff = self._lone
        w, target = _test_point(coeff, b, bound)
        a = row.reject(param, w, target * (1.0 - 2.0 * SLACK)) * (1.0 + 1e-9)
        return a if 0.0 <= a < math.inf else math.inf  # nan too

    def certifies(self, a: float, b: float, bound: float) -> bool:
        """True when the forward test rejects at a with SLACK to spare, and
        so, the forward column being monotone in a up to its kernel's
        defect, at every larger a: eval returns inf there."""
        row, param, coeff = self._lone
        w, target = _test_point(coeff, b, bound)
        return row.forward(param, a, w) * (1.0 + SLACK) < target

    def unlevel(self, level: float, b: float) -> float:
        """The a whose level at b is `level`, to rounding, for a kind with an
        inverse column (the level is then monotone in a to the last bit);
        inf for any other."""
        if self._lone is None or self._lone[0].inverse is None:
            return math.inf
        row, param, coeff = self._lone
        return row.inverse(param, level * coeff, b)

    # only bench/spans.py uses this name: it traces it from the class dictionary
    def eval_terms(self, a: float, b: float, bound: float = math.inf) -> float:
        return self.eval(a, b, bound)


# --- the compact CLI grammar -------------------------------------------------

def parse_weight(text: str) -> WeightFunction:
    """Parse the compact grammar: f0 | f1 | fhalf | log | softcap:<tau> |
    scale:<alpha>:<inner> | sum:c=<c>,g0=<g0>,atoms=<w>x<r>;<w>x<r>;..."""
    text = text.strip()
    # a chain of scales wraps innermost first, as nested Scaled calls do;
    # folded in a loop, so no chain depth exhausts the recursion limit
    alphas = []
    while text.startswith("scale:"):
        alpha_text, sep, inner_text = text[len("scale:"):].partition(":")
        if not sep:
            raise ValueError(f"scale needs an inner weight function: {text!r}")
        alphas.append(_parse_number(alpha_text, "alpha"))
        text = inner_text.strip()
    g = _parse_unscaled(text)
    for alpha in reversed(alphas):
        g = Scaled(alpha, g)
    return g


def _parse_unscaled(text: str) -> WeightFunction:
    kind, sep, param_text = text.partition(":")
    row = _KINDS.get(kind)
    if row is not None and bool(sep) == bool(row.param_name):
        if sep:
            return SoftCap(_parse_number(param_text, row.param_name))
        return {"f0": F0, "f1": F1, "fhalf": FHalf, "log": Log}[kind]()
    if text.startswith("sum:"):
        fields = {}
        for part in text[len("sum:"):].split(","):
            name, sep, value = part.partition("=")
            name = name.strip()
            if not sep:
                raise ValueError(f"malformed sum field {part!r} in {text!r}")
            if name not in ("c", "g0", "atoms") or name in fields:
                raise ValueError(f"{'repeated' if name in fields else 'unknown'} sum field "
                                 f"{name!r} in {text!r}")
            fields[name] = value.strip()
        missing = {"c", "g0", "atoms"} - fields.keys()
        if missing:
            raise ValueError(f"sum grammar missing {sorted(missing)}: {text!r}")
        atoms = []
        if fields["atoms"]:
            for atom_text in fields["atoms"].split(";"):
                w_text, sep, r_text = atom_text.partition("x")
                if not sep:
                    raise ValueError(f"malformed atom {atom_text!r} in {text!r}")
                atoms.append((_parse_number(w_text, "atom weight"),
                              _parse_number(r_text, "atom rate")))
        return KilledDriftSum(_parse_number(fields["c"], "c", positive=False),
                              _parse_number(fields["g0"], "g0", positive=False), tuple(atoms))
    raise ValueError(f"unrecognized weight function grammar: {text!r}")


def weight_grammar(g: WeightFunction) -> str:
    """The one spelling of g, which parse_weight reads back as g.

    A lone part prints as its kind, scaled when its coefficient is not 1;
    more parts print as a sum of c, g0 and the atoms in normal order.
    """
    parts = _parts(g)
    if len(parts) > 1:
        atoms = ";".join(f"{_num(w)}x{_num(tau)}" for tau, w in g.atoms)
        return f"sum:c={_num(g.c)},g0={_num(g.g0)},atoms={atoms}"
    kind, param, coeff = parts[0]
    text = f"{kind}:{_num(param)}" if _KINDS[kind].param_name else kind
    return text if coeff == 1.0 else f"scale:{_num(coeff)}:{text}"


def _num(x: float) -> str:
    """x in %g form where that reads back as x, else in full."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


def _parse_number(text: str, name: str, positive: bool = True) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{name} is not a number: {text!r}") from None
    if not (value > 0 if positive else value >= 0):
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be {sign}, got {text!r}")
    return value

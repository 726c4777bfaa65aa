"""Special functions and monotone root finding under one stopping contract.

This is the only module that imports scipy.  Everything in it is a pure
function of its arguments.  The special functions are scipy's C kernels,
called through ``scipy.special.cython_special``: the scalar entry points to
the same C code the ``scipy.special`` ufuncs wrap, which take and return
Python floats and skip the ufunc dispatch (about 1.3 us per scalar call,
several times the kernel itself).  ``erfinv``, ``gammaincc`` and ``gammainc``
stand behind inv_erf, regularized_gamma_q and poisson_tail, which check
their domain; ``gammaincinv``, ``gammainccinv``, ``gdtrib``, ``ndtr`` and
``erf`` are re-exported as they are.  A test checks every routed kernel
against its ufunc bit for bit, over a seeded log-uniform grid and the edges
of the domain; others check them against direct quadrature, series
summation and round trips.

The root finder is the inverse for continuous functions, and REL, ABS and
MAX_ITER are the one stopping contract those inverses meet.  A solve of
f(x) = target stops once |f(x) - target| <= residual(target), or returns
the midpoint of a bracket no wider than stop_width of its last probe;
meets_contract holds an x found another way (gammaincinv) to the same rule.
Either way f(x) >= target - residual(target), or f is >= target half a
stopping width above x: level._above's rejection proof rests on that.

first_true is the inverse for step functions, where a secant stalls: exact
bisection over the doubles, monotone in its predicate bit for bit.

All computation is 64-bit binary floating point.  Results therefore carry a
small additive error (a few ulps, amplified modestly by root finding); the
samplers built on top document this as an additive sampling error far below
anything observable at realistic sample sizes, rather than as a failure mode.
"""

from __future__ import annotations

import math
import struct
from typing import Callable

# re-exported as they are
from scipy.special.cython_special import erf, gammainccinv, gammaincinv, gdtrib, ndtr
from scipy.special.cython_special import erfinv as _erfinv
from scipy.special.cython_special import gammainc as _gammainc
from scipy.special.cython_special import gammaincc as _gammaincc

__all__ = [
    "REL",
    "ABS",
    "MAX_ITER",
    "BracketError",
    "NoConvergenceError",
    "erf",
    "gammaincinv",
    "gammainccinv",
    "gdtrib",
    "ndtr",
    "inv_erf",
    "regularized_gamma_q",
    "poisson_tail",
    "residual",
    "stop_width",
    "meets_contract",
    "solve_monotone_increasing",
    "first_true",
]


class BracketError(ValueError):
    """No bracket encloses the target value."""


class NoConvergenceError(ValueError):
    """Root finding failed to meet tolerance within the iteration cap."""


# the stopping contract: relative and absolute accuracy, evaluations per loop
REL = 1e-12
ABS = 1e-15
MAX_ITER = 200


def residual(target: float) -> float:
    """Accepted |f(x) - target|: REL * |target| under ABS, else the larger."""
    scaled = REL * abs(target)
    return scaled if abs(target) < ABS else max(ABS, scaled)


def stop_width(x: float) -> float:
    """The bracket width at which a solve near x stops: ABS + REL * |x|."""
    return ABS + REL * abs(x)


def meets_contract(f: Callable[[float], float], x: float, target: float) -> bool:
    """True when x could be a solver's answer to f(x) = target for an
    increasing f on [0, inf): f(x) is within residual(target) of target, or
    target lies between f half a stopping width either side of x."""
    if abs(f(x) - target) <= residual(target):
        return True
    half = 0.5 * stop_width(x)
    return f(max(x - half, 0.0)) <= target <= f(x + half)


def inv_erf(b: float) -> float:
    """Inverse error function on (0, 1): the y >= 0 with erf(y) = b."""
    if not (0.0 < b < 1.0):
        raise ValueError(f"inv_erf requires 0 < b < 1, got {b}")
    return _erfinv(b)


def regularized_gamma_q(s: float, a: float) -> float:
    """Upper regularized incomplete gamma Q(s, a) = P(Gamma(s, 1) >= a).

    Increasing in s for fixed a > 0, decreasing in a for fixed s.
    """
    if not (s > 0.0):
        raise ValueError(f"shape must be positive, got {s}")
    if a < 0.0:
        raise ValueError(f"lower limit must be non-negative, got {a}")
    return _gammaincc(s, a)


def poisson_tail(k: int, w: float) -> float:
    """P(Poisson(w) >= k) for k >= 1, via the regularized lower incomplete
    gamma identity P(Poisson(w) >= k) = P(k, w).  Increasing in w.

    The gamma route avoids truncating the defining series.
    """
    if k < 1:
        raise ValueError(f"count threshold must be >= 1, got {k}")
    if w < 0.0:
        raise ValueError(f"rate must be non-negative, got {w}")
    return _gammainc(k, w)


def solve_monotone_increasing(f: Callable[[float], float], target: float,
                              centre: float) -> float:
    """Solve f(w) = target for a nondecreasing f on (0, inf), from centre > 0.

    The bracket: lo halves from centre until f(lo) <= target (MAX_ITER
    values), then hi doubles from centre until f(hi) >= target (MAX_ITER
    doublings), else BracketError.  The secant starts from those f(lo) and
    f(hi), so no point is evaluated twice.  Each probe is an Illinois-damped
    secant step, or the midpoint when that leaves the open bracket, until
    residual(target) or stop_width stops the search (NoConvergenceError
    after MAX_ITER probes).
    """
    lo = hi = centre
    flo = fhi = f(centre)
    for _ in range(MAX_ITER - 1):
        if flo <= target:
            break
        lo /= 2.0
        flo = f(lo)
    if not (flo <= target):
        raise BracketError(f"could not bracket f(w) = {target} below from {centre}")
    for _ in range(MAX_ITER):
        if fhi >= target:
            break
        hi *= 2.0
        fhi = f(hi)
    if fhi < target:
        raise BracketError(f"could not bracket f(w) = {target} above from {centre}")

    resid_tol = residual(target)
    # Illinois bookkeeping: which endpoint survived the previous update.
    last_side = 0
    for _ in range(MAX_ITER):
        denom = fhi - flo
        x = lo + (target - flo) * (hi - lo) / denom if denom > 0.0 else math.inf
        if not (lo < x < hi):
            x = 0.5 * (lo + hi)
        fx = f(x)
        if abs(fx - target) <= resid_tol:
            return x
        if fx < target:
            lo, flo = x, fx
            if last_side == -1:
                fhi = 0.5 * (fhi - target) + target  # Illinois damping
            last_side = -1
        else:
            hi, fhi = x, fx
            if last_side == +1:
                flo = 0.5 * (flo - target) + target
            last_side = +1
        if hi - lo <= stop_width(x):
            return 0.5 * (lo + hi)
    raise NoConvergenceError(
        f"no convergence to {target} within {MAX_ITER} iterations; "
        f"bracket ({lo}, {hi})"
    )


_pack_bits = struct.Struct("<Q").pack
_unpack_double = struct.Struct("<d").unpack


def first_true(pred: Callable[[float], bool]) -> float:
    """The first double t in (0, inf] with pred(t), for a pred that turns
    from False to True along the doubles: bisection on their bit patterns
    from 0 (taken False) to inf (taken True), 63 probes.  The probes depend
    only on the answers so far, so where one predicate implies another at
    every point, the second's answer is never larger, monotone or not."""
    lo, hi = 0, 0x7FF0000000000000  # the bit patterns of 0.0 and inf
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        lo, hi = (lo, mid) if pred(_unpack_double(_pack_bits(mid))[0]) else (mid, hi)
    return _unpack_double(_pack_bits(hi))[0]

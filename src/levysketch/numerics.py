"""Special functions and bracketed monotone root finding.

Everything in this module is a pure function of its arguments.  The special
functions come from scipy.special: the inverse error function, and the
regularized incomplete gamma ratios (the standard Temme/continued-fraction
algorithms); tests check them against direct quadrature, series summation
and round trips.  Only the bracketed root finder is implemented here.

All computation is 64-bit binary floating point.  Results therefore carry a
small additive error (a few ulps, amplified modestly by root finding); the
samplers built on top document this as an additive sampling error far below
anything observable at realistic sample sizes, rather than as a failure mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from scipy.special import erfinv as _scipy_erfinv
from scipy.special import gammainc as _scipy_gammainc
from scipy.special import gammaincc as _scipy_gammaincc

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "BracketError",
    "NoConvergenceError",
    "inv_erf",
    "regularized_gamma_q",
    "poisson_tail",
    "solve_monotone_increasing",
]


class BracketError(ValueError):
    """The supplied bracket does not enclose the target value."""


class NoConvergenceError(RuntimeError):
    """Root finding failed to meet tolerance within the iteration cap."""


@dataclass(frozen=True)
class Tolerance:
    """Accuracy contract for iterative numerics.

    rel and abs bound the acceptable residual / bracket width, max_iter caps
    the number of function evaluations a solver may spend.
    """

    rel: float = 1e-12
    abs: float = 1e-15
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (self.rel > 0):
            raise ValueError(f"rel must be positive, got {self.rel}")
        if not (self.abs > 0):
            raise ValueError(f"abs must be positive, got {self.abs}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


DEFAULT_TOLERANCE = Tolerance()


def inv_erf(b: float) -> float:
    """Inverse error function on (0, 1): the y >= 0 with erf(y) = b."""
    if not (0.0 < b < 1.0):
        raise ValueError(f"inv_erf requires 0 < b < 1, got {b}")
    return float(_scipy_erfinv(b))


def regularized_gamma_q(s: float, a: float) -> float:
    """Upper regularized incomplete gamma Q(s, a) = P(Gamma(s, 1) >= a).

    Increasing in s for fixed a > 0, decreasing in a for fixed s.
    """
    if not (s > 0.0):
        raise ValueError(f"shape must be positive, got {s}")
    if a < 0.0:
        raise ValueError(f"lower limit must be non-negative, got {a}")
    return float(_scipy_gammaincc(s, a))


def poisson_tail(k: int, w: float) -> float:
    """P(Poisson(w) >= k) for k >= 1, via the regularized lower incomplete
    gamma identity P(Poisson(w) >= k) = P(k, w).  Increasing in w.

    The gamma route avoids truncating the defining series.
    """
    if k < 1:
        raise ValueError(f"count threshold must be >= 1, got {k}")
    if w < 0.0:
        raise ValueError(f"rate must be non-negative, got {w}")
    return float(_scipy_gammainc(k, w))


def solve_monotone_increasing(
    f: Callable[[float], float],
    target: float,
    bracket: tuple[float, float],
    tol: Tolerance = DEFAULT_TOLERANCE,
    df: Optional[Callable[[float], float]] = None,
    x0: Optional[float] = None,
) -> float:
    """Solve f(w) = target for a nondecreasing f on the bracket.

    Maintains a hard bracket at all times, so the result is always inside it.
    Between bisection steps the next probe comes from a Newton step when df
    is given, otherwise from an Illinois-damped secant; any probe that falls
    outside the open bracket is replaced by the midpoint.  Stops when the
    residual or the bracket width meets the tolerance.
    """
    lo, hi = bracket
    if not (lo <= hi):
        raise BracketError(f"invalid bracket ({lo}, {hi})")
    flo = f(lo)
    fhi = f(hi)
    if flo > target:
        raise BracketError(f"f(lo) = {flo} exceeds target {target}")
    if fhi < target:
        raise BracketError(f"f(hi) = {fhi} is below target {target}")

    resid_tol = max(tol.abs, tol.rel * abs(target))
    # Illinois bookkeeping: which endpoint survived the previous update.
    last_side = 0

    if x0 is not None and lo < x0 < hi:
        x = x0
    elif fhi > flo:
        x = lo + (target - flo) * (hi - lo) / (fhi - flo)
        if not (lo < x < hi):
            x = 0.5 * (lo + hi)
    else:
        x = 0.5 * (lo + hi)

    for _ in range(tol.max_iter):
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
        if hi - lo <= tol.abs + tol.rel * abs(x):
            return 0.5 * (lo + hi)
        if df is not None:
            slope = df(x)
            x_next = x - (fx - target) / slope if slope > 0.0 else math.inf
        else:
            denom = fhi - flo
            x_next = lo + (target - flo) * (hi - lo) / denom if denom > 0.0 else math.inf
        if not (lo < x_next < hi):
            x_next = 0.5 * (lo + hi)
        x = x_next
    raise NoConvergenceError(
        f"no convergence to {target} within {tol.max_iter} iterations; "
        f"bracket ({lo}, {hi})"
    )

"""Weight functions and their level functions.

A weight function G maps a non-negative mass to a non-negative weight and is
drawn from the class realizable as

    G(z) = c * 1{z > 0}  +  g0 * z  +  sum_i  w_i * (1 - exp(-r_i * z)),

i.e. a killing part, a drift part, and finitely many soft-cap atoms.  Each
such G has a *level function* l_G(a, b) on (0, inf) x (0, 1) with two
properties this library is built on:

* 2D-monotonicity: raising either argument never lowers the value.
* Transformation: if A ~ Exp(lam) and B ~ Uniform(0, 1) independently, then
  l_G(A, B) ~ Exp(G(lam)).

The catalogue variants have direct evaluations:

* F0 (killing only):       l(a, b) = -log(1 - b)
* F1 (drift only):         l(a, b) = a
* FHalf (square root):     l(a, b) = 2 sqrt(a) * inv_erf(b)
* SoftCap(tau):            l(a, b) solves  P(Poisson(w) >= ceil(a/tau)) = b
* Log (log(1+z)):          l(a, b) solves  Q(w, a) = b  in the shape w
* Scaled(alpha, inner):    l(a, b) = l_inner(a, b) / alpha

A general killing/drift/atoms combination has no single closed form; it is
evaluated as the minimum of its term-level evaluations, one (a, b) pair per
term, each term consuming its own fresh exponential and its own salted hash
of the key.  That reproduces the summation rule for exponential rates
(min of independent Exp variables sums the rates), so the transformation
property holds for the composite as a whole.

Direct evaluation everywhere; no precomputed lattice tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from scipy.special import ndtri

from .numerics import (
    DEFAULT_TOLERANCE,
    Tolerance,
    inv_erf,
    poisson_tail,
    regularized_gamma_q,
    solve_monotone_increasing,
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
    "eval_scaled",
    "eval_composite",
    "weight_value",
    "parse_weight",
    "weight_grammar",
    "CATALOGUE",
]


@dataclass(frozen=True)
class F0:
    """G(z) = 1{z > 0}: distinct-element weight (unit killing rate)."""


@dataclass(frozen=True)
class F1:
    """G(z) = z: plain frequency weight (unit drift)."""


@dataclass(frozen=True)
class FHalf:
    """G(z) = sqrt(z): square-root moment weight."""


@dataclass(frozen=True)
class SoftCap:
    """G(z) = 1 - exp(-tau * z): smooth surrogate for min(tau*z, 1) caps."""

    tau: float

    def __post_init__(self) -> None:
        if not (self.tau > 0):
            raise ValueError(f"tau must be positive, got {self.tau}")


@dataclass(frozen=True)
class Log:
    """G(z) = log(1 + z)."""


@dataclass(frozen=True)
class Scaled:
    """G = alpha * inner for a positive scalar alpha."""

    alpha: float
    inner: "WeightFunction"

    def __post_init__(self) -> None:
        if not (self.alpha > 0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class KilledDriftSum:
    """G(z) = c*1{z>0} + g0*z + sum_i w_i*(1 - exp(-r_i*z)).

    atoms is a finite tuple of (weight, rate) pairs, both positive.
    """

    c: float = 0.0
    g0: float = 0.0
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.c < 0 or self.g0 < 0:
            raise ValueError("killing rate and drift must be non-negative")
        for w, r in self.atoms:
            if not (w > 0 and r > 0):
                raise ValueError(f"atom weight and rate must be positive, got ({w}, {r})")
        if self.c == 0 and self.g0 == 0 and not self.atoms:
            raise ValueError("weight function is identically zero")


WeightFunction = Union[F0, F1, FHalf, SoftCap, Log, Scaled, KilledDriftSum]

CATALOGUE: tuple[WeightFunction, ...] = (
    F0(), F1(), FHalf(), SoftCap(0.5), SoftCap(1.0), SoftCap(2.0), Log(),
)


def weight_value(g: WeightFunction, z: float) -> float:
    """Evaluate G(z) in closed form."""
    if z < 0:
        raise ValueError(f"mass must be non-negative, got {z}")
    if isinstance(g, F0):
        return 1.0 if z > 0 else 0.0
    if isinstance(g, F1):
        return z
    if isinstance(g, FHalf):
        return math.sqrt(z)
    if isinstance(g, SoftCap):
        return -math.expm1(-g.tau * z)
    if isinstance(g, Log):
        return math.log1p(z)
    if isinstance(g, Scaled):
        return g.alpha * weight_value(g.inner, z)
    if isinstance(g, KilledDriftSum):
        total = (g.c if z > 0 else 0.0) + g.g0 * z
        for w, r in g.atoms:
            total += w * -math.expm1(-r * z)
        return total
    raise TypeError(f"not a weight function: {g!r}")


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


# Both solver-backed levels sit within a few multiples of sqrt(c) of a centre
# c: the jump count ceil(a/tau) for softcap, a itself for log.  Beyond 2^128
# that spread is below one ulp of c, so the level is c to double precision,
# and inf at a = inf; the solvers are never asked to resolve it.
_CENTRED = 2.0 ** 128


def eval_softcap(tau: float, a: float, b: float,
                 tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Level function of 1 - exp(-tau*z): the unique w with
    P(Poisson(w) >= ceil(a/tau)) = b.

    The process is a unit-rate Poisson counter with jump size tau, so it
    reaches level a once it has made ceil(a/tau) jumps (dividing by the jump
    size; at tau = 1 the two readings coincide).
    """
    if not (tau > 0):
        raise ValueError(f"tau must be positive, got {tau}")
    _check_domain(a, b)
    jumps = a / tau
    if jumps > _CENTRED:
        return jumps
    k = math.ceil(jumps)
    if k < 1:
        k = 1

    def f(w: float) -> float:
        return poisson_tail(k, w)

    lgam_k = math.lgamma(k)

    def df(w: float) -> float:
        if w <= 0.0:
            return 1.0 if k == 1 else 0.0
        log_density = (k - 1) * math.log(w) - w - lgam_k
        # a Gamma(k) density never exceeds 1; a larger value is rounding in
        # the difference of two huge terms, and 0 makes the solver bisect
        return math.exp(log_density) if log_density <= 0.0 else 0.0

    # Wilson-Hilferty start: approximate gamma quantile for shape k.
    z = float(ndtri(b))
    t = 1.0 - 1.0 / (9.0 * k) + z / (3.0 * math.sqrt(k))
    guess = k * t * t * t if t > 0 else 0.0
    # Bracket: the tail is 0 at w = 0; grow the upper end geometrically from
    # the mean until the target is enclosed.
    hi = max(float(k), guess, 1.0)
    for _ in range(200):
        if f(hi) >= b:
            break
        hi *= 2.0
    x0 = guess if 0.0 < guess < hi else None
    return solve_monotone_increasing(f, b, (0.0, hi), tol, df=df, x0=x0)


def eval_log(a: float, b: float, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """Level function of log(1+z): the unique shape w with Q(w, a) = b."""
    _check_domain(a, b)
    if a > _CENTRED:
        return a

    def f(w: float) -> float:
        return regularized_gamma_q(w, a)

    # Q(., a) rises from 0 to 1 as the shape grows; bracket geometrically
    # around max(a, 1).
    lo = hi = max(a, 1.0)
    for _ in range(200):
        if f(lo) <= b:
            break
        lo /= 2.0
    else:
        raise ValueError(f"could not bracket below for a={a}, b={b}")
    for _ in range(200):
        if f(hi) >= b:
            break
        hi *= 2.0
    return solve_monotone_increasing(f, b, (lo, hi), tol)


def eval_scaled(alpha: float, t: float) -> float:
    """Rescale an inner level value to realize alpha * G: t / alpha."""
    if not (alpha > 0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    return t / alpha


# A composite weight function is flattened into unit terms, each a catalogue
# evaluation rescaled by a positive coefficient.
_KILL, _DRIFT, _ATOM, _SQRT, _LOG = "kill", "drift", "atom", "sqrt", "log"


def _flatten(g: WeightFunction, scale: float) -> list[tuple[str, float, float]]:
    """(kind, parameter, coefficient) triples with min-combination semantics."""
    if isinstance(g, F0):
        return [(_KILL, 0.0, scale)]
    if isinstance(g, F1):
        return [(_DRIFT, 0.0, scale)]
    if isinstance(g, FHalf):
        return [(_SQRT, 0.0, scale)]
    if isinstance(g, SoftCap):
        return [(_ATOM, g.tau, scale)]
    if isinstance(g, Log):
        return [(_LOG, 0.0, scale)]
    if isinstance(g, Scaled):
        return _flatten(g.inner, scale * g.alpha)
    if isinstance(g, KilledDriftSum):
        terms = []
        if g.c > 0:
            terms.append((_KILL, 0.0, scale * g.c))
        if g.g0 > 0:
            terms.append((_DRIFT, 0.0, scale * g.g0))
        for w, r in g.atoms:
            terms.append((_ATOM, r, scale * w))
        return terms
    raise TypeError(f"not a weight function: {g!r}")


class LevelFunction:
    """Evaluator for the level function of a weight function.

    Weight functions with a single term (every catalogue variant, and any
    scaling of one) evaluate on a single (a, b) pair.  Killing/drift/atoms
    combinations evaluate on one pair per term; the pairs must come from
    independent sources (fresh exponentials, per-term salted hashes).
    """

    def __init__(self, g: WeightFunction, tol: Tolerance = DEFAULT_TOLERANCE):
        self.weight = g
        self.tol = tol
        self._terms = _flatten(g, 1.0)

    @property
    def term_count(self) -> int:
        return len(self._terms)

    @property
    def single_hash(self) -> bool:
        """True when one (a, b) pair drives the whole evaluation."""
        return len(self._terms) == 1

    def __repr__(self) -> str:
        return f"LevelFunction({self.weight!r})"

    def _eval_term(self, term: tuple[str, float, float], a: float, b: float) -> float:
        kind, param, coeff = term
        if kind == _KILL:
            t = eval_f0(a, b)
        elif kind == _DRIFT:
            t = eval_f1(a, b)
        elif kind == _SQRT:
            t = eval_fhalf(a, b)
        elif kind == _ATOM:
            t = eval_softcap(param, a, b, self.tol)
        else:
            t = eval_log(a, b, self.tol)
        return eval_scaled(coeff, t) if coeff != 1.0 else t

    def eval(self, a: float, b: float) -> float:
        """Single-pair evaluation; only valid for single-term weights."""
        if len(self._terms) != 1:
            raise ValueError(
                f"{self.weight!r} has {len(self._terms)} terms; "
                "use eval_terms with one (a, b) pair per term"
            )
        return self._eval_term(self._terms[0], a, b)

    def eval_terms(self, pairs: list[tuple[float, float]]) -> float:
        """Minimum over per-term evaluations, one (a, b) pair per term."""
        if len(pairs) != len(self._terms):
            raise ValueError(
                f"expected {len(self._terms)} (a, b) pairs, got {len(pairs)}"
            )
        return min(
            self._eval_term(term, a, b) for term, (a, b) in zip(self._terms, pairs)
        )

    def value(self, z: float) -> float:
        """The weight G(z) itself."""
        return weight_value(self.weight, z)


def eval_composite(g: KilledDriftSum, a_parts: list[float],
                   b_parts: list[float]) -> float:
    """Level evaluation of a killing/drift/atoms combination on per-term
    (a, b) pairs, ordered killing term, drift term, then atoms in order."""
    if len(a_parts) != len(b_parts):
        raise ValueError("a_parts and b_parts must have equal length")
    return LevelFunction(g).eval_terms(list(zip(a_parts, b_parts)))


# --- the compact CLI grammar -------------------------------------------------

def parse_weight(text: str) -> WeightFunction:
    """Parse the compact grammar: f0 | f1 | fhalf | log | softcap:<tau> |
    scale:<alpha>:<inner> | sum:c=<c>,g0=<g0>,atoms=<w>x<r>;<w>x<r>;..."""
    text = text.strip()
    if text == "f0":
        return F0()
    if text == "f1":
        return F1()
    if text == "fhalf":
        return FHalf()
    if text == "log":
        return Log()
    if text.startswith("softcap:"):
        return SoftCap(_parse_positive(text[len("softcap:"):], "tau"))
    if text.startswith("scale:"):
        rest = text[len("scale:"):]
        alpha_text, sep, inner_text = rest.partition(":")
        if not sep:
            raise ValueError(f"scale needs an inner weight function: {text!r}")
        return Scaled(_parse_positive(alpha_text, "alpha"), parse_weight(inner_text))
    if text.startswith("sum:"):
        fields = {}
        for part in text[len("sum:"):].split(","):
            name, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"malformed sum field {part!r} in {text!r}")
            fields[name.strip()] = value.strip()
        missing = {"c", "g0", "atoms"} - fields.keys()
        if missing:
            raise ValueError(f"sum grammar missing {sorted(missing)}: {text!r}")
        atoms = []
        if fields["atoms"]:
            for atom_text in fields["atoms"].split(";"):
                w_text, sep, r_text = atom_text.partition("x")
                if not sep:
                    raise ValueError(f"malformed atom {atom_text!r} in {text!r}")
                atoms.append((_parse_positive(w_text, "atom weight"),
                              _parse_positive(r_text, "atom rate")))
        return KilledDriftSum(
            c=_parse_nonnegative(fields["c"], "c"),
            g0=_parse_nonnegative(fields["g0"], "g0"),
            atoms=tuple(atoms),
        )
    raise ValueError(f"unrecognized weight function grammar: {text!r}")


def weight_grammar(g: WeightFunction) -> str:
    """Inverse of parse_weight, for report output."""
    if isinstance(g, F0):
        return "f0"
    if isinstance(g, F1):
        return "f1"
    if isinstance(g, FHalf):
        return "fhalf"
    if isinstance(g, Log):
        return "log"
    if isinstance(g, SoftCap):
        return f"softcap:{g.tau:g}"
    if isinstance(g, Scaled):
        return f"scale:{g.alpha:g}:{weight_grammar(g.inner)}"
    if isinstance(g, KilledDriftSum):
        atoms = ";".join(f"{w:g}x{r:g}" for w, r in g.atoms)
        return f"sum:c={g.c:g},g0={g.g0:g},atoms={atoms}"
    raise TypeError(f"not a weight function: {g!r}")


def _parse_positive(text: str, name: str) -> float:
    value = _parse_float(text, name)
    if not (value > 0):
        raise ValueError(f"{name} must be positive, got {text!r}")
    return value


def _parse_nonnegative(text: str, name: str) -> float:
    value = _parse_float(text, name)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {text!r}")
    return value


def _parse_float(text: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{name} is not a number: {text!r}") from None

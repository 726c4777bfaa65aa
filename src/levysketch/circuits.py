"""Stochastic sampling circuits: gate DAGs that sample from compound weights.

An exponential variate is treated as a signal carrying its rate.  Rates add
when independent signals are min-combined, divide under scalar division, and
map through G when pushed through a level function.  A circuit wires those
three operations into a DAG:

* input gates receive the update stream, each the updates of one 64-bit
  key; on each update they emit a fresh Exp(1)/delta value per outgoing
  wire,
* scalar gates divide by a constant,
* G-gates apply a level function with a per-gate uniform seed U,
* output gates fold arriving values with min and remember which wire the
  current minimum came from.

Scalar and G gates must have exactly one successor, which is what keeps the
values arriving at any gate over different wires independent.  So a value
leaving an input gate on one wire runs along one path of gates to one output
gate.  A `CircuitBuilder` collects gates and wires; its `validate` compiles
those paths once, keyed by the input gates' keys, into an immutable
`CircuitPlan` (or raises `CircuitError`).  Each `Circuit(plan, oracle)` is
one run of it and a sketch like the samplers: update(key, delta) and
query().  A run owns its oracle, its fresh source, the G-gate seeds drawn
under the oracle and the output gates' pairs; only those pairs carry
information between updates, so a whole circuit costs two words per output
gate.  One compiled plan serves any number of runs: `partial(Circuit,
plan)` is a `build` for samplers.replay.

Most candidates cannot change their output, and a path is rejected before
any level.  Every gate is monotone in its input, so once a path has
rejected three values under its output's current value, the run inverts
the path into a threshold on its starting value; a value above it draws
its fresh exponential and skips every gate.  The threshold, certified by
one forward value, and a softcap gate's last (jump count, level) live in
the run, next to the seeds; see Circuit.update.

The stock construction here is the edge sampler: given a fixed (hyper)graph
with vertex masses fed by the update stream, it samples an edge {u, v} with
probability proportional to

    log(1 + sqrt(x(u)) + sqrt(x(v))) + 2 * (1 - exp(-(x(u) + x(v)))),

built from a square-root gate per (vertex, edge) pair, and a soft-cap gate,
a log gate and a halving scalar gate per edge.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional, Union

from .level import FHalf, Log, SoftCap, LevelFunction
from .randomness import FreshSource, OracleHash, fresh_exp, hash_unit, hash_unit_bytes
from .samplers import check_update

__all__ = [
    "InputGate",
    "ScalarGate",
    "GGate",
    "OutputGate",
    "Gate",
    "CircuitError",
    "CircuitBuilder",
    "CircuitPlan",
    "Circuit",
    "EdgeSampler",
    "EdgeSamplerSpec",
    "build_edge_sampler",
    "build_flat_circuit",
    "SALT_VERTEX_SQRT",
    "SALT_EDGE_SOFTCAP",
    "SALT_EDGE_LOG",
]

# Hash namespaces for the edge sampler's three independent hash functions.
SALT_VERTEX_SQRT = 1
SALT_EDGE_SOFTCAP = 2
SALT_EDGE_LOG = 3


@dataclass(frozen=True)
class InputGate:
    """Receives the updates of one 64-bit key; emits a fresh Exp(1)/delta
    per outgoing wire."""

    key: int

    def __post_init__(self) -> None:
        if not (type(self.key) is int and 0 <= self.key < 1 << 64):
            raise ValueError(f"input gate key must be an int in [0, 2^64), got {self.key!r}")


@dataclass(frozen=True)
class ScalarGate:
    """Divides every value passing through by alpha (rate multiplies)."""

    alpha: float

    def __post_init__(self) -> None:
        if not (0 < self.alpha < math.inf):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")


@dataclass(frozen=True, eq=False)
class GGate:
    """Applies the level function of any weight, sums included, with a per-gate seed U.

    The seed is drawn from the oracle hash under `seed_salt`, keyed by the
    gate's scope: an integer key or an arbitrary byte string (e.g. a
    canonical edge encoding).  Gates compare by identity.
    """

    level: LevelFunction
    seed_salt: int
    scope: Union[int, bytes]

    def __post_init__(self) -> None:
        # an int scope is a 64-bit key: hash_unit would alias -1 to 2^64 - 1
        scope = self.scope
        if not (isinstance(scope, bytes) or (type(scope) is int and 0 <= scope < 1 << 64)):
            raise ValueError(f"G-gate scope must be bytes or an int in [0, 2^64), got {scope!r}")

    def unit(self, oracle: OracleHash) -> float:
        """The gate's seed U under `oracle`."""
        salted = oracle.with_salt(self.seed_salt)
        if isinstance(self.scope, bytes):
            return hash_unit_bytes(salted, self.scope)
        return hash_unit(salted, self.scope)


@dataclass(frozen=True)
class OutputGate:
    """Marks where paths end.  A run keeps, per output gate, the minimum
    arriving value and its originating identifier; an equal value goes to
    the smaller identifier, so the identifiers reaching one output gate must
    be mutually orderable (keys, gate-id strings and edge tuples are)."""


Gate = Union[InputGate, ScalarGate, GGate, OutputGate]


class CircuitError(ValueError):
    """The first structural rule a circuit breaks, at gate `gate_id`."""

    def __init__(self, gate_id, reason: str) -> None:
        super().__init__(f"invalid circuit: gate {gate_id!r}: {reason}")
        self.gate_id = gate_id
        self.reason = reason


class CircuitBuilder:
    """A gate DAG under construction.

    Gates are added by id (any hashable); wires are directed and ordered --
    the declaration order of an input gate's outgoing wires fixes the order
    in which its fresh exponentials are drawn, which is what makes replays
    and shard merges exact.  `validate` compiles the wires into a plan; the
    builder may be edited further, and a later `validate` sees the edits.
    """

    def __init__(self) -> None:
        self.gates: dict = {}
        self.labels: dict = {}
        self._succ: dict = {}
        self._pred: dict = {}

    def add_gate(self, gate_id, gate: Gate, label=None) -> None:
        if gate_id in self.gates:
            raise ValueError(f"duplicate gate id {gate_id!r}")
        self.gates[gate_id] = gate
        self._succ[gate_id] = []
        self._pred[gate_id] = []
        if label is not None:
            self.labels[gate_id] = label

    def add_wire(self, src, dst) -> None:
        for g in (src, dst):
            if g not in self.gates:
                raise ValueError(f"wire references unknown gate {g!r}")
        self._succ[src].append(dst)
        self._pred[dst].append(src)

    def validate(self) -> "CircuitPlan":
        """The compiled plan if the structural rules hold; CircuitError
        names the first rule broken."""
        for gate_id, gate in self.gates.items():
            n_out = len(self._succ[gate_id])
            n_in = len(self._pred[gate_id])
            if isinstance(gate, InputGate) and n_in > 0:
                raise CircuitError(gate_id, "input gate has a predecessor")
            if isinstance(gate, OutputGate) and n_out > 0:
                raise CircuitError(gate_id, "output gate has a successor")
            if isinstance(gate, ScalarGate):
                if n_out != 1:
                    raise CircuitError(
                        gate_id, f"scalar gate must have exactly 1 successor, has {n_out}")
                if n_in != 1:
                    raise CircuitError(
                        gate_id, f"scalar gate must have exactly 1 predecessor, has {n_in}")
            if isinstance(gate, GGate) and n_out != 1:
                raise CircuitError(
                    gate_id, f"G-gate must have exactly 1 successor, has {n_out}")

        for gate_id, gate in self.gates.items():
            if isinstance(gate, (ScalarGate, GGate)) and self._chain(gate_id)[-1] == gate_id:
                raise CircuitError(gate_id, "gate lies on a cycle")
        # with no cycle every scalar and G-gate chain ends at an output gate,
        # so only an input gate without wires reaches none
        paths, number = {}, 0
        for gate_id, gate in self.gates.items():
            if not isinstance(gate, InputGate):
                continue
            if not self._succ[gate_id]:
                raise CircuitError(gate_id, "gate cannot reach an output gate")
            if gate.key in paths:
                raise CircuitError(gate_id, f"another input gate has key {gate.key}")
            wires = []
            for dst in self._succ[gate_id]:
                chain = [gate_id] + self._chain(dst)
                passed = tuple((g, self.gates[g]) for g in chain[1:-1])
                last_g = max((i for i, (_, gate) in enumerate(passed)
                              if isinstance(gate, GGate)), default=-1)
                scale = math.prod(gate.alpha for _, gate in passed[last_g + 1:])
                wires.append((number, passed, chain[-1],
                              self.labels.get(chain[-2], chain[-2]), last_g, scale))
                number += 1
            paths[gate.key] = tuple(wires)
        outputs = tuple(g for g, gate in self.gates.items() if isinstance(gate, OutputGate))
        return CircuitPlan(paths, outputs)

    def _chain(self, gate_id) -> list:
        """gate_id and the gates after it, following single successors up to
        an output gate or up to the first gate met twice."""
        chain, seen = [gate_id], {gate_id}
        while not isinstance(self.gates[chain[-1]], OutputGate):
            nxt = self._succ[chain[-1]][0]
            chain.append(nxt)
            if nxt in seen:
                break
            seen.add(nxt)
        return chain


@dataclass(frozen=True)
class CircuitPlan:
    """A validated circuit, compiled: `paths` maps each input gate's key to
    its wires' paths in declaration order, each (path number, (gate id, gate)
    per gate passed, output gate, label reported, index of the last G-gate
    passed, product of the alphas after it); `outputs` holds the output
    gate ids in declaration order.  Any number of runs share one plan."""

    paths: dict
    outputs: tuple


# A path's threshold is computed once it has rejected this many values under
# one output value, not each time that value changes: most runs of a small
# circuit see a few updates, and eager thresholds cost them more than the
# evaluations they save.
_REJECTIONS_BEFORE_CUT = 3


class Circuit:
    """One run of a plan under `oracle`, a sketch of the stream: its fresh
    source, the G-gate seeds drawn under the oracle, the path thresholds
    and softcap levels found so far, and the output gates' pairs, every
    output gate empty at the start."""

    def __init__(self, plan: CircuitPlan, oracle: OracleHash = OracleHash()) -> None:
        self.plan = plan
        self.oracle = oracle
        self.fresh = FreshSource(oracle.seed)
        self._units: dict = {}  # G-gate id -> seed U under self.oracle
        self._memo: dict = {}  # G-gate id -> (step of a, level) last solved
        # per path number: its threshold y* (inf until computed), the output
        # value that y* and the rejection count are for, and that count
        n = sum(map(len, plan.paths.values()))
        self._cuts = [math.inf] * n, [None] * n, [0] * n
        self._out_state = dict.fromkeys(plan.outputs, (None, math.inf))

    def update(self, key: int, delta: float) -> None:
        """Process one update x(key) += delta.

        The pair is checked by the samplers' rule; a key with no input gate
        then changes nothing.  Each outgoing wire of the key's input gate,
        in declaration order, draws Exp(1)/delta from self.fresh and carries
        it along its path to its output gate; a start value or a
        scalar gate's quotient that underflows to 0 becomes the least
        positive double.  A path whose last G-gate has rejected three values
        under the output's current value gets a threshold y* on the starting
        value (see _cut); a value above it is rejected before any gate.
        Otherwise the path's last G-gate, bounded by the output's value
        times the alphas after it, solves only for a value that can change
        the output, and a softcap gate whose jump count repeats reuses its
        last level.  G-gate seeds come from this run's oracle.  Only
        output-gate state carries information between updates.  ValueError
        unless key is an int in [0, 2^64) and 0 < delta < inf.
        """
        check_update(key, delta)
        paths = self.plan.paths.get(key)
        if paths is None:
            return
        rng = self.fresh

        units, memo, out_state = self._units, self._memo, self._out_state
        cut_y, cut_h, cut_n = self._cuts
        for number, passed, out_id, label, last_g, scale in paths:
            value = fresh_exp(rng) / delta or 5e-324
            ident, h_star = out_state[out_id]
            if value > cut_y[number] and cut_h[number] == h_star:
                continue
            for i, (gate_id, gate) in enumerate(passed):
                if isinstance(gate, ScalarGate):
                    value = value / gate.alpha or 5e-324
                    continue
                u = units.get(gate_id)
                if u is None:
                    u = units[gate_id] = gate.unit(self.oracle)
                step = gate.level.step
                key = step(value) if step is not None else None
                if key is not None:
                    last = memo.get(gate_id)
                    if last is not None and last[0] == key:
                        value = last[1]
                        continue
                value = gate.level.eval(value, u, h_star * scale if i == last_g else math.inf)
                if key is not None and value < math.inf:
                    memo[gate_id] = (key, value)
            # the smaller (value, identifier) pair, as the samplers keep it;
            # the first arrival always, even at inf
            if ident is None or value < h_star or (value == h_star and label < ident):
                out_state[out_id] = (label, value)
            elif cut_h[number] != h_star:
                cut_y[number], cut_h[number], cut_n[number] = math.inf, h_star, 1
            else:
                cut_n[number] += 1
                if cut_n[number] == _REJECTIONS_BEFORE_CUT:
                    cut_y[number] = self._cut(passed, last_g, h_star * scale)

    def _cut(self, passed: tuple, last_g: int, bound: float) -> float:
        """The least start value y* found past which the path's last G-gate
        rejects under bound, or inf.  The gate's level gives an a* (see
        LevelFunction.cut); scalar gates before it multiply back by alpha,
        fhalf gates invert their level; any other gate before it gives inf.
        One value, y* pushed forward along the path as update pushes it,
        must pass LevelFunction.certifies.  Every gate before the last is
        monotone in its input to the last bit, so every value above y*
        reaches the last G-gate at or past that one and is rejected there:
        skipping the path changes no output.  The walks that counted the
        path's rejections drew its seeds."""
        if last_g < 0 or not bound < math.inf:
            return math.inf
        units = self._units
        last_id, last = passed[last_g]
        y = last.level.cut(units[last_id], bound)
        for gate_id, gate in reversed(passed[:last_g]):
            y = (y * gate.alpha if isinstance(gate, ScalarGate)
                 else gate.level.unlevel(y, units[gate_id]))
        y = max(y, 5e-324)  # the least start value update passes on
        if not y < math.inf:
            return math.inf
        a = y
        for gate_id, gate in passed[:last_g]:
            a = ((a / gate.alpha or 5e-324) if isinstance(gate, ScalarGate)
                 else gate.level.eval(a, units[gate_id]))
        return y if last.level.certifies(a, units[last_id], bound) else math.inf

    def output(self, output_gate) -> Optional[tuple[object, float]]:
        """The stored (identifier, value) pair of an output gate, if any;
        ValueError for any other id, an unhashable one included."""
        try:
            state = self._out_state[output_gate]
        except (KeyError, TypeError):
            raise ValueError(f"{output_gate!r} is not an output gate") from None
        return None if state[0] is None else state

    def output_gate_ids(self) -> list:
        return list(self._out_state)

    def query(self) -> Optional[tuple[object, float]]:
        """The first declared output gate's pair, as output gives it; None
        for a plan without output gates, which has no input gates either."""
        return self.output(self.plan.outputs[0]) if self.plan.outputs else None


def build_flat_circuit(weights_by_key: dict[int, LevelFunction]) -> CircuitPlan:
    """One input gate and one G-gate per key, all feeding one output gate.

    With the same weight function everywhere this reproduces a GSampler
    seed for seed; with different ones it samples key v with probability
    G_v(x(v)) / sum_u G_u(x(u)).
    """
    c = CircuitBuilder()
    c.add_gate("out", OutputGate())
    for key in weights_by_key:
        c.add_gate(("in", key), InputGate(key))
        c.add_gate(("g", key), GGate(weights_by_key[key], 0, key),
                   label=key)
        c.add_wire(("in", key), ("g", key))
        c.add_wire(("g", key), "out")
    return c.validate()


@dataclass(frozen=True)
class EdgeSamplerSpec:
    """A fixed (hyper)graph whose vertex masses arrive as a stream.

    Edges are tuples of 2 to 4 distinct vertices; orientation is ignored
    (the weight is symmetric), so edges are canonicalized sorted.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for v in self.vertices:  # edge scopes pack vertices as G-gate int scopes
            if not (type(v) is int and 0 <= v < 1 << 64):
                raise ValueError(f"vertex ids must be ints in [0, 2^64), got {v!r}")
        vertex_set = set(self.vertices)
        if len(vertex_set) != len(self.vertices):
            raise ValueError("duplicate vertices")
        seen = set()
        for e in self.edges:
            if not (2 <= len(e) <= 4):
                raise ValueError(f"edge arity must be 2..4, got {e}")
            if len(set(e)) != len(e):
                raise ValueError(f"self-loop in edge {e}")
            # True or 1.0 would pass as vertex 1 by equality
            if not set(e) <= vertex_set or any(type(v) is not int for v in e):
                raise ValueError(f"edge {e} references unknown vertices")
            canon = tuple(sorted(e))
            if canon in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(canon)

    def canonical_edges(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(e)) for e in self.edges)


def _scope(*ids: int) -> bytes:
    """A G-gate scope packing vertex ids: an edge, or a vertex then an edge."""
    return struct.pack(f"<{len(ids)}Q", *ids)


def build_edge_sampler(spec: EdgeSamplerSpec) -> CircuitPlan:
    """The edge-sampling circuit for the fixed weight
    log(1 + sum sqrt) + 2(1 - exp(-sum)).

    Per edge: a log gate fed by one square-root gate per endpoint, plus a
    soft-cap gate over the endpoints' direct signals, halved by a scalar
    gate; both paths feed one global output gate and report the edge.  Per
    update at a vertex, each incident edge consumes two fresh exponentials
    (square-root path first).

    Each square-root gate is seeded per (vertex, edge) pair, not per vertex:
    sharing one vertex seed across that vertex's edges correlates the edges'
    candidate values, and the sampled-edge law then deviates measurably from
    proportionality on skewed mass profiles.  Independent per-gate seeds
    make every edge's value an independent exponential, so the proportional
    law holds exactly.
    """
    c = CircuitBuilder()
    c.add_gate("out", OutputGate())
    sqrt_level = LevelFunction(FHalf())
    softcap_level = LevelFunction(SoftCap(1.0))
    log_level = LevelFunction(Log())

    edges = spec.canonical_edges()
    connected = {v for e in edges for v in e}
    # isolated vertices get no gates: with no incident edge their mass can
    # never influence any edge's weight
    for v in spec.vertices:
        if v in connected:
            c.add_gate(("in", v), InputGate(v))
    for e in edges:
        scope = _scope(*e)
        c.add_gate(("softcap", e), GGate(softcap_level, SALT_EDGE_SOFTCAP, scope))
        c.add_gate(("half", e), ScalarGate(2.0), label=e)
        c.add_gate(("log", e), GGate(log_level, SALT_EDGE_LOG, scope), label=e)
        for v in e:
            c.add_gate(("sqrt", v, e), GGate(sqrt_level, SALT_VERTEX_SQRT, _scope(v, *e)))
            c.add_wire(("sqrt", v, e), ("log", e))
        c.add_wire(("softcap", e), ("half", e))
        c.add_wire(("half", e), "out")
        c.add_wire(("log", e), "out")
    # wire inputs in canonical edge order: square-root path then direct path
    for v in spec.vertices:
        for e in edges:
            if v in e:
                c.add_wire(("in", v), ("sqrt", v, e))
                c.add_wire(("in", v), ("softcap", e))
    return c.validate()


class EdgeSampler(Circuit):
    """A run of the edge-sampling circuit over vertex updates; an isolated
    vertex has no input gate, so its updates are checked and change nothing."""

    def __init__(self, spec: EdgeSamplerSpec, oracle: OracleHash = OracleHash()):
        super().__init__(build_edge_sampler(spec), oracle)

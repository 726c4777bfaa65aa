"""Gate DAG validation, propagation semantics, and circuit sampling laws."""

import math
import random
import struct
from collections import Counter
from dataclasses import FrozenInstanceError
from functools import partial

import pytest

from levysketch.circuits import (
    SALT_EDGE_LOG,
    SALT_EDGE_SOFTCAP,
    SALT_VERTEX_SQRT,
    Circuit,
    CircuitBuilder,
    CircuitError,
    CircuitPlan,
    EdgeSampler,
    EdgeSamplerSpec,
    GGate,
    InputGate,
    OutputGate,
    ScalarGate,
    build_edge_sampler,
    build_flat_circuit,
)
from levysketch.level import F0, F1, FHalf, Log, LevelFunction, KilledDriftSum, Scaled, SoftCap
from levysketch.oracle import (
    chi_square_gof,
    edge_weight,
    exact_edge_distribution,
    ExactDistribution,
    ks_test_exponential,
)
from levysketch.randomness import (
    FreshSource,
    OracleHash,
    derive_seed,
    fresh_exp,
    hash_unit,
    hash_unit_bytes,
    parse_seed,
)
from levysketch.samplers import GSampler

SEED = parse_seed("c1bc")
F1_LEVEL = LevelFunction(F1())
FHALF_LEVEL = LevelFunction(FHalf())


def _oracle(i: int) -> OracleHash:
    return OracleHash(derive_seed(SEED, i))


def _chain(*gates) -> CircuitBuilder:
    c = CircuitBuilder()
    for gate_id, gate in gates:
        c.add_gate(gate_id, gate)
    return c


def _violation(c: CircuitBuilder) -> tuple:
    """(gate id, reason) of the CircuitError that validating c raises."""
    with pytest.raises(CircuitError) as err:
        c.validate()
    assert isinstance(err.value, ValueError)
    assert str(err.value) == f"invalid circuit: gate {err.value.gate_id!r}: {err.value.reason}"
    return err.value.gate_id, err.value.reason


def test_flat_circuit_validates():
    plan = build_flat_circuit({1: F1_LEVEL, 2: F1_LEVEL})
    assert isinstance(plan, CircuitPlan) and plan.outputs == ("out",)
    assert list(plan.paths) == [1, 2]  # keyed by the input gates' keys


def test_ggate_two_successors_violation():
    c = _chain(("in", InputGate(1)), ("g", GGate(F1_LEVEL, 0, 1)),
               ("o1", OutputGate()), ("o2", OutputGate()))
    c.add_wire("in", "g")
    c.add_wire("g", "o1")
    c.add_wire("g", "o2")
    assert _violation(c) == ("g", "G-gate must have exactly 1 successor, has 2")


def test_cycle_violation():
    c = _chain(("a", ScalarGate(2.0)), ("b", ScalarGate(2.0)))
    c.add_wire("a", "b")
    c.add_wire("b", "a")
    assert _violation(c) == ("a", "gate lies on a cycle")


def test_scalar_arity_violations():
    c = _chain(("in", InputGate(1)), ("s", ScalarGate(2.0)), ("out", OutputGate()))
    c.add_wire("in", "s")
    # no successor
    assert _violation(c) == ("s", "scalar gate must have exactly 1 successor, has 0")
    c.add_wire("s", "out")
    assert isinstance(c.validate(), CircuitPlan)
    c.add_wire("in", "s")  # second predecessor
    assert _violation(c) == ("s", "scalar gate must have exactly 1 predecessor, has 2")


def test_output_with_successor_violation():
    c = _chain(("in", InputGate(1)), ("out", OutputGate()), ("s", ScalarGate(1.0)))
    c.add_wire("out", "s")
    assert _violation(c) == ("out", "output gate has a successor")


def test_unreachable_gate_violation():
    c = _chain(("in", InputGate(1)), ("g", GGate(F1_LEVEL, 0, 1)),
               ("out", OutputGate()), ("stray", InputGate(2)))
    c.add_wire("in", "g")
    c.add_wire("g", "out")
    assert _violation(c) == ("stray", "gate cannot reach an output gate")


def test_input_with_predecessor_violation():
    c = _chain(("a", InputGate(1)), ("b", InputGate(2)))
    c.add_wire("a", "b")
    assert _violation(c) == ("b", "input gate has a predecessor")


def test_two_input_gates_on_one_key_violation():
    # a key feeds one input gate, so plan.paths can be keyed by it
    c = _chain(("a", InputGate(7)), ("out", OutputGate()), ("b", InputGate(7)))
    c.add_wire("a", "out")
    c.add_wire("b", "out")
    assert _violation(c) == ("b", "another input gate has key 7")


def test_input_gate_key_must_be_a_64_bit_int():
    for bad in (None, "1", 1.5, (1,), -1, 1 << 64, True, False):
        with pytest.raises(ValueError, match="input gate key"):
            InputGate(bad)
    gate = InputGate((1 << 64) - 1)  # frozen, so a plan's keys stay as validated
    with pytest.raises(FrozenInstanceError):
        gate.key = 0


def test_flat_circuit_of_a_sum_matches_gsampler():
    # a G-gate takes a sum like any weight: one seed U per gate
    level = LevelFunction(KilledDriftSum(c=1.0, g0=1.0, atoms=((2.0, 0.5),)))
    for i in range(50):
        rnd = random.Random(i)
        keys = list(range(rnd.randint(1, 8)))
        oracle = _oracle(3000 + i)
        circuit = Circuit(build_flat_circuit({k: level for k in keys}), oracle)
        scalar = GSampler(level, oracle)
        for _ in range(rnd.randint(1, 40)):
            key, delta = rnd.choice(keys), rnd.uniform(0.1, 5.0)
            circuit.update(key, delta)
            scalar.update(key, delta)
        assert circuit.output("out") == scalar.query()


def test_ggate_scope_must_be_a_key_or_bytes():
    for bad in (None, "edge", 1.5, (1, 2), -1, 1 << 64, True, False):
        with pytest.raises(ValueError):
            GGate(F1_LEVEL, 0, bad)
    gate = GGate(F1_LEVEL, 0, 1)  # frozen, so a plan's gates stay as validated
    with pytest.raises(FrozenInstanceError):
        gate.scope = -1
    assert gate != GGate(F1_LEVEL, 0, 1)  # gates compare by identity


def test_update_errors():
    c = Circuit(build_flat_circuit({1: F1_LEVEL}), _oracle(0))
    for key in ("nope", ("in", 1), 1.0, -1, 1 << 64):  # gate ids are not keys
        with pytest.raises(ValueError, match="key must be an int"):
            c.update(key, 1.0)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            c.update(1, bad)
    c.update(2, 1.0)  # a legal key with no input gate changes nothing
    assert c.fresh.counter == 0  # rejected before drawing randomness
    assert c.query() is None
    for bad in (("in", 1), "nope", ["out"], {}):  # unhashable ids included
        with pytest.raises(ValueError, match="not an output gate"):
            c.output(bad)


def test_update_rejects_invalid_circuit():
    # a run is made from a plan alone, so an invalid circuit never runs:
    # validate names the gate and the rule
    fan = _chain(("in", InputGate(1)), ("g", GGate(F1_LEVEL, 0, 1)),
                 ("o1", OutputGate()), ("o2", OutputGate()))
    fan.add_wire("in", "g")
    fan.add_wire("g", "o1")
    fan.add_wire("g", "o2")
    with pytest.raises(CircuitError, match="'g'.*successor"):
        fan.validate()
    loop = _chain(("in", InputGate(1)), ("g1", GGate(F1_LEVEL, 0, 1)),
                  ("g2", GGate(F1_LEVEL, 0, 2)), ("out", OutputGate()))
    loop.add_wire("in", "g1")
    loop.add_wire("g1", "g2")
    loop.add_wire("g2", "g1")
    with pytest.raises(CircuitError, match="'g1'.*cycle"):
        loop.validate()


def test_duplicate_gate_and_unknown_wire():
    c = CircuitBuilder()
    c.add_gate("x", InputGate(1))
    with pytest.raises(ValueError):
        c.add_gate("x", OutputGate())
    with pytest.raises(ValueError):
        c.add_wire("x", "missing")


def test_flat_circuit_matches_gsampler_seed_for_seed():
    for i in range(300):
        rnd = random.Random(i)
        keys = list(range(rnd.randint(1, 8)))
        stream = [(rnd.choice(keys), rnd.uniform(0.1, 5.0))
                  for _ in range(rnd.randint(1, 40))]
        oracle = _oracle(1000 + i)
        circuit = Circuit(build_flat_circuit({k: FHALF_LEVEL for k in keys}), oracle)
        scalar = GSampler(FHALF_LEVEL, oracle)
        for key, delta in stream:
            circuit.update(key, delta)
            scalar.update(key, delta)
        assert circuit.output("out") == scalar.query()


def test_flat_circuit_ties_at_infinity_match_gsampler():
    # 1e-310 deltas put every candidate at inf: the first arrival is kept,
    # then the smaller key takes the tie, as in the sampler
    oracle = _oracle(2000)
    circuit = Circuit(build_flat_circuit({k: FHALF_LEVEL for k in (1, 0)}), oracle)
    scalar = GSampler(FHALF_LEVEL, oracle)
    for key in (1, 0):
        circuit.update(key, 1e-310)
        scalar.update(key, 1e-310)
    assert scalar.query() == (0, math.inf)
    assert circuit.output("out") == scalar.query()


def test_edge_sampler_reports_an_edge_after_subnormal_deltas():
    s = EdgeSampler(EdgeSamplerSpec((1, 2, 3), ((1, 2), (2, 3))), _oracle(2001))
    s.update(2, 1e-310)
    edge, h = s.query()
    assert edge in ((1, 2), (2, 3))


def test_heterogeneous_flat_circuit():
    # frequency weight on key 1 (mass 3), presence weight on key 2 (mass 5):
    # P(key 1) = 3 / (3 + 1)
    plan = build_flat_circuit({1: F1_LEVEL, 2: LevelFunction(F0())})
    hits = 0
    reps = 20_000
    for rep in range(reps):
        oracle = _oracle(40_000 + rep)
        c = Circuit(plan, oracle)
        c.update(1, 3.0)
        c.update(2, 5.0)
        hits += c.output("out")[0] == 1
    assert abs(hits / reps - 0.75) <= 3 * math.sqrt(0.1875 / reps)


def test_scalar_gate_halves_rate():
    # input -> frequency gate -> divide by 2 -> output: rate 2 * mass
    mass = 1.5
    circuit = _chain(("in", InputGate(1)), ("g", GGate(F1_LEVEL, 0, 1)),
                     ("half", ScalarGate(2.0)), ("out", OutputGate()))
    circuit.add_wire("in", "g")
    circuit.add_wire("g", "half")
    circuit.add_wire("half", "out")
    plan = circuit.validate()
    values = []
    for rep in range(5_000):
        oracle = _oracle(80_000 + rep)
        c = Circuit(plan, oracle)
        c.update(1, mass)
        values.append(c.output("out")[1])
    assert ks_test_exponential(values, 2.0 * mass).passed


_REFERENCE_LEVELS = (LevelFunction(F0()), F1_LEVEL, FHALF_LEVEL, LevelFunction(Log()),
                     LevelFunction(SoftCap(0.5)))


def _random_circuit(rnd):
    """A random valid circuit with two output gates, and by hand each input
    gate's wires in declaration order as (operations, output, label), by
    the gate's key."""
    c = CircuitBuilder()
    ids = iter(range(10**6))
    outs = ("o0", "o1")
    for o in outs:
        c.add_gate(o, OutputGate())

    def prepend(gate, dst, ops):
        """Wire a new gate in front of dst; returns its id and operations."""
        gate_id = f"x{next(ids):02d}"
        c.add_gate(gate_id, gate, label=f"L{gate_id}" if rnd.random() < 0.5 else None)
        c.add_wire(gate_id, dst)
        op = ("s", gate.alpha) if isinstance(gate, ScalarGate) else (
            "g", gate.level, gate.seed_salt, gate.scope)
        return gate_id, [op] + ops

    def scalars(dst, ops, n):
        for _ in range(n):
            dst, ops = prepend(ScalarGate(rnd.uniform(0.5, 3.0)), dst, ops)
        return dst, ops

    def label(gate_id):
        return c.labels.get(gate_id, gate_id)

    entries = []  # (gate a wire enters, operations, output, label or None)
    for _ in range(rnd.randint(1, 2)):  # G-gates with 2 or 3 predecessors
        out = rnd.choice(outs)
        dst, ops = scalars(out, [], rnd.randint(0, 1))
        scope = rnd.choice((rnd.getrandbits(64), rnd.randbytes(rnd.randint(0, 12))))
        g, ops = prepend(GGate(rnd.choice(_REFERENCE_LEVELS), rnd.randint(0, 3), scope),
                         dst, ops)
        reported = label(dst if dst != out else g)
        for _ in range(rnd.randint(2, 3)):
            entry, entry_ops = scalars(g, ops, rnd.randint(0, 2))
            entries.append((entry, entry_ops, out, reported))
    for _ in range(rnd.randint(1, 3)):  # direct wires and scalar chains
        out = rnd.choice(outs)
        last, ops = scalars(out, [], rnd.randint(0, 1))
        entry, ops = scalars(last, ops, rnd.randint(0, 1) if last != out else 0)
        entries.append((entry, ops, out, None if last == out else label(last)))
    rnd.shuffle(entries)
    wires = {key: [] for key in range(rnd.randint(1, 3))}
    for key in wires:
        c.add_gate(f"in{key}", InputGate(key))
    for j, (entry, ops, out, reported) in enumerate(entries):
        key = j if j < len(wires) else rnd.choice(sorted(wires))
        c.add_wire(f"in{key}", entry)
        wires[key].append((ops, out, f"in{key}" if reported is None else reported))
    return c, wires


def _hub_edge_sampler():
    """An edge-sampler circuit on a hub of degree 26 with rim edges, and by
    hand, from the construction's definition, each vertex's wires."""
    leaves = range(1, 25)
    edges = [(0, v) for v in leaves] + [(0, 1, 2), (0, 3, 4, 5), (1, 2), (6, 7)]
    spec = EdgeSamplerSpec(tuple(range(25)), tuple(edges))
    sqrt_level, softcap_level = LevelFunction(FHalf()), LevelFunction(SoftCap(1.0))
    log_level = LevelFunction(Log())
    wires = {}
    for v in spec.vertices:
        for e in spec.canonical_edges():
            if v in e:
                edge = struct.pack(f"<{len(e)}Q", *e)
                vertex_edge = struct.pack(f"<{1 + len(e)}Q", v, *e)
                wires.setdefault(v, []).extend([
                    ([("g", sqrt_level, SALT_VERTEX_SQRT, vertex_edge),
                      ("g", log_level, SALT_EDGE_LOG, edge)], "out", e),
                    ([("g", softcap_level, SALT_EDGE_SOFTCAP, edge), ("s", 2.0)], "out", e)])
    return build_edge_sampler(spec), wires


def _cut_circuit(rnd):
    """A random circuit whose paths end in a log or softcap gate after fhalf
    and scalar gates, fanned in, and by hand each input gate's wires in
    declaration order as (operations, output, label), by the gate's key."""
    c = CircuitBuilder()
    c.add_gate("out", OutputGate())
    wires = {0: [], 1: []}
    for key in wires:
        c.add_gate(f"in{key}", InputGate(key))
    ids = iter(range(10**6))

    def add(gate, dst):
        gate_id = f"x{next(ids):02d}"
        c.add_gate(gate_id, gate)
        c.add_wire(gate_id, dst)
        return gate_id

    for e in range(rnd.randint(2, 4)):
        dst, tail = "out", []
        for _ in range(rnd.randint(0, 1)):
            alpha = rnd.uniform(0.5, 3.0)
            dst, tail = add(ScalarGate(alpha), dst), [("s", alpha)] + tail
        level = LevelFunction(rnd.choice((Log(), Scaled(2.5, Log()), SoftCap(0.5),
                                          SoftCap(3.0))))
        g = add(GGate(level, e, e), dst)
        label = g if dst == "out" else dst
        ops_at_g = [("g", level, e, e)] + tail
        for _ in range(rnd.randint(1, 3)):  # fan-in
            entry, ops = g, ops_at_g
            for _ in range(rnd.randint(0, 3)):
                if rnd.random() < 0.5:
                    alpha = rnd.uniform(0.5, 3.0)
                    entry, ops = add(ScalarGate(alpha), entry), [("s", alpha)] + ops
                else:
                    scope = rnd.getrandbits(64)
                    fhalf = LevelFunction(Scaled(rnd.uniform(0.5, 2.0), FHalf()))
                    entry = add(GGate(fhalf, 7, scope), entry)
                    ops = [("g", fhalf, 7, scope)] + ops
            empty = [key for key in sorted(wires) if not wires[key]]
            key = empty[0] if empty else rnd.choice(sorted(wires))
            c.add_wire(f"in{key}", entry)
            wires[key].append((ops, "out", label))
    return c, wires


def _check_against_reference(plan, wires, oracles, updates):
    """Run plan once per oracle, feed the runs each (key, delta) of
    updates, in turn, and recompute every output of every run by hand
    after every update: one fresh draw per wire in declaration order,
    pushed through that wire's gates with seeds drawn under that run's
    oracle, a start value or quotient that underflows to 0 taken as
    5e-324.  So a seed table shared between runs, or a run reading
    another's oracle, fails.  Returns the finite path thresholds found."""
    runs = [(Circuit(plan, oracle), oracle, FreshSource(oracle.seed), {}) for oracle in oracles]
    cuts = []
    original = Circuit._cut
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Circuit, "_cut", lambda *args: cuts.append(original(*args)) or cuts[-1])
        for key, delta in updates:
            for run, oracle, ref_fresh, state in runs:
                run.update(key, delta)
                for ops, out, label in wires[key]:
                    value = fresh_exp(ref_fresh) / delta or 5e-324
                    for op in ops:
                        if op[0] == "s":
                            value = value / op[1] or 5e-324
                        else:
                            _, level, salt, scope = op
                            salted = OracleHash(oracle.seed, salt)
                            u = (hash_unit_bytes(salted, scope) if isinstance(scope, bytes)
                                 else hash_unit(salted, scope))
                            value = level.eval(value, u)
                    if out not in state or (value, label) < state[out][::-1]:
                        state[out] = (label, value)
                for out in run.output_gate_ids():
                    assert run.output(out) == state.get(out)
                assert run.fresh.counter == ref_fresh.counter
    return [y for y in cuts if y < math.inf]


def test_propagation_matches_reference():
    for i in range(60):
        rnd = random.Random(i)
        c, wires = _random_circuit(rnd)
        plan = c.validate()
        keys = [rnd.choice(sorted(wires)) for _ in range(rnd.randint(1, 12))]
        updates = [(key, 1e-310 if rnd.random() < 0.2 else rnd.uniform(0.1, 5.0))
                   for key in keys]
        _check_against_reference(plan, wires, (_oracle(600_000 + i), _oracle(700_000 + i)),
                                 updates)
    # log and softcap gates last after fhalf and scalar gates, under deltas
    # 600 orders of magnitude apart: outputs hold long enough that paths
    # get thresholds, and values above them skip every gate
    cuts = 0
    for i in range(30):
        rnd = random.Random(800 + i)
        c, wires = _cut_circuit(rnd)
        updates = [(rnd.choice(sorted(wires)), rnd.choice((1e-300, 1e-3, 1.0, 1e3, 1e300)))
                   for _ in range(40)]
        cuts += len(_check_against_reference(
            c.validate(), wires, (_oracle(800_000 + i), _oracle(900_000 + i)), updates))
    assert cuts >= 400
    # a hub: most candidates there cannot change the output and are
    # rejected before any level
    rnd = random.Random(60)
    plan, wires = _hub_edge_sampler()
    updates = [(0 if rnd.random() < 0.3 else rnd.choice(sorted(wires)),
                1e-310 if rnd.random() < 0.02 else rnd.uniform(0.1, 5.0)) for _ in range(2_000)]
    assert len(_check_against_reference(plan, wires, (_oracle(600_060), _oracle(700_060)),
                                        updates)) >= 500


def test_hub_paths_are_rejected_before_any_level(monkeypatch):
    # every wire still draws its fresh exponential, but on this degree-26
    # hub the level evaluations per update fall from about 29 to under 1
    import levysketch.circuits as circuits_module
    plan, wires = _hub_edge_sampler()
    rnd = random.Random(61)
    keys = [0 if rnd.random() < 0.3 else rnd.choice(sorted(wires)) for _ in range(2_000)]
    deltas = [rnd.uniform(0.1, 5.0) for _ in keys]
    evals = Counter()
    original = LevelFunction.eval
    monkeypatch.setattr(LevelFunction, "eval",
                        lambda *args: evals.update(["n"]) or original(*args))
    outputs = []
    for rejections in (math.inf, 3):  # never a threshold, then as built
        monkeypatch.setattr(circuits_module, "_REJECTIONS_BEFORE_CUT", rejections)
        evals.clear()
        run = Circuit(plan, _oracle(600_061))
        for key, delta in zip(keys, deltas):
            run.update(key, delta)
        assert run.fresh.counter == sum(len(wires[key]) for key in keys)
        outputs.append((run.output("out"), evals["n"] / len(keys)))
    (without, before), (with_cuts, after) = outputs
    assert with_cuts == without
    assert before > 25 and after < 1, (before, after)


def test_rejected_candidates_do_not_reach_the_solver(full_evals):
    # only the soft-cap and log gates whose value can change the output are
    # evaluated in full: on a 20-star with a Zipf stream, a few updates are
    rnd = random.Random(126)
    spec = EdgeSamplerSpec(tuple(range(21)), tuple((0, v) for v in range(1, 21)))
    s = EdgeSampler(spec, _oracle(127))
    zipf = [1.0 / (i + 1) ** 1.1 for i in range(21)]
    for v in rnd.choices(range(21), zipf, k=2_000):
        s.update(v, 10.0 ** rnd.uniform(-3.0, 3.0))
    assert full_evals["n"] < 0.05 * 2_000


def test_softcap_ties_reuse_the_gates_last_level(full_evals):
    # for a <= tau a softcap level depends on its seed alone, so on these
    # seeds a 20-star re-solved the same soft-cap levels 300 to 470 times;
    # each gate's last (jump count, level) now serves every repeat, and the
    # outputs stay those of a run that solves each one again
    spec = EdgeSamplerSpec(tuple(range(21)), tuple((0, v) for v in range(1, 21)))
    zipf = [1.0 / (i + 1) ** 1.1 for i in range(21)]
    for seed in (6, 7, 11, 17, 19):
        rnd = random.Random(126)
        updates = [(v, 10.0 ** rnd.uniform(-3.0, 3.0))
                   for v in rnd.choices(range(21), zipf, k=2_000)]
        memo, solving = EdgeSampler(spec, _oracle(seed)), EdgeSampler(spec, _oracle(seed))
        for path in (p for paths in solving.plan.paths.values() for p in paths):
            for _, gate in path[1]:
                if isinstance(gate, GGate):
                    gate.level.step = None  # the gates of this build only
        calls, outputs = [], []
        for s in (memo, solving):
            full_evals.clear()
            outputs.append([s.update(v, delta) or s.query() for v, delta in updates])
            calls.append(full_evals["n"])
        assert outputs[0] == outputs[1]
        assert calls[0] < 10 < 300 < calls[1], calls


def test_spec_validation():
    with pytest.raises(ValueError):
        EdgeSamplerSpec((1, 2), ((1, 1),))  # self loop
    with pytest.raises(ValueError):
        EdgeSamplerSpec((1, 2), ((1, 3),))  # unknown vertex
    for bad in (True, 1.0):  # equal to vertex 1, but not a vertex id
        with pytest.raises(ValueError, match="unknown vertices"):
            EdgeSamplerSpec((1, 2), ((bad, 2),))
    with pytest.raises(ValueError):
        EdgeSamplerSpec((1, 1, 2), ((1, 2),))  # duplicate vertex
    with pytest.raises(ValueError):
        EdgeSamplerSpec((1, 2), ((1, 2), (2, 1)))  # duplicate edge
    with pytest.raises(ValueError):
        EdgeSamplerSpec((1, 2, 3, 4, 5), ((1, 2, 3, 4, 5),))  # arity 5
    for bad in (-1, 1 << 64, 1.5, "1", True, False):  # not a 64-bit vertex id
        with pytest.raises(ValueError, match="vertex ids"):
            EdgeSamplerSpec((bad, 2), ((bad, 2),))
    EdgeSamplerSpec((0, (1 << 64) - 1), ((0, (1 << 64) - 1),))


def test_circuit_sketch_is_the_scalar_sampler_on_a_flat_circuit():
    plan = build_flat_circuit({1: FHALF_LEVEL, 2: FHALF_LEVEL})
    stream = [(1, 1.0), (7, 5.0), (2, 3.0), (1, 0.5)]
    for rep in range(20):
        # one plan serves every run: a new run starts empty
        sketch = Circuit(plan, _oracle(rep))
        scalar = GSampler(FHALF_LEVEL, _oracle(rep))
        for key, delta in stream:
            sketch.update(key, delta)  # key 7 feeds no gate and is ignored
            if key in plan.paths:
                scalar.update(key, delta)
        assert sketch.query() == scalar.query()
        assert sketch.fresh.counter == scalar.fresh.counter == 3


def test_single_edge_graph():
    spec = EdgeSamplerSpec((1, 2), ((1, 2),))
    s = EdgeSampler(spec, _oracle(7))
    assert s.query() is None
    s.update(1, 2.0)
    edge, h = s.query()
    assert edge == (1, 2)
    assert h > 0


def test_edge_sampler_value_law():
    spec = EdgeSamplerSpec((1, 2), ((1, 2),))
    masses = {1: 1.0, 2: 2.0}
    rate = edge_weight(1.0, 2.0)
    values = []
    sampler = partial(Circuit, build_edge_sampler(spec))
    for rep in range(4_000):
        s = sampler(_oracle(100_000 + rep))
        for v, m in masses.items():
            s.update(v, m)
        values.append(s.query()[1])
    assert ks_test_exponential(values, rate).passed


def test_path_graph_symmetric():
    # two edges with identical endpoint masses are equally likely
    spec = EdgeSamplerSpec((1, 2, 3), ((1, 2), (2, 3)))
    hits = 0
    reps = 20_000
    sampler = partial(Circuit, build_edge_sampler(spec))
    for rep in range(reps):
        s = sampler(_oracle(200_000 + rep))
        for v, m in ((1, 2.0), (2, 1.0), (3, 2.0)):
            s.update(v, m)
        hits += s.query()[0] == (1, 2)
    assert abs(hits / reps - 0.5) <= 3 * math.sqrt(0.25 / reps)


def test_triangle_distribution():
    spec = EdgeSamplerSpec((1, 2, 3), ((1, 2), (2, 3), (1, 3)))
    masses = {1: 1.0, 2: 2.0, 3: 3.0}
    counts = Counter()
    reps = 20_000
    sampler = partial(Circuit, build_edge_sampler(spec))
    for rep in range(reps):
        s = sampler(_oracle(300_000 + rep))
        for v in sorted(masses):
            s.update(v, masses[v])
        counts[s.query()[0]] += 1
    assert chi_square_gof(counts, exact_edge_distribution(spec.edges, masses)).passed


def test_hyperedge_arity3():
    spec = EdgeSamplerSpec((1, 2, 3, 4), ((1, 2, 3), (2, 3, 4)))
    masses = {1: 0.5, 2: 1.0, 3: 2.0, 4: 4.0}
    counts = Counter()
    reps = 15_000
    sampler = partial(Circuit, build_edge_sampler(spec))
    for rep in range(reps):
        s = sampler(_oracle(400_000 + rep))
        for v in sorted(masses):
            s.update(v, masses[v])
        counts[s.query()[0]] += 1
    assert chi_square_gof(counts, exact_edge_distribution(spec.edges, masses)).passed


def test_isolated_vertex_never_sampled():
    spec = EdgeSamplerSpec((1, 2, 9), ((1, 2),))
    s = EdgeSampler(spec, _oracle(8))
    s.update(9, 100.0)  # no incident edge: a no-op
    assert s.query() is None
    s.update(1, 0.5)
    assert s.query()[0] == (1, 2)


def test_sketches_over_one_circuit_keep_their_own_state():
    plan = build_flat_circuit({1: FHALF_LEVEL, 2: FHALF_LEVEL})
    a = Circuit(plan, _oracle(1))
    a.update(1, 1.0)
    first = a.query()
    assert first is not None
    # a second sketch on the same plan starts empty and leaves a alone
    b = Circuit(plan, _oracle(2))
    assert b.query() is None
    assert a.query() == first
    scalars = (GSampler(FHALF_LEVEL, _oracle(1)), GSampler(FHALF_LEVEL, _oracle(2)))
    scalars[0].update(1, 1.0)
    for key, delta in ((2, 3.0), (1, 0.5), (2, 0.25), (1, 4.0)):
        for sketch, scalar in zip((a, b), scalars):
            sketch.update(key, delta)
            scalar.update(key, delta)
            assert sketch.query() == scalar.query()
    assert a.query() != b.query()


def test_circuit_sketch_checks_updates_like_the_samplers():
    # an isolated vertex (3), a key with no vertex (99) and a key outside 64
    # bits are all checked before the input-gate lookup, as GSampler checks them
    s = EdgeSampler(EdgeSamplerSpec((1, 2, 3), ((1, 2),)), _oracle(9))
    scalar = GSampler(F1_LEVEL, _oracle(9))
    for key, delta in ((3, -1.0), (3, math.nan), (3, math.inf), (99, -1.0), (99, 0.0),
                       (-5, 1.0), (1 << 64, 1.0), (1, -1.0), (1, math.inf)):
        for sketch in (s, scalar):
            with pytest.raises(ValueError, match="key must be an int|delta must be positive"):
                sketch.update(key, delta)
    assert s.fresh.counter == 0 and s.query() is None
    s.update(99, 1.0)  # a legal key with no input gate cannot change the output
    s.update(3, 1e-310)
    assert s.fresh.counter == 0 and s.query() is None


def test_runs_of_one_compiled_plan_replay_fresh_builds():
    # a run of a shared plan starts empty under its own oracle and matches,
    # bit for bit, an edge sampler compiled for that oracle alone
    spec = EdgeSamplerSpec((1, 2, 3, 4), ((1, 2), (2, 3), (1, 3, 4)))
    plan = build_edge_sampler(spec)
    first = Circuit(plan, _oracle(10))
    first.update(1, 2.0)
    before = first.query()
    for rep in range(30):
        run = Circuit(plan, _oracle(1_000 + rep))
        assert run.query() is None
        built = EdgeSampler(spec, _oracle(1_000 + rep))
        for v, m in ((1, 1.0), (4, 0.5), (2, 3.0), (3, 0.25), (1, 1e-310)):
            run.update(v, m)
            built.update(v, m)
            assert run.query() == built.query()
        assert run.fresh.counter == built.fresh.counter
    assert first.query() == before


def test_a_plan_does_not_see_later_edits():
    # validate compiles the builder as it stands: runs of that plan replay
    # the same outputs after the builder gains a gate and a wire, and only
    # a fresh validate sees them
    builder = _chain(("out", OutputGate()), ("in", InputGate(1)),
                     ("g", GGate(F1_LEVEL, 0, 1)), ("in2", InputGate(2)))
    for src, dst in (("in", "g"), ("g", "out"), ("in2", "out")):
        builder.add_wire(src, dst)
    plan = builder.validate()

    def run(plan, i):
        c = Circuit(plan, _oracle(i))
        for key, delta in ((1, 2.0), (2, 0.5), (1, 1.0)):
            c.update(key, delta)
        return [c.output(out) for out in c.output_gate_ids()], c.fresh.counter

    before = [run(plan, i) for i in range(3, 8)]
    builder.add_gate("x", OutputGate())
    builder.add_wire("in", "x")
    assert [run(plan, i) for i in range(3, 8)] == before
    assert plan.outputs == ("out",) and len(plan.paths[1]) == 1
    edited = builder.validate()
    assert edited.outputs == ("out", "x") and len(edited.paths[1]) == 2
    assert all(run(edited, i)[1] == 5 for i in range(3, 8))


def test_a_scalar_quotient_that_underflows_is_clamped():
    # 1e308 puts a start value near 1e-308, and dividing by 1e17 rounds it
    # to 0.0, which no G-gate takes: the quotient becomes 5e-324 instead,
    # as an underflowing start value does; on the path to the log gate the
    # threshold's forward value is clamped the same way, and certifies
    c = _chain(("out", OutputGate()), ("in", InputGate(1)), ("s1", ScalarGate(1e17)),
               ("f1", GGate(F1_LEVEL, 0, 1)), ("s2", ScalarGate(1e17)),
               ("log", GGate(LevelFunction(Log()), 1, 2)))
    for src, dst in (("in", "s1"), ("s1", "f1"), ("f1", "out"),
                     ("in", "s2"), ("s2", "log"), ("log", "out")):
        c.add_wire(src, dst)
    wires = {1: [([("s", 1e17), ("g", F1_LEVEL, 0, 1)], "out", "f1"),
                 ([("s", 1e17), ("g", LevelFunction(Log()), 1, 2)], "out", "log")]}
    rnd, cuts = random.Random(5), 0
    for i in range(50):
        updates = [(1, 1e308)] + [(1, rnd.choice((1e308, 1e300, 1.0, 1e-3)))
                                  for _ in range(rnd.randint(0, 20))]
        cuts += len(_check_against_reference(c.validate(), wires, (_oracle(950_000 + i),),
                                             updates))
    assert cuts >= 40  # 47


def test_scalar_gate_rejects_non_finite_alpha():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            ScalarGate(bad)


def _directed_pair_circuit():
    """Two vertices u=1, v=2; directed pair (s, t) weighted
    sqrt(x(s)) + log(1 + x(t)), one sqrt and one log gate per direction."""
    log_level = LevelFunction(Log())
    c = CircuitBuilder()
    c.add_gate("out", OutputGate())
    for s, t in ((1, 2), (2, 1)):
        label = (s, t)
        c.add_gate(("sqrt", s, t), GGate(FHALF_LEVEL, 1, 1000 + 10 * s + t),
                   label=label)
        c.add_gate(("log", s, t), GGate(log_level, 2, 2000 + 10 * s + t),
                   label=label)
    for v in (1, 2):
        c.add_gate(("in", v), InputGate(v))
    for s, t in ((1, 2), (2, 1)):
        c.add_wire(("sqrt", s, t), "out")
        c.add_wire(("log", s, t), "out")
    # outgoing edges contribute the sqrt term, incoming the log term
    for v in (1, 2):
        other = 2 if v == 1 else 1
        c.add_wire(("in", v), ("sqrt", v, other))
        c.add_wire(("in", v), ("log", other, v))
    return c.validate()


def test_asymmetric_directed_pairs():
    # brute-force weights: w(s,t) = sqrt(x(s)) + log(1 + x(t))
    masses = {1: 0.01, 2: 20.0}
    w12 = math.sqrt(masses[1]) + math.log1p(masses[2])
    w21 = math.sqrt(masses[2]) + math.log1p(masses[1])
    exact = ExactDistribution(((1, 2), (2, 1)),
                              (w12 / (w12 + w21), w21 / (w12 + w21)))
    counts = Counter()
    reps = 20_000
    plan = _directed_pair_circuit()
    for rep in range(reps):
        oracle = _oracle(500_000 + rep)
        c = Circuit(plan, oracle)
        for v in sorted(masses):
            c.update(v, masses[v])
        counts[c.output("out")[0]] += 1
    assert chi_square_gof(counts, exact).passed

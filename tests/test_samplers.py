"""Sketch behavior: distribution laws at unit-test scale, frontier invariants,
without-replacement identities, merging, and serialization."""

import math
import random
import struct
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levysketch.circuits as circuits_module
import levysketch.samplers as samplers_module
from levysketch.circuits import Circuit, build_flat_circuit
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
    eval_f0,
    eval_f1,
    eval_fhalf,
    eval_log,
    eval_softcap,
    parse_weight,
)
from levysketch.oracle import (
    chi_square_gof,
    exact_wor_distribution,
    ExactDistribution,
    ks_test_exponential,
)
from levysketch.randomness import (
    FreshSource,
    OracleHash,
    derive_seed,
    exp_from_uniform,
    fresh_exp,
    hash_unit,
    parse_seed,
)
from levysketch.samplers import (
    FrameError,
    GSampler,
    KMinState,
    KParetoFrontier,
    KParetoSampler,
    ParetoSampler,
    ParetoTuple,
    Update,
    WorSampler,
    deserialize,
    replay,
)

SEED = parse_seed("5a3b")


def _oracle(i: int) -> OracleHash:
    return OracleHash(derive_seed(SEED, i))


def test_update_validation():
    with pytest.raises(ValueError):
        Update(1, 0.0)
    with pytest.raises(ValueError):
        Update(1, -2.0)
    s = GSampler(LevelFunction(F1()), _oracle(0))
    with pytest.raises(ValueError):
        s.update(1, 0.0)


def test_non_finite_deltas_rejected():
    # 0 < delta < inf: an infinite delta would store a = Y/delta = 0, a point
    # that dominates every later one and that no frame can hold
    level = LevelFunction(F1())
    for bad in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            Update(1, bad)
        for s in (GSampler(level, _oracle(0)), ParetoSampler(_oracle(0)),
                  WorSampler(2, level, _oracle(0)), KParetoSampler(2, _oracle(0))):
            with pytest.raises(ValueError, match="positive and finite"):
                s.update(1, bad)
            assert s.fresh.counter == 0  # rejected before drawing randomness
            s.update(1, 1e-310)  # a subnormal delta is legal
            s.update(2, 1.0)
            assert deserialize(s.to_bytes(), level).to_bytes() == s.to_bytes()


def test_a_start_value_that_underflows_is_clamped(monkeypatch):
    # the least fresh draw over delta = 1.7e308 rounds to 0.0; every sketch
    # and a flat circuit start from 5e-324 there instead, and still agree
    least = exp_from_uniform(1.0 - 2.0 ** -53)
    assert least / 1.7e308 == 0.0
    for module in (samplers_module, circuits_module):
        monkeypatch.setattr(module, "fresh_exp", lambda source: least)
    for i, g in enumerate((F0(), F1(), FHalf(), Log(), SoftCap(1.0))):
        level, oracle = LevelFunction(g), _oracle(900 + i)
        sketches = (GSampler(level, oracle), ParetoSampler(oracle),
                    WorSampler(2, level, oracle), KParetoSampler(2, oracle))
        circuit = Circuit(build_flat_circuit({3: level}), oracle)
        for s in sketches:
            s.update(3, 1.7e308)
            assert deserialize(s.to_bytes(), level).to_bytes() == s.to_bytes()
        circuit.update(("in", 3), 1.7e308, FreshSource(oracle.seed))
        b = hash_unit(oracle, 3)
        assert sketches[1].frontier.tuples() == (ParetoTuple(5e-324, b, 3),)
        answer = (3, level.eval(5e-324, b))
        assert sketches[0].query() == sketches[1].query(level) == circuit.output("out") == answer
        assert sketches[2].query() == [answer] and sketches[3].query(level) == [3]


def test_keys_outside_64_bits_rejected():
    level = LevelFunction(F1())
    for bad in (-1, 1 << 64):
        with pytest.raises(ValueError):
            Update(bad, 1.0)
        for s in (GSampler(level, _oracle(0)), ParetoSampler(_oracle(0)),
                  WorSampler(2, level, _oracle(0)), KParetoSampler(2, _oracle(0))):
            with pytest.raises(ValueError):
                s.update(bad, 1.0)
            assert s.fresh.counter == 0  # rejected before drawing randomness
            s.update((1 << 64) - 1, 1.0)
            assert deserialize(s.to_bytes(), level).to_bytes() == s.to_bytes()


def test_k_fits_the_frame_field():
    # frames store k in 32 bits, so a larger k is refused when it is set
    level = LevelFunction(F1())
    for bad in (0, 2 ** 32, 2 ** 64):
        for build in (lambda: KMinState(bad), lambda: KParetoFrontier(bad),
                      lambda: WorSampler(bad, level, _oracle(0)),
                      lambda: KParetoSampler(bad, _oracle(0))):
            with pytest.raises(ValueError, match="2\\^32"):
                build()
    for s in (WorSampler(2 ** 32 - 1, level, _oracle(0)), KParetoSampler(2 ** 32 - 1, _oracle(0))):
        s.update(5, 1.0)
        assert deserialize(s.to_bytes(), level).to_bytes() == s.to_bytes()


def test_first_update_always_wins():
    s = GSampler(LevelFunction(Log()), _oracle(1))
    assert s.query() is None
    s.update(17, 2.5)
    key, h = s.query()
    assert key == 17
    assert math.isfinite(h) and h > 0


def test_scalar_state_tie_break():
    # the scalar sketch's state is the k = 1 k-min core
    state = KMinState(1)
    state.offer(5, 1.0)
    state.offer(9, 1.0)  # equal value, larger key: keep 5
    assert state.ordered() == [(5, 1.0)]
    state.offer(2, 1.0)  # equal value, smaller key: replace
    assert state.ordered() == [(2, 1.0)]
    state.offer(2, 3.0)  # a larger value for the same key changes nothing
    assert state.ordered() == [(2, 1.0)]


def test_even_coin_under_f1():
    hits = 0
    reps = 20_000
    for rep in range(reps):
        s = GSampler(LevelFunction(F1()), _oracle(rep))
        s.update(1, 1.0)
        s.update(2, 1.0)
        hits += s.query()[0] == 1
    assert abs(hits / reps - 0.5) <= 3 * math.sqrt(0.25 / reps)


def test_fhalf_one_to_four():
    # sqrt weights: P(key 2) = 2/3
    hits = 0
    reps = 20_000
    for rep in range(reps):
        s = GSampler(LevelFunction(FHalf()), _oracle(rep))
        s.update(1, 1.0)
        s.update(2, 4.0)
        hits += s.query()[0] == 2
    p = 2.0 / 3.0
    assert abs(hits / reps - p) <= 3 * math.sqrt(p * (1 - p) / reps)


def test_single_key_f0_value_law():
    # one present key: total weight 1, stored value is Exp(1)
    values = []
    for rep in range(5_000):
        s = GSampler(LevelFunction(F0()), _oracle(rep))
        s.update(7, 3.0)
        s.update(7, 1.5)
        values.append(s.query()[1])
    assert ks_test_exponential(values, 1.0).passed


def test_log_value_mean():
    rate = math.log(2) + math.log(3) + math.log(4)
    values = []
    reps = 4_000
    for rep in range(reps):
        s = GSampler(LevelFunction(Log()), _oracle(rep))
        for key, mass in ((1, 1.0), (2, 2.0), (3, 3.0)):
            s.update(key, mass)
        values.append(s.query()[1])
    mean = sum(values) / reps
    se = (1.0 / rate) / math.sqrt(reps)
    assert abs(mean - 1.0 / rate) <= 3 * se


def test_scaled_weight_value_law():
    # G = 2 * frequency: the stored value on a single key of mass m is
    # Exp(2m)
    from levysketch.level import Scaled
    level = LevelFunction(Scaled(2.0, F1()))
    values = []
    for rep in range(4_000):
        s = GSampler(level, _oracle(2_000_000 + rep))
        s.update(1, 1.5)
        values.append(s.query()[1])
    assert ks_test_exponential(values, 2.0 * 1.5).passed


def test_composite_weight_sampler():
    # G(z) = 1{z>0} + z: masses (1, 3) weigh (2, 4)
    level = LevelFunction(KilledDriftSum(c=1.0, g0=1.0))
    counts = Counter()
    reps = 20_000
    for rep in range(reps):
        s = GSampler(level, _oracle(rep))
        s.update(1, 1.0)
        s.update(2, 3.0)
        counts[s.query()[0]] += 1
    expected = ExactDistribution((1, 2), (2 / 6, 4 / 6))
    assert chi_square_gof(counts, expected).passed


def test_gsampler_merge_identity_and_commutativity():
    level = LevelFunction(FHalf())
    oracle = _oracle(42)
    a = GSampler(level, oracle)
    for key, delta in ((1, 1.0), (2, 2.0)):
        a.update(key, delta)
    fresh_sketch = GSampler(level, oracle)
    merged = deserialize(a.to_bytes(), level)
    merged.merge_from(fresh_sketch)
    assert merged.query() == a.query()

    b = GSampler(level, oracle, FreshSource(oracle.seed, 100))
    for key, delta in ((3, 0.5), (4, 1.5)):
        b.update(key, delta)
    ab = deserialize(a.to_bytes(), level)
    ab.merge_from(b)
    ba = deserialize(b.to_bytes(), level)
    ba.merge_from(a)
    assert ab.query() == ba.query()


def test_merge_mismatched_sketches():
    level = LevelFunction(F1())
    a = GSampler(level, _oracle(1))
    b = GSampler(level, _oracle(2))
    with pytest.raises(ValueError):
        a.merge_from(b)
    c = GSampler(LevelFunction(F0()), _oracle(1))
    with pytest.raises(ValueError):
        a.merge_from(c)


def test_split_replay_equivalence():
    # split any stream, process halves on disjoint counter ranges, merge:
    # bit-identical to the sequential run (the full-scale version is in the
    # acceptance suite)
    level = LevelFunction(FHalf())
    for i in range(40):
        rnd = random.Random(i)
        stream = [(rnd.randrange(8), rnd.uniform(0.1, 5.0))
                  for _ in range(rnd.randint(1, 100))]
        cut = rnd.randint(0, len(stream))
        oracle = _oracle(900 + i)
        seq = GSampler(level, oracle)
        for key, delta in stream:
            seq.update(key, delta)
        left = GSampler(level, oracle)
        for key, delta in stream[:cut]:
            left.update(key, delta)
        right = GSampler(level, oracle, FreshSource(oracle.seed, cut))
        for key, delta in stream[cut:]:
            right.update(key, delta)
        left.merge_from(right)
        assert left.to_bytes() == seq.to_bytes()


# --- frontier: the k = 1 case of the k-frontier core ---------------------------

def test_frontier_dominated_insert_is_noop():
    f = KParetoFrontier(1)
    f.insert(ParetoTuple(1.0, 0.5, 1))
    f.insert(ParetoTuple(2.0, 0.6, 2))
    assert f.tuples() == (ParetoTuple(1.0, 0.5, 1),)


def test_frontier_dominating_insert_sweeps():
    f = KParetoFrontier(1)
    f.insert(ParetoTuple(1.0, 0.5, 1))
    f.insert(ParetoTuple(2.0, 0.3, 2))
    f.insert(ParetoTuple(3.0, 0.1, 3))
    assert len(f) == 3
    f.insert(ParetoTuple(0.5, 0.05, 4))
    assert f.tuples() == (ParetoTuple(0.5, 0.05, 4),)


def test_frontier_invariant_random():
    rnd = random.Random(3)
    f = KParetoFrontier(1)
    points = []
    for i in range(500):
        t = ParetoTuple(rnd.uniform(0, 1), rnd.uniform(0, 1), i)
        points.append(t)
        f.insert(t)
    tuples = f.tuples()
    for left, right in zip(tuples, tuples[1:]):
        assert left.a < right.a
        assert left.b > right.b
    # every stored point is genuinely undominated
    for t in tuples:
        assert not any(p.a <= t.a and p.b <= t.b and (p.a, p.b) != (t.a, t.b)
                       for p in points if p != t)


def test_frontier_same_key_same_hash():
    # updates to one key share b; only the smallest a survives
    f = KParetoFrontier(1)
    f.insert(ParetoTuple(2.0, 0.4, 9))
    f.insert(ParetoTuple(1.0, 0.4, 9))
    f.insert(ParetoTuple(3.0, 0.4, 9))
    assert f.tuples() == (ParetoTuple(1.0, 0.4, 9),)


def test_frontier_merge_matches_sequential():
    rnd = random.Random(11)
    for _ in range(50):
        points = [ParetoTuple(rnd.uniform(0, 2), rnd.uniform(0, 1), i)
                  for i in range(rnd.randint(1, 60))]
        cut = rnd.randint(0, len(points))
        whole = KParetoFrontier(1)
        f1 = KParetoFrontier(1)
        f2 = KParetoFrontier(1)
        for p in points:
            whole.insert(p)
        for p in points[:cut]:
            f1.insert(p)
        for p in points[cut:]:
            f2.insert(p)
        sizes = len(f1) + len(f2)
        f1.merge_from(f2)
        assert f1.tuples() == whole.tuples()
        assert len(f1) <= sizes


def test_frontier_expected_size_harmonic():
    total = 0
    reps = 20_000
    for rep in range(reps):
        s = ParetoSampler(_oracle(3_000_000 + rep))
        for key in range(4):
            s.update(key, 1.0)
        total += len(s.frontier)
    mean = total / reps
    # H_4 = 25/12; sd of the size is ~0.81
    assert abs(mean - 25 / 12) <= 3 * 0.82 / math.sqrt(reps)


def test_pareto_query_empty():
    s = ParetoSampler(_oracle(4))
    assert s.query(LevelFunction(F1())) is None


def test_pareto_matches_scalar_sampler():
    # same seed, same stream: the frontier answers exactly what the
    # dedicated sampler answers, for several weight functions
    levels = [LevelFunction(g) for g in (F0(), F1(), FHalf(), Log())]
    for i in range(100):
        rnd = random.Random(i)
        stream = [(rnd.randrange(6), rnd.uniform(0.2, 4.0))
                  for _ in range(rnd.randint(1, 50))]
        oracle = _oracle(10_000 + i)
        frontier = ParetoSampler(oracle)
        for key, delta in stream:
            frontier.update(key, delta)
        for level in levels:
            scalar = GSampler(level, oracle)
            for key, delta in stream:
                scalar.update(key, delta)
            assert frontier.query(level) == scalar.query()


@pytest.mark.parametrize("grammar", ["sum:c=1,g0=1,atoms=2x0.5", "sum:c=0,g0=0.5,atoms=2x0.5;1x1.5"])
def test_universal_sketches_answer_sums(grammar):
    # a sum evaluates on the one (a, b) pair a frontier point stores, so the
    # universal sketches answer it seed for seed like the dedicated ones
    level = LevelFunction(parse_weight(grammar))
    for i in range(200):
        rnd = random.Random(i)
        stream = [(rnd.randrange(rnd.randint(1, 32)), rnd.uniform(0.05, 20.0))
                  for _ in range(rnd.randint(1, 200))]
        oracle = _oracle(40_000 + i)
        sketches = [GSampler(level, oracle), ParetoSampler(oracle),
                    WorSampler(3, level, oracle), KParetoSampler(3, oracle)]
        for key, delta in stream:
            for s in sketches:
                s.update(key, delta)
        scalar, pareto, wor, kpareto = sketches
        assert pareto.query(level) == scalar.query()
        assert kpareto.query(level) == wor.sample_ordered()
        assert [key for _, key in kpareto.frontier.ranked(level)[:3]] == wor.sample_ordered()


# --- without replacement ------------------------------------------------------

def test_kmin_state_truncates():
    s = KMinState(2)
    s.offer(1, 5.0)
    s.offer(2, 3.0)
    s.offer(3, 4.0)
    assert s.ordered() == [(2, 3.0), (3, 4.0)]
    s.offer(1, 0.5)  # key 1 re-enters with a smaller value
    assert s.ordered() == [(1, 0.5), (2, 3.0)]


def test_wor_k1_matches_gsampler():
    level = LevelFunction(FHalf())
    for i in range(50):
        rnd = random.Random(i)
        stream = [(rnd.randrange(5), rnd.uniform(0.1, 3.0))
                  for _ in range(rnd.randint(1, 30))]
        oracle = _oracle(20_000 + i)
        wor = WorSampler(1, level, oracle)
        scalar = GSampler(level, oracle)
        for key, delta in stream:
            wor.update(key, delta)
            scalar.update(key, delta)
        assert wor.query()[0] == scalar.query()


def test_wor_retains_all_with_large_k():
    s = WorSampler(10, LevelFunction(F1()), _oracle(6))
    for key in (1, 2, 3):
        s.update(key, 1.0)
    assert sorted(s.sample_ordered()) == [1, 2, 3]
    assert len(s.sample_ordered()) == 3


def test_wor_empty():
    s = WorSampler(3, LevelFunction(F1()), _oracle(7))
    assert s.sample_ordered() == []


def test_wor_ordered_pair_law():
    # x = {1: 1, 2: 2}, k = 2, plain frequency weights:
    # P((2, 1)) = (2/3) * 1 = 2/3
    hits = 0
    reps = 20_000
    for rep in range(reps):
        s = WorSampler(2, LevelFunction(F1()), _oracle(30_000 + rep))
        s.update(1, 1.0)
        s.update(2, 2.0)
        hits += s.sample_ordered() == [2, 1]
    p = 2.0 / 3.0
    assert abs(hits / reps - p) <= 3 * math.sqrt(p * (1 - p) / reps)


def test_wor_repeated_mass_pair_law():
    # stream x = (1, 1, 2): key 3 carries half the total frequency weight,
    # so P(first pick = 3) = 1/2 and the ordered law follows the
    # sequential-ratio product
    x = {1: 1.0, 2: 1.0, 3: 2.0}
    counts = Counter()
    reps = 20_000
    for rep in range(reps):
        s = WorSampler(2, LevelFunction(F1()), _oracle(35_000 + rep))
        for key in sorted(x):
            s.update(key, x[key])
        counts[tuple(s.sample_ordered())] += 1
    exact = exact_wor_distribution(x, F1(), 2)
    support = tuple(sorted(exact))
    dist = ExactDistribution(support, tuple(exact[t] for t in support))
    assert chi_square_gof(counts, dist).passed


def test_wor_eq3_chi_square():
    x = {1: 1.0, 2: 2.0, 3: 3.0}
    counts = Counter()
    reps = 20_000
    for rep in range(reps):
        s = WorSampler(2, LevelFunction(F1()), _oracle(40_000 + rep))
        for key in sorted(x):
            s.update(key, x[key])
        counts[tuple(s.sample_ordered())] += 1
    exact = exact_wor_distribution(x, F1(), 2)
    support = tuple(sorted(exact))
    dist = ExactDistribution(support, tuple(exact[t] for t in support))
    assert chi_square_gof(counts, dist).passed


def test_kpareto_k1_matches_pareto():
    for i in range(40):
        rnd = random.Random(i)
        stream = [(rnd.randrange(6), rnd.uniform(0.1, 4.0))
                  for _ in range(rnd.randint(1, 40))]
        oracle = _oracle(50_000 + i)
        kp = KParetoSampler(1, oracle)
        ps = ParetoSampler(oracle)
        for key, delta in stream:
            kp.update(key, delta)
            ps.update(key, delta)
        for g in (F0(), FHalf()):
            level = LevelFunction(g)
            assert kp.query(level) == [ps.query(level)[0]]


def test_kpareto_dominated_insert():
    f = KParetoFrontier(2)
    f.insert(ParetoTuple(1.0, 0.1, 1))
    f.insert(ParetoTuple(1.5, 0.2, 2))
    before = f.tuples()
    f.insert(ParetoTuple(2.0, 0.3, 3))  # dominated by two others
    assert f.tuples() == before


def test_kpareto_same_key_min_a():
    f = KParetoFrontier(3)
    f.insert(ParetoTuple(2.0, 0.4, 9))
    f.insert(ParetoTuple(1.0, 0.4, 9))
    f.insert(ParetoTuple(3.0, 0.4, 9))
    assert [t.a for t in f.tuples() if t.key == 9] == [1.0]


def test_kpareto_expected_size():
    # n = 8 unit keys, k = 2: expected retained count is
    # sum_i min(2/i, 1) = 1 + 1 + 2/3 + 1/2 + 2/5 + 1/3 + 2/7 + 1/4
    expected = sum(min(2 / i, 1.0) for i in range(1, 9))
    total = 0
    sq_total = 0
    reps = 20_000
    for rep in range(reps):
        s = KParetoSampler(2, _oracle(60_000 + rep))
        for key in range(8):
            s.update(key, 1.0)
        n = len(s.frontier)
        total += n
        sq_total += n * n
    mean = total / reps
    var = sq_total / reps - mean * mean
    assert abs(mean - expected) <= 3 * math.sqrt(var / reps)


@pytest.mark.parametrize("k", [0, -1])
def test_kpareto_query_k_below_one(k):
    # a slice by a non-positive k would return keys, not an error
    s = KParetoSampler(2, _oracle(9))
    for key in range(6):
        s.update(key, 1.0)
    with pytest.raises(ValueError):
        s.frontier.top(LevelFunction(Log()), k)


def test_kpareto_uniform_orderings():
    # three equal masses, k = 3: all 6 orderings equiprobable
    counts = Counter()
    reps = 12_000
    level = LevelFunction(FHalf())
    for rep in range(reps):
        s = KParetoSampler(3, _oracle(70_000 + rep))
        for key in (1, 2, 3):
            s.update(key, 1.0)
        counts[tuple(s.query(level))] += 1
    exact = exact_wor_distribution({1: 1.0, 2: 1.0, 3: 1.0}, FHalf(), 3)
    support = tuple(sorted(exact))
    dist = ExactDistribution(support, tuple(exact[t] for t in support))
    assert chi_square_gof(counts, dist).passed


def test_kpareto_matches_wor():
    level = LevelFunction(FHalf())
    for i in range(100):
        rnd = random.Random(i + 31)
        stream = [(rnd.randrange(5), rnd.uniform(0.1, 3.0))
                  for _ in range(rnd.randint(2, 40))]
        oracle = _oracle(80_000 + i)
        wor = WorSampler(2, level, oracle)
        kp = KParetoSampler(2, oracle)
        for key, delta in stream:
            wor.update(key, delta)
            kp.update(key, delta)
        assert wor.sample_ordered() == kp.query(level)


def test_permutation_invariance_with_attached_randomness():
    # when each update carries its own randomness (derived from record
    # content, not stream position), reordering the stream leaves every
    # sketch's final state bit-identical
    import hashlib
    import struct

    level = LevelFunction(FHalf())
    oracle = _oracle(95)

    def attached_source(key, delta, occurrence):
        data = b"R" + struct.pack("<QdQ", key, delta, occurrence)
        return FreshSource(hashlib.blake2b(data, key=oracle.seed,
                                           digest_size=16).digest())

    def run(stream):
        sketches = [GSampler(level, oracle), ParetoSampler(oracle),
                    WorSampler(2, level, oracle), KParetoSampler(2, oracle)]
        seen = Counter()
        for key, delta in stream:
            occ = seen[(key, delta)]
            seen[(key, delta)] += 1
            for s in sketches:
                s.fresh = attached_source(key, delta, occ)
                s.update(key, delta)
        return [s.to_bytes() for s in sketches]

    rnd = random.Random(2)
    stream = [(rnd.randrange(5), round(rnd.uniform(0.1, 3.0), 3))
              for _ in range(60)]
    stream += stream[:10]  # duplicate records get distinct occurrence ids
    shuffled = stream[:]
    rnd.shuffle(shuffled)
    assert run(stream) == run(shuffled)


# --- serialization ------------------------------------------------------------

def test_serialization_round_trips():
    level = LevelFunction(FHalf())
    oracle = _oracle(90)
    sketches = [
        GSampler(level, oracle),
        ParetoSampler(oracle),
        WorSampler(3, level, oracle),
        KParetoSampler(3, oracle),
    ]
    rnd = random.Random(9)
    for _ in range(60):
        key, delta = rnd.randrange(9), rnd.uniform(0.1, 4.0)
        for s in sketches:
            s.update(key, delta)
    for s in sketches:
        data = s.to_bytes()
        assert data[:4] == b"LVSK"
        restored = deserialize(data, level)
        assert restored.to_bytes() == data


def test_serialization_empty_sketches():
    level = LevelFunction(F1())
    oracle = _oracle(91)
    for s in (GSampler(level, oracle), ParetoSampler(oracle),
              WorSampler(2, level, oracle), KParetoSampler(2, oracle)):
        data = s.to_bytes()
        assert deserialize(data, level).to_bytes() == data


def test_deserialize_errors():
    level = LevelFunction(F1())
    with pytest.raises(ValueError):
        deserialize(b"XXXX" + bytes(30))
    good = GSampler(level, _oracle(92)).to_bytes()
    with pytest.raises(ValueError):
        deserialize(good)  # gsampler needs its weight function
    bad_version = good[:4] + b"\x63\x00" + good[6:]
    with pytest.raises(ValueError):
        deserialize(bad_version, level)


def test_frame_truncation_and_trailing_bytes_rejected():
    level = LevelFunction(FHalf())
    oracle = _oracle(93)
    sketches = [GSampler(level, oracle), ParetoSampler(oracle),
                WorSampler(3, level, oracle), KParetoSampler(3, oracle)]
    for key in range(6):
        for s in sketches:
            s.update(key, 1.0 + key)
    for s in sketches:
        data = s.to_bytes()
        for cut in range(len(data)):
            with pytest.raises(FrameError):
                deserialize(data[:cut], level)
        with pytest.raises(FrameError):
            deserialize(data + b"\x00", level)


def test_frame_tag_and_count_validated():
    level = LevelFunction(F1())
    oracle = _oracle(94)
    wor = WorSampler(2, level, oracle)
    for key in (1, 2, 3):
        wor.update(key, 1.0)
    data = wor.to_bytes()
    with pytest.raises(FrameError):
        deserialize(data[:6] + b"\x09" + data[7:], level)  # unknown tag
    head = 4 + 2 + 1 + 16
    with pytest.raises(FrameError):  # count says 1 entry, the frame holds 2
        deserialize(data[:head + 4] + b"\x01\x00\x00\x00" + data[head + 8:], level)
    with pytest.raises(FrameError):  # two entries cannot fit k = 1
        deserialize(data[:head] + b"\x01\x00\x00\x00" + data[head + 4:], level)
    with pytest.raises(FrameError):  # a gsampler holds at most one entry
        deserialize(data[:6] + b"\x01" + data[7:head] + b"\x02" + data[head + 8:], level)


def _raw_frame(tag: int, header_layout: str, header: tuple, entry_layout: str,
               entries: list) -> bytes:
    """A frame written field by field: magic, version 1, tag, zero seed."""
    parts = [struct.pack("<4sHB16s", b"LVSK", 1, tag, bytes(16)),
             struct.pack(header_layout, *header)]
    parts += [struct.pack(entry_layout, *e) for e in entries]
    return b"".join(parts)


def _scalar_frame(entries, k=None):  # gsampler without k, wor with it
    if k is None:
        return _raw_frame(1, "<B", (len(entries),), "<dQ", entries)
    return _raw_frame(3, "<II", (k, len(entries)), "<dQ", entries)


def _point_frame(entries, k=None):  # pareto without k, kpareto with it
    if k is None:
        return _raw_frame(2, "<I", (len(entries),), "<ddQ", entries)
    return _raw_frame(4, "<II", (k, len(entries)), "<ddQ", entries)


def test_frame_nan_entries_rejected():
    level = LevelFunction(F1())
    nan = math.nan
    for frame in (_scalar_frame([(nan, 1)]), _scalar_frame([(1.0, 1), (nan, 2)], k=2),
                  _point_frame([(nan, 0.5, 1)]), _point_frame([(1.0, nan, 1)]),
                  _point_frame([(1.0, 0.5, 1), (nan, 0.2, 2)], k=2)):
        with pytest.raises(FrameError):
            deserialize(frame, level)


def test_frame_b_outside_unit_interval_rejected():
    for b in (2.0, 1.0, 0.0, -0.5, math.inf):
        for frame in (_point_frame([(1.0, b, 1)]), _point_frame([(1.0, b, 1)], k=3)):
            with pytest.raises(FrameError):
                deserialize(frame)


def test_frame_nonpositive_a_and_negative_h_rejected():
    level = LevelFunction(F1())
    for a in (0.0, -1.0, -math.inf):
        with pytest.raises(FrameError):
            deserialize(_point_frame([(a, 0.5, 1)]))
        with pytest.raises(FrameError):
            deserialize(_point_frame([(a, 0.5, 1)], k=2))
    for h in (-1.0, -math.inf):
        with pytest.raises(FrameError):
            deserialize(_scalar_frame([(h, 1)]), level)
        with pytest.raises(FrameError):
            deserialize(_scalar_frame([(h, 1)], k=2), level)


def test_frame_count_must_match_the_rebuilt_sketch():
    level = LevelFunction(F1())
    with pytest.raises(FrameError):  # a repeated key keeps one entry
        deserialize(_scalar_frame([(1.0, 5), (2.0, 5)], k=3), level)
    with pytest.raises(FrameError):  # the second point is dominated
        deserialize(_point_frame([(1.0, 0.3, 1), (2.0, 0.5, 2)]))
    with pytest.raises(FrameError):  # and at k = 2, by two points
        deserialize(_point_frame([(1.0, 0.3, 1), (1.5, 0.4, 2), (2.0, 0.5, 3)], k=2))
    with pytest.raises(FrameError):  # a key's larger a is superseded
        deserialize(_point_frame([(1.0, 0.3, 1), (2.0, 0.3, 1)], k=2))
    # the same entries in a frame that keeps them all are accepted
    assert len(deserialize(_point_frame([(1.0, 0.3, 1), (2.0, 0.5, 2)], k=2)).frontier) == 2


def test_frame_round_trip_with_infinite_entries():
    # the smallest subnormal delta puts a = Y/delta at inf, and the f1 level too
    level = LevelFunction(F1())
    oracle = _oracle(95)
    sketches = [GSampler(level, oracle), ParetoSampler(oracle),
                WorSampler(2, level, oracle), KParetoSampler(2, oracle)]
    for key in (4, 2):
        for s in sketches:
            s.update(key, 5e-324)
    assert sketches[0].query() == (2, math.inf)
    assert {t.a for t in sketches[1].frontier} == {math.inf}
    for s in sketches:
        data = s.to_bytes()
        assert deserialize(data, level).to_bytes() == data


# grammar -> its level on one (a, b) pair, written out from the definitions
# rather than read from the sketches; a sum's is the level layer's, which
# test_level.py checks against mpmath
_REPLAY_LEVELS = {
    "f0": eval_f0,
    "f1": eval_f1,
    "fhalf": eval_fhalf,
    "log": eval_log,
    "softcap:1": lambda a, b: eval_softcap(1.0, a, b),
    "scale:2:log": lambda a, b: eval_log(a, b) / 2.0,
    "sum:c=1,g0=0.5,atoms=2x0.5": LevelFunction(parse_weight("sum:c=1,g0=0.5,atoms=2x0.5")).eval,
}


@pytest.mark.parametrize("grammar", sorted(_REPLAY_LEVELS))
def test_candidates_replay_from_the_definitions(grammar):
    # per update: a fresh Exp(1) draw, then the key's hash under the
    # sketch's salt; the candidate is the level at (Y / delta, hash).
    # The long stream rejects most candidates unsolved, and its 1e-310
    # deltas push a to inf.
    base_salt = 5
    streams = ((60, 12, 0.0, 121), (2_000, 300, 0.01, 123))
    for updates, keys, tiny, stream_seed in streams:
        oracle = OracleHash(derive_seed(SEED, 120), base_salt)
        level = LevelFunction(parse_weight(grammar))
        sketches = [GSampler(level, oracle), WorSampler(3, level, oracle),
                    WorSampler(8, level, oracle)]
        fresh = FreshSource(oracle.seed)
        minima = {}
        rnd = random.Random(stream_seed)
        for _ in range(updates):
            key, delta = rnd.randrange(keys), rnd.uniform(0.05, 5.0)
            if rnd.random() < tiny:
                delta = 1e-310
            for s in sketches:
                s.update(key, delta)
            y = fresh_exp(fresh)
            b = hash_unit(OracleHash(oracle.seed, base_salt), key)
            candidate = _REPLAY_LEVELS[grammar](y / delta, b)
            minima[key] = min(minima.get(key, math.inf), candidate)
        ranked = sorted((h, key) for key, h in minima.items())
        assert sketches[0].query() == (ranked[0][1], ranked[0][0])
        assert sketches[1].query() == [(key, h) for h, key in ranked[:3]]
        assert sketches[2].query() == [(key, h) for h, key in ranked[:8]]


def test_kmin_threshold():
    # the value a candidate must not exceed to change the state
    state = KMinState(2)
    assert state.threshold(5) == math.inf
    state.offer(5, 3.0)
    assert state.threshold(5) == 3.0
    assert state.threshold(6) == math.inf  # not full yet
    state.offer(6, 1.0)
    assert state.threshold(7) == 3.0
    assert state.threshold(6) == 1.0


def test_rejected_candidates_do_not_reach_the_solver(full_evals):
    # only candidates that can change the state are root-solved: a log
    # GSampler on a Zipf stream solves for a few of its updates
    rnd = random.Random(124)
    zipf = [1.0 / (i + 1) ** 1.1 for i in range(1_000)]
    s = GSampler(LevelFunction(Log()), _oracle(125))
    for key in rnd.choices(range(1_000), zipf, k=2_000):
        s.update(key, 10.0 ** rnd.uniform(-3.0, 3.0))
    assert full_evals["n"] < 0.05 * 2_000


@pytest.mark.parametrize("g, same", [
    (KilledDriftSum(c=1.0), F0()),
    # a scale chain parses innermost first, as the nested constructors build it
    (parse_weight("scale:0.1:scale:0.2:scale:0.3:f1"),
     Scaled(0.1, Scaled(0.2, Scaled(0.3, F1())))),
])
def test_equal_weights_merge(g, same):
    # equal weights: the sketches merge and replay identically
    assert g == same
    oracle = _oracle(122)
    a = GSampler(LevelFunction(g), oracle)
    b = GSampler(LevelFunction(same), oracle)
    for key in range(5):
        a.update(key, 1.0)
        b.update(key, 1.0)
    assert a.to_bytes() == b.to_bytes()
    a.merge_from(b)


def test_pareto_query_tie_break_smaller_key():
    # coincident points survive side by side; the query prefers the smaller key
    s = ParetoSampler(_oracle(96))
    s.frontier.insert(ParetoTuple(1.0, 0.5, 7))
    s.frontier.insert(ParetoTuple(1.0, 0.5, 3))
    assert s.query(LevelFunction(F1())) == (3, 1.0)


def test_top_keeps_a_point_just_below_the_bound():
    # walked by ascending b, key 1 sets the bound; key 2's level sits a
    # relative 1e-6 below it, so the bounded evaluation must solve it
    first = ParetoTuple(4.0, 0.3, 1)
    target = eval_log(first.a, first.b) * (1.0 - 1e-6)
    lo, hi = 1e-3, first.a  # eval_log rises in a: bisect for the target
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if eval_log(mid, 0.6) < target else (lo, mid)
    second = ParetoTuple(lo, 0.6, 2)
    f = KParetoFrontier(1)
    f.insert(first)
    f.insert(second)
    level = LevelFunction(Log())
    assert f.top(level, 1) == f.ranked(level)[:1] == [(eval_log(lo, 0.6), 2)]


def _skyband_by_recount(points, k):
    """Each key's smallest-a point, kept if fewer than k of those points
    dominate it, with its dominator count; every pair recounted."""
    best = {}
    for t in points:
        if t.key not in best or t.a < best[t.key].a:
            best[t.key] = t
    pool = list(best.values())
    kept = []
    for t in pool:
        count = sum(p.a <= t.a and p.b <= t.b and (p.a, p.b) != (t.a, t.b)
                    for p in pool)
        if count < k:
            kept.append((t, count))
    return sorted(kept)


_COORD_GRID = (0.25, 0.5, 1.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(k=st.sampled_from((1, 2, 3, 8)),
       b_of_key=st.lists(st.sampled_from(_COORD_GRID) | st.floats(0.001, 0.999),
                         min_size=10, max_size=10),
       stream=st.lists(st.tuples(st.integers(0, 9),
                                 st.sampled_from(_COORD_GRID) | st.floats(0.01, 10.0)),
                       max_size=60),
       cut=st.integers(0, 60))
def test_kfrontier_counts_match_recount(k, b_of_key, stream, cut):
    points = [ParetoTuple(a, b_of_key[key], key) for key, a in stream]
    f = KParetoFrontier(k)
    for t in points:
        f.insert(t)
    expected = _skyband_by_recount(points, k)
    assert list(f.tuples()) == [t for t, _ in expected]
    assert f._counts == [c for _, c in expected]

    left, right = KParetoFrontier(k), KParetoFrontier(k)
    for t in points[:cut]:
        left.insert(t)
    for t in points[cut:]:
        right.insert(t)
    left.merge_from(right)
    assert left.tuples() == f.tuples()


_TOP_LEVELS = [LevelFunction(g) for g in CATALOGUE] + [
    LevelFunction(parse_weight(w)) for w in ("scale:3:log", "scale:0.25:softcap:1")]


@settings(max_examples=300, deadline=None)
@given(k=st.sampled_from((1, 2, 3, 8)), seed=st.integers(0, 2**32 - 1),
       n_keys=st.integers(1, 40), n_updates=st.integers(0, 150))
def test_bounded_top_equals_full_ranking(k, seed, n_keys, n_updates):
    # repeated keys, and about 3% subnormal deltas, whose points have a = inf
    rnd = random.Random(seed)
    s = KParetoSampler(k, _oracle(seed))
    for _ in range(n_updates):
        delta = 1e-310 if rnd.random() < 0.03 else 10.0 ** rnd.uniform(-2.0, 2.0)
        s.update(rnd.randrange(n_keys), delta)
    for level in _TOP_LEVELS:
        ranked = s.frontier.ranked(level)
        for j in range(1, k + 1):
            assert s.frontier.top(level, j) == ranked[:j]


def test_bounded_query_solves_under_half_the_frontier(full_evals):
    # full evaluation solves every retained point under log; a top-8 query
    # solves only those that can still enter the running top 8
    rnd = random.Random(126)
    s = KParetoSampler(8, _oracle(127))
    for key in range(3_000):
        s.update(key, 10.0 ** rnd.uniform(-2.0, 2.0))
    level = LevelFunction(Log())
    expected = s.frontier.ranked(level)[:8]
    assert full_evals["n"] == len(s.frontier)
    full_evals.clear()
    assert [key for _, key in expected] == s.query(level)
    assert full_evals["n"] <= len(s.frontier) / 2


# --- replay -------------------------------------------------------------------

def test_replay_yields_reps_in_order_on_derived_seeds():
    level = LevelFunction(FHalf())
    stream = [(1, 1.0), (2, 2.0), (1, 0.5), (3, 3.0)]
    sketches = list(replay(lambda oracle: GSampler(level, oracle), stream, 5, SEED))
    assert len(sketches) == 5
    for rep, sketch in enumerate(sketches):
        assert sketch.oracle == OracleHash(derive_seed(SEED, rep))
        direct = GSampler(level, OracleHash(derive_seed(SEED, rep)))
        for key, delta in stream:
            direct.update(key, delta)
        assert sketch.to_bytes() == direct.to_bytes()
        assert sketch.fresh.counter == len(stream)


def test_replay_rejects_fewer_than_one_rep():
    for reps in (0, -1):
        with pytest.raises(ValueError):
            replay(ParetoSampler, [(1, 1.0)], reps, SEED)

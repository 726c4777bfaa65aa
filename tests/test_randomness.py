"""Keyed hashing and replayable fresh randomness."""

import math

import pytest

from levysketch.randomness import (
    DEFAULT_SEED,
    FreshSource,
    OracleHash,
    derive_seed,
    exp_from_uniform,
    fresh_exp,
    hash_unit,
    hash_unit_bytes,
    key_for_string,
    parse_seed,
)

SEED = parse_seed("00112233445566778899aabbccddeeff")


def test_parse_seed():
    assert parse_seed("ff") == bytes(15) + b"\xff"
    assert parse_seed("0x0A") == bytes(15) + b"\x0a"
    assert len(parse_seed("00112233445566778899aabbccddeeff")) == 16
    for bad in ("", "xyz", "0" * 33):
        with pytest.raises(ValueError):
            parse_seed(bad)


def test_hash_unit_deterministic():
    h = OracleHash(SEED, salt=3)
    assert hash_unit(h, 42) == hash_unit(h, 42)
    assert hash_unit(h, 42) == hash_unit(OracleHash(SEED, salt=3), 42)


def test_hash_unit_salt_independence():
    h1 = OracleHash(SEED, salt=1)
    h2 = OracleHash(SEED, salt=2)
    collisions = sum(hash_unit(h1, key) == hash_unit(h2, key)
                     for key in range(1_000_000))
    assert collisions == 0


def test_hash_unit_open_interval():
    h = OracleHash(SEED)
    values = [hash_unit(h, key) for key in range(20_000)]
    assert min(values) >= 2.0 ** -60
    assert max(values) <= 1.0 - 2.0 ** -53


def test_hash_unit_uniform_ks():
    h = OracleHash(SEED, salt=9)
    n = 100_000
    values = sorted(hash_unit(h, key) for key in range(n))
    d = max(max((i + 1) / n - v, v - i / n) for i, v in enumerate(values))
    critical = math.sqrt(-0.5 * math.log(0.005)) / math.sqrt(n)  # 1% level
    assert d <= critical


def test_hash_unit_bytes_distinct_domain():
    h = OracleHash(SEED)
    # the byte-keyed path is a different namespace than the int-keyed path
    assert hash_unit_bytes(h, (7).to_bytes(8, "little")) != hash_unit(h, 7)


def test_key_for_string_stable():
    assert key_for_string(SEED, "alice") == key_for_string(SEED, "alice")
    assert key_for_string(SEED, "alice") != key_for_string(SEED, "bob")
    assert 0 <= key_for_string(SEED, "alice") < 2 ** 64


def test_derive_seed_distinct():
    seeds = {derive_seed(SEED, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(len(s) == 16 for s in seeds)


def test_exp_from_uniform_identity():
    assert exp_from_uniform(math.exp(-1.0)) == pytest.approx(1.0, abs=1e-15)


def test_fresh_source_counter_advances():
    src = FreshSource(SEED)
    u1 = src.next_uniform()
    assert src.counter == 1
    u2 = src.next_uniform()
    assert src.counter == 2
    assert u1 != u2
    # replay from the start reproduces the stream
    replay = FreshSource(SEED)
    assert replay.next_uniform() == u1
    assert replay.next_uniform() == u2
    # positioning mid-stream picks up the same values
    assert FreshSource(SEED).at(1).next_uniform() == u2


def test_fresh_exp_moments():
    src = FreshSource(SEED)
    n = 1_000_000
    total = 0.0
    over3 = 0
    for _ in range(n):
        y = fresh_exp(src)
        total += y
        over3 += y > 3.0
    assert abs(total / n - 1.0) <= 0.01  # 3 sigma is ~0.003
    assert abs(over3 / n - math.exp(-3.0)) <= 0.001


def test_default_seed_shape():
    assert len(DEFAULT_SEED) == 16
    with pytest.raises(ValueError):
        OracleHash(b"short")
    with pytest.raises(ValueError):
        FreshSource(b"short")


def test_outputs_are_pinned():
    # constants taken before the codecs were pre-bound; every stored,
    # sampled and printed bit of the library is downstream of these
    h = OracleHash(SEED, 5)
    assert [hash_unit(h, k).hex() for k in (0, 1, 2**64 - 1)] == [
        "0x1.39598186b7219p-1", "0x1.292e2c6639594p-3", "0x1.62581ab177722p-1"]
    assert [hash_unit_bytes(h, d).hex() for d in (b"", b"edge")] == [
        "0x1.a8bbca4908f14p-3", "0x1.5fde1fc9de768p-4"]
    assert [fresh_exp(FreshSource(SEED, c)).hex() for c in (0, 1, 2, 3, 2**64 - 1)] == [
        "0x1.01dd8ebb244f4p-1", "0x1.d7f4b5547978bp-4", "0x1.3b083305670d0p-1",
        "0x1.bffe22683ff75p-1", "0x1.9417e636a2196p-2"]
    assert [derive_seed(SEED, i).hex() for i in (0, 1, -1)] == [
        "305177999a39748f6bf41eb973144867", "0d385f223d8112b9488b332eefc5de6c",
        "624bb430ad92f29660dd389aa0f05a41"]
    assert [key_for_string(SEED, t) for t in ("alpha", "")] == [
        7390865800429381669, 3618750115538589504]

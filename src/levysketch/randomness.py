"""Seeded randomness: a keyed hash onto the open unit interval, and a
replayable stream of Exp(1) draws.

Every random quantity in the library comes from one of two sources, both
driven by BLAKE2b in keyed mode so that a 16-byte seed replays an entire
experiment bit for bit:

* ``OracleHash`` plays the role of a uniformly random hash of item keys.
  The salt field carves out independent namespaces (e.g. the separate
  vertex and edge hashes used by the edge sampler).

* ``FreshSource`` produces the independent Exp(1) variate consumed by each
  sampler update.  It is counter-based rather than generator-based, so
  parallel shards can draw from disjoint counter ranges and a merged result
  is identical to a sequential run.

Outputs never touch the endpoints of (0, 1): the 53-bit grid tops out at
1 - 2^-53, and an exact zero (probability 2^-53) is clamped up to 2^-60.
Level functions can therefore be evaluated on every value we hand them.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

__all__ = [
    "OracleHash",
    "FreshSource",
    "hash_unit",
    "hash_unit_bytes",
    "fresh_exp",
    "exp_from_uniform",
    "key_for_bytes",
    "key_for_string",
    "parse_seed",
    "derive_seed",
    "DEFAULT_SEED",
]

SEED_BYTES = 16
DEFAULT_SEED = bytes(SEED_BYTES)

_UNIT_LOW = 2.0 ** -60
_SCALE_53 = 2.0 ** -53
_KEY_MASK = (1 << 64) - 1

# Codecs bound once, so no call parses a format string.
_pack_q = struct.Struct("<q").pack
_pack_qQ = struct.Struct("<qQ").pack
_pack_Q = struct.Struct("<Q").pack
_unpack_Q = struct.Struct("<Q").unpack


def parse_seed(text: str) -> bytes:
    """Parse a hex seed string (up to 32 hex digits, left-padded) to 16 bytes."""
    text = text.strip().lower().removeprefix("0x")
    if not text or len(text) > 2 * SEED_BYTES:
        raise ValueError(f"seed must be 1..{2 * SEED_BYTES} hex digits, got {text!r}")
    try:
        value = int(text, 16)
    except ValueError:
        raise ValueError(f"seed is not valid hex: {text!r}") from None
    return value.to_bytes(SEED_BYTES, "big")


def derive_seed(seed: bytes, index: int) -> bytes:
    """Derive an independent 16-byte seed for repetition `index`."""
    return hashlib.blake2b(
        b"D" + _pack_q(index), key=seed, digest_size=SEED_BYTES
    ).digest()


def _unit_from_digest(digest: bytes) -> float:
    u = (_unpack_Q(digest)[0] >> 11) * _SCALE_53
    return u if u >= _UNIT_LOW else _UNIT_LOW


@dataclass(frozen=True)
class OracleHash:
    """Keyed stand-in for a uniformly random hash of keys to (0, 1).

    Immutable; the same (seed, salt, key) always yields the same value.
    """

    seed: bytes = DEFAULT_SEED
    salt: int = 0

    def __post_init__(self) -> None:
        if len(self.seed) != SEED_BYTES:
            raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(self.seed)}")

    def with_salt(self, salt: int) -> "OracleHash":
        return OracleHash(self.seed, salt)


def hash_unit(h: OracleHash, key: int) -> float:
    """Hash a 64-bit key to a uniform value strictly inside (0, 1)."""
    data = b"H" + _pack_qQ(h.salt, key & _KEY_MASK)
    digest = hashlib.blake2b(data, key=h.seed, digest_size=8).digest()
    return _unit_from_digest(digest)


def hash_unit_bytes(h: OracleHash, data: bytes) -> float:
    """Hash arbitrary bytes (e.g. an encoded edge) to a uniform in (0, 1)."""
    payload = b"B" + _pack_q(h.salt) + data
    digest = hashlib.blake2b(payload, key=h.seed, digest_size=8).digest()
    return _unit_from_digest(digest)


def key_for_bytes(seed: bytes, data: bytes) -> int:
    """Map arbitrary bytes to a 64-bit key id (used for string keys and
    canonical edge encodings).  Collisions are negligible at desk scale."""
    digest = hashlib.blake2b(b"K" + data, key=seed, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def key_for_string(seed: bytes, text: str) -> int:
    return key_for_bytes(seed, text.encode("utf-8"))


@dataclass
class FreshSource:
    """Counter-based stream of i.i.d. uniforms and Exp(1) variates.

    Single-writer: concurrent users must either synchronize or start their
    own sources at disjoint counters.
    """

    seed: bytes = DEFAULT_SEED
    counter: int = 0

    def __post_init__(self) -> None:
        if len(self.seed) != SEED_BYTES:
            raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(self.seed)}")

    def next_uniform(self) -> float:
        data = b"F" + _pack_Q(self.counter)
        self.counter += 1
        digest = hashlib.blake2b(data, key=self.seed, digest_size=8).digest()
        return _unit_from_digest(digest)

    def at(self, counter: int) -> "FreshSource":
        """A source over the same stream, positioned at `counter`."""
        return FreshSource(self.seed, counter)


def exp_from_uniform(u: float) -> float:
    """Inverse-CDF transform: -ln(u) is Exp(1) for u ~ Uniform(0, 1)."""
    return -math.log(u)


def fresh_exp(source: FreshSource) -> float:
    """Draw the next Exp(1) variate and advance the counter."""
    return exp_from_uniform(source.next_uniform())

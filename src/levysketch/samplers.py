"""Streaming sampler sketches over incremental (key, delta) update streams.

Four sketch kinds over two cores, all driven by the same two ingredients: a
fresh Exp(1) variate per update and a keyed hash of the item.  Per update on
key v with increment delta > 0 the scalar sketches compute

    t = l_G(Y / delta, H(v)),   Y ~ Exp(1) fresh,

and keep the k smallest per-key minima (a ``KMinState``); the frontier
sketches store the raw (Y/delta, H(v)) points instead (a ``KParetoFrontier``)
and defer the level evaluation to query time, which lets a single sketch
answer for *any* weight function.

* WorSampler    -- k-entry sketch sampling k distinct keys without
                   replacement, ordered by the sequential-ratio law.
* GSampler      -- its k = 1 case: two words of state, one weight function,
                   exact sampling probability G(x(v)) / sum_u G(x(u)) at all
                   times.
* KParetoSampler-- universal variant of the WOR sketch: keeps the points
                   dominated by fewer than k others, so a query can report
                   the ordered k-sample for any single-hash weight function.
                   Each point carries its dominator count, so an insert costs
                   O(m) for m retained points.
* ParetoSampler -- its k = 1 case: the minimum Pareto frontier of all update
                   points; query with any single-hash weight function,
                   seed-for-seed equal to the scalar sketch's answer.
                   Expected size is harmonic (about ln n + 1 for n distinct
                   keys).

All sketches sharing a seed and processing the same updates (with the
per-update randomness drawn from the same counters) agree exactly, so
shard-and-merge runs are bit-identical to sequential runs.  Ties on equal
candidate values break toward the smaller key, which keeps merge results
independent of merge order.  Keys are 64-bit ids in [0, 2^64).

Each sketch serializes to a small canonical binary frame (magic ``LVSK``)
that round-trips bit-exactly; a malformed frame raises ``FrameError``.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .level import LevelFunction
from .randomness import FreshSource, OracleHash, fresh_exp, hash_unit

__all__ = [
    "Update",
    "ParetoTuple",
    "KMinState",
    "KParetoFrontier",
    "GSampler",
    "ParetoSampler",
    "WorSampler",
    "KParetoSampler",
    "FrameError",
    "deserialize",
    "MAGIC",
    "FORMAT_VERSION",
]

MAGIC = b"LVSK"
FORMAT_VERSION = 1

_TAG_GSAMPLER = 1
_TAG_PARETO = 2
_TAG_WOR = 3
_TAG_KPARETO = 4

_KEY_LIMIT = 1 << 64


def _check_update(key: int, delta: float) -> None:
    if not (0 <= key < _KEY_LIMIT):
        raise ValueError(f"key must lie in [0, 2^64), got {key}")
    if not (delta > 0):
        raise ValueError(f"delta must be positive, got {delta}")


@dataclass(frozen=True)
class Update:
    """One incremental update: x(key) += delta."""

    key: int
    delta: float

    def __post_init__(self) -> None:
        _check_update(self.key, self.delta)


class ParetoTuple(NamedTuple):
    a: float
    b: float
    key: int


class KMinState:
    """Per-key minima, truncated to the k smallest (h, key) pairs.

    Once the state is full its largest (h, key) is cached, so a new key that
    cannot enter is rejected with one comparison.
    """

    __slots__ = ("k", "_h", "_worst")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._h: dict[int, float] = {}
        self._worst: Optional[tuple[float, int]] = None

    def __len__(self) -> int:
        return len(self._h)

    def _largest(self) -> tuple[float, int]:
        return max((h, key) for key, h in self._h.items())

    def offer(self, key: int, h: float) -> None:
        """Keep h if it lowers key's minimum and ranks among the k smallest;
        ties favor smaller keys."""
        cur = self._h.get(key)
        if cur is not None:
            if h < cur:
                self._h[key] = h
                if self._worst is not None and self._worst[1] == key:
                    self._worst = self._largest()
            return
        worst = self._worst
        if worst is not None:
            if (h, key) > worst:
                return
            del self._h[worst[1]]
        self._h[key] = h
        if len(self._h) == self.k:
            self._worst = self._largest()

    def ordered(self) -> list[tuple[int, float]]:
        """Entries ascending by (h, key)."""
        return sorted(self._h.items(), key=lambda kv: (kv[1], kv[0]))

    def merge_from(self, other: "KMinState") -> None:
        if self.k != other.k:
            raise ValueError(f"cannot merge k={self.k} with k={other.k}")
        for key, h in other._h.items():
            self.offer(key, h)


class KParetoFrontier:
    """Points dominated by fewer than k others, one point per key.

    A point dominates another if it is at most as large in both coordinates
    and differs in at least one.  Updates to the same key reuse the same
    hash, so same-key points share their b coordinate and only the smallest
    a needs keeping.  The retained set supports ordered k-samples for any
    single-hash weight function; at k = 1 it is the minimum Pareto frontier,
    strictly increasing in a and strictly decreasing in b (points that
    coincide in both coordinates are all kept).

    Each retained point carries its dominator count.  A dominator of a
    retained point has fewer dominators than that point, so it is retained
    too: counting within the retained set equals counting over the whole
    update history, and a point whose count reaches k never comes back.
    Points are kept sorted by (a, b, key), which puts a point's dominators
    before it and the points it dominates after it.
    """

    __slots__ = ("k", "_tuples", "_counts", "_by_key")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._tuples: list[ParetoTuple] = []
        self._counts: list[int] = []
        self._by_key: dict[int, ParetoTuple] = {}

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self):
        return iter(self._tuples)

    def tuples(self) -> tuple[ParetoTuple, ...]:
        return tuple(self._tuples)

    def insert(self, t: ParetoTuple) -> None:
        """Add a point in O(m) for m retained points."""
        old = self._by_key.get(t.key)
        if old is not None:
            if old.a <= t.a:
                return  # superseded by the same key's earlier, smaller a
            # t dominates old, so whatever old dominated t dominates too,
            # and t has no more dominators than old had: t is retained
            self._remove(old)
        tuples, counts, k = self._tuples, self._counts, self.k
        a, b = t.a, t.b
        i = bisect_left(tuples, t)
        dominators = 0
        for p in tuples[:i]:  # a <= t.a here
            if p.b <= b and (p.b < b or p.a < a):
                dominators += 1
                if dominators == k:
                    return
        kept, kept_counts = tuples[:i], counts[:i]
        kept.append(t)
        kept_counts.append(dominators)
        for p, c in zip(tuples[i:], counts[i:]):  # a >= t.a here
            if p.b >= b and (p.b > b or p.a > a):
                c += 1
                if c == k:
                    del self._by_key[p.key]
                    continue
            kept.append(p)
            kept_counts.append(c)
        self._tuples, self._counts = kept, kept_counts
        self._by_key[t.key] = t

    def _remove(self, old: ParetoTuple) -> None:
        """Take a retained point out, with its share of the counts."""
        i = bisect_left(self._tuples, old)
        del self._tuples[i], self._counts[i], self._by_key[old.key]
        for j in range(i, len(self._tuples)):
            p = self._tuples[j]
            if p.b >= old.b and (p.b > old.b or p.a > old.a):
                self._counts[j] -= 1

    def merge_from(self, other: "KParetoFrontier") -> None:
        if self.k != other.k:
            raise ValueError(f"cannot merge k={self.k} with k={other.k}")
        for t in other._tuples:
            self.insert(t)

    def ranked(self, level: LevelFunction) -> list[tuple[float, int]]:
        """(l_G(a, b), key) for every retained point, ascending."""
        if not level.single_hash:
            raise ValueError(
                "frontier queries need a single-hash weight function; "
                "composites store one hash per term and cannot be answered "
                "from a single frontier"
            )
        return sorted((level.eval(t.a, t.b), t.key) for t in self._tuples)


def _level_draw(sketch, key: int, delta: float) -> float:
    """One update's candidate value t = l_G(Y/delta, H(key)).

    Composite weight functions draw one fresh exponential and one salted
    hash per term (salts base, base+1, ...), then take the term minimum.
    """
    _check_update(key, delta)
    level, oracle, rng = sketch.level, sketch.oracle, sketch.fresh
    if level.single_hash:
        y = fresh_exp(rng)
        return level.eval(y / delta, hash_unit(oracle, key))
    pairs = []
    base_salt = oracle.salt
    for j in range(level.term_count):
        y = fresh_exp(rng)
        b = hash_unit(oracle.with_salt(base_salt + j), key)
        pairs.append((y / delta, b))
    return level.eval_terms(pairs)


def _frontier_insert(sketch, key: int, delta: float) -> None:
    """Insert one update's raw point (Y/delta, H(key))."""
    _check_update(key, delta)
    y = fresh_exp(sketch.fresh)
    sketch.frontier.insert(ParetoTuple(y / delta, hash_unit(sketch.oracle, key), key))
    if len(sketch.frontier) > sketch.max_size:
        sketch.max_size = len(sketch.frontier)


class GSampler:
    """Two-word perfect sampler for one weight function: a KMinState(1).

    After any update stream, the stored key equals v with probability
    exactly G(x(v)) / sum_u G(x(u)); the stored value is the running
    minimum of the per-update level evaluations and is marginally
    Exp(sum_u G(x(u))).
    """

    def __init__(self, level: LevelFunction, oracle: OracleHash = OracleHash(),
                 fresh: Optional[FreshSource] = None):
        self.level = level
        self.oracle = oracle
        self.fresh = fresh if fresh is not None else FreshSource(oracle.seed)
        self.state = KMinState(1)

    def update(self, key: int, delta: float) -> None:
        self.state.offer(key, _level_draw(self, key, delta))

    def query(self) -> Optional[tuple[int, float]]:
        entries = self.state.ordered()
        return entries[0] if entries else None

    def merge_from(self, other: "GSampler") -> None:
        """Absorb a shard built with the same seed and weight function."""
        _check_mergeable(self, other)
        self.state.merge_from(other.state)

    def to_bytes(self) -> bytes:
        entries = [(h, key) for key, h in self.state.ordered()]
        return _frame(_TAG_GSAMPLER, self.oracle.seed, (len(entries),), entries)


class ParetoSampler:
    """Universal sketch: the minimum Pareto frontier of all update points,
    a KParetoFrontier(1).

    Any single-hash weight function can be queried after the fact, and the
    answer is identical to what a GSampler for that weight function would
    have produced from the same seed and update stream.
    """

    def __init__(self, oracle: OracleHash = OracleHash(),
                 fresh: Optional[FreshSource] = None):
        self.oracle = oracle
        self.fresh = fresh if fresh is not None else FreshSource(oracle.seed)
        self.frontier = KParetoFrontier(1)
        self.max_size = 0

    def update(self, key: int, delta: float) -> None:
        _frontier_insert(self, key, delta)

    def query(self, level: LevelFunction) -> Optional[tuple[int, float]]:
        """Key and value minimizing l_G(a, b) over the frontier."""
        ranked = self.frontier.ranked(level)
        return (ranked[0][1], ranked[0][0]) if ranked else None

    def merge_from(self, other: "ParetoSampler") -> None:
        _check_mergeable(self, other)
        self.frontier.merge_from(other.frontier)
        self.max_size = max(self.max_size, other.max_size, len(self.frontier))

    def to_bytes(self) -> bytes:
        return _frame(_TAG_PARETO, self.oracle.seed, (len(self.frontier),),
                      self.frontier)


class WorSampler:
    """k-sample without replacement for one weight function.

    Stores at most k (key, value) pairs; the ordered key list follows the
    sequential-ratio law: each successive key appears with probability
    proportional to its weight among the not-yet-selected keys.
    """

    def __init__(self, k: int, level: LevelFunction,
                 oracle: OracleHash = OracleHash(),
                 fresh: Optional[FreshSource] = None):
        self.level = level
        self.oracle = oracle
        self.fresh = fresh if fresh is not None else FreshSource(oracle.seed)
        self.state = KMinState(k)

    @property
    def k(self) -> int:
        return self.state.k

    def update(self, key: int, delta: float) -> None:
        self.state.offer(key, _level_draw(self, key, delta))

    def sample_ordered(self) -> list[int]:
        """Keys ascending by stored value; fewer than k if fewer keys seen."""
        return [key for key, _ in self.state.ordered()]

    def query(self) -> list[tuple[int, float]]:
        return self.state.ordered()

    def merge_from(self, other: "WorSampler") -> None:
        _check_mergeable(self, other)
        self.state.merge_from(other.state)

    def to_bytes(self) -> bytes:
        entries = [(h, key) for key, h in self.state.ordered()]
        return _frame(_TAG_WOR, self.oracle.seed, (self.k, len(entries)), entries)


class KParetoSampler:
    """Universal k-sample-without-replacement sketch.

    Keeps the points dominated by fewer than k others; a query evaluates any
    single-hash weight function over the retained points and reports the k
    smallest, matching a WorSampler run with the same seed exactly.
    """

    def __init__(self, k: int, oracle: OracleHash = OracleHash(),
                 fresh: Optional[FreshSource] = None):
        self.oracle = oracle
        self.fresh = fresh if fresh is not None else FreshSource(oracle.seed)
        self.frontier = KParetoFrontier(k)
        self.max_size = 0

    @property
    def k(self) -> int:
        return self.frontier.k

    def update(self, key: int, delta: float) -> None:
        _frontier_insert(self, key, delta)

    def query(self, level: LevelFunction, k: Optional[int] = None) -> list[int]:
        """The k keys with smallest level value, ascending; fewer if fewer
        keys were seen."""
        k = self.k if k is None else k
        if k > self.k:
            raise ValueError(f"query k={k} exceeds sketch capacity k={self.k}")
        return [key for _, key in self.frontier.ranked(level)[:k]]

    def merge_from(self, other: "KParetoSampler") -> None:
        _check_mergeable(self, other)
        self.frontier.merge_from(other.frontier)
        self.max_size = max(self.max_size, other.max_size, len(self.frontier))

    def to_bytes(self) -> bytes:
        return _frame(_TAG_KPARETO, self.oracle.seed, (self.k, len(self.frontier)),
                      self.frontier)


def _check_mergeable(a, b) -> None:
    if a.oracle.seed != b.oracle.seed or a.oracle.salt != b.oracle.salt:
        raise ValueError("cannot merge sketches built with different seeds")
    if hasattr(a, "level") and a.level.weight != b.level.weight:
        raise ValueError("cannot merge sketches for different weight functions")


# --- frames -------------------------------------------------------------------


class FrameError(ValueError):
    """A byte string that is not a well-formed sketch frame."""


_HEAD = struct.Struct("<4sHB16s")  # magic, version, tag, seed

# tag -> (header layout, entry layout).  The header holds (k, entry count);
# the k = 1 kinds store the count alone.
_LAYOUTS = {
    _TAG_GSAMPLER: ("<B", "<dQ"),
    _TAG_PARETO: ("<I", "<ddQ"),
    _TAG_WOR: ("<II", "<dQ"),
    _TAG_KPARETO: ("<II", "<ddQ"),
}


def _frame(tag: int, seed: bytes, header: tuple, entries) -> bytes:
    header_layout, entry_layout = _LAYOUTS[tag]
    parts = [_HEAD.pack(MAGIC, FORMAT_VERSION, tag, seed),
             struct.pack(header_layout, *header)]
    parts += [struct.pack(entry_layout, *e) for e in entries]
    return b"".join(parts)


def deserialize(data: bytes, level: Optional[LevelFunction] = None):
    """Rebuild a sketch from its binary frame; FrameError if malformed.

    Scalar and WOR sketches need their weight function supplied (the frame
    stores state, not configuration).  The fresh-randomness counter restarts
    at zero; continuing to update a deserialized sketch requires positioning
    it explicitly to avoid reusing counters.
    """
    if len(data) < _HEAD.size:
        raise FrameError(f"frame of {len(data)} bytes is shorter than its header")
    magic, version, tag, seed = _HEAD.unpack_from(data)
    if magic != MAGIC:
        raise FrameError("bad magic; not a sketch frame")
    if version != FORMAT_VERSION:
        raise FrameError(f"unsupported format version {version}")
    if tag not in _LAYOUTS:
        raise FrameError(f"unknown sketch tag {tag}")
    header_layout, entry_layout = _LAYOUTS[tag]
    off = _HEAD.size + struct.calcsize(header_layout)
    if len(data) < off:
        raise FrameError(f"frame of {len(data)} bytes ends inside its header")
    *k_field, count = struct.unpack_from(header_layout, data, _HEAD.size)
    k = k_field[0] if k_field else 1
    entry_size = struct.calcsize(entry_layout)
    if len(data) - off != count * entry_size:
        raise FrameError(f"frame declares {count} entries of {entry_size} bytes "
                         f"but carries {len(data) - off} bytes")
    if k < 1:
        raise FrameError(f"frame declares k = {k}")
    entries = struct.iter_unpack(entry_layout, data[off:])
    oracle = OracleHash(seed)
    if tag in (_TAG_GSAMPLER, _TAG_WOR):
        if level is None:
            raise ValueError("deserializing a gsampler or wor sketch requires "
                             "its weight function")
        if count > k:
            raise FrameError(f"frame declares {count} entries for k = {k}")
        s = GSampler(level, oracle) if tag == _TAG_GSAMPLER else WorSampler(k, level, oracle)
        for h, key in entries:
            s.state.offer(key, h)
        return s
    s = ParetoSampler(oracle) if tag == _TAG_PARETO else KParetoSampler(k, oracle)
    for a, b, key in entries:
        s.frontier.insert(ParetoTuple(a, b, key))
    s.max_size = len(s.frontier)
    return s

"""Streaming sampler sketches over incremental (key, delta) update streams.

Four sketch kinds over two cores, all driven by the same two ingredients: a
fresh Exp(1) variate per update and a keyed hash of the item.  Per update on
key v with increment delta > 0 the scalar sketches compute

    t = l_G(Y / delta, H(v)),   Y ~ Exp(1) fresh,

and keep the k smallest per-key minima (a ``KMinState``), root-solving only
the candidates that can change them (see level.py).  The frontier sketches
store the raw (Y/delta, H(v)) points instead (a ``KParetoFrontier``) and
defer the level evaluation to query time, which lets a single sketch answer
for *any* weight function, sums included.  A top-k query bounds each point's
evaluation by the running k-th value, so it solves only the points that can
still enter; ``KParetoFrontier.ranked`` keeps the full evaluation as the
reference the checks compare against.

* WorSampler    -- k-entry sketch sampling k distinct keys without
                   replacement, ordered by the sequential-ratio law.
* GSampler      -- its k = 1 subclass: two words of state, one weight
                   function, exact sampling probability
                   G(x(v)) / sum_u G(x(u)) at all times.
* KParetoSampler-- universal variant of the WOR sketch: keeps the points
                   dominated by fewer than k others, so a query can report
                   the ordered k-sample for any weight function.  Each point
                   carries its dominator count, so an insert costs O(m) for
                   m retained points.
* ParetoSampler -- its k = 1 subclass: the minimum Pareto frontier of all
                   update points; its answer for any weight function equals
                   the scalar sketch's, seed for seed.  Expected size is
                   harmonic (about ln n + 1 for n distinct keys).

A k = 1 subclass differs from its family's sketch only in the shape of its
query answer and in its frame tag.

All sketches sharing a seed and processing the same updates (with the
per-update randomness drawn from the same counters) agree exactly, so
shard-and-merge runs are bit-identical to sequential runs.  Ties on equal
candidate values break toward the smaller key, which keeps merge results
independent of merge order.  Keys are 64-bit ids in [0, 2^64).

Each sketch serializes to a small canonical binary frame (magic ``LVSK``)
that round-trips bit-exactly; a malformed frame raises ``FrameError``.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .level import LevelFunction
from .randomness import FreshSource, OracleHash, derive_seed, fresh_exp, hash_unit

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
    "replay",
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
_K_LIMIT = 1 << 32  # frames store k in 32 bits


def check_update(key: int, delta: float) -> None:
    """ValueError unless key is an int in [0, 2^64), not a bool, and
    0 < delta < inf."""
    if not (type(key) is int and 0 <= key < _KEY_LIMIT):
        raise ValueError(f"key must be an int in [0, 2^64), got {key!r}")
    if not (0 < delta < math.inf):
        raise ValueError(f"delta must be positive and finite, got {delta}")


@dataclass(frozen=True)
class Update:
    """One incremental update: x(key) += delta."""

    key: int
    delta: float

    def __post_init__(self) -> None:
        check_update(self.key, self.delta)


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
        if not (1 <= k < _K_LIMIT):
            raise ValueError(f"k must lie in [1, 2^32), got {k}")
        self.k = k
        self._h: dict[int, float] = {}
        self._worst: Optional[tuple[float, int]] = None

    def __len__(self) -> int:
        return len(self._h)

    def threshold(self, key: int) -> float:
        """The value a candidate for key must not exceed to change the state."""
        return self._h.get(key, self._worst[0] if self._worst else math.inf)

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
    weight function; at k = 1 it is the minimum Pareto frontier, strictly
    increasing in a and strictly decreasing in b (points that coincide in
    both coordinates are all kept).

    Each retained point carries its dominator count.  A dominator of a
    retained point has fewer dominators than that point, so it is retained
    too: counting within the retained set equals counting over the whole
    update history, and a point whose count reaches k never comes back.
    Points are kept sorted by (a, b, key), which puts a point's dominators
    before it and the points it dominates after it.
    """

    __slots__ = ("k", "_tuples", "_counts", "_by_key")

    def __init__(self, k: int) -> None:
        if not (1 <= k < _K_LIMIT):
            raise ValueError(f"k must lie in [1, 2^32), got {k}")
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
        """(l_G(a, b), key) for every retained point, ascending: the full
        evaluation that top must agree with."""
        return sorted((level.eval(t.a, t.b), t.key) for t in self._tuples)

    def top(self, level: LevelFunction, k: int) -> list[tuple[float, int]]:
        """The k smallest (l_G(a, b), key), ascending; equal to ranked(level)[:k].

        Points are evaluated by ascending b under the running k-th value as
        the bound, so a point whose level is proven above it is never
        solved.  Such a point is strictly above the k-th value, and a tie is
        solved, so the (value, key) order is that of ranked.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        best: list[tuple[float, int]] = []
        bound = math.inf
        for t in sorted(self._tuples, key=attrgetter("b")):
            insort(best, (level.eval(t.a, t.b, bound), t.key))
            if len(best) >= k:
                del best[k:]
                bound = best[-1][0]
        return best


class WorSampler:
    """k-sample without replacement for one weight function.

    Stores at most k (key, value) pairs; the ordered key list follows the
    sequential-ratio law: each successive key appears with probability
    proportional to its weight among the not-yet-selected keys.
    """

    _TAG = _TAG_WOR

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
        """Offer the candidate t = l_G(Y/delta, H(key)), solved only below
        the state's threshold for key; Y/delta is the least positive double
        where it underflows to 0."""
        check_update(key, delta)
        y = fresh_exp(self.fresh)
        state = self.state
        state.offer(key, self.level.eval(y / delta or 5e-324, hash_unit(self.oracle, key),
                                         state.threshold(key)))

    def sample_ordered(self) -> list[int]:
        """Keys ascending by stored value; fewer than k if fewer keys seen."""
        return [key for key, _ in self.state.ordered()]

    def query(self) -> list[tuple[int, float]]:
        return self.state.ordered()

    def merge_from(self, other: "WorSampler") -> None:
        """Absorb a shard of the same kind, seed and weight function."""
        _check_mergeable(self, other)
        self.state.merge_from(other.state)

    def to_bytes(self) -> bytes:
        entries = [(h, key) for key, h in self.state.ordered()]
        return _frame(self._TAG, self.oracle.seed, self.k, entries)


class GSampler(WorSampler):
    """Two-word perfect sampler for one weight function: WorSampler at k = 1.

    After any update stream, the stored key equals v with probability
    exactly G(x(v)) / sum_u G(x(u)); the stored value is the running
    minimum of the per-update level evaluations and is marginally
    Exp(sum_u G(x(u))).
    """

    _TAG = _TAG_GSAMPLER

    def __init__(self, level: LevelFunction, oracle: OracleHash = OracleHash(),
                 fresh: Optional[FreshSource] = None):
        super().__init__(1, level, oracle, fresh)

    # bound here, not inherited: bench/spans.py traces each kind through
    # the methods in its own class __dict__
    update, merge_from, to_bytes = WorSampler.update, WorSampler.merge_from, WorSampler.to_bytes

    def query(self) -> Optional[tuple[int, float]]:
        entries = self.state.ordered()
        return entries[0] if entries else None


class KParetoSampler:
    """Universal k-sample-without-replacement sketch.

    Keeps the points dominated by fewer than k others; a query evaluates any
    weight function over the retained points and reports the k smallest,
    matching a WorSampler run with the same seed exactly.
    """

    _TAG = _TAG_KPARETO

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
        """Insert the raw point (Y/delta, H(key)), Y/delta clamped as in
        WorSampler.update."""
        check_update(key, delta)
        y = fresh_exp(self.fresh)
        frontier = self.frontier
        frontier.insert(ParetoTuple(y / delta or 5e-324, hash_unit(self.oracle, key), key))
        if len(frontier) > self.max_size:
            self.max_size = len(frontier)

    def query(self, level: LevelFunction) -> list[int]:
        """The k keys with smallest level value, ascending; fewer if fewer
        keys were seen."""
        return [key for _, key in self.frontier.top(level, self.k)]

    def merge_from(self, other: "KParetoSampler") -> None:
        _check_mergeable(self, other)
        self.frontier.merge_from(other.frontier)
        self.max_size = max(self.max_size, other.max_size, len(self.frontier))

    def to_bytes(self) -> bytes:
        return _frame(self._TAG, self.oracle.seed, self.k, self.frontier)


class ParetoSampler(KParetoSampler):
    """Universal sketch: the minimum Pareto frontier of all update points,
    a KParetoSampler with k = 1.

    Any weight function can be queried after the fact, and the answer is
    identical to what a GSampler for that weight function would have
    produced from the same seed and update stream.
    """

    _TAG = _TAG_PARETO

    def __init__(self, oracle: OracleHash = OracleHash(),
                 fresh: Optional[FreshSource] = None):
        super().__init__(1, oracle, fresh)

    # bound here for the same reason as GSampler's
    update, merge_from, to_bytes = (KParetoSampler.update, KParetoSampler.merge_from,
                                    KParetoSampler.to_bytes)

    def query(self, level: LevelFunction) -> Optional[tuple[int, float]]:
        """Key and value minimizing l_G(a, b) over the frontier."""
        top = self.frontier.top(level, 1)
        return (top[0][1], top[0][0]) if top else None


def _check_mergeable(a, b) -> None:
    if type(a) is not type(b):
        raise ValueError(f"cannot merge a {type(b).__name__} into a {type(a).__name__}")
    if a.oracle.seed != b.oracle.seed or a.oracle.salt != b.oracle.salt:
        raise ValueError("cannot merge sketches built with different seeds")
    if hasattr(a, "level") and a.level.weight != b.level.weight:
        raise ValueError("cannot merge sketches for different weight functions")


def replay(build: Callable[[OracleHash], object], stream: Sequence[tuple[int, float]],
           reps: int, seed: bytes) -> Iterator:
    """For rep r in 0..reps-1, build(OracleHash(derive_seed(seed, r))), feed
    the sketch every (key, delta) of the stream in order, and yield it.  Any
    object with update(key, delta) is a sketch here, circuits included.
    ValueError if reps < 1."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")

    def sketches():
        for rep in range(reps):
            sketch = build(OracleHash(derive_seed(seed, rep)))
            for key, delta in stream:
                sketch.update(key, delta)
            yield sketch

    return sketches()


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


def _frame(tag: int, seed: bytes, k: int, entries) -> bytes:
    header_layout, entry_layout = _LAYOUTS[tag]
    fields = len(header_layout) - 1  # one letter per field after the byte order
    parts = [_HEAD.pack(MAGIC, FORMAT_VERSION, tag, seed),
             struct.pack(header_layout, *(k, len(entries))[-fields:])]
    parts += [struct.pack(entry_layout, *e) for e in entries]
    return b"".join(parts)


def deserialize(data: bytes, level: Optional[LevelFunction] = None):
    """Rebuild a sketch from its binary frame; FrameError if malformed.

    Malformed includes entries outside the sketch's domain (a NaN, a
    negative value, a point off (0, inf] x (0, 1)) and entries that do not
    rebuild to the declared count (a repeated key, a point the sketch would
    not keep).  inf is legal: subnormal deltas produce it.

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
            if not (h >= 0):
                raise FrameError(f"entry value {h} is not in [0, inf]")
            s.state.offer(key, h)
        kept = len(s.state)
    else:
        s = ParetoSampler(oracle) if tag == _TAG_PARETO else KParetoSampler(k, oracle)
        for a, b, key in entries:
            if not (a > 0 and 0.0 < b < 1.0):
                raise FrameError(f"point ({a}, {b}) is not in (0, inf] x (0, 1)")
            s.frontier.insert(ParetoTuple(a, b, key))
        s.max_size = kept = len(s.frontier)
    if kept != count:
        raise FrameError(f"frame declares {count} entries but rebuilds to {kept}: "
                         "a repeated key, or a point the sketch does not keep")
    return s

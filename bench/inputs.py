"""Workload inputs, generated from a seed with the standard library only.

Nothing here imports levysketch or numpy, so a set-up probe can build its
inputs before it starts the clock on the library import.  The same seed and
sizes always give the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; `SIZES` is the benchmark, `SMOKE` a
    tiny copy that exercises the same code paths in seconds."""

    scalar_updates: int
    scalar_keys: int
    merge_updates: int
    merge_keys: int
    merge_shards: int
    replay_reps: int
    replay_keys: int
    edge_updates: int
    edge_hub_degree: int
    edge_periphery: int


SIZES = Sizes(
    scalar_updates=2_500, scalar_keys=1_000,
    merge_updates=3_200, merge_keys=2_400, merge_shards=16,
    replay_reps=400, replay_keys=8,
    edge_updates=500, edge_hub_degree=50, edge_periphery=80,
)
SMOKE = Sizes(
    scalar_updates=300, scalar_keys=100,
    merge_updates=300, merge_keys=200, merge_shards=3,
    replay_reps=200, replay_keys=4,
    edge_updates=60, edge_hub_degree=8, edge_periphery=12,
)

ZIPF_SKEW = 1.1
HUB_SHARE = 0.3


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}")


def sketch_seed(seed: int, index: int = 0) -> bytes:
    """The `index`-th 16-byte sketch seed for workload seed `seed`."""
    return _rng(seed, f"sketch{index}").getrandbits(128).to_bytes(16, "big")


def chunked(items, size: int) -> list:
    """`items` cut into consecutive lists of `size` (the last may be shorter)."""
    return [items[i:i + size] for i in range(0, len(items), size)]


def zipf_stream(seed: int, n: int, keys: int) -> list[tuple[int, float]]:
    """`n` updates over `keys` 64-bit ids, Zipf(1.1) by rank, with deltas
    log-uniform over six decades so that level solvers must widen brackets."""
    rnd = _rng(seed, "zipf")
    ids = rnd.sample(range(1 << 62), keys)
    cum = []
    total = 0.0
    for rank in range(1, keys + 1):
        total += rank ** -ZIPF_SKEW
        cum.append(total)
    chosen = rnd.choices(ids, cum_weights=cum, k=n)
    return [(key, 10.0 ** rnd.uniform(-3.0, 3.0)) for key in chosen]


def distinct_stream(seed: int, n: int, keys: int) -> list[tuple[int, float]]:
    """`n` updates spread uniformly over `keys` ids, deltas over four decades."""
    rnd = _rng(seed, "distinct")
    ids = rnd.sample(range(1 << 62), keys)
    return [(rnd.choice(ids), 10.0 ** rnd.uniform(-2.0, 2.0)) for _ in range(n)]


def short_stream_text(seed: int, keys: int) -> tuple[str, dict[int, float]]:
    """One record per key, as CLI stream text, and the resulting masses.

    Masses stay within [0.5, 8] so that every key keeps an expected count of
    at least five in the chi-square tests at the benchmark's rep counts.
    """
    rnd = _rng(seed, "short")
    ids = rnd.sample(range(100, 1000), keys)
    masses = {key: round(0.5 * 16.0 ** rnd.random(), 6) for key in ids}
    text = "".join(f"{key} {mass!r}\n" for key, mass in masses.items())
    return text, masses


TRIANGLE_TEXT = "edge 1 2\nedge 2 3\nedge 1 3\n"


def triangle_stream_text(seed: int) -> tuple[str, dict[int, float]]:
    """Four vertex updates on the triangle, one vertex updated twice."""
    rnd = _rng(seed, "triangle")
    masses: dict[int, float] = {}
    lines = []
    for vertex in (1, 2, 3, rnd.choice((1, 2, 3))):
        delta = round(0.5 + 2.0 * rnd.random(), 6)
        masses[vertex] = masses.get(vertex, 0.0) + delta
        lines.append(f"{vertex} {delta!r}\n")
    return "".join(lines), masses


@dataclass(frozen=True)
class HubGraph:
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]
    stream: tuple[tuple[int, float], ...]


def hub_graph(seed: int, n: int, hub_degree: int, periphery: int) -> HubGraph:
    """A hub (vertex 0) of degree `hub_degree`, counting two arity-3
    hyperedges through it, a sparse periphery with a few more hyperedges,
    and `n` vertex updates of which exactly 30% hit the hub."""
    rnd = _rng(seed, "hub")
    rim = list(range(1, periphery + 1))
    edges: set[tuple[int, ...]] = set()
    for v in rnd.sample(rim, hub_degree - 2):
        edges.add((0, v))
    while len(edges) < hub_degree:
        edges.add((0, *sorted(rnd.sample(rim, 2))))
    target = len(edges) + periphery // 2
    while len(edges) < target:
        edges.add(tuple(sorted(rnd.sample(rim, 2))))
    target += max(2, periphery // 16)
    while len(edges) < target:
        edges.add(tuple(sorted(rnd.sample(rim, 3))))
    connected = sorted({v for e in edges for v in e} - {0})
    hub_updates = int(round(HUB_SHARE * n))
    hub_at = set(rnd.sample(range(n), hub_updates))
    stream = tuple(
        (0 if i in hub_at else rnd.choice(connected), 10.0 ** rnd.uniform(-1.0, 1.0))
        for i in range(n)
    )
    vertices = tuple([0] + connected)
    return HubGraph(vertices, tuple(sorted(edges)), stream)

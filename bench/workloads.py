"""The four benchmark workloads.

Each workload turns generated inputs into library calls in three steps:

* ``build()`` constructs weights, sketches and circuits.  It is set-up, so
  it is excluded from the timed pass and measured as ``setup_s``.
* ``run(state)`` is one timed pass, from input to complete result.  Every
  pass replays the same inputs under the same seeds, so every pass does the
  same work and must give the same answer.
* ``check(result)`` checks a pass's outputs against independent results:
  exact identities between sketch kinds, and chi-square tests against the
  closed-form laws in ``levysketch.oracle``.

The library is reached only through its public names, looked up on the
module at call time, so that a traced run can wrap them where callers bind
them.
"""

from __future__ import annotations

import importlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import levysketch
from levysketch import circuits, level, samplers

import inputs

# Per-test level of every chi-square check.  A run makes nine such tests, so
# a correct program fails one by chance with probability below 1e-5 per seed.
CHI_ALPHA = 1e-6
WOR_K = 8


@dataclass
class PassResult:
    """What one timed pass did and produced."""

    updates: int
    queries: int
    merges: int
    # seconds of each consecutive chunk of the pass, per phase; every pass
    # cuts the same work into the same chunks
    phases: dict[str, list[float]]
    answer: object  # compared across passes for exact replay
    state_bytes: int = 0
    wall: float = 0.0  # seconds of the whole pass, set by the runner


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


def _lap(phases: dict, phase: str, start: float) -> float:
    """Record the chunk that began at `start`; return the next chunk's start."""
    now = perf_counter()
    phases.setdefault(phase, []).append(now - start)
    return now


class StreamScalar:
    """One pass of a Zipf stream into a GSampler per weight, a WOR sketch and
    a Pareto sketch.  Randomness, level evaluation and numerics do almost all
    the work and almost no update changes a sketch's state, which is where
    record-only evaluation, a cheaper PRF or a cheaper inverse erf show."""

    name = "stream-scalar"
    weights = ("f1", "fhalf", "log", "softcap:1", "sum:c=1,g0=1,atoms=2x0.5")
    ingest_phase = "ingest_s"
    # the query phase queries one Pareto frontier of a handful of points, so
    # its time follows the seed more than the code; queries_per_s uses wall_s
    query_phase = None

    def __init__(self, seed: int, sizes: inputs.Sizes):
        self.seed = inputs.sketch_seed(seed)
        self.stream = inputs.zipf_stream(seed, sizes.scalar_updates, sizes.scalar_keys)
        self.chunks = inputs.chunked(self.stream, 50)
        self.size_note = (f"{sizes.scalar_updates} updates over {sizes.scalar_keys} "
                          f"keys, Zipf {inputs.ZIPF_SKEW}, deltas 1e-3..1e3")

    def build(self):
        oracle = levysketch.OracleHash(self.seed)
        dedicated = {g: samplers.GSampler(level.LevelFunction(level.parse_weight(g)),
                                          oracle)
                     for g in self.weights}
        wor = samplers.WorSampler(WOR_K, level.LevelFunction(level.Log()), oracle)
        pareto = samplers.ParetoSampler(oracle)
        catalogue = [level.LevelFunction(g) for g in level.CATALOGUE]
        return dedicated, wor, pareto, catalogue

    def run(self, state) -> PassResult:
        dedicated, wor, pareto, catalogue = state
        sketches = [*dedicated.values(), wor, pareto]
        phases: dict = {}
        t = perf_counter()
        for chunk in self.chunks:
            for key, delta in chunk:
                for sketch in sketches:
                    sketch.update(key, delta)
            t = _lap(phases, "ingest_s", t)
        answers = {g: s.query() for g, s in dedicated.items()}
        wor_answer = wor.query()
        universal = {lf.weight: pareto.query(lf) for lf in catalogue}
        t = _lap(phases, "query_s", t)
        state_bytes = sum(len(s.to_bytes()) for s in sketches)
        _lap(phases, "frame_s", t)
        return PassResult(
            updates=len(self.stream) * len(sketches),
            queries=len(answers) + 1 + len(universal),
            merges=0,
            phases=phases,
            answer=(answers, wor_answer, universal),
            state_bytes=state_bytes,
        )

    def check(self, result: PassResult) -> list[Check]:
        answers, wor_answer, universal = result.answer
        checks = []
        for g, dedicated in answers.items():
            weight = level.parse_weight(g)
            if weight not in universal:
                continue  # composite weights have no frontier answer
            checks.append(Check(f"universality {g}", universal[weight] == dedicated,
                                f"pareto={universal[weight]} gsampler={dedicated}"))
        top = wor_answer[0] if wor_answer else None
        checks.append(Check("wor top-1 equals gsampler log", top == answers["log"],
                            f"wor={top} gsampler={answers['log']}"))
        return checks


class FrontierMerge:
    """Shards of a distinct-key stream into universal sketches, framed,
    deserialized, merged and queried.  No level evaluation on the update
    path: the cost is randomness, frontier upkeep and the frame codec, while
    the queries are the read side of the level layer."""

    name = "frontier-merge"
    ingest_phase = "ingest_s"
    query_phase = "query_s"

    def __init__(self, seed: int, sizes: inputs.Sizes):
        self.seed = inputs.sketch_seed(seed)
        self.stream = inputs.distinct_stream(seed, sizes.merge_updates, sizes.merge_keys)
        n, s = len(self.stream), sizes.merge_shards
        bounds = [n * i // s for i in range(s + 1)]
        self.shards = [(lo, inputs.chunked(self.stream[lo:hi], 50))
                       for lo, hi in zip(bounds, bounds[1:])]
        self.size_note = (f"{n} updates over {sizes.merge_keys} keys in {s} shards, "
                          f"deltas 1e-2..1e2")
        self._reference = None

    def build(self):
        oracle = levysketch.OracleHash(self.seed)
        fresh = levysketch.FreshSource(self.seed)
        shards = [(samplers.ParetoSampler(oracle, fresh.at(start)),
                   samplers.KParetoSampler(WOR_K, oracle, fresh.at(start)), chunks)
                  for start, chunks in self.shards]
        catalogue = [level.LevelFunction(g) for g in level.CATALOGUE]
        return shards, catalogue

    def run(self, state) -> PassResult:
        shards, catalogue = state
        phases: dict = {}
        t = perf_counter()
        for pareto, kpareto, chunks in shards:
            for chunk in chunks:
                for key, delta in chunk:
                    pareto.update(key, delta)
                    kpareto.update(key, delta)
                t = _lap(phases, "ingest_s", t)
        frames = [(p.to_bytes(), kp.to_bytes()) for p, kp, _ in shards]
        merged_p = samplers.deserialize(frames[0][0])
        merged_kp = samplers.deserialize(frames[0][1])
        t = _lap(phases, "merge_s", t)
        for frame_p, frame_kp in frames[1:]:
            merged_p.merge_from(samplers.deserialize(frame_p))
            merged_kp.merge_from(samplers.deserialize(frame_kp))
            t = _lap(phases, "merge_s", t)
        universal = {lf.weight: (merged_p.query(lf), merged_kp.query(lf))
                     for lf in catalogue}
        t = _lap(phases, "query_s", t)
        per_shard = []
        for pareto, kpareto, _ in shards:
            per_shard.append([(pareto.query(lf), kpareto.query(lf)) for lf in catalogue])
            t = _lap(phases, "query_s", t)
        final = (merged_p.to_bytes(), merged_kp.to_bytes())
        _lap(phases, "frame_s", t)
        return PassResult(
            updates=2 * len(self.stream),
            queries=2 * len(catalogue) * (1 + len(shards)),
            merges=2 * (len(shards) - 1),
            phases=phases,
            answer=(final, universal, per_shard),
            state_bytes=sum(map(len, final)),
        )

    def reference(self):
        """Sequential sketches over the whole stream, built once per run."""
        if self._reference is None:
            oracle = levysketch.OracleHash(self.seed)
            pareto = samplers.ParetoSampler(oracle)
            kpareto = samplers.KParetoSampler(WOR_K, oracle)
            wor = samplers.WorSampler(WOR_K, level.LevelFunction(level.Log()), oracle)
            for key, delta in self.stream:
                pareto.update(key, delta)
                kpareto.update(key, delta)
                wor.update(key, delta)
            self._reference = (pareto.to_bytes(), kpareto.to_bytes(),
                               wor.sample_ordered())
        return self._reference

    def check(self, result: PassResult) -> list[Check]:
        (frame_p, frame_kp), universal, _ = result.answer
        ref_p, ref_kp, ref_order = self.reference()
        merged_order = universal[level.Log()][1]
        return [
            Check("pareto merge frame equals sequential", frame_p == ref_p,
                  f"{len(frame_p)} vs {len(ref_p)} bytes"),
            Check("kpareto merge frame equals sequential", frame_kp == ref_kp,
                  f"{len(frame_kp)} vs {len(ref_kp)} bytes"),
            Check("merged kpareto order equals wor log", merged_order == ref_order,
                  f"kpareto={merged_order} wor={ref_order}"),
        ]


class ReplayShort:
    """The shape of ``levysketch sample`` and of the verify suites: a short
    stream replayed for many reps under derived seeds.  Per-rep set-up,
    query and oracle costs dominate and many updates are records, so this is
    where per-rep overhead of a batch engine would show."""

    name = "replay-short"
    sketch_kinds = ("gsampler", "pareto", "wor:2", "kpareto:2")
    grammars = ("fhalf", "log")
    # each command's reps are split over this many calls under distinct
    # seeds, so that each call is one timing chunk of a few milliseconds
    calls = 8
    # the query ends each rep inside the CLI command, so it is not timed apart
    ingest_phase = None
    query_phase = None

    def __init__(self, seed: int, sizes: inputs.Sizes):
        self.seeds = [inputs.sketch_seed(seed, j) for j in range(self.calls)]
        self.reps = sizes.replay_reps // self.calls
        self.text, self.masses = inputs.short_stream_text(seed, sizes.replay_keys)
        self.edge_text, self.edge_masses = inputs.triangle_stream_text(seed)
        self.size_note = (f"{sizes.replay_keys} records x {sizes.replay_reps} reps x "
                          f"{len(self.sketch_kinds) * len(self.grammars)} configs, "
                          f"triangle 4 records x {sizes.replay_reps} reps")

    def build(self):
        cli = importlib.import_module("levysketch.cli")
        configs = [cli.RunConfig(seed, sketch, g, self.reps)
                   for g in self.grammars for sketch in self.sketch_kinds
                   for seed in self.seeds]
        edge_configs = [cli.RunConfig(seed, reps=self.reps) for seed in self.seeds]
        return cli, configs, edge_configs

    def run(self, state) -> PassResult:
        cli, configs, edge_configs = state
        phases: dict = {}
        t = perf_counter()
        records = cli.parse_stream(self.text, self.seeds[0])
        edge_records = cli.parse_stream(self.edge_text, self.seeds[0])
        t = _lap(phases, "run_s", t)
        reports = []
        for config in configs:
            reports.append(cli.cmd_sample(config, records))
            t = _lap(phases, "run_s", t)
        for config in edge_configs:
            reports.append(cli.cmd_edge_sample(inputs.TRIANGLE_TEXT, edge_records, config))
            t = _lap(phases, "run_s", t)
        return PassResult(
            updates=self.reps * (len(configs) * len(records)
                                 + len(edge_configs) * len(edge_records)),
            queries=self.reps * (len(configs) + len(edge_configs)),
            merges=0,
            phases=phases,
            answer=tuple(json.dumps(r, sort_keys=True) for r in reports),
        )

    def check(self, result: PassResult) -> list[Check]:
        oracle = importlib.import_module("levysketch.oracle")
        pooled: dict[str, Counter] = {}
        empty: Counter = Counter()
        for text in result.answer:
            report = json.loads(text)
            config = report.get("config", {})
            label = (f"{config['sketch']} {config['g']}" if report["command"] == "sample"
                     else "edge-sample triangle")
            pooled.setdefault(label, Counter()).update(report["counts"])
            empty[label] += report["empty_samples"]
        checks = []
        for g in self.grammars:
            weight = level.parse_weight(g)
            for sketch in self.sketch_kinds:
                # single-key sketches: the sampled key; k = 2: the second key,
                # whose law is the without-replacement marginal
                position = 0 if sketch in ("gsampler", "pareto") else 1
                counts: Counter = Counter()
                for outcome, count in pooled[f"{sketch} {g}"].items():
                    counts[int(outcome.split(",")[position])] += count
                exact = (oracle.exact_distribution(self.masses, weight) if position == 0
                         else _second_key_law(oracle, self.masses, weight))
                gof = oracle.chi_square_gof(counts, exact, alpha=CHI_ALPHA)
                checks.append(Check(f"chi-square {sketch} {g}",
                                    gof.passed and not empty[f"{sketch} {g}"],
                                    _gof_text(gof)))
            checks.append(Check(f"pareto counts equal gsampler {g}",
                                pooled[f"pareto {g}"] == pooled[f"gsampler {g}"]))
            checks.append(Check(f"kpareto:2 counts equal wor:2 {g}",
                                pooled[f"kpareto:2 {g}"] == pooled[f"wor:2 {g}"]))
        edges = [tuple(int(v) for v in line.split()[1:])
                 for line in inputs.TRIANGLE_TEXT.splitlines()]
        counts = {tuple(int(v) for v in name.split("-")): count
                  for name, count in pooled["edge-sample triangle"].items()}
        gof = oracle.chi_square_gof(
            counts, oracle.exact_edge_distribution(edges, self.edge_masses),
            alpha=CHI_ALPHA)
        checks.append(Check("chi-square edge-sample triangle",
                            gof.passed and not empty["edge-sample triangle"],
                            _gof_text(gof)))
        return checks


def _second_key_law(oracle, masses, weight):
    pairs = oracle.exact_wor_distribution(masses, weight, 2)
    support = tuple(sorted(masses))
    probs = tuple(math.fsum(p for (_, second), p in pairs.items() if second == key)
                  for key in support)
    return oracle.ExactDistribution(support, probs)


def _gof_text(gof) -> str:
    return (f"statistic={gof.statistic:.4g} threshold={gof.threshold:.4g} "
            f"dof={gof.degrees_of_freedom} n={gof.sample_count}")


class EdgeCircuit:
    """An edge sampler over a graph with a degree-50 hub.  Each hub update
    fans out over every incident edge, about three level evaluations per
    edge, so circuit propagation is measured at the scale users hit."""

    name = "edge-circuit"
    ingest_phase = "ingest_s"
    # one O(1) lookup is too short to time on its own
    query_phase = None

    def __init__(self, seed: int, sizes: inputs.Sizes):
        self.seed = inputs.sketch_seed(seed)
        self.graph = inputs.hub_graph(seed, sizes.edge_updates, sizes.edge_hub_degree,
                                      sizes.edge_periphery)
        self.chunks = inputs.chunked(self.graph.stream, 10)
        self.size_note = (f"{len(self.graph.stream)} vertex updates, "
                          f"{len(self.graph.vertices)} vertices, "
                          f"{len(self.graph.edges)} edges, hub degree "
                          f"{sizes.edge_hub_degree}")

    def build(self):
        spec = circuits.EdgeSamplerSpec(self.graph.vertices, self.graph.edges)
        return circuits.EdgeSampler(spec, levysketch.OracleHash(self.seed))

    def run(self, sampler) -> PassResult:
        phases: dict = {}
        t = perf_counter()
        for chunk in self.chunks:
            for vertex, delta in chunk:
                sampler.update(vertex, delta)
            t = _lap(phases, "ingest_s", t)
        out = sampler.query()
        _lap(phases, "query_s", t)
        return PassResult(
            updates=len(self.graph.stream),
            queries=1,
            merges=0,
            phases=phases,
            answer=out,
        )

    def check(self, result: PassResult) -> list[Check]:
        out = result.answer
        edges = set(self.graph.edges)
        ok = (out is not None and tuple(out[0]) in edges
              and 0.0 < out[1] < math.inf)
        return [Check("sampled edge is a graph edge with a finite value", ok, f"{out}")]


WORKLOADS = {w.name: w for w in (StreamScalar, FrontierMerge, ReplayShort, EdgeCircuit)}

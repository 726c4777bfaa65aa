"""Batch command-line frontend.

Three commands, all emitting deterministic JSON-shaped reports (stable key
order, so identical inputs give byte-identical output):

* ``sample``      -- replay an update stream through a chosen sketch many
                     times under derived seeds; report outcome frequencies,
                     value summaries, and frontier sizes.
* ``verify``      -- run a named statistical verification suite; exit 0 only
                     if every check passes.
* ``edge-sample`` -- drive the graph edge sampler over a stream and compare
                     frequencies with the closed-form ratios.

Streams are UTF-8 lines ``key delta`` (``#`` comments and blank lines
ignored).  Decimal keys (ASCII digits) are used as 64-bit ids directly;
anything else is hashed to an id (collisions are negligible at desk scale).
The seed comes from ``--seed``, else the LEVY_SEED environment variable, else
zero.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import struct
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional

from .circuits import CircuitBuilder, CircuitError, CircuitPlan, CircuitSketch, EdgeSampler, \
    EdgeSamplerSpec, GGate, InputGate, OutputGate, ScalarGate, build_edge_sampler
from .level import LevelFunction, parse_weight
from .oracle import UndersampledError, chi_square_gof, exact_edge_distribution
from .randomness import DEFAULT_SEED, FreshSource, key_for_string, parse_seed
from .samplers import GSampler, KParetoSampler, ParetoSampler, WorSampler, replay

__all__ = ["main", "cmd_sample", "cmd_verify", "cmd_edge_sample",
           "StreamRecord", "parse_stream", "load_circuit_file"]

_ENV_SEED = "LEVY_SEED"


class StreamParseError(ValueError):
    """Malformed stream/graph/circuit input, with a line number."""


@dataclass(frozen=True)
class StreamRecord:
    """One update line: the original key token, its 64-bit id, and delta."""

    display: str
    key: int
    delta: float


def _decimal(token: str) -> Optional[int]:
    """The value of an ASCII decimal token of at most 20 digits past its
    leading zeros (2^64 has 20), else None.  int() alone would also read
    '+2', '3_0' and non-ASCII digits, and raises past 4,300 digits."""
    # str.isdigit alone accepts non-ASCII digits such as '\u0661' and '\u00b2'
    if not (token.isascii() and token.isdigit()):
        return None
    digits = token.lstrip("0") or "0"
    return int(digits) if len(digits) <= 20 else None


def _key_id(token: str, seed: bytes) -> int:
    value = _decimal(token)
    if value is not None and value < (1 << 64):
        return value
    return key_for_string(seed, token)


def _vertex_ids(tokens: list[str], where: str) -> tuple[int, ...]:
    """Vertex ids from ASCII decimal tokens, the rule stream keys follow."""
    ids = tuple(_decimal(token) for token in tokens)
    if None in ids:
        raise StreamParseError(f"{where}: vertex ids must be ASCII decimal integers "
                               f"below 2^64, got {tokens[ids.index(None)]!r}")
    return ids


def _fields(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, line, fields) for each line with fields once its # comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield lineno, raw, parts


def parse_stream(text: str, seed: bytes, source: str = "<stream>") -> list[StreamRecord]:
    records = []
    for lineno, raw, parts in _fields(text):
        if len(parts) != 2:
            raise StreamParseError(
                f"{source}:{lineno}: expected 'key delta', got {raw!r}")
        token, delta_text = parts
        try:
            delta = float(delta_text)
        except ValueError:
            raise StreamParseError(
                f"{source}:{lineno}: delta is not a number: {delta_text!r}") from None
        if not (0 < delta < math.inf):
            raise StreamParseError(
                f"{source}:{lineno}: delta must be positive and finite, got {delta}")
        records.append(StreamRecord(token, _key_id(token, seed), delta))
    return records


def parse_graph(text: str, source: str = "<graph>") -> EdgeSamplerSpec:
    edges = []
    for lineno, raw, parts in _fields(text):
        if parts[0] != "edge" or not (3 <= len(parts) <= 5):
            raise StreamParseError(
                f"{source}:{lineno}: expected 'edge u v [w ...]', got {raw!r}")
        edges.append(_vertex_ids(parts[1:], f"{source}:{lineno}"))
    if not edges:
        raise StreamParseError(f"{source}: no edges")
    return _graph_spec(edges, source)


def _graph_spec(edges: list[tuple[int, ...]], source: str) -> EdgeSamplerSpec:
    """The graph of these edges over the vertices they touch."""
    vertices = tuple(sorted({v for e in edges for v in e}))
    try:
        return EdgeSamplerSpec(vertices, tuple(edges))
    except ValueError as exc:
        raise StreamParseError(f"{source}: {exc}") from None


@dataclass
class LoadedCircuit:
    """A compiled circuit plus the stream-token to input-gate mapping."""

    plan: CircuitPlan
    input_by_token: dict


def load_circuit_file(text: str, source: str = "<circuit>") -> LoadedCircuit:
    """Parse the line-oriented circuit format: ``gate <id> kind``,
    ``wire <from> <to>``, or ``graph-edge <u> <v>`` shorthand."""
    gate_lines = []
    wire_lines = []
    edge_lines = []
    for lineno, raw, parts in _fields(text):
        if parts[0] == "gate" and len(parts) == 3:
            gate_lines.append((lineno, parts[1], parts[2]))
        elif parts[0] == "wire" and len(parts) == 3:
            wire_lines.append((lineno, parts[1], parts[2]))
        elif parts[0] == "graph-edge" and len(parts) >= 3:
            edge_lines.append(_vertex_ids(parts[1:], f"{source}:{lineno}"))
        else:
            raise StreamParseError(f"{source}:{lineno}: unrecognized line {raw!r}")
    if edge_lines:
        if gate_lines or wire_lines:
            raise StreamParseError(
                f"{source}: graph-edge shorthand cannot be mixed with explicit gates")
        spec = _graph_spec(edge_lines, source)
        return LoadedCircuit(build_edge_sampler(spec), {str(v): ("in", v) for v in spec.vertices})
    c = CircuitBuilder()
    for lineno, gate_id, kind in gate_lines:
        try:
            if kind == "input":
                c.add_gate(gate_id, InputGate())
            elif kind == "output":
                c.add_gate(gate_id, OutputGate())
            elif kind.startswith("scalar:"):
                c.add_gate(gate_id, ScalarGate(float(kind[len("scalar:"):])))
            elif kind.startswith("g:"):
                level = LevelFunction(parse_weight(kind[len("g:"):]))
                c.add_gate(gate_id, GGate(level, 0, gate_id.encode("utf-8")))
            else:
                raise ValueError(f"unknown gate kind {kind!r}")
        except ValueError as exc:
            raise StreamParseError(f"{source}:{lineno}: {exc}") from None
    for lineno, src, dst in wire_lines:
        try:
            c.add_wire(src, dst)
        except ValueError as exc:
            raise StreamParseError(f"{source}:{lineno}: {exc}") from None
    try:
        plan = c.validate()
    except CircuitError as exc:
        raise StreamParseError(f"{source}: {exc}") from None
    return LoadedCircuit(plan, {g: g for g in plan.paths})


def _record_source(rep_seed: bytes, key: int, delta: float, occurrence: int) -> FreshSource:
    """Per-record fresh randomness: keyed to record content and occurrence
    index, so permuting the stream leaves the final state bit-identical."""
    data = b"R" + struct.pack("<QdQ", key, delta, occurrence)
    sub = hashlib.blake2b(data, key=rep_seed, digest_size=16).digest()
    return FreshSource(sub)


class _RecordAttached:
    """A sketch whose updates draw their fresh randomness from the record
    (key, delta, occurrence) instead of the stream position; everything
    else reads through to the sketch."""

    def __init__(self, sketch):
        self.sketch = sketch
        self._seen: Counter = Counter()

    def update(self, key: int, delta: float) -> None:
        occurrence = self._seen[(key, delta)]
        self._seen[(key, delta)] += 1
        self.sketch.fresh = _record_source(self.sketch.oracle.seed, key, delta, occurrence)
        self.sketch.update(key, delta)

    def __getattr__(self, name):
        return getattr(self.sketch, name)


@dataclass(frozen=True)
class RunConfig:
    seed: bytes
    sketch: str = "gsampler"
    grammar: str = "f1"
    reps: int = 1000
    attach_randomness: str = "position"

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if self.attach_randomness not in ("position", "record"):
            raise ValueError(
                f"attach-randomness must be position or record, got "
                f"{self.attach_randomness!r}")


def _summary(values: list[float]) -> Optional[dict]:
    if not values:
        return None
    return {
        "mean": math.fsum(values) / len(values),
        "min": min(values),
        "max": max(values),
    }


def _circuit_parts(circuit_text: Optional[str], records: list[StreamRecord]) -> tuple:
    """(plan, stream id -> input gate, first output gate) of a circuit file:
    each stream key feeds the input gate named by its token."""
    if circuit_text is None:
        raise ValueError("circuit sketch requires the circuit spec file")
    loaded = load_circuit_file(circuit_text)
    out_ids = loaded.plan.outputs
    if not out_ids:
        raise ValueError("circuit has no output gate")
    gate_of: dict[int, object] = {}
    for r in records:
        gate_id = loaded.input_by_token.get(r.display)
        if gate_id is None:
            raise ValueError(f"stream key {r.display!r} has no input gate in the circuit")
        if gate_of.setdefault(r.key, gate_id) != gate_id:
            raise ValueError(
                f"stream key {r.display!r} shares id {r.key} with a key "
                "that feeds another input gate")
    return loaded.plan, gate_of, out_ids[0]


def _first(out) -> tuple[list, Optional[float]]:
    return ([], None) if out is None else ([out[0]], out[1])


# kind -> (what follows "<kind>:", make(k, level, circuit parts, oracle),
#          outcome(sketch, level) -> (sampled keys in order, value or None))
_KINDS = {
    "gsampler": (None, lambda k, level, _, oracle: GSampler(level, oracle),
                 lambda s, level: _first(s.query())),
    "pareto": (None, lambda k, level, _, oracle: ParetoSampler(oracle),
               lambda s, level: _first(s.query(level))),
    "wor": ("k", lambda k, level, _, oracle: WorSampler(k, level, oracle),
            lambda s, level: (s.sample_ordered(), None)),
    "kpareto": ("k", lambda k, level, _, oracle: KParetoSampler(k, oracle),
                lambda s, level: (s.query(level), None)),
    "circuit": ("file", lambda k, level, parts, oracle: CircuitSketch(*parts, oracle),
                lambda s, level: _first(s.query())),
}


def cmd_sample(config: RunConfig, records: list[StreamRecord],
               circuit_text: Optional[str] = None) -> dict:
    """Replay the stream `reps` times under derived seeds; tabulate outcomes."""
    name, sep, param = config.sketch.partition(":")
    if name not in _KINDS or bool(sep) != (_KINDS[name][0] is not None):
        raise ValueError(f"unknown sketch kind {config.sketch!r}")
    takes, make, outcome = _KINDS[name]
    k = 1
    if takes == "k":
        try:
            k = int(param)
        except ValueError:
            raise ValueError(f"bad sketch k in {config.sketch!r}") from None

    level = LevelFunction(parse_weight(config.grammar))
    display_of = {}
    for r in records:
        display_of.setdefault(r.key, r.display)
    parts = _circuit_parts(circuit_text, records) if takes == "file" else None

    def build(oracle):
        sketch = make(k, level, parts, oracle)
        return sketch if config.attach_randomness == "position" else _RecordAttached(sketch)

    counts: Counter = Counter()
    values: list[float] = []
    frontier_sizes: list[int] = []
    empty = 0
    stream = [(r.key, r.delta) for r in records]
    for sketch in replay(build, stream, config.reps, config.seed):
        keys, value = outcome(sketch, level)
        if hasattr(sketch, "frontier"):
            frontier_sizes.append(len(sketch.frontier))
        if not keys:
            empty += 1
            continue
        # circuit outputs name gates or edges, never stream ids, so they
        # print as themselves
        counts[",".join(display_of.get(key, str(key)) for key in keys)] += 1
        if value is not None:
            values.append(value)

    report = {
        "command": "sample",
        "config": {
            "sketch": config.sketch,
            "g": config.grammar,
            "seed": config.seed.hex(),
            "reps": config.reps,
            "attach_randomness": config.attach_randomness,
        },
        "stream": {
            "records": len(records),
            "distinct_keys": len({r.key for r in records}),
        },
        "empty_samples": empty,
        "counts": {key: counts[key] for key in sorted(counts)},
        "frequencies": {key: counts[key] / config.reps for key in sorted(counts)},
        "value_summary": _summary(values),
    }
    if frontier_sizes:
        report["frontier_size"] = {
            "mean": math.fsum(frontier_sizes) / len(frontier_sizes),
            "max": max(frontier_sizes),
        }
    return report


def cmd_edge_sample(graph_text: str, records: list[StreamRecord],
                    config: RunConfig) -> dict:
    """Replay the stream through the edge sampler; report frequencies and
    the closed-form ratios they should follow."""
    spec = parse_graph(graph_text)
    masses: dict[int, float] = {}
    counts: Counter = Counter()
    empty = 0
    vertex_set = set(spec.vertices)
    for r in records:
        if _decimal(r.display) != r.key:  # hashed, so it could never name a vertex
            raise StreamParseError("edge-sample vertex keys must be ASCII decimal "
                                   f"integers below 2^64, got {r.display!r}")
        masses[r.key] = masses.get(r.key, 0.0) + r.delta
    stream = [(r.key, r.delta) for r in records]
    # one compiled plan serves every rep: each rep is a run of it
    for sampler in replay(EdgeSampler(spec).fork, stream, config.reps, config.seed):
        out = sampler.query()
        if out is None:
            empty += 1
        else:
            counts["-".join(str(v) for v in out[0])] += 1

    exact = exact_edge_distribution(
        spec.edges, {v: m for v, m in masses.items() if v in vertex_set})
    exact_by_name = {"-".join(str(v) for v in e): p
                     for e, p in zip(exact.support, exact.probs)}
    chi = None
    try:
        raw = {tuple(int(v) for v in name.split("-")): c
               for name, c in counts.items()}
        chi = chi_square_gof(raw, exact).as_dict()
    except UndersampledError:
        pass
    return {
        "command": "edge-sample",
        "config": {
            "seed": config.seed.hex(),
            "reps": config.reps,
        },
        "graph": {
            "vertices": len(spec.vertices),
            "edges": len(spec.edges),
        },
        "empty_samples": empty,
        "counts": {key: counts[key] for key in sorted(counts)},
        "frequencies": {key: counts[key] / config.reps for key in sorted(counts)},
        "exact": {key: exact_by_name[key] for key in sorted(exact_by_name)},
        "chi_square": chi,
    }


def cmd_verify(suite: str, seed: bytes, quick: bool = False) -> tuple[dict, bool]:
    """Run a verification suite; returns (report, all_passed)."""
    from .verify import FULL_PARAMS, QUICK_PARAMS, run_suite

    results = run_suite(suite, seed, QUICK_PARAMS if quick else FULL_PARAMS)
    all_passed = all(r.passed for r in results)
    report = {
        "command": "verify",
        "suite": suite,
        "seed": seed.hex(),
        "quick": quick,
        "checks": [r.as_dict() for r in results],
        "pass": all_passed,
    }
    return report, all_passed


def _resolve_seed(flag_value: Optional[str]) -> bytes:
    if flag_value is not None:
        return parse_seed(flag_value)
    env = os.environ.get(_ENV_SEED)
    if env:
        return parse_seed(env)
    return DEFAULT_SEED


def _emit(report: dict, out_path: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levysketch",
        description="Perfect weighted stream samplers: replay, query, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="replay a stream through a sketch")
    p_sample.add_argument("stream", help="stream file: lines 'key delta'")
    p_sample.add_argument("--seed", help="hex seed (default env LEVY_SEED, then 0)")
    p_sample.add_argument("--g", default="f1", help="weight function grammar")
    p_sample.add_argument("--sketch", default="gsampler",
                          help="gsampler | pareto | wor:<k> | kpareto:<k> | circuit:<file>")
    p_sample.add_argument("--reps", type=int, default=1000)
    p_sample.add_argument("--out", help="write the JSON report here instead of stdout")
    p_sample.add_argument("--attach-randomness", default="position",
                          choices=("position", "record"),
                          help="tie per-update randomness to stream position or record content")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    from .verify import suite_names
    p_verify.add_argument("suite", choices=suite_names())
    p_verify.add_argument("--seed")
    p_verify.add_argument("--out")
    p_verify.add_argument("--quick", action="store_true",
                          help="reduced sample sizes (plumbing checks only)")

    p_edge = sub.add_parser("edge-sample", help="sample graph edges by weight")
    p_edge.add_argument("graph", help="graph file: lines 'edge u v'")
    p_edge.add_argument("stream", help="stream file of vertex updates")
    p_edge.add_argument("--seed")
    p_edge.add_argument("--reps", type=int, default=1000)
    p_edge.add_argument("--out")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        seed = _resolve_seed(args.seed)
        if args.command == "sample":
            config = RunConfig(seed, args.sketch, args.g, args.reps,
                               args.attach_randomness)
            with open(args.stream, encoding="utf-8") as fh:
                records = parse_stream(fh.read(), seed, args.stream)
            circuit_text = None
            if args.sketch.startswith("circuit:"):
                path = args.sketch[len("circuit:"):]
                with open(path, encoding="utf-8") as fh:
                    circuit_text = fh.read()
            report = cmd_sample(config, records, circuit_text)
            _emit(report, args.out)
            return 0
        if args.command == "verify":
            from .verify import CheckResult
            report, all_passed = cmd_verify(args.suite, seed, args.quick)
            for c in report["checks"]:
                print(CheckResult(c["name"], c["pass"], c["statistic"], c["threshold"],
                                  c["detail"]).line())
            if args.out:
                _emit(report, args.out)
            print("OK" if all_passed else "FAILED")
            return 0 if all_passed else 1
        if args.command == "edge-sample":
            config = RunConfig(seed, reps=args.reps)
            with open(args.graph, encoding="utf-8") as fh:
                graph_text = fh.read()
            with open(args.stream, encoding="utf-8") as fh:
                records = parse_stream(fh.read(), seed, args.stream)
            report = cmd_edge_sample(graph_text, records, config)
            _emit(report, args.out)
            return 0
        parser.error(f"unknown command {args.command!r}")
        return 2
    except (StreamParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

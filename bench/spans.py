"""Tracing for the per-layer metrics.

``Tracer.installed()`` wraps the library's public functions and methods at
every name their callers bind (``level.py`` and ``samplers.py`` import by
name, so patching the defining module alone would miss them), and restores
the originals on exit.  Each wrapped call is a span with a parent: the span
open when it started.  Spans are aggregated as they close, per name and per
(parent, name) pair, so memory stays flat however long the pass.

A span's self time is its duration minus the time its child spans cover.
The wrapper's own bookkeeping for a child, including the state snapshots
behind ``samplers.record_ratio``, counts toward neither, so self times are
the library's and the bookkeeping shows only in ``trace.overhead_frac``.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, NamedTuple

from levysketch import circuits, level, numerics, samplers

LEVEL_KINDS = ("f0", "f1", "fhalf", "softcap", "log")
SKETCH_KINDS = {"gsampler": samplers.GSampler, "wor": samplers.WorSampler,
                "pareto": samplers.ParetoSampler, "kpareto": samplers.KParetoSampler}

# (defining module, function name) -> span name
_FUNCTIONS = {
    ("levysketch.randomness", "hash_unit"): "randomness.hash_unit",
    ("levysketch.randomness", "hash_unit_bytes"): "randomness.hash_unit",
    ("levysketch.randomness", "fresh_exp"): "randomness.fresh_exp",
    ("levysketch.randomness", "derive_seed"): "randomness.derive_seed",
    ("levysketch.numerics", "inv_erf"): "numerics.inv_erf",
    ("levysketch.numerics", "regularized_gamma_q"): "numerics.gamma",
    ("levysketch.numerics", "poisson_tail"): "numerics.gamma",
    ("levysketch.numerics", "solve_monotone_increasing"): "numerics.solve",
    **{("levysketch.level", f"eval_{k}"): f"level.eval.{k}" for k in LEVEL_KINDS},
    ("levysketch.samplers", "deserialize"): "samplers.frame.deserialize",
    ("levysketch.circuits", "build_edge_sampler"): "circuits.build",
    ("levysketch.oracle", "exact_distribution"): "oracle.exact",
    ("levysketch.oracle", "exact_wor_distribution"): "oracle.exact",
    ("levysketch.oracle", "exact_edge_distribution"): "oracle.exact",
    ("levysketch.oracle", "chi_square_gof"): "oracle.gof",
    ("levysketch.oracle", "ks_test_exponential"): "oracle.gof",
    ("levysketch.cli", "parse_stream"): "cli.parse_stream",
    ("levysketch.cli", "cmd_sample"): "cli.cmd_sample",
    ("levysketch.cli", "cmd_edge_sample"): "cli.cmd_edge_sample",
}

_NUMERIC_ERRORS = (numerics.BracketError, numerics.NoConvergenceError)


def _methods():
    """(class, method name, span name) for every traced method."""
    out = [(level.LevelFunction, "eval", "level.dispatch"),
           (level.LevelFunction, "eval_terms", "level.dispatch"),
           (circuits.Circuit, "update", "circuits.update")]
    for kind, cls in SKETCH_KINDS.items():
        out += [(cls, "update", f"samplers.update.{kind}"),
                (cls, "query", "samplers.query"),
                (cls, "merge_from", "samplers.merge"),
                (cls, "to_bytes", "samplers.frame.to_bytes")]
    out.append((samplers.WorSampler, "sample_ordered", "samplers.query"))
    return out


class _Probe(NamedTuple):
    """Snapshot taken before and after a span to count state changes."""

    snapshot: Callable
    counter: str
    frontier: bool = False


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.edges: Counter = Counter()  # (parent name, name) -> calls
        self.counts: Counter = Counter()
        self.frontier_max = 0
        self._stack: list[list] = []  # [name, ns covered by child spans]
        self._update_depth = 0

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, probe=None):
        tracer = self
        stack = self._stack
        is_update = name.startswith("samplers.update.")
        is_term = name.startswith("level.eval.")
        # the solver is the only raiser of these, so each is counted once
        is_solve = name == "numerics.solve"

        def traced(*args, **kwargs):
            t0 = perf_counter_ns()
            before = probe.snapshot(args[0]) if probe else None
            parent = stack[-1] if stack else None
            frame = [name, 0]
            stack.append(frame)
            if is_update:
                tracer._update_depth += 1
            elif is_term and tracer._update_depth:
                tracer.counts["level.terms_in_update"] += 1
            t1 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except _NUMERIC_ERRORS:
                tracer.counts["numerics.errors"] += is_solve
                raise
            finally:
                t2 = perf_counter_ns()
                stack.pop()
                if is_update:
                    tracer._update_depth -= 1
                tracer.calls[name] += 1
                tracer.self_ns[name] += t2 - t1 - frame[1]
                tracer.edges[(parent[0] if parent else None, name)] += 1
                if probe:
                    tracer._after_probe(probe, args[0], before)
                if parent is not None:
                    parent[1] += perf_counter_ns() - t0

        traced.__wrapped__ = fn
        return traced

    def _probe_for(self, cls, span):
        # reads through the unwrapped methods, so a probe opens no span
        if span == "circuits.update":
            output = cls.__dict__["output"]
            return _Probe(lambda c: [output(c, g) for g in c.output_gate_ids()],
                          "circuits.output_changes")
        if not span.startswith("samplers.update."):
            return None
        if cls in (samplers.ParetoSampler, samplers.KParetoSampler):
            return _Probe(lambda s: s.frontier.tuples(), "samplers.record_changes", True)
        return _Probe(cls.__dict__["query"], "samplers.record_changes")

    def _after_probe(self, probe: _Probe, obj, before) -> None:
        self.counts[probe.counter] += probe.snapshot(obj) != before
        if probe.frontier:
            size = len(obj.frontier)
            self.counts["samplers.frontier.updates"] += 1
            self.counts["samplers.frontier.size_sum"] += size
            self.frontier_max = max(self.frontier_max, size)

    @contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        patches = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "levysketch" or n.startswith("levysketch."))]
        wrappers = [(cls, meth, self._wrap(span, cls.__dict__[meth], self._probe_for(cls, span)))
                    for cls, meth, span in _methods()]
        try:
            for (home, fname), span in _FUNCTIONS.items():
                defining = sys.modules.get(home)
                if defining is None:
                    continue  # module not imported by this workload
                original = getattr(defining, fname)
                wrapper = self._wrap(span, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
            for cls, meth, wrapper in wrappers:
                patches.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- report --------------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.self_ns[name] * 1e-9

    def counters(self) -> dict[str, float]:
        """The deterministic per-layer counters: counts and their ratios."""
        calls = self.calls
        updates = sum(calls[f"samplers.update.{k}"] for k in SKETCH_KINDS)
        solves = calls["numerics.solve"]
        frontier_updates = self.counts["samplers.frontier.updates"]
        gamma_in = lambda parent: self.edges[(parent, "numerics.gamma")]  # noqa: E731
        out = {
            "randomness.hash_unit.calls": calls["randomness.hash_unit"],
            "randomness.fresh_exp.calls": calls["randomness.fresh_exp"],
            "randomness.derive_seed.calls": calls["randomness.derive_seed"],
            "numerics.inv_erf.calls": calls["numerics.inv_erf"],
            "numerics.gamma.calls": calls["numerics.gamma"],
            "numerics.solve.calls": solves,
            "numerics.solve.evals_per_call": _ratio(gamma_in("numerics.solve"), solves),
            "numerics.bracket.evals": gamma_in("level.eval.log") + gamma_in("level.eval.softcap"),
            "numerics.errors": self.counts["numerics.errors"],
            "level.dispatch.calls": calls["level.dispatch"],
            "level.evals_per_update": _ratio(self.counts["level.terms_in_update"], updates),
            "samplers.record_ratio": _ratio(self.counts["samplers.record_changes"], updates),
            "samplers.frontier.size_mean": _ratio(self.counts["samplers.frontier.size_sum"],
                                                  frontier_updates),
            "samplers.frontier.size_max": self.frontier_max,
            "samplers.query.calls": calls["samplers.query"],
            "samplers.merge.calls": calls["samplers.merge"],
            "circuits.update.calls": calls["circuits.update"],
            "circuits.evals_per_update": _ratio(self.edges[("circuits.update", "level.dispatch")],
                                                calls["circuits.update"]),
            "circuits.output_change_ratio": _ratio(self.counts["circuits.output_changes"],
                                                   calls["circuits.update"]),
        }
        for k in LEVEL_KINDS:
            out[f"level.eval.{k}.calls"] = calls[f"level.eval.{k}"]
        for k in SKETCH_KINDS:
            out[f"samplers.update.{k}.calls"] = calls[f"samplers.update.{k}"]
        return out


SELF_TIMES = (
    "randomness.hash_unit", "randomness.fresh_exp", "randomness.derive_seed",
    "numerics.inv_erf", "numerics.gamma", "numerics.solve",
    *(f"level.eval.{k}" for k in LEVEL_KINDS), "level.dispatch",
    *(f"samplers.update.{k}" for k in SKETCH_KINDS),
    "samplers.query", "samplers.merge",
    "samplers.frame.to_bytes", "samplers.frame.deserialize",
    "circuits.update", "circuits.build",
    "oracle.exact", "oracle.gof",
    "cli.parse_stream", "cli.cmd_sample", "cli.cmd_edge_sample",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

"""levysketch benchmark runner.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --smoke

Runs from the root of a source checkout and measures the library in
``src/`` of that checkout, in one process and one thread.  A run builds each
workload's inputs from ``--seed``, repeats timed passes over them for
``--seconds``, checks every pass's outputs, and prints one JSON object as
its last line: ``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` reports the end-to-end metrics.  Times sum, over the
  chunks of a pass, each chunk's fastest time in the run (see
  ``fastest_phases``).  ``setup_s`` is the median of several fresh
  interpreter processes, each timing the library import plus the
  workload's construction.
* ``--trace 1`` reports the per-layer metrics of ``BENCHMARK.json`` from
  passes run with the library's public functions wrapped (see spans.py),
  after untraced passes that give ``trace.overhead_frac`` its base.  Counts
  come from the first traced pass and repeat exactly for a given seed.
* ``--smoke`` runs every workload in both modes at tiny sizes, with every
  correctness check, and exits non-zero unless all checks pass and every
  metric named in ``BENCHMARK.json`` is reported.

BLAS and OpenMP thread counts are pinned to 1 before numpy loads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_PASSES = 3
SETUP_PROBES = 5
# share of a traced run's time spent on untraced passes, the overhead base
UNTRACED_SHARE = 0.35

END_TO_END_UNITS = {"updates_per_s": "1/s", "queries_per_s": "1/s", "wall_s": "s",
                    "setup_s": "s", "peak_rss_mib": "MiB"}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _fail_text(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def host_facts() -> dict:
    load = os.getloadavg()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in load],
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


class Run:
    """Passes of one workload, with the failures and checks they produced."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._first_answer = None

    def one_pass(self, tracer=None):
        """Build, run and check one pass; returns its result, or None if the
        library raised."""
        wl = self.workload
        gc.collect()
        try:
            if tracer is None:
                state = wl.build()
                t0 = perf_counter()
                result = wl.run(state)
                wall = perf_counter() - t0
            else:
                with tracer.installed():
                    state = wl.build()
                    t0 = perf_counter()
                    result = wl.run(state)
                    wall = perf_counter() - t0
        except Exception as exc:  # a library exception is a failed operation
            self.attempted += 1
            self.failed += 1
            self.notes.append(f"FAIL pass raised {_fail_text(exc)}")
            traceback.print_exc(file=sys.stderr)
            return None
        result.wall = wall
        checks = wl.check(result)
        if self._first_answer is None:
            self._first_answer = result.answer
        else:
            from workloads import Check
            checks.append(Check("pass replays the first pass exactly",
                                result.answer == self._first_answer))
        for c in checks:
            note = f"{'PASS' if c.passed else 'FAIL'} {c.name}" + (
                f" ({c.detail})" if c.detail else "")
            if note not in self.notes:
                self.notes.append(note)
        self.attempted += result.updates + result.queries + result.merges + len(checks)
        self.failed += sum(not c.passed for c in checks)
        return result

    def repeat(self, seconds: float, min_passes: int, tracer_factory=None) -> list:
        """Passes until `seconds` have gone and at least `min_passes` ran."""
        out = []
        deadline = perf_counter() + seconds
        while len(out) < min_passes or perf_counter() < deadline:
            tracer = tracer_factory() if tracer_factory else None
            result = self.one_pass(tracer)
            if result is None:
                break  # a failing program is not measured further
            out.append((result, tracer))
        return out


def fastest_phases(passes) -> dict[str, float]:
    """Seconds per phase, summing each chunk's fastest time over the passes.

    Other tenants of a shared host slow the CPU in bursts of a few seconds.
    Every pass repeats the same chunks of work, so the fastest time of each
    chunk is its cost with the least outside interference, and the sum over
    chunks estimates a pass run entirely at that speed.  Medians over passes
    of this length move with the neighbours' load instead.
    """
    return {phase: sum(min(chunk) for chunk in zip(*(p.phases[phase] for p in passes)))
            for phase in passes[0].phases}


def setup_probe(workload: str, seed: int, smoke: bool) -> float:
    """In a fresh interpreter: time the library import and construction."""
    import inputs
    sizes = inputs.SMOKE if smoke else inputs.SIZES
    t0 = perf_counter()
    import workloads
    t1 = perf_counter()
    wl = workloads.WORKLOADS[workload](seed, sizes)
    t2 = perf_counter()
    wl.build()
    t3 = perf_counter()
    return (t1 - t0) + (t3 - t2)


def measure_setup(workload: str, seed: int, smoke: bool, probes: int) -> list[float]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(probes):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def end_to_end(name: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, Run]:
    import inputs
    import workloads
    sizes = inputs.SMOKE if smoke else inputs.SIZES
    setup = measure_setup(name, seed, smoke, 1 if smoke else SETUP_PROBES)
    wl = workloads.WORKLOADS[name](seed, sizes)
    print(f"workload {name} seed={seed}: {wl.size_note}", flush=True)
    run = Run(wl)
    passes = [r for r, _ in run.repeat(seconds, MIN_PASSES)]
    if not passes:
        return {m: 0.0 for m in END_TO_END_UNITS}, run
    best = fastest_phases(passes)
    wall = sum(best.values())
    metrics = {
        "updates_per_s": passes[0].updates / best.get(wl.ingest_phase, wall),
        "queries_per_s": passes[0].queries / best.get(wl.query_phase, wall),
        "wall_s": wall,
        "setup_s": _median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "merges_per_s": (passes[0].merges / best["merge_s"], "1/s")
        if passes[0].merges else None,
        "state_bytes": (passes[0].state_bytes, "B") if passes[0].state_bytes else None,
        "failed_frac": (run.failed / max(run.attempted, 1), "ratio"),
    }
    print(f"passes {len(passes)}; wall_s median {_median([p.wall for p in passes]):.6g}; "
          f"setup probes {[round(t, 4) for t in setup]}")
    for metric, value in metrics.items():
        print(f"metric {metric} {value:.6g} {END_TO_END_UNITS[metric]}")
    for metric, pair in extra.items():
        print(f"metric {metric} " + (f"{pair[0]:.6g} {pair[1]}" if pair else
                                     "n/a (not exercised by this workload)"))
    return metrics, run


def per_layer(name: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, Run]:
    import inputs
    import spans
    import workloads
    sizes = inputs.SMOKE if smoke else inputs.SIZES
    wl = workloads.WORKLOADS[name](seed, sizes)
    print(f"workload {name} seed={seed} traced: {wl.size_note}", flush=True)
    run = Run(wl)
    untraced = [r for r, _ in run.repeat(seconds * UNTRACED_SHARE, 2)]
    traced = run.repeat(seconds * (1 - UNTRACED_SHARE), 1, spans.Tracer) if untraced else []
    if not traced:
        return {m: 0.0 for m in layer_metric_names()}, run
    first = traced[0][1].counters()
    same = all(t.counters() == first for _, t in traced[1:])
    run.attempted += 1
    run.failed += not same
    if not same:
        run.notes.append("FAIL counters repeat in every traced pass")
    metrics = dict(first)
    for span in spans.SELF_TIMES:
        metrics[f"{span}.self_s"] = _median([t.self_s(span) for _, t in traced])
    metrics["samplers.frame.state_bytes"] = traced[0][0].state_bytes
    metrics["trace.overhead_frac"] = (min(r.wall for r, _ in traced)
                                      / min(r.wall for r in untraced) - 1.0)
    print(f"passes {len(untraced)} untraced, {len(traced)} traced")
    return metrics, run


def layer_metric_names() -> list[str]:
    import spans
    probe = spans.Tracer().counters()
    return [*probe, *(f"{s}.self_s" for s in spans.SELF_TIMES),
            "samplers.frame.state_bytes", "trace.overhead_frac"]


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name, seed, seconds, trace, smoke, units) -> tuple[dict, Run]:
    measure = per_layer if trace else end_to_end
    metrics, run = measure(name, seed, seconds, smoke)
    for note in run.notes:
        print(note)
    return {m: {"value": metrics[m], "unit": units[m]} for m in units}, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; every workload in both modes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "levysketch" / "__init__.py").is_file():
        print(f"error: no levysketch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed, args.smoke))
        return 0

    host = host_facts()
    import levysketch
    if not Path(levysketch.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported levysketch from {levysketch.__file__}", file=sys.stderr)
        return 2
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    spec = benchmark_spec()
    modes = (0, 1) if args.smoke else (args.trace,)
    seconds = args.seconds if args.seconds is not None else (0.0 if args.smoke else
                                                             spec["run_seconds"])
    print("host " + json.dumps(host, sort_keys=True), flush=True)

    if ({m["name"] for m in spec["end_to_end"]} != set(END_TO_END_UNITS)
            or {m["name"] for m in spec["per_layer"]} != set(layer_metric_names())):
        print("error: metric names differ from BENCHMARK.json", file=sys.stderr)
        return 2

    metrics, attempted, failed = {}, 0, 0
    for trace in modes:
        units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        for name in names:
            block, run = run_workload(name, args.seed, seconds, trace, args.smoke, units)
            attempted += run.attempted
            failed += run.failed
            if len(names) == 1 and len(modes) == 1:
                metrics = block
            else:
                metrics.update({f"{name}/{m}": v for m, v in block.items()})
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark: every workload, both modes, tiny sizes.

    python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTERS = ("samplers.record_ratio", "numerics.solve.calls", "numerics.solve.evals_per_call",
            "numerics.bracket.evals", "samplers.frontier.size_mean",
            "samplers.frontier.size_max", "level.evals_per_update",
            "circuits.evals_per_update")


def _smoke() -> dict:
    done = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_runs_every_workload_metric_and_check():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first = _smoke()
    assert first["correct"] and first["failed"] == 0 and first["attempted"] > 0
    expected = {f"{w['name']}/{m['name']}" for w in spec["workloads"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(first["metrics"]) == expected
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            assert first["metrics"][f"{w['name']}/{m['name']}"]["value"] > 0

    # the traced run's counters repeat exactly for the same seed
    second = _smoke()
    for w in spec["workloads"]:
        for counter in COUNTERS:
            key = f"{w['name']}/{counter}"
            assert first["metrics"][key] == second["metrics"][key], key

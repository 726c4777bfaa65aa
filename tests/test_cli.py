"""CLI: stream parsing, report determinism, sketch kinds, circuit files,
randomness attachment, and exit codes."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys

import pytest

from levysketch.cli import (
    RunConfig,
    StreamParseError,
    StreamRecord,
    cmd_edge_sample,
    cmd_sample,
    cmd_verify,
    load_circuit_file,
    main,
    parse_graph,
    parse_stream,
)
import levysketch
from levysketch.randomness import DEFAULT_SEED, key_for_string, parse_seed

SEED = parse_seed("c1f00d")


def test_parse_stream_basics():
    text = "# comment\n1 2.5\n\nuser-a 0.5  # trailing\n"
    records = parse_stream(text, SEED)
    assert len(records) == 2
    assert records[0] == StreamRecord("1", 1, 2.5)
    assert records[1].display == "user-a"
    assert records[1].delta == 0.5
    assert records[1].key != 1
    # string ids are stable per seed
    again = parse_stream(text, SEED)
    assert again[1].key == records[1].key


def test_parse_stream_only_ascii_digits_are_decimal_keys():
    # '\u0661' (Arabic-Indic one) and '\u00b2' (superscript two) are digits
    # to str.isdigit, but not decimal keys: they hash like any other string
    records = parse_stream("\u0661 1.0\n1 2.0\n\u00b2 3.0\n", SEED)
    assert [r.display for r in records] == ["\u0661", "1", "\u00b2"]
    assert records[1].key == 1
    assert len({r.key for r in records}) == 3
    assert records[0].key == parse_stream("\u0661 1.0\n", SEED)[0].key


def test_parse_stream_errors():
    for bad in ("1\n", "a b c\n", "1 zero\n", "1 -3\n", "1 0\n", "1 inf\n", "1 1e999\n",
                "1 nan\n"):
        with pytest.raises(StreamParseError) as err:
            parse_stream(bad, SEED, "f.txt")
        assert "f.txt:1" in str(err.value)


def test_parse_graph():
    spec = parse_graph("edge 1 2\nedge 2 3\n")
    assert spec.vertices == (1, 2, 3)
    with pytest.raises(StreamParseError):
        parse_graph("vertex 1\n")
    with pytest.raises(StreamParseError):
        parse_graph("")
    with pytest.raises(StreamParseError):
        parse_graph("edge 1 1\n")


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(SEED, reps=0)
    with pytest.raises(ValueError):
        RunConfig(SEED, attach_randomness="sideways")


def test_cmd_sample_empty_stream():
    report = cmd_sample(RunConfig(SEED, reps=1), [])
    assert report["empty_samples"] == 1
    assert report["frequencies"] == {}
    assert report["value_summary"] is None


def test_cmd_sample_fhalf_frequencies():
    records = parse_stream("1 1\n2 4\n", SEED)
    report = cmd_sample(RunConfig(SEED, grammar="fhalf", reps=20_000), records)
    p = report["frequencies"]["2"]
    assert abs(p - 2 / 3) <= 3 * math.sqrt((2 / 9) / 20_000)
    assert report["empty_samples"] == 0
    assert report["value_summary"]["mean"] > 0


def test_cmd_sample_pareto_matches_gsampler():
    records = parse_stream("1 1\n2 4\n7 2\n", SEED)
    base = RunConfig(SEED, grammar="log", reps=3_000)
    direct = cmd_sample(base, records)
    universal = cmd_sample(RunConfig(SEED, "pareto", "log", 3_000), records)
    assert direct["counts"] == universal["counts"]
    assert "frontier_size" in universal


def test_cmd_sample_wor_and_kpareto_agree():
    records = parse_stream("1 1\n2 2\n3 3\n", SEED)
    wor = cmd_sample(RunConfig(SEED, "wor:2", "fhalf", 2_000), records)
    kp = cmd_sample(RunConfig(SEED, "kpareto:2", "fhalf", 2_000), records)
    assert wor["counts"] == kp["counts"]


@pytest.mark.parametrize("mode", ["position", "record"])
def test_universal_sketches_sample_sums(tmp_path, mode):
    # the frontier sketches answer a sum, seed for seed like the dedicated ones
    stream = tmp_path / "s.txt"
    stream.write_text("1 1\n2 2\n3 3\n1 0.5\n4 0.25\n")
    counts = {}
    for sketch in ("gsampler", "pareto", "wor:2", "kpareto:2"):
        out = tmp_path / f"{sketch}.json"
        argv = ["sample", "--sketch", sketch, "--g", "sum:c=1,g0=1,atoms=2x0.5",
                str(stream), "--reps", "300", "--seed", "c1f00d",
                "--attach-randomness", mode, "--out", str(out)]
        assert main(argv) == 0
        counts[sketch] = json.loads(out.read_text())["counts"]
    assert counts["pareto"] == counts["gsampler"]
    assert counts["kpareto:2"] == counts["wor:2"]


def test_cmd_sample_bad_kind():
    with pytest.raises(ValueError):
        cmd_sample(RunConfig(SEED, sketch="bogus"), [])
    with pytest.raises(ValueError):
        cmd_sample(RunConfig(SEED, sketch="wor:0"), [])
    with pytest.raises(ValueError):
        cmd_sample(RunConfig(SEED, sketch="wor:x"), [])


def test_record_randomness_shuffle_invariance():
    text = "1 1\n2 2\n3 3\n1 1\n4 0.5\n1 1\n"
    records = parse_stream(text, SEED)
    shuffled = records[:]
    random.Random(4).shuffle(shuffled)
    cfg = RunConfig(SEED, "pareto", "fhalf", 400, attach_randomness="record")
    a = cmd_sample(cfg, records)
    b = cmd_sample(cfg, shuffled)
    assert a["counts"] == b["counts"]
    assert a["value_summary"] == b["value_summary"]
    # positional randomness does depend on order
    cfg_pos = RunConfig(SEED, "pareto", "fhalf", 400, attach_randomness="position")
    c = cmd_sample(cfg_pos, records)
    d = cmd_sample(cfg_pos, shuffled)
    assert c["counts"] != d["counts"]


def test_cmd_sample_circuit():
    circuit_text = (
        "gate 1 input\ngate 2 input\n"
        "gate g1 g:f1\ngate g2 g:f1\ngate out output\n"
        "wire 1 g1\nwire 2 g2\nwire g1 out\nwire g2 out\n"
    )
    records = parse_stream("1 1\n2 4\n", SEED)
    report = cmd_sample(RunConfig(SEED, sketch="circuit:x", reps=5_000),
                        records, circuit_text)
    p = report["frequencies"]["g2"]
    assert abs(p - 0.8) <= 3 * math.sqrt(0.16 / 5_000)


def test_load_circuit_file_errors():
    with pytest.raises(StreamParseError):
        load_circuit_file("gate a input\nwire a b\n", SEED)
    with pytest.raises(StreamParseError):
        load_circuit_file("nonsense\n", SEED)
    with pytest.raises(StreamParseError):
        load_circuit_file("gate a input\ngraph-edge 1 2\n", SEED)  # mixed formats
    # validation failure carries the gate id
    bad = ("gate i input\ngate g g:f1\ngate o1 output\ngate o2 output\n"
           "wire i g\nwire g o1\nwire g o2\n")
    with pytest.raises(StreamParseError) as err:
        load_circuit_file(bad, SEED)
    assert "'g'" in str(err.value)


def test_an_input_gate_id_reads_as_a_stream_key(tmp_path, capsys):
    # gate ids name keys as stream tokens do: decimal ids directly, any
    # other token hashed under the seed, so '01' feeds gate 1
    text = ("gate 1 input\ngate user-a input\ngate g g:f1\ngate out output\n"
            "wire 1 out\nwire user-a g\nwire g out\n")
    plan = load_circuit_file(text, SEED)
    assert list(plan.paths) == [1, key_for_string(SEED, "user-a")]
    report = cmd_sample(RunConfig(SEED, sketch="circuit:x", reps=50),
                        parse_stream("01 1\nuser-a 1\n", SEED), text)
    assert report["empty_samples"] == 0 and set(report["counts"]) == {"1", "g"}
    # two gate ids naming one key exit 2, whichever of them the stream uses
    circuit = tmp_path / "c.txt"
    circuit.write_text(text + "gate 01 input\nwire 01 out\n")
    stream = tmp_path / "s.txt"
    stream.write_text("user-a 1\n")
    assert main(["sample", str(stream), "--sketch", f"circuit:{circuit}", "--reps", "5",
                 "--seed", SEED.hex()]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: <circuit>: invalid circuit: gate '01': another input gate "
                          "has key 1")


def test_load_circuit_graph_edge_shorthand():
    assert list(load_circuit_file("graph-edge 1 2\ngraph-edge 2 3\n", SEED).paths) == [1, 2, 3]
    records = parse_stream("1 1\n2 2\n3 3\n", SEED)
    report = cmd_sample(RunConfig(SEED, sketch="circuit:x", reps=300),
                        records, "graph-edge 1 2\ngraph-edge 2 3\n")
    assert report["empty_samples"] == 0
    assert set(report["frequencies"]) <= {"(1, 2)", "(2, 3)"}


def test_cmd_edge_sample_single_edge():
    report = cmd_edge_sample("edge 1 2\n",
                             parse_stream("1 1\n2 2\n", SEED),
                             RunConfig(SEED, reps=300))
    assert report["frequencies"] == {"1-2": 1.0}
    assert report["exact"] == {"1-2": 1.0}


def test_cmd_edge_sample_triangle():
    graph = "edge 1 2\nedge 2 3\nedge 1 3\n"
    stream = parse_stream("1 1\n2 2\n3 3\n", SEED)
    report = cmd_edge_sample(graph, stream, RunConfig(SEED, reps=5_000))
    assert report["chi_square"] is not None
    assert report["chi_square"]["pass"]
    assert abs(sum(report["frequencies"].values()) - 1.0) < 1e-9


def test_cmd_edge_sample_disconnected_vertex():
    # vertex 9 has mass but no incident edge: never sampled
    graph = "edge 1 2\n"
    stream = parse_stream("1 1\n2 1\n9 50\n", SEED)
    report = cmd_edge_sample(graph, stream, RunConfig(SEED, reps=200))
    assert report["frequencies"] == {"1-2": 1.0}


def test_cmd_verify_quick_pass():
    report, ok = cmd_verify("wor", SEED, quick=True)
    assert ok
    assert report["pass"]
    assert all(check["pass"] for check in report["checks"])


def test_cmd_verify_unknown_suite():
    with pytest.raises(ValueError):
        cmd_verify("nonsense", SEED, quick=True)


def test_cmd_verify_fault_injection(monkeypatch):
    # a corrupted level function must turn the suite red
    import levysketch.level as lv
    orig = lv.eval_f0
    monkeypatch.setattr(lv, "eval_f0", lambda a, b: 2.0 * orig(a, b))
    report, ok = cmd_verify("level", SEED, quick=True)
    assert not ok


def test_main_end_to_end(tmp_path, monkeypatch):
    stream = tmp_path / "stream.txt"
    stream.write_text("1 1\n2 4\n")
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["sample", str(stream), "--g", "fhalf", "--reps", "500",
            "--seed", "beef"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()  # byte-identical reports
    report = json.loads(out1.read_text())
    assert report["config"]["seed"].endswith("beef")

    # seed from the environment when the flag is absent
    monkeypatch.setenv("LEVY_SEED", "beef")
    out3 = tmp_path / "r3.json"
    assert main(["sample", str(stream), "--g", "fhalf", "--reps", "500",
                 "--out", str(out3)]) == 0
    assert out3.read_bytes() == out1.read_bytes()


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("a b c\n")
    assert main(["sample", str(bad)]) == 2
    assert "expected 'key delta'" in capsys.readouterr().err
    missing = tmp_path / "missing.txt"
    assert main(["sample", str(missing)]) == 2
    good = tmp_path / "good.txt"
    good.write_text("1 1\n")
    assert main(["sample", str(good), "--sketch", "wor:0"]) == 2
    assert main(["sample", str(good), "--seed", "zz"]) == 2
    capsys.readouterr()
    # k past the frames' 32-bit field, and a weight whose levels would all be 0
    for args in (["--sketch", "wor:5000000000"], ["--sketch", "kpareto:4294967296"],
                 ["--g", "scale:inf:f1"], ["--g", "sum:c=inf,g0=0,atoms="]):
        assert main(["sample", str(good), "--reps", "3", *args]) == 2, args
        assert capsys.readouterr().err.startswith("error: ")
    # a sum field mistyped or given twice names itself
    for g, field in (("sum:c=1,g0=0,atoms=,cap=5", "unknown sum field 'cap'"),
                     ("sum:c=1,c=2,g0=0,atoms=", "repeated sum field 'c'")):
        assert main(["sample", str(good), "--reps", "3", "--g", g]) == 2, g
        assert field in capsys.readouterr().err


def test_main_verify_exit_codes(monkeypatch, tmp_path):
    assert main(["verify", "wor", "--quick", "--seed", "beef"]) == 0
    out = tmp_path / "level.json"
    assert main(["verify", "level", "--quick", "--seed", "beef", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pass"] is True
    import levysketch.level as lv
    orig = lv.eval_f0
    monkeypatch.setattr(lv, "eval_f0", lambda a, b: 2.0 * orig(a, b))
    assert main(["verify", "level", "--quick", "--seed", "beef"]) == 1


@pytest.mark.parametrize("command", ["sample", "edge-sample"])
def test_main_infinite_delta_exits_2_with_its_line(tmp_path, capsys, command):
    graph = tmp_path / "g.txt"
    graph.write_text("edge 1 2\n")
    stream = tmp_path / "s.txt"
    stream.write_text("1 1\n1 inf\n")
    args = [command, str(stream)] if command == "sample" else [command, str(graph), str(stream)]
    assert main(args + ["--reps", "5", "--seed", "beef"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stream}:2: delta must be positive and finite, got inf")
    assert "Traceback" not in err


def test_main_edge_sample(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("edge 1 2\nedge 2 3\n")
    stream = tmp_path / "s.txt"
    stream.write_text("1 1\n2 2\n3 3\n")
    out = tmp_path / "edge.json"
    assert main(["edge-sample", str(graph), str(stream), "--reps", "300",
                 "--seed", "beef", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["graph"] == {"edges": 2, "vertices": 3}
    assert abs(sum(report["frequencies"].values()) - 1.0) < 1e-9


@pytest.mark.parametrize("g", ["softcap:1", "log"])
def test_main_subnormal_delta(tmp_path, g):
    # 1e-310 makes Y/delta overflow to inf, or come close: that update's
    # level is inf or astronomically large, so the key wins only when no
    # other key has mass
    mixed = tmp_path / "mixed.txt"
    mixed.write_text("1 1e-310\n2 1.0\n")
    alone = tmp_path / "alone.txt"
    alone.write_text("1 1e-310\n")
    for sketch in ("gsampler", "pareto"):
        out = tmp_path / "r.json"
        args = ["--g", g, "--sketch", sketch, "--reps", "50", "--seed", "beef",
                "--out", str(out)]
        assert main(["sample", str(mixed), *args]) == 0
        assert json.loads(out.read_text())["counts"] == {"2": 50}
        assert main(["sample", str(alone), *args]) == 0
        report = json.loads(out.read_text())
        assert report["counts"] == {"1": 50}
        assert report["value_summary"]["min"] > 1e200


def test_main_solver_failure_exits_2(tmp_path, monkeypatch, capsys):
    import levysketch.level as lv
    from levysketch.numerics import NoConvergenceError

    def fail(a, b):
        raise NoConvergenceError("no convergence")

    monkeypatch.setattr(lv, "eval_log", fail)
    stream = tmp_path / "s.txt"
    stream.write_text("1 1\n")
    assert main(["sample", str(stream), "--g", "log", "--reps", "3", "--seed", "beef"]) == 2
    assert "error: no convergence" in capsys.readouterr().err


# int() refuses decimal strings past 4,300 digits
_HUGE = "9" * 5_000
_VERTEX_LINES = (("edge-sample", "edge", "graph"), ("sample", "graph-edge", "circuit"))


@pytest.mark.parametrize("command, text, where", [
    ("edge-sample", "edge -1 2\n", "<graph>:1:"),
    ("edge-sample", "edge 18446744073709551616 2\n", "<graph>:"),
    ("sample", "graph-edge -1 2\n", "<circuit>:1:"),
    # int() reads these as 1, 30 and 2; only ASCII digits make a vertex id
    *((command, f"{line} 2 5\n{line} {token} 5\n", f"<{source}>:2:")
      for command, line, source in _VERTEX_LINES for token in ("\u0661", "3_0", "+2")),
    *(pytest.param(command, f"{line} 2 5\n{line} {_HUGE} 5\n", f"<{source}>:2:",
                   id=f"{command}-5000-digits") for command, line, source in _VERTEX_LINES),
])
def test_main_out_of_range_vertex_exits_2(tmp_path, capsys, command, text, where):
    graph = tmp_path / "g.txt"
    graph.write_text(text, encoding="utf-8")
    stream = tmp_path / "s.txt"
    stream.write_text("2 1\n")
    args = ([command, str(graph), str(stream)] if command == "edge-sample"
            else [command, str(stream), "--sketch", f"circuit:{graph}"])
    assert main(args + ["--reps", "5", "--seed", "beef"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where} vertex ids")
    assert "Traceback" not in err


def test_main_edge_sample_key_of_2_64_exits_2(tmp_path, capsys):
    # a decimal key past 64 bits hashes to a string id, which names no vertex
    graph = tmp_path / "g.txt"
    graph.write_text("edge 1 2\n")
    stream = tmp_path / "s.txt"
    stream.write_text("18446744073709551617 5\n2 1\n")
    assert main(["edge-sample", str(graph), str(stream), "--reps", "5", "--seed", "beef"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "18446744073709551617" in err
    assert "Traceback" not in err
    stream.write_text(f"{_HUGE} 5\n2 1\n")
    assert main(["edge-sample", str(graph), str(stream), "--reps", "5", "--seed", "beef"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: edge-sample vertex keys")


def test_sample_hashes_a_5000_digit_key_like_any_key_past_2_64(tmp_path):
    records = parse_stream(f"{_HUGE} 1\n{1 << 64} 2\n", SEED)
    assert [r.key for r in records] == [key_for_string(SEED, _HUGE),
                                        key_for_string(SEED, str(1 << 64))]
    stream = tmp_path / "s.txt"
    stream.write_text(f"{_HUGE} 1\n1 1\n")
    out = tmp_path / "r.json"
    assert main(["sample", str(stream), "--reps", "5", "--seed", "beef", "--out", str(out)]) == 0


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(levysketch.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "levysketch", "verify", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: levysketch verify")


_PIN_STREAM = "1 1\n2 2\n3 3\n1 1\n4 0.5\n2 0.25\n"
_PIN_CIRCUIT = ("gate 1 input\ngate 2 input\n"
                "gate g1 g:fhalf\ngate g2 g:log\ngate h scalar:2\ngate out output\n"
                "wire 1 g1\nwire 2 g2\nwire g1 out\nwire g2 h\nwire h out\n")
# SHA-256 of json.dumps(report, sort_keys=True), 200 reps each.  A change
# that moves replay bits on purpose updates these and says so in CHANGES.md.
_PINNED = {
    ("gsampler", "fhalf", "position"): "be7f6390ddd27a19fb1f067d9591ab639d8de87ff4fe45c9baba7d91e51589b2",
    ("gsampler", "fhalf", "record"): "ad1c95b82f45d0abbec9d47276abbcb60cc5ad5c4e12882f30c7989a91c8ed2f",
    ("pareto", "fhalf", "position"): "3cae2bfb5ee825a26281fb5f742ead153a21e09988c764074756f29a0a3880e2",
    ("pareto", "fhalf", "record"): "6f248bdc786b7037773dd7a26a929a3dab371d7198bd1de344c328f65d98a5d2",
    ("wor:2", "fhalf", "position"): "b256abe0f4039a335530c6433f1bcc34c5d4f1e9c4dc291154445de4f88c575e",
    ("wor:2", "fhalf", "record"): "4fe32633abe4c40894b2a3befbd3f111e82d574062e7905afd4406fcc73e16f1",
    ("kpareto:2", "fhalf", "position"): "8111b9fadb250ea1eb29670b3f9feb1c93193b93bfd293d88d40bc04488474a2",
    ("kpareto:2", "fhalf", "record"): "21c0b5eb75b913c626ece3650968752cf7137350716b119bbb4762f73d2106c0",
    ("circuit:x", "fhalf", "position"): "3902af9b4bbf94683f5e99c4ee309c2b2423b87312fe7b94b38f36d82d3edd4c",
    ("circuit:x", "fhalf", "record"): "3be96029874009e4895072e5abc83ede228db876f4bb361e91d6458d748eabaa",
    ("edge-sample", None, None): "b23c94942eda2338c8e01472da4a6d88846a83ec460869279f4edcaa18d5cc80",
    # log and softcap root-solve through the incomplete gamma kernels
    ("gsampler", "log", "position"): "5ec7189e642f8762010535c29993c0dfdc8a4f6ce3871012f42e7836d85b5448",
    ("gsampler", "softcap:1", "position"): "ce60b564f343e147648119a88648260c237a731144647a072fe565596b423726",
    ("kpareto:2", "log", "position"): "5f41925bd42d023a783906d29bcd581d35870e5ad052c80c20d7d2248822ba1a",
    ("kpareto:2", "softcap:1", "position"): "af683277c7cc833aaa1698c2085628f9d66a63f18636699056d3d4e956041b2e",
}


def _digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def test_reports_are_pinned():
    records = parse_stream(_PIN_STREAM, SEED)
    circuit_records = parse_stream("1 1\n2 2\n1 0.5\n2 2\n", SEED)
    got = {}
    for sketch, g, mode in _PINNED:
        if sketch == "edge-sample":
            got[sketch, g, mode] = _digest(cmd_edge_sample(
                "edge 1 2\nedge 2 3\nedge 1 3\n",
                parse_stream("1 1\n2 2\n3 3\n1 0.5\n", SEED), RunConfig(SEED, reps=200)))
        elif sketch == "circuit:x":
            got[sketch, g, mode] = _digest(cmd_sample(
                RunConfig(SEED, sketch, g, 200, mode), circuit_records, _PIN_CIRCUIT))
        else:
            got[sketch, g, mode] = _digest(cmd_sample(
                RunConfig(SEED, sketch, g, 200, mode), records))
    assert got == _PINNED


# SHA-256 of json.dumps(report, sort_keys=True) of `levysketch verify all
# --quick` (71 checks) at the default seed; the same rule as _PINNED applies.
_PINNED_VERIFY = "e45d5229a5e591fff9f2e18e08d15744754018e39469803b05ad5d8844fea378"


def test_quick_verify_is_pinned():
    assert _digest(cmd_verify("all", DEFAULT_SEED, quick=True)[0]) == _PINNED_VERIFY

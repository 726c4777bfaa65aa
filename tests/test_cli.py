"""CLI: stream parsing, report determinism, sketch kinds, circuit files,
randomness attachment, and exit codes."""

import json
import math
import random

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
from levysketch.randomness import parse_seed

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


def test_parse_stream_errors():
    for bad in ("1\n", "a b c\n", "1 zero\n", "1 -3\n", "1 0\n"):
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
        load_circuit_file("gate a input\nwire a b\n")
    with pytest.raises(StreamParseError):
        load_circuit_file("nonsense\n")
    with pytest.raises(StreamParseError):
        load_circuit_file("gate a input\ngraph-edge 1 2\n")  # mixed formats
    # validation failure carries the gate id
    bad = ("gate i input\ngate g g:f1\ngate o1 output\ngate o2 output\n"
           "wire i g\nwire g o1\nwire g o2\n")
    with pytest.raises(StreamParseError) as err:
        load_circuit_file(bad)
    assert "'g'" in str(err.value)


def test_load_circuit_graph_edge_shorthand():
    loaded = load_circuit_file("graph-edge 1 2\ngraph-edge 2 3\n")
    assert loaded.input_by_token["1"] == ("in", 1)
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


def test_main_verify_exit_codes(monkeypatch, tmp_path):
    assert main(["verify", "wor", "--quick", "--seed", "beef"]) == 0
    out = tmp_path / "level.json"
    assert main(["verify", "level", "--quick", "--seed", "beef", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pass"] is True
    import levysketch.level as lv
    orig = lv.eval_f0
    monkeypatch.setattr(lv, "eval_f0", lambda a, b: 2.0 * orig(a, b))
    assert main(["verify", "level", "--quick", "--seed", "beef"]) == 1


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

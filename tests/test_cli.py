"""Command-line contract: envelopes, exit codes, files, cache behavior."""

import json
from pathlib import Path

from coxkl.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def envelope(out):
    obj = json.loads(out)
    assert obj["format"] == 1
    assert set(obj) == {"format", "command", "inputs", "result", "timing"}
    return obj


def test_poly_zero_parabolic(capsys):
    code, out, _ = run(
        capsys, "poly", "--system", str(CONFIGS / "a2.json"),
        "--quotient", "s2", "--u", "", "--v", "s2 s1", "--type", "-1",
    )
    assert code == 0
    res = envelope(out)["result"]
    poly = res["polynomials"]["recursion"]
    assert poly == {"offset": 0, "coeffs": [], "display": "0"}


def test_poly_ordinary_one(capsys):
    code, out, _ = run(
        capsys, "poly", "--system", str(CONFIGS / "a2.json"), "--u", "", "--v", "s1",
    )
    assert code == 0
    poly = envelope(out)["result"]["polynomials"]["recursion"]
    assert poly["coeffs"] == [1] and poly["display"] == "1"


def test_poly_method_both_agrees(capsys):
    code, out, _ = run(
        capsys, "poly", "--system", str(CONFIGS / "b3.json"),
        "--quotient", "s1", "--u", "", "--v", "s2 s1 s3 s2", "--method", "both",
    )
    assert code == 0
    res = envelope(out)["result"]
    assert res["agree"] is True
    assert res["polynomials"]["recursion"] == res["polynomials"]["duality"]


def test_poly_r_kind(capsys):
    code, out, _ = run(
        capsys, "poly", "--system", str(CONFIGS / "a2.json"),
        "--quotient", "s2", "--u", "", "--v", "s2 s1", "--type", "q", "--kind", "R",
    )
    assert code == 0
    poly = envelope(out)["result"]["polynomials"]["recursion"]
    assert poly["coeffs"] == [1, -1]  # 1 - q


def test_poly_unknown_generator_exits_2(capsys):
    code, _, err = run(
        capsys, "poly", "--system", str(CONFIGS / "a2.json"), "--u", "", "--v", "zz",
    )
    assert code == 2
    assert "zz" in err


def test_poly_not_min_rep_exits_3(capsys):
    code, _, err = run(
        capsys, "poly", "--system", str(CONFIGS / "a2.json"),
        "--quotient", "s2", "--u", "", "--v", "s2",
    )
    assert code == 3
    assert "W^J" in err


def test_json_output_round_trips(capsys):
    code, out, _ = run(
        capsys, "poly", "--system", str(CONFIGS / "a2.json"), "--u", "", "--v", "s1",
    )
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_interval_command(capsys, tmp_path):
    dot = tmp_path / "iv.dot"
    code, out, _ = run(
        capsys, "interval", "--system", str(CONFIGS / "a2.json"),
        "--u", "", "--v", "s1 s2", "--dot", str(dot),
    )
    assert code == 0
    res = envelope(out)["result"]
    assert res["size"] == 4
    assert len(res["covers"]) == 4
    text = dot.read_text()
    assert text.count("->") == 4
    assert text.startswith("digraph")


def test_interval_unwritable_dot_exits_2(capsys, tmp_path):
    code, out, err = run(
        capsys, "interval", "--system", str(CONFIGS / "a2.json"),
        "--u", "", "--v", "s1 s2", "--dot", str(tmp_path / "missing" / "x.dot"),
    )
    assert code == 2
    assert out == "" and "cannot write" in err


def test_interval_point(capsys):
    code, out, _ = run(
        capsys, "interval", "--system", str(CONFIGS / "a2.json"),
        "--u", "s1", "--v", "s1",
    )
    assert code == 0
    res = envelope(out)["result"]
    assert res["size"] == 1 and res["covers"] == []


def test_interval_marking_in_dot(capsys, tmp_path):
    dot = tmp_path / "iv.dot"
    code, out, _ = run(
        capsys, "interval", "--system", str(CONFIGS / "a2.json"),
        "--u", "", "--v", "s2 s1", "--quotient", "s2", "--dot", str(dot),
    )
    assert code == 0
    text = dot.read_text()
    assert text.count("filled") == 3  # e, s1, s2 s1


def test_interval_incomparable_exits_3(capsys):
    code, _, err = run(
        capsys, "interval", "--system", str(CONFIGS / "a2.json"),
        "--u", "s1 s2", "--v", "s2 s1",
    )
    assert code == 3


def test_extend_emits_affine_a3(capsys, tmp_path):
    out_file = tmp_path / "ext.json"
    code, out, _ = run(
        capsys, "extend", "--system", str(CONFIGS / "a3.json"),
        "--quotient", "s2", "--out", str(out_file),
    )
    assert code == 0
    spec = json.loads(out_file.read_text())
    assert spec["matrix"] == [
        [1, 3, 2, 3], [3, 1, 3, 2], [2, 3, 1, 3], [3, 2, 3, 1],
    ]
    assert envelope(out)["result"]["spec"] == spec
    # the emitted spec re-ingests verbatim
    code2, out2, _ = run(
        capsys, "interval", "--system", str(out_file), "--u", "", "--v", "s4",
    )
    assert code2 == 0


def test_extend_full_j_isolated_node(capsys):
    code, out, _ = run(
        capsys, "extend", "--system", str(CONFIGS / "a2.json"),
        "--quotient", "s1,s2",
    )
    assert code == 0
    matrix = envelope(out)["result"]["spec"]["matrix"]
    assert matrix[2] == [2, 2, 1]


def test_extend_policy_conflicts_with_class_x(capsys):
    code, _, err = run(
        capsys, "extend", "--system", str(CONFIGS / "a2.json"),
        "--quotient", "s2", "--policy", "s1=4", "--class-x", "3",
    )
    assert code == 2


def test_extend_bad_class_x_exits_2(capsys):
    code, out, err = run(
        capsys, "extend", "--system", str(CONFIGS / "a2.json"),
        "--quotient", "s2", "--class-x", "abc",
    )
    assert code == 2
    assert out == "" and "abc" in err


def test_extend_unwritable_out_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "e.json"
    code, out, err = run(
        capsys, "extend", "--system", str(CONFIGS / "a3.json"),
        "--quotient", "s2", "--out", str(target),
    )
    assert code == 2
    assert out == "" and "cannot write" in err
    assert not target.exists()


def test_extend_invariant_failure_exits_1(capsys, monkeypatch):
    import coxkl.cli
    from coxkl import InvariantError

    def broken(*args, **kwargs):
        raise InvariantError("lift must append a single letter")

    monkeypatch.setattr(coxkl.cli, "extend_system", broken)
    code, out, err = run(
        capsys, "extend", "--system", str(CONFIGS / "a2.json"), "--quotient", "s2",
    )
    assert code == 1
    assert out == "" and "lift must append a single letter" in err


def test_extend_policy_inf(capsys):
    code, out, _ = run(
        capsys, "extend", "--system", str(CONFIGS / "a2.json"),
        "--quotient", "s2", "--policy", "s1=inf",
    )
    assert code == 0
    assert envelope(out)["result"]["spec"]["matrix"][2][0] == "inf"


def test_verify_reduction_command(capsys):
    code, out, _ = run(
        capsys, "verify-reduction", "--system", str(CONFIGS / "a2.json"),
        "--quotient", "s2", "--max-length", "3",
    )
    assert code == 0
    res = envelope(out)["result"]
    assert res["summary"]["unequal"] == 0
    keyed = {
        (r["u"], r["v"], r["x"], r["kind"]): r for r in res["records"]
    }
    rec = keyed[("", "s2 s1", "-1", "P")]
    assert rec["lhs"]["coeffs"] == [] and rec["equal"]
    rec = keyed[("", "s2 s1", "q", "P")]
    assert rec["lhs"]["coeffs"] == [1]


def test_scan_bundled_a3_maximal(capsys, tmp_path):
    out_prefix = tmp_path / "report"
    code, out, _ = run(
        capsys, "scan", "--config", str(CONFIGS / "a3-maximal.json"),
        "--out", str(out_prefix),
    )
    assert code == 0
    res = envelope(out)["result"]
    assert res["summary"]["counterexamples"] == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["format"] == 1
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.splitlines()[0].startswith("system_a,")


def test_scan_empty_systems(capsys, tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"format": 1, "systems": []}))
    code, out, _ = run(capsys, "scan", "--config", str(cfg), "--out",
                       str(tmp_path / "r"))
    assert code == 0
    assert envelope(out)["result"]["summary"]["cases"] == 0


def test_scan_bad_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code, _, err = run(capsys, "scan", "--config", str(cfg), "--out",
                       str(tmp_path / "r"))
    assert code == 2


def test_scan_unwritable_out_exits_2_before_scanning(capsys, tmp_path, monkeypatch):
    import coxkl.cli

    def must_not_run(config):
        raise AssertionError("the scan ran before the output path was checked")

    monkeypatch.setattr(coxkl.cli, "run_scan", must_not_run)
    code, out, err = run(
        capsys, "scan", "--config", str(CONFIGS / "a3-maximal.json"),
        "--out", str(tmp_path / "missing" / "r"),
    )
    assert code == 2
    assert out == "" and "cannot write" in err


def test_scan_determinism(capsys, tmp_path):
    for prefix in ("r1", "r2"):
        code, _, _ = run(
            capsys, "scan", "--config", str(CONFIGS / "a3-maximal.json"),
            "--out", str(tmp_path / prefix),
        )
        assert code == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


# -- cache ----------------------------------------------------------------------


def test_cache_round_trip(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    argv = [
        "poly", "--system", str(CONFIGS / "b3.json"), "--quotient", "s1",
        "--u", "", "--v", "s2 s1 s3 s2", "--cache", str(cache),
    ]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    res1 = envelope(out1)["result"]
    assert res1["cache"]["preloaded"] == 0
    assert res1["cache"]["stored"] > 0
    code, out2, _ = run(capsys, *argv)
    res2 = envelope(out2)["result"]
    assert res2["cache"]["preloaded"] > 0
    assert res2["cache"]["hits"] >= 1
    assert res1["polynomials"] == res2["polynomials"]


def test_cache_wrong_system_no_hits(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    code, _, _ = run(
        capsys, "poly", "--system", str(CONFIGS / "b3.json"), "--quotient", "s3",
        "--u", "", "--v", "s2 s1", "--cache", str(cache),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "poly", "--system", str(CONFIGS / "a3.json"), "--quotient", "s3",
        "--u", "", "--v", "s2 s1", "--cache", str(cache),
    )
    assert code == 0
    assert envelope(out)["result"]["cache"]["preloaded"] == 0


def test_cache_truncated_line_skipped(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    argv = [
        "poly", "--system", str(CONFIGS / "a2.json"),
        "--u", "", "--v", "s1 s2", "--cache", str(cache),
    ]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    with open(cache, "a") as fh:
        fh.write('{"format": 1, "fingerprint": "truncat')  # no newline, cut off
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert "skipping cache line" in err


def test_cache_unreadable_warns_and_proceeds(capsys, tmp_path):
    code, out, err = run(
        capsys, "poly", "--system", str(CONFIGS / "a2.json"),
        "--u", "", "--v", "s1", "--cache", str(tmp_path / "missing" / "x.jsonl"),
    )
    assert code == 0
    assert "cache unreadable" in err


def test_scan_detects_corrupted_cache_polynomial(capsys, tmp_path):
    """Deliberately poison one cached polynomial; the scan must notice the
    disagreement, dump the offending pair, and exit 1."""
    from coxkl import validate_system
    from coxkl.serialize import system_fingerprint

    cfg_obj = {
        "format": 1,
        "systems": [json.loads((CONFIGS / "a3.json").read_text())],
        "quotients": "all",
        "max_length": 4,
        "max_rank_gap": 2,
        "lift_controls": False,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_obj))
    sys = validate_system([[1, 3, 2], [3, 1, 3], [2, 3, 1]],
                          names=["s1", "s2", "s3"])
    fp = system_fingerprint(sys)
    poisoned = {
        "format": 1,
        "fingerprint": fp,
        "u": "",
        "v": "s1",
        "J": [],
        "x": "q",
        "kind": "P",
        "poly": {"offset": 0, "coeffs": [7]},  # wrong: should be 1
    }
    cache = tmp_path / "cache.jsonl"
    cache.write_text(json.dumps(poisoned) + "\n")
    code, out, _ = run(
        capsys, "scan", "--config", str(cfg), "--out", str(tmp_path / "rep"),
        "--cache", str(cache),
    )
    assert code == 1
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["summary"]["counterexamples"] == 1
    dump = report["counterexamples"][0]
    flat = json.dumps(dump)
    assert "s1" in flat and "7" in flat

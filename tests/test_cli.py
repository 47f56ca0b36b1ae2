"""Command-line contract: envelopes, exit codes, files."""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import all_subsets
from coxkl.cli import main
from coxkl.invariance import ScanReport

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def envelope(out):
    obj = json.loads(out)
    assert obj["format"] == 1
    assert set(obj) == {"format", "command", "inputs", "result", "timing", "stats"}
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
    obj = envelope(out)
    res = obj["result"]
    assert res["agree"] is True
    assert res["polynomials"]["recursion"] == res["polynomials"]["duality"]
    memo = obj["stats"]["memo"]
    assert set(obj["stats"]) == {"memo"} and set(memo) == {
        "elements", "canonical", "order", "R", "P", "Pdual",
    }
    assert all(memo[k] > 0 for k in memo)


def test_poly_r_kind(capsys):
    code, out, _ = run(
        capsys, "poly", "--system", str(CONFIGS / "a2.json"),
        "--quotient", "s2", "--u", "", "--v", "s2 s1", "--type", "q", "--kind", "R",
    )
    assert code == 0
    obj = envelope(out)
    assert obj["result"]["polynomials"]["recursion"]["coeffs"] == [1, -1]  # 1 - q
    memo = obj["stats"]["memo"]
    assert memo["R"] > 0 and memo["P"] == memo["Pdual"] == 0


@pytest.mark.parametrize("method", ["duality", "both"])
def test_poly_r_kind_rejects_other_methods(capsys, method):
    code, out, err = run(
        capsys, "poly", "--system", str(CONFIGS / "a2.json"),
        "--quotient", "s2", "--u", "", "--v", "s2 s1", "--kind", "R",
        "--method", method,
    )
    assert code == 2 and out == ""
    assert "--method recursion" in err


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


def test_interval_dot_escapes_labels(capsys, tmp_path):
    spec, dot = tmp_path / "spec.json", tmp_path / "iv.dot"
    spec.write_text(json.dumps(_spec("a2.json", generators=['a"b', "c\\d"])))
    code, _, _ = run(
        capsys, "interval", "--system", str(spec), "--u", "", "--v", 'a"b c\\d',
        "--dot", str(dot),
    )
    assert code == 0
    lines = dot.read_text().splitlines()
    assert '  n1 [label="a\\"b"];' in lines
    assert '  n3 [label="a\\"b c\\\\d"];' in lines


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


def test_extend_policy_splits_at_the_last_equals_sign(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_spec("a2.json", generators=["a=b", "c"])))
    code, out, _ = run(
        capsys, "extend", "--system", str(spec), "--quotient", "c", "--policy", "a=b=4",
    )
    assert code == 0
    assert envelope(out)["result"]["spec"]["matrix"][2][0] == 4


def test_extend_bond_past_the_ring_bound_exits_2(capsys):
    code, out, err = run(
        capsys, "extend", "--system", str(CONFIGS / "a2.json"),
        "--quotient", "s1", "--policy", "s2=10000",
    )
    assert code == 2
    assert out == "" and "N = 20000" in err


def test_extend_policy_item_without_equals_sign_exits_2(capsys):
    code, out, err = run(
        capsys, "extend", "--system", str(CONFIGS / "a2.json"),
        "--quotient", "s1", "--policy", "s2",
    )
    assert code == 2
    assert out == "" and "must look like s1=3" in err


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


def test_scan_skips_oversize_intervals_and_writes_no_row_for_them(capsys, tmp_path):
    from coxkl.bruhat import cone, interval
    from coxkl.serialize import load_system

    cap = 6
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "format": 1,
        "systems": [json.loads((CONFIGS / "a3.json").read_text())],
        "quotients": "all",
        "max_length": 4,
        "max_interval_size": cap,
    }))
    code, out, _ = run(capsys, "scan", "--config", str(cfg), "--out", str(tmp_path / "r"))
    assert code == 0
    _name, a3 = load_system(CONFIGS / "a3.json")
    pairs = [(u, v) for J in all_subsets(a3.generators)
             for v in a3.ball(4, J) for u in cone(a3, v, J)]
    sizes = {(u, v): interval(a3, u, v).size for u, v in pairs}
    oversize = sum(sizes[pair] > cap for pair in pairs)
    summary = envelope(out)["result"]["summary"]
    assert summary["skipped_oversize"] == oversize > 0
    assert summary["counterexamples"] == 0
    rows = (tmp_path / "r.csv").read_text().splitlines()[1:]
    assert rows
    for row in rows:
        fields = row.split(",")
        for system, u, v in ((fields[0], fields[2], fields[3]), (fields[4], fields[6], fields[7])):
            if system == "A3":
                assert sizes[(a3.element(u), a3.element(v))] <= cap, row


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


@pytest.mark.parametrize("key, value", [
    ("lift_controls", "false"),
    ("lift_controls", 0),
    ("include_r_polynomials", "no"),
    ("include_r_polynomials", None),
])
def test_scan_non_boolean_flag_exits_2(capsys, tmp_path, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": 1, "systems": [], key: value}))
    code, out, err = run(capsys, "scan", "--config", str(cfg), "--out",
                         str(tmp_path / "r"))
    assert code == 2
    assert out == "" and f"{key} must be true or false" in err


@pytest.mark.parametrize("spec, message", [
    ({"format": True, "generators": ["s1"]}, "must declare format 1"),
    ({"format": 1, "generators": None}, "generators must be a list of names"),
    ({"format": 1, "generators": [1]}, "generators must be a list of names"),
])
def test_malformed_system_spec_exits_2(capsys, tmp_path, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "A1", "matrix": [[1]], **spec}))
    code, out, err = run(capsys, "poly", "--system", str(path), "--v", "s1")
    assert code == 2
    assert out == "" and message in err


_A1_SPEC = {"format": 1, "name": "A1", "generators": ["s1"]}


@pytest.mark.parametrize("command, document, message", [
    ("poly", [_A1_SPEC], "system spec must be a JSON object"),
    ("poly", _A1_SPEC, "system spec is missing 'matrix'"),
    ("poly", {**_A1_SPEC, "matrix": [[1], 1]}, "matrix must be a list of rows"),
    ("poly", None, "cannot read system file"),
    ("scan", {"format": 1, "systems": {}}, "scan config needs a list of systems"),
    ("scan", {"format": 1, "systems": [], "class_x": 3}, "class_x must be a list of bonds"),
], ids=["not-an-object", "missing-key", "rows", "unreadable", "systems", "class_x"])
def test_malformed_document_exits_2(capsys, tmp_path, command, document, message):
    """A document of the wrong shape, or a file that cannot be read (None:
    no file), exits 2 before any work."""
    path = tmp_path / "doc.json"
    if document is not None:
        path.write_text(json.dumps(document))
    if command == "poly":
        argv = ["poly", "--v", "s1", "--system", str(path)]
    else:
        argv = ["scan", "--out", str(tmp_path / "r"), "--config", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and message in err


def test_scan_format_true_is_not_format_1(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": True, "systems": []}))
    code, out, err = run(capsys, "scan", "--config", str(cfg), "--out",
                         str(tmp_path / "r"))
    assert code == 2
    assert out == "" and "must declare format 1" in err


def test_scan_unknown_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": 1, "systems": [], "max_lenght": 2,
                               "lift_control": False}))
    code, out, err = run(capsys, "scan", "--config", str(cfg), "--out",
                         str(tmp_path / "r"))
    assert code == 2
    assert out == "" and "'lift_control', 'max_lenght'" in err


def test_scan_config_defaults_are_scan_config_defaults(capsys, tmp_path):
    """A config without optional keys echoes what ScanConfig(entries) does."""
    from coxkl.invariance import ScanConfig, _config_echo
    from coxkl.serialize import system_from_spec

    spec = json.loads((CONFIGS / "a2.json").read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": 1, "systems": [spec]}))
    code, _, _ = run(capsys, "scan", "--config", str(cfg), "--out",
                     str(tmp_path / "r"))
    assert code == 0
    echo = json.loads((tmp_path / "r.json").read_text())["config"]
    assert echo == _config_echo(ScanConfig([system_from_spec(spec)]))


@pytest.mark.parametrize("argv", [
    ["scan", "--out", "unused", "--config"],
    ["poly", "--v", "s1", "--system"],
])
def test_file_that_is_not_utf8_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == "" and "invalid JSON" in err


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


@pytest.mark.parametrize("command, config, flags", [
    ("scan", "a3-maximal.json", ["--config", "{input}", "--out", "{stem}"]),
    ("scan", "a3-maximal.json", ["--config", "{stem}.csv", "--out", "{stem}"]),
    ("interval", "a2.json", ["--system", "{input}", "--u", "", "--v", "s1 s2",
                             "--dot", "{input}"]),
    ("extend", "a3.json", ["--system", "{input}", "--quotient", "s2", "--out", "{input}"]),
    ("extend", "a3.json", ["--system", "{input}", "--quotient", "s2",
                           "--out", "{link}"]),
], ids=["scan-json", "scan-csv", "interval-dot", "extend-out", "extend-out-via-link"])
def test_output_naming_an_input_exits_2_and_keeps_it(capsys, tmp_path, monkeypatch,
                                                     command, config, flags):
    """No command writes over a file it reads: an output path that names
    an input file, also through a symbolic link, exits 2 before any work
    and leaves the input as it was."""
    import coxkl.cli

    def must_not_run(config):
        raise AssertionError("the scan ran before the output path was checked")

    monkeypatch.setattr(coxkl.cli, "run_scan", must_not_run)
    stem = tmp_path / "in"
    source = stem.with_suffix(".csv" if "{stem}.csv" in flags else ".json")
    source.write_bytes((CONFIGS / config).read_bytes())
    (tmp_path / "link").symlink_to(source)
    before = source.read_bytes()
    names = {"input": str(source), "stem": str(stem), "link": str(tmp_path / "link")}
    code, out, err = run(capsys, command, *(flag.format(**names) for flag in flags))
    assert code == 2
    assert out == "" and "is an input file" in err
    assert source.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["link", source.name])


def test_scan_determinism(capsys, tmp_path):
    for prefix in ("r1", "r2"):
        code, _, _ = run(
            capsys, "scan", "--config", str(CONFIGS / "a3-maximal.json"),
            "--out", str(tmp_path / prefix),
        )
        assert code == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


# sha256 of the report files; a change that alters them must say why here
REPORT_DIGESTS = {
    "a3-maximal": (
        "46b5b83105ed45a0abaf8447cf199270b1336e0db971564cfc1f52206be61584",
        "e48f694303af7ad42c4f59d219fb31ce317382b798cdc57f70a084df61fe7d80",
    ),
    "scan_a3b3_all-len3": (
        "e1f365d462c6e468e632cfc4e4e1dbe36b79c547f0912f632ea940e90aebe934",
        "8b53a41d61176edc96d9de1982a2e772bdbd5c9551e3ab4be0a573ca001f77ea",
    ),
    "scan_rank4_maximal": (
        "ebede33ae3ce17563bc9a7fe79247705d39e49c5587278756c683fb2a183e74b",
        "b31268407e845ffd03ed877c3022302329f0f5d67000fe807173f1061c3f02f0",
    ),
    "scan_rank4_maximal-F4-len24": (
        "5dda173962c4df1843e7d1e360d1d7876d8ebc6dc58e12c8dff16334482c860b",
        "236c4f09e6a5b6bdb58cf8a017008f3ec605bbee2ce47390064393513a2626fa",
    ),
    "scan_h4_maximal": (
        "7cf2fdb679ea8877b9429394139a65eb4dcedd550933be046aa061426204e406",
        "70bbcf34b9fae146857e4d7a9eb3df1aeed1eabd8ae2fc088340fd1fb7ade36e",
    ),
    "scan_a3b3_all": (
        "498dd465d50706ca8e5e230182ea762f63c7d0d44a56c9751e86d702088913a6",
        "c17c56fb594cb64a902eb14bb3a9a725e3c8a8691710c32b63fecc9d2e150a97",
    ),
    # scans that stop early pin the stop rule and the counts up to the stop
    "poisoned-base-P": (
        "f5139c9ab8a5f6e09a2235a6054c654ae65baaab1e511fd017556057ca80e558",
        "c996a6148d3e5d0e47141469be3ffc603f4a6a87db29071c57dfb690ae508019",
    ),
    "control-_poison_extension_table": (
        "abd038af02549cd48fdacfdebd10feb6c51d09667c3bfeaf4ee11703b3086eac",
        "38d2b465857e9b3269ea5415af7039e1e03bb7929ef1a95cab78087e8c7a7657",
    ),
    "control-_hide_lifts": (
        "d03092decf39b2db9b17ddd5b839b0af54759c8972955d2217217a0f7799206e",
        "5dd855b629140d25450b5f72a14be0a5996dac1edd822bc7cea379692615f135",
    ),
}


def report_digests(stem: Path) -> tuple:
    """sha256 of the .json and .csv report files written at stem."""
    return tuple(
        hashlib.sha256(stem.with_name(stem.name + ext).read_bytes()).hexdigest()
        for ext in (".json", ".csv")
    )


def test_scan_report_bytes_are_pinned(capsys, tmp_path):
    a3b3 = json.loads((CONFIGS / "scan_a3b3_all.json").read_text())
    a3b3["max_length"] = 3
    assert a3b3["lift_controls"] is True
    (tmp_path / "a3b3.json").write_text(json.dumps(a3b3))
    # F4's four maximal quotients at full length (its longest element has
    # 24 letters): 3,438 cases
    f4 = json.loads((CONFIGS / "scan_rank4_maximal.json").read_text())
    f4["systems"] = [spec for spec in f4["systems"] if spec["name"] == "F4"]
    f4["max_length"] = 24
    (tmp_path / "f4.json").write_text(json.dumps(f4))
    configs = {
        "a3-maximal": CONFIGS / "a3-maximal.json",
        "scan_a3b3_all-len3": tmp_path / "a3b3.json",
        "scan_rank4_maximal": CONFIGS / "scan_rank4_maximal.json",
        "scan_rank4_maximal-F4-len24": tmp_path / "f4.json",
        # H4's four maximal quotients up to 16 letters: 9,353 cases
        "scan_h4_maximal": CONFIGS / "scan_h4_maximal.json",
        # every quotient of A3 and B3 at full length: 1,876 cases
        "scan_a3b3_all": CONFIGS / "scan_a3b3_all.json",
    }
    for name, config in configs.items():
        code, _, _ = run(capsys, "scan", "--config", str(config),
                         "--out", str(tmp_path / name))
        assert code == 0
        assert report_digests(tmp_path / name) == REPORT_DIGESTS[name], name


def test_failed_lift_check_exits_without_reports(capsys, tmp_path, monkeypatch):
    """A lifted shell that fails its check is an invariant failure: the
    scan exits 1 and writes no report."""
    import coxkl.invariance

    monkeypatch.setattr(coxkl.invariance, "_lifts_onto", lambda *args: False)
    code, out, err = run(capsys, "scan", "--config", str(CONFIGS / "a3-maximal.json"),
                         "--out", str(tmp_path / "a3"))
    assert (code, out) == (1, "") and "does not lift" in err
    assert not list(tmp_path.iterdir())


def test_scan_stats_in_envelope_only(capsys, tmp_path, monkeypatch):
    systems = []
    count_tables = ScanReport.count_tables

    def counted(report, name, sys):
        systems.append(sys)
        count_tables(report, name, sys)

    monkeypatch.setattr(ScanReport, "count_tables", counted)
    code, out, _ = run(
        capsys, "scan", "--config", str(CONFIGS / "a3-maximal.json"),
        "--out", str(tmp_path / "r"),
    )
    assert code == 0
    # order facts have one store per system, the numbered index
    assert systems
    for sys in systems:
        assert sys.caches.get("order") and not {"leq", "cone"} & set(sys.caches)
    obj = envelope(out)
    stats, summary = obj["stats"], obj["result"]["summary"]
    assert set(stats) == {"phase_seconds", "cases", "pairs_checked", "controls_checked",
                          "kernels", "memo", "iso", "shapes", "shells", "lifts"}
    assert stats["kernels"] == {"A3": "ring:int", "A3~ext": "ring:int"}
    assert set(stats["memo"]) == {"elements", "canonical", "order", "R", "P", "Pdual"}
    assert all(stats["memo"][k] > 0 for k in ("elements", "canonical", "order", "P"))
    assert stats["memo"]["canonical"] <= stats["memo"]["elements"]
    # one shell per top in the base system and per lifted top in the extension
    shells = stats["shells"]
    assert set(shells) == {"count", "elements", "largest"}
    assert 0 < shells["largest"] <= shells["elements"] and shells["count"] > 0
    # each lifted shell was checked, and is one of the shells
    assert set(stats["lifts"]) == {"shells"}
    assert 0 < stats["lifts"]["shells"] < shells["count"]
    # one entry per computed pair and type; pinned so that entry counting cannot drift
    assert [stats["memo"][k] for k in ("R", "P", "Pdual")] == [104, 104, 0]
    assert set(stats["phase_seconds"]) == {"enumerate", "buckets", "matching",
                                           "controls"}
    assert all(t >= 0 for t in stats["phase_seconds"].values())
    assert stats["phase_seconds"]["controls"] > 0
    for key in ("cases", "pairs_checked", "controls_checked"):
        assert stats[key] == summary[key]
    # a pair that shares one marking record is matched by the identity;
    # otherwise one search per pair of marked shapes, and memo hits after it.
    # Every pair that a passing scan checks has equal fingerprints.
    iso = stats["iso"]
    assert set(iso) == {"searches", "memo_hits", "shared"}
    assert iso["searches"] > 0 and iso["memo_hits"] > 0 and iso["shared"] > 0
    assert iso["searches"] + iso["memo_hits"] + iso["shared"] == (
        summary["pairs_checked"] + summary["controls_checked"])
    assert 0 < stats["shapes"] < summary["cases"]
    assert "stats" not in (tmp_path / "r.json").read_text()


# -- input checks and fault injection ---------------------------------------------


@pytest.mark.parametrize("argv", [
    ["poly", "--system", str(CONFIGS / "a2.json"), "--v", "s1"],
    ["verify-reduction", "--system", str(CONFIGS / "a2.json"), "--quotient", "s2",
     "--max-length", "2"],
    ["scan", "--config", str(CONFIGS / "a3-maximal.json"), "--out", "unused"],
])
def test_cache_option_is_rejected(capsys, argv):
    """No command reads polynomials from a file, so the old cache option
    is an unknown argument."""
    code, out, err = run(capsys, *argv, "--cache", "x")
    assert code == 2
    assert out == "" and "unrecognized arguments" in err


@pytest.mark.parametrize("class_x", [[[3]], [{}], [3, ["inf"]], [True], [3.0]])
def test_scan_bad_class_x_entry_exits_2(capsys, tmp_path, class_x):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": 1, "systems": [], "class_x": class_x}))
    code, out, err = run(capsys, "scan", "--config", str(cfg), "--out",
                         str(tmp_path / "r"))
    assert code == 2
    assert out == "" and (
        f"class_x entry must be an int >= 3 or 'inf', not {class_x[-1]!r}" in err)


def test_verify_reduction_stats_sum_both_systems_memos(capsys, monkeypatch):
    """stats.memo holds the six table counts of the base system plus
    those of the extended system."""
    import coxkl.cli

    seen = []
    memo_sizes = coxkl.cli.memo_sizes

    def recorded(*systems):
        seen.extend(memo_sizes(sys) for sys in systems)
        return memo_sizes(*systems)

    monkeypatch.setattr(coxkl.cli, "memo_sizes", recorded)
    code, out, _ = run(
        capsys, "verify-reduction", "--system", str(CONFIGS / "b3.json"),
        "--quotient", "s1", "--max-length", "4",
    )
    assert code == 0
    memo = envelope(out)["stats"]["memo"]
    assert len(seen) == 2
    assert memo == {kind: seen[0][kind] + seen[1][kind] for kind in seen[0]}
    assert set(memo) == {"elements", "canonical", "order", "R", "P", "Pdual"}
    assert all(memo[kind] > 0 for kind in ("order", "R", "P", "Pdual"))


def test_extend_stats_sum_both_systems_memos(capsys, monkeypatch):
    """extend reports stats.memo of the base system plus the extended
    one, as verify-reduction does, and reading them makes no table."""
    import coxkl.cli

    seen = []
    memo_sizes = coxkl.cli.memo_sizes

    def recorded(*systems):
        seen.append(systems)
        return memo_sizes(*systems)

    monkeypatch.setattr(coxkl.cli, "memo_sizes", recorded)
    code, out, _ = run(capsys, "extend", "--system", str(CONFIGS / "a3.json"), "--quotient", "s2")
    assert code == 0
    (systems,) = seen
    assert len(systems) == 2 and all("kltable" not in s.caches for s in systems)
    memo = envelope(out)["stats"]["memo"]
    assert memo == memo_sizes(*systems)
    assert memo["elements"] > 0 and memo["R"] == memo["P"] == memo["Pdual"] == 0


def test_verify_reduction_has_no_hidden_length_cap(capsys, tmp_path):
    """The top elements of the infinite dihedral group's W^J grow past
    18 letters; the sweep has no cap of its own."""
    spec = tmp_path / "iinf.json"
    spec.write_text(json.dumps({
        "format": 1, "name": "Iinf", "generators": ["s1", "s2"],
        "matrix": [[1, "inf"], ["inf", 1]],
    }))
    code, out, _ = run(
        capsys, "verify-reduction", "--system", str(spec),
        "--quotient", "s1", "--max-length", "20",
    )
    assert code == 0
    assert envelope(out)["result"]["summary"]["unequal"] == 0


def test_verify_reduction_negative_max_length_exits_2(capsys):
    code, out, err = run(
        capsys, "verify-reduction", "--system", str(CONFIGS / "a2.json"),
        "--quotient", "s2", "--max-length", "-3",
    )
    assert code == 2
    assert out == "" and "radius must be a nonnegative integer" in err


def test_scan_detects_corrupted_cache_polynomial(capsys, tmp_path, monkeypatch):
    """Deliberately poison one memoized polynomial; the scan must notice the
    disagreement, dump the offending pair, and exit 1."""
    from coxkl import serialize
    from coxkl.bruhat import _order
    from coxkl.klpoly import get_table

    load_scan_config = serialize.load_scan_config

    def poisoned(path):
        config = load_scan_config(path)
        for _name, system in config.entries:
            # wrong: P(e, s1) is 1; memo keys are ids in the order index
            order = _order(system, frozenset())
            iv = order.id(system, (0,))
            get_table(system).tables["P"][(order.ids[()], iv, frozenset(), "q")] = (7,)
        return config

    monkeypatch.setattr(serialize, "load_scan_config", poisoned)
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
    code, out, _ = run(
        capsys, "scan", "--config", str(cfg), "--out", str(tmp_path / "rep"),
    )
    assert code == 1
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["summary"]["counterexamples"] == 1
    dump = report["counterexamples"][0]
    flat = json.dumps(dump)
    assert "s1" in flat and "7" in flat
    assert report_digests(tmp_path / "rep") == REPORT_DIGESTS["poisoned-base-P"]


def _poison_extension_table(monkeypatch):
    """Every memoized P of type q of an extended system reads (7,)."""
    import coxkl.invariance
    from coxkl.klpoly import get_table

    class Poisoned(dict):
        def get(self, key, default=None):
            return (7,) if key[3] == "q" else super().get(key, default)

    extend_system = coxkl.invariance.extend_system

    def poisoned(*args, **kwargs):
        ext = extend_system(*args, **kwargs)
        get_table(ext.extended).tables["P"] = Poisoned()
        return ext

    monkeypatch.setattr(coxkl.invariance, "extend_system", poisoned)
    return "P", "1", "0"


def _hide_lifts(monkeypatch):
    """No case is found isomorphic to its lift."""
    import coxkl.invariance

    check = coxkl.invariance.check_hypothesis_pair

    def undetected(ia, ib, *args):
        return None if ib.system is not ia.system else check(ia, ib, *args)

    monkeypatch.setattr(coxkl.invariance, "check_hypothesis_pair", undetected)
    return "iso", "0", "0"


@pytest.mark.parametrize("fault", [_poison_extension_table, _hide_lifts])
def test_scan_stops_at_a_failing_lift_control(capsys, tmp_path, monkeypatch, fault):
    """A failing control is the scan's one counterexample and its last row."""
    kind, iso, equal = fault(monkeypatch)
    code, out, _ = run(
        capsys, "scan", "--config", str(CONFIGS / "a3-maximal.json"),
        "--out", str(tmp_path / "r"),
    )
    assert code == 1
    assert envelope(out)["result"]["summary"]["counterexamples"] == 1
    report = json.loads((tmp_path / "r.json").read_text())
    [dump] = report["counterexamples"]
    assert dump["control"] is True and dump["kind"] == kind
    rows = [row.split(",") for row in (tmp_path / "r.csv").read_text().splitlines()[1:]]
    assert rows[-1] == [*dump["case_a"], *dump["case_b"], "control", iso, equal]
    assert dump["case_b"][0] == "A3~ext"
    assert all(row[-1] == "1" for row in rows[:-1])
    assert report_digests(tmp_path / "r") == REPORT_DIGESTS["control-" + fault.__name__]


def test_scan_records_each_unequal_polynomial_of_a_failing_control(
        capsys, tmp_path, monkeypatch):
    """With the extension's P of type q and its R of type -1 poisoned,
    the first failing control writes two records, (P, q) then (R, -1),
    and its row is the last one."""
    import coxkl.invariance
    from coxkl.klpoly import get_table

    class Poisoned(dict):
        def __init__(self, x):
            super().__init__()
            self.x = x

        def get(self, key, default=None):
            return (7,) if key[3] == self.x else super().get(key, default)

    extend_system = coxkl.invariance.extend_system

    def poisoned(*args, **kwargs):
        ext = extend_system(*args, **kwargs)
        tables = get_table(ext.extended).tables
        tables["P"], tables["R"] = Poisoned("q"), Poisoned("-1")
        return ext

    monkeypatch.setattr(coxkl.invariance, "extend_system", poisoned)
    code, out, _ = run(
        capsys, "scan", "--config", str(CONFIGS / "a3-maximal.json"),
        "--out", str(tmp_path / "r"),
    )
    assert code == 1
    assert envelope(out)["result"]["summary"]["counterexamples"] == 2
    report = json.loads((tmp_path / "r.json").read_text())
    first, second = report["counterexamples"]
    assert [(d["kind"], d["type"]) for d in (first, second)] == [("P", "q"), ("R", "-1")]
    assert first["case_a"] == second["case_a"] and first["case_b"] == second["case_b"]
    assert first["control"] is second["control"] is True
    assert first["poly_b"] == second["poly_b"] == "7"
    rows = [row.split(",") for row in (tmp_path / "r.csv").read_text().splitlines()[1:]]
    assert rows[-1] == [*first["case_a"], *first["case_b"], "control", "1", "0"]
    assert all(row[-1] == "1" for row in rows[:-1])


def _spec(path, **changes):
    return {**json.loads((CONFIGS / path).read_text()), **changes}


@pytest.mark.parametrize("spec, message", [
    (_spec("a2.json", generators=["s1", ""]), "generator name ''"),
    (_spec("a2.json", generators=["a,b", "s2"]), "generator name 'a,b'"),
    (_spec("a2.json", name=["a", "b"]), "system name must be a string"),
])
def test_system_spec_names_a_word_cannot_carry_exit_2(capsys, tmp_path, spec, message):
    """Words print with spaces and --quotient splits on commas, and an
    empty name would print like the identity."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "poly", "--system", str(path), "--v", "s2")
    assert code == 2
    assert out == "" and message in err


@pytest.mark.parametrize("systems, message", [
    ([_spec("a3.json", name="X"), _spec("b3.json", name="X")], "two systems are named 'X'"),
    ([_spec("a2.json", generators=["a,b", "c d"])], "generator name 'a,b'"),
    ([_spec("a2.json", name="A,2")], "system name 'A,2'"),
], ids=["duplicate", "generators", "system"])
def test_scan_names_a_report_cannot_carry_exit_2(capsys, tmp_path, systems, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": 1, "systems": systems,
                               "quotients": "maximal", "max_length": 4}))
    code, out, err = run(capsys, "scan", "--config", str(cfg), "--out",
                         str(tmp_path / "r"))
    assert code == 2
    assert out == "" and message in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("config", sorted(
    path.stem for path in CONFIGS.glob("*.json")
    if "systems" in json.loads(path.read_text())
))
def test_bundled_scan_csv_rows_have_eleven_fields(capsys, tmp_path, config):
    """The CSV quotes nothing, so no name may add a field."""
    code, _, _ = run(capsys, "scan", "--config", str(CONFIGS / f"{config}.json"),
                     "--out", str(tmp_path / "r"))
    assert code == 0
    rows = (tmp_path / "r.csv").read_text().splitlines()
    assert len(rows) > 1
    assert {len(row.split(",")) for row in rows} == {11}

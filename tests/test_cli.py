import json
import subprocess
import sys
from importlib import resources

from hermeq.cli import main
from hermeq.jsonio import MAX_INPUT_DIGITS

T1_POLY = '[1,2,-4,-1,1]'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_form_example(capsys):
    code, out, _ = run(capsys, "form", "--poly", '{"coeffs":["1","0","1"]}')
    assert code == 0
    assert json.loads(out) == {
        "nvars": 2,
        "terms": [{"coeff": "1", "exp": [0, 2]},
                  {"coeff": "1", "exp": [2, 0]}]}


def test_disc(capsys):
    code, out, _ = run(capsys, "disc", "--poly", T1_POLY)
    assert code == 0
    assert json.loads(out) == {"discriminant": "3981"}


def test_check_gl2_unrelated_pair(capsys):
    code, out, _ = run(capsys, "check-gl2", "--poly", T1_POLY,
                       "--beta", "[-2,1,0]", "--target", "[1,0,0]")
    assert code == 1
    assert json.loads(out) == {"related": False, "witness": None}


def test_check_gl2_related_pair(capsys):
    code, out, _ = run(capsys, "check-gl2", "--poly", T1_POLY,
                       "--beta", "[-2,1,0]", "--target", "[1,1,0]")
    assert code == 0
    w = json.loads(out)["witness"]
    gamma = [[int(v) for v in row] for row in w["gamma"]]
    assert len(gamma) == 2 and w["sign"] in (1, -1)


def test_malformed_json_exits_2_with_position(capsys):
    code, out, err = run(capsys, "form", "--poly", '{"coeffs":[1,2')
    assert code == 2
    assert out == ""
    assert "line 1" in err and "char" in err


def test_partition_packaged_and_from_path(capsys, tmp_path):
    code, out, _ = run(capsys, "partition", "--table", "table1")
    assert code == 0
    rep = json.loads(out)
    assert rep["count"] == 3 and rep["agrees_with_printed"]
    assert rep["classes"] == [[1, 5, 8], [2, 6, 7, 10], [3, 4, 9]]

    src = resources.files("hermeq").joinpath("data/table1.json")
    dst = tmp_path / "t1.json"
    dst.write_text(src.read_text(encoding="utf-8"), encoding="utf-8")
    code2, out2, _ = run(capsys, "partition", "--table", str(dst))
    assert code2 == 0 and json.loads(out2) == rep


def test_partition_corrupted_fixture(capsys, tmp_path):
    src = resources.files("hermeq").joinpath("data/table1.json")
    payload = json.loads(src.read_text(encoding="utf-8"))
    payload["betas"][0][0] = "999"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run(capsys, "partition", "--table", str(bad))
    assert code == 2
    assert out == ""
    assert "checksum" in err


def test_check_z(capsys):
    code, out, _ = run(capsys, "check-z", "--poly", "[1,-1,0,1]",
                       "--other", "[1,2,3,1]")
    assert code == 0
    assert json.loads(out)["witness"] == {"e": 1, "a": 1}
    code, out, _ = run(capsys, "check-z", "--poly", "[1,-1,0,1]",
                       "--other", "[1,0,0,1]")
    assert code == 1
    assert json.loads(out) == {"equivalent": False, "witness": None}


def test_check_hermite(capsys):
    code, out, _ = run(capsys, "check-hermite", "--poly", "[1,-1,0,1]",
                       "--other", "[1,-1,0,1]", "--expr", "[0,1]")
    assert code == 0
    assert json.loads(out)["witness"] == [["1", "0", "0"],
                                          ["0", "1", "0"],
                                          ["0", "0", "1"]]
    # a root of the target whose lattice is a proper sublattice: negative
    code, out, _ = run(capsys, "check-hermite", "--poly", "[1,0,1]",
                       "--other", "[4,0,1]", "--expr", "[0,2]")
    assert code == 1


def test_reducible_pair_command(capsys):
    code, out, _ = run(capsys, "reducible-pair", "--poly", "[1,-1,0,1]")
    assert code == 0
    rep = json.loads(out)
    assert rep["g"]["coeffs"] == ["0", "1", "-1", "0", "1"]
    code, _, err = run(capsys, "reducible-pair", "--poly", "[2,-1,0,1]")
    assert code == 2 and "constant" in err


def test_family_commands(capsys, tmp_path):
    code, out, _ = run(capsys, "family", "find-params", "--n", "4")
    assert code == 0
    assert json.loads(out) == {"n": 4, "p": 11, "c": 89, "t": 13}

    code, out, _ = run(capsys, "family", "kit", "--n", "4")
    assert code == 0
    kit = json.loads(out)
    assert kit["k"]["coeffs"] == ["1", "2", "2"]
    assert all(kit["identities"].values())

    out_path = tmp_path / "pair.json"
    code, out, _ = run(capsys, "family", "gen", "--n", "4", "--monic",
                       "--out", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == out
    bundle = json.loads(out)
    assert bundle["f"]["coeffs"] == ["2", "4", "4", "0", "1"]

    code, _, err = run(capsys, "family", "gen", "--n", "4", "--c", "89")
    assert code == 2 and "--t" in err


def test_quartic_commands(capsys):
    code, out, _ = run(capsys, "quartic", "iota",
                       "--poly", "[255,13,-62,-1,4]")
    assert code == 0
    rep = json.loads(out)
    assert rep["b"][0] == ["8", "-1", "0"]

    code, out, _ = run(capsys, "quartic", "verify-example")
    assert code == 0
    rep = json.loads(out)
    assert rep["act_matches"] and rep["disc"] == "-8124503"

    code, _, err = run(capsys, "quartic", "iota", "--poly", "[1,0,1]")
    assert code == 2


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "4", "--disc", "3981")
    assert code == 0
    rep = json.loads(out)
    assert rep["degree_cap"] == 18
    assert rep["split_counts"]["gl2"] == "10"


def _parse_long_int(text):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        sys.set_int_max_str_digits(limit)


def test_bounds_prints_integers_past_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "bounds", "--n", "10", "--disc", "5")
    assert code == 0 and err == ""
    text = json.loads(out)["height_bound"]
    assert len(text) > 4300
    assert _parse_long_int(text) == (16 * 10 ** 3) ** 2500 * 5 ** 47
    assert sys.get_int_max_str_digits() == limit


def test_long_decimal_inputs_read_in_full_up_to_the_cap(capsys):
    digits = "1" + "0" * 4999 + "7"  # 10^5000 + 7, past Python's limit
    code, out, _ = run(capsys, "disc", "--poly",
                       json.dumps(["-" + digits, "0", "1"]))
    assert code == 0
    assert _parse_long_int(json.loads(out)["discriminant"]) == (
        4 * (10 ** 5000 + 7))
    code, out, err = run(capsys, "disc", "--poly",
                         json.dumps(["1", "0", "7" * (MAX_INPUT_DIGITS + 1)]))
    assert code == 2
    assert out == ""
    assert str(MAX_INPUT_DIGITS) in err and "cap" in err


def test_internal_failure_exits_3_without_output(capsys):
    # the bound report overflows the decimal context here; a crash must
    # not read as the negative verdict 1
    code, out, err = run(capsys, "bounds", "--n", "3000", "--disc", "5",
                         "--monic")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_negative_search_bound_exits_2(capsys):
    code, out, err = run(capsys, "quartic", "principal-evidence",
                         "--poly", "[255,13,-62,-1,4]", "--bound", "-3")
    assert code == 2
    assert out == ""
    assert "bound" in err


def test_outputs_are_byte_identical(capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "partition", "--table", "table2")
        outs.add(out)
    assert len(outs) == 1


def test_manifest_written(capsys, tmp_path):
    man = tmp_path / "manifest.json"
    code, out, _ = run(capsys, "--manifest", str(man), "disc",
                       "--poly", "[1,0,1]")
    assert code == 0
    payload = json.loads(man.read_text(encoding="utf-8"))
    assert payload["command"] == "disc"
    assert payload["outputs"] == json.loads(out)
    assert payload["version"]
    assert payload["determinism_seed"] is None
    assert payload["timings"]["seconds"] >= 0


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hermeq.cli", "disc", "--poly", "[1,0,1]"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"discriminant": "-4"}


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "hermeq.cli", "no-such-command"],
        capture_output=True, text=True)
    assert proc.returncode == 2

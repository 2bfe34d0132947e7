import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
from decimal import Decimal, localcontext
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermeq import bounds, cli, quartic
from hermeq.algebra import MAX_SEARCH_BOUND
from hermeq.bounds import MAX_BOUND_DEGREE
from hermeq.cli import main
from hermeq.family import CertificateError
from hermeq.forms import MAX_FORM_BITS, MAX_FORM_DEGREE
from hermeq.intpoly import discriminant
from hermeq.jsonio import MAX_INPUT_DEGREE, MAX_INPUT_DIGITS
from hermeq.primes import MAX_PRIME_INPUT

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


def test_check_gl2_vector_of_the_wrong_length_exits_2(capsys):
    # over a cubic, beta and target have 2 entries; a third must not be read
    # as a coefficient of alpha^3
    for beta, target in (("[0,1,0]", "[0,1]"), ("[0,1]", "[1]")):
        code, out, err = run(capsys, "check-gl2", "--poly", "[1,1,0,1]",
                             "--beta", beta, "--target", target)
        assert (code, out) == (2, "")
        assert "n - 1 = 2" in err and err.count("\n") == 1


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


def test_partition_bare_name_is_the_packaged_table(capsys, tmp_path,
                                                    monkeypatch):
    # a directory named like the table in the working directory is ignored
    code, out, _ = run(capsys, "partition", "--table", "table1")
    (tmp_path / "table1").mkdir()
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "partition", "--table", "table1") == (code, out, "")
    code, out, err = run(capsys, "partition", "--table", "./table1")
    assert code == 2 and out == "" and "directory" in err


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


def test_bounds_degree_over_the_cap_exits_2(capsys):
    code, out, err = run(capsys, "bounds", "--n", str(MAX_BOUND_DEGREE),
                         "--disc", "5")
    assert code == 0
    code, out, err = run(capsys, "bounds", "--n", str(MAX_BOUND_DEGREE + 1),
                         "--disc", "5", "--monic")
    assert (code, out) == (2, "")
    assert "MAX_BOUND_DEGREE" in err and err.count("\n") == 1


def test_bounds_height_over_the_cap_exits_2(capsys):
    # 100,000 digits are inside the input cap; the general height bound
    # of degree 4 would have 5.6M bits, refused before it is formed, and
    # the monic report, which has no such bound, still prints
    disc = "7" * MAX_INPUT_DIGITS
    code, out, err = run(capsys, "bounds", "--n", "4", "--disc", disc)
    assert (code, out) == (2, "")
    assert "MAX_HEIGHT_BITS" in err and err.count("\n") == 1
    code, out, err = run(capsys, "bounds", "--n", "4", "--disc", disc,
                         "--monic")
    assert code == 0 and err == ""
    rep = json.loads(out)
    with localcontext() as ctx:  # 2 + floor(2 log_3 d), far from an integer
        ctx.prec = 30
        assert rep["degree_cap"] == 2 + int(2 * Decimal(disc).ln()
                                            / Decimal(3).ln())


@pytest.mark.parametrize("wrap", [
    lambda f: f,
    lambda f: {"coeffs": [str(c) for c in f]},
])
def test_poly_degree_over_the_input_cap_exits_2(capsys, wrap):
    at_cap = [1] * (MAX_INPUT_DEGREE + 1)
    code, out, _ = run(capsys, "disc", "--poly", json.dumps(wrap(at_cap)))
    assert code == 0 and json.loads(out)["discriminant"]
    over = [1] * (MAX_INPUT_DEGREE + 2)
    for argv in (["disc", "--poly"], ["order", "--poly"],
                 ["check-z", "--other", T1_POLY, "--poly"]):
        code, out, err = run(capsys, *argv, json.dumps(wrap(over)))
        assert (code, out) == (2, ""), argv
        assert "MAX_INPUT_DEGREE = %d" % MAX_INPUT_DEGREE in err, argv
        assert err.count("\n") == 1


def test_family_degree_over_the_input_cap_exits_2(capsys):
    code, out, err = run(capsys, "family", "kit", "--n", str(MAX_INPUT_DEGREE))
    assert code == 0 and json.loads(out)["n"] == MAX_INPUT_DEGREE
    # at the cap the parameter search stops at its own limit, saying why
    for sub in ("find-params", "gen"):
        code, out, err = run(capsys, "family", sub, "--n",
                             str(MAX_INPUT_DEGREE))
        assert code == 2 and out == ""
        assert "C_%d = " % (MAX_INPUT_DEGREE - 1) in err and "< p <=" in err
    for sub in ("kit", "find-params", "gen"):
        code, out, err = run(capsys, "family", sub, "--n",
                             str(MAX_INPUT_DEGREE + 1))
        assert code == 2 and out == ""
        assert "MAX_INPUT_DEGREE = %d" % MAX_INPUT_DEGREE in err


def test_internal_failure_exits_3_without_output(capsys, monkeypatch):
    # with the degree cap lifted, the bound report overflows the decimal
    # context here; a crash must not read as the negative verdict 1
    monkeypatch.setattr(bounds, "MAX_BOUND_DEGREE", 3000)
    code, out, err = run(capsys, "bounds", "--n", "3000", "--disc", "5",
                         "--monic")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_failed_generator_confirmation_exits_3(capsys, monkeypatch):
    # a search whose inverse-orientation lambda is wrong: the confirmation
    # in principality_evidence raises RuntimeError, which is not a verdict
    calls = []

    def wrong_search(l1, l2, bound):
        calls.append(bound)
        return None if len(calls) == 1 else 2 * l1.algebra.one()

    monkeypatch.setattr(quartic, "colon_and_kappa_search", wrong_search)
    code, out, err = run(capsys, "quartic", "principal-evidence",
                         "--poly", "[255,13,-62,-1,4]", "--bound", "2")
    assert len(calls) == 2
    assert code == 3
    assert out == ""
    assert err.startswith("error: internal failure: RuntimeError")
    assert err.count("\n") == 1


def test_failed_certificate_exits_3(capsys, monkeypatch):
    # generate_certified_pair validates its parameters first; a certificate
    # that then fails is a broken invariant, not bad input
    def broken(n, params):
        raise CertificateError("certificate failed: lattice witness")

    monkeypatch.setattr(cli, "generate_certified_pair", broken)
    code, out, err = run(capsys, "family", "gen", "--n", "4")
    assert code == 3
    assert out == ""
    assert err.startswith("error: internal failure: CertificateError")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["partition", "--table", "{tmp}"],
    ["family", "gen", "--n", "4", "--out", "{tmp}/missing/pair.json"],
    ["--manifest", "{tmp}/missing/manifest.json", "disc", "--poly",
     "[1,0,1]"],
])
def test_unusable_paths_exit_2(capsys, tmp_path, argv):
    # a directory given as a table, and an output file in a missing
    # directory, are bad input, not a negative verdict; stdout stays empty
    code, out, err = run(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_negative_search_bound_exits_2(capsys):
    code, out, err = run(capsys, "quartic", "principal-evidence",
                         "--poly", "[255,13,-62,-1,4]", "--bound", "-3")
    assert code == 2
    assert out == ""
    assert "bound" in err


def test_degenerate_quartic_exits_2_after_one_discriminant(capsys,
                                                           monkeypatch):
    # principality_evidence leaves the squarefree test to EtaleAlgebra:
    # one discriminant per search, and a degenerate quartic is bad input
    from hermeq import algebra
    calls = []

    def counting(f):
        calls.append(f)
        return discriminant(f)

    monkeypatch.setattr(algebra, "discriminant", counting)
    monkeypatch.setattr(quartic, "discriminant", counting)
    code, _, _ = run(capsys, "quartic", "principal-evidence",
                     "--poly", "[255,13,-62,-1,4]", "--bound", "1")
    assert code in (0, 1) and len(calls) == 1
    code, out, err = run(capsys, "quartic", "principal-evidence",
                         "--poly", "[1,0,2,0,1]")  # (X^2 + 1)^2
    assert (code, out) == (2, "")
    assert "squarefree" in err and err.count("\n") == 1


def test_search_bound_over_the_cap_exits_2(capsys):
    code, out, err = run(capsys, "quartic", "principal-evidence",
                         "--poly", "[255,13,-62,-1,4]",
                         "--bound", str(MAX_SEARCH_BOUND + 1))
    assert code == 2
    assert out == ""
    assert "MAX_SEARCH_BOUND = %d" % MAX_SEARCH_BOUND in err


@pytest.mark.parametrize("poly, bound, digest", [
    # F at the default bound: the generator [371,-116,-48,16], inverse
    # orientation; G at bound 8: inconclusive
    ("[255,13,-62,-1,4]", None,
     "e69c50522151e7d71b0c3c7f73a8d0e692ee7770c61bb15b5aac7a59741a9516"),
    ("[-6,-7,-2,-1,5]", "8",
     "9c3325c6c53850f6c44fab992703aeb229db14ec350340583ea42e57888b46c3"),
])
def test_principal_evidence_stdout_is_pinned(capsys, poly, bound, digest):
    argv = ["quartic", "principal-evidence", "--poly", poly]
    if bound is not None:
        argv += ["--bound", bound]
    _, out, _ = run(capsys, *argv)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, out


@pytest.mark.parametrize("command, poly, digest", [
    ("form", "[3,-1,4,1,-5,9]",
     "16bfe6508d07e65f03982be85df6a3b1236b6899078ef21c90a32fa7768200fc"),
    ("form", "[2,6,-5,3,5,-8,9]",
     "f575ab7e80e6d368f8752af84d4af7513cc3b5501ecd8e22a7b85caaae5bc79a"),
    ("form", "[7,-9,3,2,-3,8,4,-6]",
     "9ce2c2ea76fbe5ca01831ca57184e886499bd5cbafc461471a88a4610bb8d281"),
    ("form", "[2,6,4,-3,3,8,-3,2,7]",
     "f8b362bbc3b5181190c0a4389a823c81e9114648799e4d4c1a249ae7869695f9"),
    ("normform", "[3,-1,4,1,-5,9]",
     "ca8606fef6303a5894e5e8979225083d33f6f21cd3cb2d092e17d72bce9924cd"),
    ("normform", "[2,6,-5,3,5,-8,9]",
     "4d79053224540023271d74b132f32d1e0f200240caa4600e0fb24c7388b79a95"),
    ("normform", "[7,-9,3,2,-3,8,4,-6]",
     "c9ed8cf984b78e399de38e61689efc4d35d1d5769daa9e3117aeb14747759557"),
])
def test_form_stdout_is_pinned(capsys, command, poly, digest):
    # degrees 5-8 (form) and 5-7 (normform)
    code, out, _ = run(capsys, command, "--poly", poly)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("argv, code, digest", [
    (["partition", "--table", "table1"], 0,
     "67603985a0657955be87e854f26cda94fddff3519a243b3dace11ee547c1239c"),
    (["partition", "--table", "table2"], 0,
     "70cde455ee99d43f35d2336f80295f308296b60d32f3e69bde4c73f0b97f6f36"),
    (["partition", "--table", "table3"], 0,
     "6df788a90b984a951cb52de80b235a53c7b30aad0dcd31392ad30299f209e50d"),
    # gamma [[-122, 81], [3, -2]], sign 1
    (["check-gl2", "--poly", T1_POLY, "--beta", "[-2,1,0]",
      "--target", "[1,1,0]"], 0,
     "966cf345389bec3efca06364071c597b5f88b6d801d276ffa334669e04e47633"),
    (["check-gl2", "--poly", T1_POLY, "--beta", "[-2,1,0]",
      "--target", "[1,0,0]"], 1,
     "9ec1eb6b78f63beb7379065ced80295ffb1ff556790a351379c0225c09b8c999"),
])
def test_partition_and_check_gl2_stdout_is_pinned(capsys, argv, code, digest):
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, out


@pytest.mark.parametrize("command", ["form", "normform"])
def test_form_degree_over_the_cap_exits_2(capsys, command):
    poly = json.dumps([1] + [0] * MAX_FORM_DEGREE + [1])
    code, out, err = run(capsys, command, "--poly", poly)
    assert code == 2
    assert out == ""
    assert "MAX_FORM_DEGREE = %d" % MAX_FORM_DEGREE in err


@pytest.mark.parametrize("command", ["form", "normform"])
def test_form_coefficients_over_the_size_cap_exit_2(capsys, command):
    # degree 5: C(9, 5) * 5 = 630 per bit of the largest coefficient; at the
    # cap the form is computed, one bit over it is refused before any
    # expansion, with a message that names the cap
    bits = MAX_FORM_BITS // 630
    for lead, code in ((1 << (bits - 1), 0), (1 << bits, 2)):
        poly = json.dumps([str(lead - 1), "3", "0", "-1", "0", str(lead)])
        got, out, err = run(capsys, command, "--poly", poly)
        assert got == code, err
        if code == 2:
            assert out == "" and err.count("\n") == 1
            assert "MAX_FORM_BITS = %d" % MAX_FORM_BITS in err


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


def test_manifest_records_python_version_and_battery_seeds(
        capsys, tmp_path, monkeypatch):
    # the battery itself is stubbed out: the seeds come from
    # reproduce.SEEDS, which test_reproduce ties to the checks' own draws
    import platform
    from hermeq import cli
    monkeypatch.setattr(cli, "reproduce_all",
                        lambda **kw: {"all_ok": True, "results": []})
    man = tmp_path / "manifest.json"
    code, _, _ = run(capsys, "--manifest", str(man), "reproduce-all")
    assert code == 0
    payload = json.loads(man.read_text(encoding="utf-8"))
    assert payload["command"] == "reproduce-all"
    assert payload["python_version"] == platform.python_version()
    assert payload["determinism_seed"] == {
        "corpus": 20101, "gl2_transfer": 20103, "ideal_laws": 20104,
        "norm_form_theorem": 20105, "cross_equivalence": 20115}


def test_platform_is_imported_only_for_a_manifest(tmp_path):
    man = tmp_path / "manifest.json"
    code = ("import sys\n"
            "from hermeq.cli import main\n"
            "assert main(['disc', '--poly', '[1,0,1]']) == 0\n"
            "assert 'platform' not in sys.modules\n"
            "assert main(['--manifest', sys.argv[1], 'disc', '--poly',"
            " '[1,0,1]']) == 0\n"
            "assert 'platform' in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code, str(man)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(man.read_text(encoding="utf-8"))["python_version"]


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hermeq.cli", "disc", "--poly", "[1,0,1]"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"discriminant": "-4"}


def test_disc_does_not_import_hashlib():
    # only fixture checksums need hashlib (and the libcrypto it maps)
    code = ("import sys\n"
            "from hermeq.cli import main\n"
            "assert main(['disc', '--poly', '[1,0,1]']) == 0\n"
            "assert 'hashlib' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"discriminant": "-4"}


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "hermeq.cli", "no-such-command"],
        capture_output=True, text=True)
    assert proc.returncode == 2


def test_long_json_numbers_read_in_full_up_to_the_cap(capsys):
    # the same bounds as decimal strings: read in full past Python's
    # 4300-digit limit, refused one digit over the input cap
    code, out, _ = run(capsys, "disc", "--poly",
                       "[-1" + "0" * 4999 + "7,0,1]")
    assert code == 0
    assert _parse_long_int(json.loads(out)["discriminant"]) == (
        4 * (10 ** 5000 + 7))
    code, out, err = run(capsys, "disc", "--poly",
                         "[1,0," + "7" * (MAX_INPUT_DIGITS + 1) + "]")
    assert code == 2
    assert out == ""
    assert str(MAX_INPUT_DIGITS) in err and "cap" in err


def test_integer_flags_read_in_full_up_to_the_cap(capsys):
    sevens = "7" * 5000  # past Python's 4300-digit limit
    code, out, err = run(capsys, "bounds", "--n", "3", "--disc", sevens)
    assert code == 0 and err == ""
    assert json.loads(out)["D"] == sevens
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "3", "--disc", "7" * (MAX_INPUT_DIGITS + 1)])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert str(MAX_INPUT_DIGITS) in err and "cap" in err and len(err) < 1000
    # a long malformed value is not echoed in full either
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "3", "--disc", "7" * MAX_INPUT_DIGITS + "x"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and len(err) < 1000


def _int_flag_options(parser, path=()):
    # (subcommand path, option) for every option read by cli._int_flag
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _int_flag_options(sub, path + (name,))
        elif action.type is cli._int_flag:
            yield path, action.option_strings[0]


# is_prime's deterministic witness set ends below this, and it has no factor
# up to 37, so the refusal is the range check
_PAST_IS_PRIME = str(MAX_PRIME_INPUT)
_PRIME_CAP = "is at or over the cap MAX_PRIME_INPUT = %d" % MAX_PRIME_INPUT
# one row per integer flag: (subcommand path, option) -> (arguments with a
# value over the flag's cap, a fragment of the refusal)
_INT_FLAG_REFUSALS = {
    (("normform",), "--k"): (["--poly", "[1,0,0,1]", "--k", "3"],
                             "k out of range 0..2"),
    (("bounds",), "--n"): (["--n", str(MAX_BOUND_DEGREE + 1), "--disc", "5"],
                           "MAX_BOUND_DEGREE = %d" % MAX_BOUND_DEGREE),
    (("bounds",), "--disc"): (["--n", "3", "--disc", "7" * MAX_INPUT_DIGITS],
                              "MAX_HEIGHT_BITS"),
    (("quartic", "principal-evidence"), "--bound"): (
        ["--poly", "[255,13,-62,-1,4]", "--bound", str(MAX_SEARCH_BOUND + 1)],
        "MAX_SEARCH_BOUND = %d" % MAX_SEARCH_BOUND),
    (("family", "gen"), "--c"): (
        ["--n", "4", "--c", _PAST_IS_PRIME, "--t", "13"],
        "parameter c: input " + _PRIME_CAP),
    (("family", "gen"), "--t"): (
        ["--n", "4", "--c", "89", "--t", _PAST_IS_PRIME],
        "parameter t: input " + _PRIME_CAP),
}
for _sub in ("kit", "find-params", "gen"):
    _INT_FLAG_REFUSALS[("family", _sub), "--n"] = (
        ["--n", str(MAX_INPUT_DEGREE + 1)],
        "MAX_INPUT_DEGREE = %d" % MAX_INPUT_DEGREE)


def test_every_integer_flag_has_a_refusal_row():
    options = list(_int_flag_options(cli._build_parser()))
    assert len(options) == len(set(options))
    missing = set(options) - set(_INT_FLAG_REFUSALS)
    assert not missing, "integer flags without a refusal row: %r" % missing
    stale = set(_INT_FLAG_REFUSALS) - set(options)
    assert not stale, "refusal rows for no integer flag: %r" % stale


@pytest.mark.parametrize("key", sorted(_INT_FLAG_REFUSALS),
                         ids=lambda key: " ".join(key[0] + (key[1],)))
def test_integer_flag_over_its_cap_exits_2(key):
    (path, option), (args, fragment) = key, _INT_FLAG_REFUSALS[key]
    assert option in args
    proc = subprocess.run([sys.executable, "-m", "hermeq.cli", *path, *args],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2, proc.stderr[:500]
    assert proc.stdout == ""
    assert fragment in proc.stderr, proc.stderr[:500]


# Generated command lines for the cheap subcommands: mostly well-formed
# polynomials (often monic, often with a translate as the second input),
# plus malformed JSON, booleans, floats, nested arrays, and missing and
# stray flags.
_coeff = st.one_of(st.integers(-30, 30), st.integers(-10 ** 30, 10 ** 30))
# degree 2 to 5; most pair tests need a monic polynomial
_poly = st.builds(lambda c, lead: c + [lead],
                  st.lists(_coeff, min_size=2, max_size=5),
                  st.sampled_from([1, 2, 1, 0, 1, -3, 5, -1, 1]))
_junk = st.one_of(st.booleans(), st.floats(), st.none(), st.text(max_size=4),
                  st.lists(st.integers(-3, 3), max_size=2))
_junk_text = st.one_of(
    st.lists(st.one_of(_coeff, _junk), max_size=7).map(json.dumps),
    _junk.map(json.dumps), st.text(max_size=8))
_SUBCOMMANDS = {
    "disc": ["--poly"], "form": ["--poly"], "order": ["--poly"],
    "normform": ["--poly", "--k"], "check-z": ["--poly", "--other"],
    "check-gl2": ["--poly", "--beta", "--target"],
    "check-hermite": ["--poly", "--other", "--expr"],
    "bounds": ["--n", "--disc", "--monic"],
}


def _translate(f, a):
    # the coefficients of f(X + a), by Horner
    out = []
    for c in reversed(f):
        out = [x + a * y for x, y in zip([0] + out, out + [0])]
        out[0] += c
    return out


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    f = draw(_poly)
    a = draw(st.integers(-3, 3))
    # (b_1, ..., b_(n-1)) of beta = b_1 alpha + ...; b_1 = +-1 often
    # makes beta generate Z[alpha]
    betas = st.builds(lambda b, rest: [b] + rest,
                      st.sampled_from([1, -1, 2, 0, 1]),
                      st.lists(st.integers(-3, 3), min_size=len(f) - 3,
                               max_size=len(f) - 3))
    beta = draw(betas)
    values = {
        "--poly": json.dumps(f),
        "--other": json.dumps(draw(st.one_of(st.just(_translate(f, a)),
                                             _poly))),
        "--expr": json.dumps([-a, 1]),
        "--beta": json.dumps(beta),
        "--target": json.dumps(draw(st.one_of(st.just(beta), betas))),
        "--k": str(draw(st.integers(-1, 5))),
        "--n": str(draw(st.sampled_from(range(8, -2, -1)))),
        "--disc": str(draw(st.one_of(st.integers(1, 10 ** 6),
                                     st.integers(-10 ** 6, 0)))),
    }
    argv = [command]
    for flag in _SUBCOMMANDS[command]:
        kind = draw(st.integers(0, 99))
        if kind >= 95:
            continue  # a missing flag, required or not
        argv.append(flag)
        if flag != "--monic":
            argv.append(values[flag] if kind < 80 else draw(_junk_text))
    if draw(st.integers(0, 99)) >= 95:
        argv.append(draw(st.sampled_from(["--poly", "--bogus", "[1,0,1]"])))
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_argv())
def test_generated_command_lines_keep_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    if code in (0, 1):
        assert out.getvalue().endswith("\n")
        json.loads(out.getvalue())  # exactly one JSON document
    else:
        assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()

import json

import pytest

from hermeq.cli import main
from hermeq.jsonio import load_table
from recheck import recheck_family_gen, recheck_gl2


def _stdout(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


@pytest.mark.parametrize("name", ["table1", "table2"])
def test_check_gl2_rechecks_on_every_related_pair_of_a_table(capsys, name):
    # every ordered pair inside a printed class of Tables 1 and 2
    table = load_table(name)
    poly, betas = table["minpoly"], table["betas"]
    pairs = [(betas[i - 1], betas[j - 1]) for cls in table["classes"]
             for i in cls for j in cls if i != j]
    for beta, target in pairs:
        out = _stdout(capsys, ["check-gl2", "--poly", json.dumps(poly),
                               "--beta", json.dumps(beta),
                               "--target", json.dumps(target)])
        recheck_gl2(poly, beta, target, out)
    assert len(pairs) == {"table1": 24, "table2": 126}[name]


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("monic", [True, False])
def test_family_gen_rechecks_from_stdout(capsys, n, monic):
    argv = ["family", "gen", "--n", str(n)] + ["--monic"] * monic
    recheck_family_gen(_stdout(capsys, argv))


def test_recheck_refuses_a_tampered_witness(capsys):
    table = load_table("table1")
    poly, betas = table["minpoly"], table["betas"]
    beta, target = betas[0], betas[4]
    doc = json.loads(_stdout(capsys, [
        "check-gl2", "--poly", json.dumps(poly), "--beta", json.dumps(beta),
        "--target", json.dumps(target)]))
    w = doc["witness"]
    for bad in (dict(w, sign=-w["sign"]),
                dict(w, gamma=[list(r) for r in zip(*w["gamma"])])):
        with pytest.raises(AssertionError):
            recheck_gl2(poly, beta, target, json.dumps(dict(doc, witness=bad)))
    doc = json.loads(_stdout(capsys, ["family", "gen", "--n", "4"]))
    u = doc["witness"]
    for bad in (dict(doc, t=doc["t"] * doc["c"]),
                dict(doc, witness=[u[1], u[0]] + u[2:])):
        with pytest.raises(AssertionError):
            recheck_family_gen(json.dumps(bad))

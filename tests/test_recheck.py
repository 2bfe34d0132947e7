import json
import random

import pytest
import sympy

from hermeq.cli import main
from hermeq.jsonio import load_table
from hermeq.pairfamilies import (PAIR_EXPR, quartic_pair, quartic_samples,
                                 quintic_pair, quintic_samples)
from recheck import (affine_image, recheck_family_gen, recheck_gl2,
                     recheck_hermite, recheck_principal_evidence, recheck_z)


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


def _verdict_pairs(seed):
    # the affirmative check-z and check-hermite queries of a cli_verdicts
    # style set: g = e^n f(eX + a), monic f of height 12 for check-z, f
    # of height 9, content 1 and nonzero discriminant for check-hermite,
    # whose root of g in K_f is e(alpha - a)
    x = sympy.Symbol("x")
    rng = random.Random(seed)
    z, hermite = [], []
    for i in range(10):
        f = [rng.randint(-12, 12) for _ in range(3 + i % 4)] + [1]
        e, a = rng.choice([1, -1]), rng.randint(-9, 9)
        z.append((f, affine_image(f, e, a)))
    while len(hermite) < 8:
        n = 3 + len(hermite) % 3
        f = [rng.randint(-9, 9) for _ in range(n)] + [
            rng.choice([c for c in range(-9, 10) if c])]
        p = sum(c * x ** i for i, c in enumerate(f))
        if sympy.gcd_list(f) != 1 or not sympy.discriminant(p, x):
            continue
        e, a = rng.choice([1, -1]), rng.randint(-6, 6)
        hermite.append((f, affine_image(f, e, a), [-e * a, e]))
    return z, hermite


def test_check_z_and_check_hermite_recheck_on_a_seeded_set(capsys):
    for seed in (2701, 2702, 2703):
        z, hermite = _verdict_pairs(seed)
        for f, g in z:
            recheck_z(f, g, _stdout(capsys, [
                "check-z", "--poly", json.dumps(f), "--other", json.dumps(g)]))
        for f, g, expr in hermite:
            recheck_hermite(f, g, _stdout(capsys, [
                "check-hermite", "--poly", json.dumps(f),
                "--other", json.dumps(g), "--expr", json.dumps(expr)]))


def test_check_hermite_rechecks_the_parametric_pairs(capsys):
    # the ten pairs of battery criterion 12, five quartic and five quintic
    pairs = ([quartic_pair(s, t) for s, t in quartic_samples(5)]
             + [quintic_pair(s) for s in quintic_samples(5)])
    for pair in pairs:
        f, g = pair["f"], pair["g"]
        recheck_hermite(f, g, _stdout(capsys, [
            "check-hermite", "--poly", json.dumps(f), "--other",
            json.dumps(g), "--expr", json.dumps(PAIR_EXPR)]))
    assert len(pairs) == 10


def test_reducible_pair_rechecks_on_three_cubics(capsys):
    # g = X f(X) and h = X^4 f(1/X), read off f here
    for f in ([1, -1, 0, 1], [1, 0, 1, 1], [1, 2, -3, 1]):
        out = _stdout(capsys, ["reducible-pair", "--poly", json.dumps(f)])
        recheck_hermite([0] + f, [0] + f[::-1], out)


def test_recheck_hermite_and_z_refuse_a_tampered_witness(capsys):
    f, g = quartic_pair(6, 21)["f"], quartic_pair(6, 21)["g"]
    doc = json.loads(_stdout(capsys, [
        "check-hermite", "--poly", json.dumps(f), "--other", json.dumps(g),
        "--expr", json.dumps(PAIR_EXPR)]))
    u = doc["witness"]
    elementary = [u[0], [str(int(x) + int(y)) for x, y in zip(u[0], u[1])]]
    for bad in ([u[1], u[0]] + u[2:], [list(r) for r in zip(*u)],
                elementary + u[2:]):
        with pytest.raises(AssertionError):
            recheck_hermite(f, g, json.dumps(dict(doc, witness=bad)))
    f = [1, -1, 0, 1]
    out = _stdout(capsys, ["reducible-pair", "--poly", json.dumps(f)])
    with pytest.raises(AssertionError):
        recheck_hermite([0] + f[::-1], [0] + f, out)
    f = [5, -3, 2, 1]
    g = affine_image(f, -1, 4)
    doc = json.loads(_stdout(capsys, [
        "check-z", "--poly", json.dumps(f), "--other", json.dumps(g)]))
    w = doc["witness"]
    for bad in (dict(w, e=-w["e"]), dict(w, a=w["a"] + 1)):
        with pytest.raises(AssertionError):
            recheck_z(f, g, json.dumps(dict(doc, witness=bad)))
    recheck_z(f, g, json.dumps(doc))


def _evidence(capsys, poly, bound):
    code = main(["quartic", "principal-evidence", "--poly", json.dumps(poly),
                 "--bound", str(bound)])
    return code, capsys.readouterr().out


def _nonmonic_quartics(seed, count):
    # leading coefficient 2..4, the others in -4..4, discriminant nonzero
    x = sympy.Symbol("x")
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = [rng.randint(-4, 4) for _ in range(4)] + [rng.randint(2, 4)]
        if sympy.discriminant(sum(c * x ** i for i, c in enumerate(f)), x):
            out.append(f)
    return out


def test_principal_evidence_rechecks_from_stdout(capsys):
    # the paper's F at the default bound, four monic quartics, and every
    # principal answer for sixteen seeded nonmonic quartics at bounds 3-6
    cases = [([255, 13, -62, -1, 4], 16)]
    cases += [(f, 3) for f in ([1, 0, 0, 0, 1], [-2, 1, 0, 0, 1],
                               [3, -1, 2, -5, 1], [-7, 4, -3, 0, 1])]
    cases += [(f, b) for f in _nonmonic_quartics(2611, 16)
              for b in range(3, 7)]
    seen = {"direct": 0, "inverse": 0, "inconclusive": 0}
    for poly, bound in cases:
        code, out = _evidence(capsys, poly, bound)
        if code == 1:
            assert json.loads(out)["status"] == "inconclusive"
            assert poly[-1] != 1, poly
            seen["inconclusive"] += 1
            continue
        assert code == 0, (poly, bound)
        recheck_principal_evidence(poly, bound, out)
        seen[json.loads(out)["orientation"]] += 1
    assert seen == {"direct": 42, "inverse": 2, "inconclusive": 25}, seen


def test_principal_evidence_recheck_refuses_a_tampered_generator(capsys):
    poly = [255, 13, -62, -1, 4]
    code, out = _evidence(capsys, poly, 16)
    doc = json.loads(out)
    coords = doc["generator"]["coords"]
    for bad in ([coords[1], coords[0]] + coords[2:],
                ["-371"] + coords[1:],
                [str(2 * int(c)) for c in coords]):
        with pytest.raises(AssertionError):
            recheck_principal_evidence(poly, 16, json.dumps(
                dict(doc, generator={"coords": bad})))
    with pytest.raises(AssertionError):
        recheck_principal_evidence(poly, 12, out)

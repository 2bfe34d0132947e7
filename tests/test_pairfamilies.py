import pytest
import sympy

from hermeq.algebra import EtaleAlgebra
from hermeq.equivalence import hermite_witness_check
from hermeq.intmat import det_bareiss
from hermeq.intpoly import DomainError, content, discriminant
from hermeq.pairfamilies import (quartic_pair, quartic_params_ok,
                                 quartic_samples, quintic_pair,
                                 quintic_params_ok, quintic_samples)
from oracles import power

X, Y, S, T = sympy.symbols("x y s t")


def reverse_both(m):
    n = len(m)
    return [[m[n - 1 - a][n - 1 - b] for b in range(n)] for a in range(n)]


def beta_power_rows_descending(f, expr):
    n = len(f) - 1
    alg = EtaleAlgebra(f)
    beta = alg.from_poly(expr)
    return [[power(beta, n - 1 - a).coords[n - 1 - b] for b in range(n)]
            for a in range(n)]


def test_parameter_screens():
    assert quartic_params_ok(6, 21) and quartic_params_ok(21, 51)
    assert not quartic_params_ok(7, 21) and not quartic_params_ok(6, 22)
    assert quintic_params_ok(71) and quintic_params_ok(181)
    assert not quintic_params_ok(72)
    with pytest.raises(DomainError):
        quartic_pair(1, 1)
    with pytest.raises(DomainError):
        quintic_pair(3)
    assert quartic_samples(3) == [(6, 21), (21, 51), (36, 81)]
    assert quintic_samples(2) == [71, 181]


def test_quartic_pairs_at_samples():
    for s, t in quartic_samples(3):
        p = quartic_pair(s, t)
        f, g, u = p["f"], p["g"], p["u"]
        assert f[-1] == 2 and g[-1] == 2
        assert content(f) == 1 and content(g) == 1
        assert det_bareiss(u) == 1
        assert discriminant(f) == discriminant(g) != 0
        # the printed matrix is exactly the beta-power coordinate matrix
        assert beta_power_rows_descending(f, p["expr"]) == u
        w = hermite_witness_check(f, g, p["expr"])
        assert w == reverse_both(u)


def test_quintic_pairs_at_samples():
    for s in quintic_samples(2):
        p = quintic_pair(s)
        f, g, u = p["f"], p["g"], p["u"]
        assert f[-1] == 2 and g[-1] == 2
        assert content(f) == 1 and content(g) == 1
        assert det_bareiss(u) == 1
        assert discriminant(f) == discriminant(g) != 0
        assert beta_power_rows_descending(f, p["expr"]) == u
        w = hermite_witness_check(f, g, p["expr"])
        assert w == reverse_both(u)


def _sym_poly(coeffs, var):
    return sum(c * var ** i for i, c in enumerate(coeffs))


def test_g_is_twice_the_minimal_polynomial():
    # independent resultant oracle, one sample per family
    for p in (quartic_pair(6, 21), quintic_pair(71)):
        f = _sym_poly(p["f"], Y)
        res = sympy.resultant(f, X - (Y + 2 * Y ** 2), Y)
        pol = sympy.Poly(sympy.expand(res), X)
        cont = sympy.gcd_list(pol.all_coeffs())
        prim = [int(c / cont) for c in reversed(pol.all_coeffs())]
        if prim[-1] < 0:
            prim = [-c for c in prim]
        assert prim == p["g"]


def test_det_u_is_one_for_all_parameters():
    # same entry formulas as the implementation, with s, t symbolic
    u_sym = sympy.Matrix([
        [1 - 8 * S - 48 * T, 8 * S ** 2 + 96 * T ** 2 - 12 * S - 28 * T,
         12 * S ** 2 + 32 * S * T - 48 * T ** 2 - 6 * S - 6 * T,
         -32 * S ** 2 * T + 128 * T ** 3 + 6 * S ** 2 - 8 * T ** 2 - 3 * T],
        [4, -16 * T + 1, -4 * S, 4 * S ** 2 - 16 * T ** 2 - 2 * T],
        [0, 2, 1, 0],
        [0, 0, 0, 1]])
    assert sympy.expand(u_sym.det()) == 1
    u5 = sympy.Matrix([
        [6400 * S ** 2 + 2224 * S + 193, 6400 * S ** 2 + 2424 * S + 224,
         -3200 * S ** 2 - 712 * S - 32, -6400 * S ** 2 - 1924 * S - 144,
         -3200 * S ** 2 - 1012 * S - 80],
        [6, 1, 3200 * S ** 2 + 1112 * S + 96, 1600 * S ** 2 + 656 * S + 64,
         -4800 * S ** 2 - 1518 * S - 120],
        [4, 4, 1, 0, 0],
        [0, 0, 2, 1, 0],
        [0, 0, 0, 0, 1]])
    assert sympy.expand(u5.det()) == 1
    # and the symbolic matrices agree with the generated ones at a sample
    pq = quartic_pair(6, 21)
    assert [[int(e) for e in row]
            for row in u_sym.subs({S: 6, T: 21}).tolist()] == pq["u"]
    p5 = quintic_pair(71)
    assert [[int(e) for e in row]
            for row in u5.subs({S: 71}).tolist()] == p5["u"]


def test_designed_reductions_mod_small_primes():
    # the congruence screens make f mod p independent of the parameters,
    # with factor degree patterns that keep every sample irreducible with
    # the full symmetric group; pin down those reductions
    x = sympy.Symbol("x")
    for s, t in quartic_samples(3):
        f = quartic_pair(s, t)["f"]
        assert [c % 5 for c in f] == [2, 2, 3, 0, 2]
    fm5 = sympy.Poly([2, 0, 3, 2, 2], x, modulus=5)
    facs4 = fm5.factor_list()[1]
    assert all(e == 1 for _, e in facs4)
    assert sorted(q.degree() for q, _ in facs4) == [1, 1, 2]

    for s in quintic_samples(3):
        f = quintic_pair(s)["f"]
        assert [c % 5 for c in f] == [3, 3, 0, 0, 0, 2]
        assert [c % 11 for c in f] == [0, 3, 0, 0, 0, 2]
    assert sympy.Poly([2, 0, 0, 0, 3, 3], x, modulus=5).is_irreducible
    fm11 = sympy.Poly([2, 0, 0, 0, 3, 0], x, modulus=11)
    facs = fm11.factor_list()[1]
    assert all(e == 1 for _, e in facs)
    assert sorted(q.degree() for q, _ in facs) == [1, 1, 1, 2]

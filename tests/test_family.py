import random

import pytest
import sympy

from hermeq.family import (FamilyParams, SearchLimitError, build_kit,
                           catalan, eisenstein_check, family_polys,
                           find_params, generate_certified_pair,
                           properly_nonmonic_certificate, shifted_kit_poly,
                           snc, tilde_polys, verify_kit_identities)
from hermeq.intpoly import (DomainError, degree, discriminant, normalize,
                            poly_compose, poly_divmod_exact, poly_mul,
                            poly_shift, poly_sub)
from recheck import paper_pair

X = sympy.symbols("x")


def series_kit_k(n):
    # independent route: Catalan series from the closed form
    # (1 - sqrt(1-4X)) / (2X), then the h/k construction in sympy
    order = 2 * n + 2
    c_series = sympy.series((1 - sympy.sqrt(1 - 4 * X)) / (2 * X), X, 0, order).removeO()
    a = sympy.Poly([c_series.coeff(X, i) for i in reversed(range(n - 1))], X)
    comp = a.as_expr().subs(X, X - X ** 2)
    num = sympy.Poly(sympy.expand((1 - X) * comp - 1), X)
    h = sympy.Poly(sympy.div(num, sympy.Poly(X ** (n - 1), X))[0], X)
    k = sympy.expand(-h.as_expr().subs(X, 1 - X))
    kp = sympy.Poly(k, X)
    return [int(kp.coeff_monomial(X ** i)) for i in range(n - 1)]


def test_catalan_values():
    assert catalan(0) == 1
    assert [catalan(i) for i in range(1, 5)] == [1, 2, 5, 14]


def test_catalan_rejects_negative():
    with pytest.raises(DomainError):
        catalan(-1)


def test_catalan_series_truncation_identity():
    # X a^2 - a + 1 = 0 mod X^(n-1) for the degree n-2 truncation a
    for n in range(4, 11):
        a = [catalan(i) for i in range(n - 1)]
        r = normalize(poly_sub([0] + poly_mul(a, a), poly_sub(a, [1])))
        assert not normalize(r[:n - 1])


def test_kit_quartic_values():
    kit = build_kit(4)
    assert kit.k == [1, 2, 2]
    assert kit.b == [5, 4, 4]
    assert kit.h == [-5, 6, -2]


def test_kit_quintic_k():
    assert build_kit(5).k == [1, 3, 5, 5]


def test_kit_degrees_and_constant():
    for n in range(4, 11):
        kit = build_kit(n)
        assert degree(kit.b) == degree(kit.h) == degree(kit.k) == n - 2
        assert kit.k[0] == 1


def test_kit_coefficients_positive():
    for n in range(2, 11):
        assert all(co > 0 for co in build_kit(n).k)


def test_kit_small_shifted_values():
    # the shifted polynomials for n = 2, 3; the X+2 value follows from the
    # recursion X shifted(3) + shifted(2) = C_1 (X+1)^2
    assert shifted_kit_poly(2) == [1]
    assert shifted_kit_poly(3) == [2, 1]


def test_kit_identities_sweep():
    for n in range(4, 11):
        report = verify_kit_identities(build_kit(n))
        assert all(report.values()), (n, report)


def test_kit_recursion_as_division():
    # k for n+1 recovered by exact division from k for n
    for n in range(4, 10):
        kn = build_kit(n).k
        target = poly_sub(poly_shift([catalan(n - 1)], n), kn)
        q, r = poly_divmod_exact(target, [-1, 1])
        assert r == []
        assert q == build_kit(n + 1).k


def test_kit_no_rational_root():
    from fractions import Fraction
    for n in range(4, 11):
        k = build_kit(n).k
        lead = k[-1]
        cands = set()
        for d in range(1, abs(lead) + 1):
            if lead % d == 0:
                cands.add(Fraction(1, d))
                cands.add(Fraction(-1, d))
        for cand in cands:
            val = sum(co * cand ** i for i, co in enumerate(k))
            assert val != 0


def test_kit_matches_series_oracle():
    assert build_kit(4).k == series_kit_k(4)
    assert build_kit(5).k == series_kit_k(5)


def test_family_polys_quartic_values():
    f, g, rec = family_polys(4, 1, 2)
    assert f == [2, 4, 4, 0, 1]
    assert g == [22, 12, 12, -8, 1]


def test_family_polys_shape():
    rng = random.Random(77)
    for _ in range(15):
        n = rng.randint(4, 7)
        c = rng.choice([1, 2, 3, 5, 89])
        t = rng.choice([2, 3, 5, 7, 11])
        f, g, _ = family_polys(n, c, t)
        assert f[-1] == c and g[-1] == c
        assert f[0] == t


def test_family_fg_relation():
    rng = random.Random(78)
    for _ in range(10):
        n = rng.randint(4, 7)
        c = rng.choice([1, 2, 5])
        t = rng.choice([2, 3, 7])
        ft, gt = tilde_polys(n, c, t)
        assert poly_compose(gt, [0, 1, -1]) == poly_mul(ft, poly_compose(ft, [1, -1]))


def test_family_tilde_consistency():
    # f = c^(1-n) ftilde(cX)
    for (n, c, t) in [(4, 3, 2), (5, 2, 7), (6, 5, 3)]:
        f, g, _ = family_polys(n, c, t)
        ft, gt = tilde_polys(n, c, t)
        scale = c ** (n - 1)
        comp = poly_compose(ft, [0, c])
        assert all(v % scale == 0 for v in comp)
        assert [v // scale for v in comp] == f
        comp = poly_compose(gt, [0, c])
        assert [v // scale for v in comp] == g


def test_family_polys_refuses_a_low_degree_before_zero_parameters():
    with pytest.raises(DomainError, match="n >= 4"):
        family_polys(3, 0, 0)
    for c, t in ((0, 3), (3, 0)):
        with pytest.raises(DomainError, match="nonzero"):
            family_polys(4, c, t)


def test_family_polys_match_the_formulas_at_negative_parameters():
    for n, c, t in ((4, -3, 2), (5, -2, -7), (6, -89, 13), (7, 5, -3)):
        assert family_polys(n, c, t)[:2] == paper_pair(n, c, t)


def test_eisenstein():
    assert eisenstein_check([2, 4, 4, 0, 1], 2)
    assert not eisenstein_check([1, 0, 1], 2)
    assert not eisenstein_check([4, 4, 0, 1], 2)  # 4 = 2^2 kills the constant
    with pytest.raises(DomainError):
        eisenstein_check([2, 4, 1], 4)


def test_eisenstein_family_sweep():
    for (n, c, t) in [(4, 1, 2), (4, 89, 13), (5, 1, 23), (6, 1, 43)]:
        f, g, _ = family_polys(n, c, t)
        assert eisenstein_check(f, t)
        assert eisenstein_check(g, t)


def test_snc_values():
    assert snc(4, 13) == [1, 3, 4, 9, 10, 12]
    with pytest.raises(DomainError):
        snc(4, 12)


def test_snc_size_bound():
    # for c = 1 mod n the power residues form a proper subgroup
    for (n, c) in [(4, 13), (4, 89), (5, 11), (5, 31), (6, 13)]:
        assert c % n == 1
        assert len(snc(n, c)) <= 2 * (c - 1) // n < c - 1


def test_nonmonic_certificate_definition():
    # t mod c inside the obstruction set -> no certificate
    s = snc(4, 13)
    f_in, _, _ = family_polys(4, 13, 3)   # 3 in S_{4,13}
    assert 3 in s
    assert not properly_nonmonic_certificate(f_in, 13)
    f_out, _, _ = family_polys(4, 13, 2)  # 2 not in S_{4,13}
    assert 2 not in s
    assert properly_nonmonic_certificate(f_out, 13)


def test_nonmonic_certificate_needs_constant_reduction():
    assert not properly_nonmonic_certificate([2, 1, 0, 0, 13], 13)


def test_find_params_quartic():
    params = find_params(4, monic=True)
    assert (params.p, params.c, params.t) == (11, 1, 2)
    params = find_params(4)
    assert (params.p, params.c, params.t) == (11, 89, 13)


def test_find_params_rejects_seven():
    # 7 would be skipped: the degree-5 kit polynomial has the root 1 mod 7
    from hermeq.intpoly import roots_mod_p, poly_eval
    k5 = build_kit(5).k
    assert poly_eval(k5, 1) == 14
    assert 1 in roots_mod_p(k5, 7)
    assert not roots_mod_p(k5, 11)


def test_find_params_residue():
    # t = -C_3^(-1) = -5^(-1) = 2 mod 11
    params = find_params(4, monic=True)
    assert params.t % params.p == 2


def test_find_params_search_limit():
    with pytest.raises(SearchLimitError):
        find_params(4, search_limit=10)


def test_find_params_catalan_past_the_search_limit():
    # C_19 = 1767263190: the range of candidate p is empty
    with pytest.raises(SearchLimitError) as exc:
        find_params(20)
    assert str(exc.value) == ("no usable p with C_19 = 1767263190 < p <= "
                              "1000000")
    with pytest.raises(SearchLimitError, match="C_3 = 5 < p <= 5$"):
        find_params(4, search_limit=5)
    # 6 .. 10 tried: 7 is the only prime, and the degree-5 kit has a root
    with pytest.raises(SearchLimitError, match="C_3 = 5 < p <= 10$"):
        find_params(4, search_limit=10)


def test_generate_certified_pair_quartic_monic():
    bundle = generate_certified_pair(4, FamilyParams(4, 11, 1, 2))
    assert bundle["f"] == [2, 4, 4, 0, 1]
    assert bundle["properly_nonmonic"] is None
    assert len(bundle["witness"]) == 4


def test_generate_certified_pair_quartic_nonmonic():
    bundle = generate_certified_pair(4, FamilyParams(4, 11, 89, 13))
    assert bundle["properly_nonmonic"] is True
    assert bundle["f"][-1] == 89


def test_generate_certified_pair_quintic():
    bundle = generate_certified_pair(5, find_params(5, monic=True))
    assert bundle["t"] == 23
    assert discriminant(bundle["f"]) == discriminant(bundle["g"])


def test_generate_rejects_bad_params():
    with pytest.raises(DomainError):
        generate_certified_pair(4, FamilyParams(4, 11, 1, 3))
    with pytest.raises(DomainError):
        generate_certified_pair(4, FamilyParams(4, 7, 1, 2))


def test_build_kit_rejects_tiny():
    with pytest.raises(DomainError):
        build_kit(1)

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from hermeq import intpoly
from hermeq.algebra import (AlgElement, EtaleAlgebra, _int_nth_root, _lines,
                            colon_and_kappa_search, colon_lattice, dual_lattice,
                            elem_mul, endo_ring, invariant_order, is_invertible,
                            is_order, lattice_change_of_basis, lattice_equal,
                            lattice_mul, lattice_norm, make_lattice, norm_form,
                            trace_and_norm, trace_form_disc, unit_lattice,
                            zeta_lattice)
from hermeq.forms import DecomposableForm, hermite_form
from hermeq.intpoly import DomainError


def rand_sf_poly(rng, maxdeg=5, monic=False, primitive=False):
    while True:
        n = rng.randint(2, maxdeg)
        lead = 1 if monic else rng.choice([1, 2, 3, 5, -2, 6])
        f = [rng.randint(-8, 8) for _ in range(n)] + [lead]
        if intpoly.discriminant(f) == 0:
            continue
        if primitive and intpoly.content(f) != 1:
            continue
        return f


def descending_power_lattice(algebra):
    n = algebra.n
    return make_lattice(algebra,
                        [[int(j == n - 1 - i) for j in range(n)]
                         for i in range(n)])


GAUSS = [1, 0, 1]  # X^2 + 1
CUBIC = [7, 5, 3, 2]  # 2X^3 + 3X^2 + 5X + 7


def test_elem_mul_identity():
    a = EtaleAlgebra(GAUSS)
    x = a.element([3, 5])
    assert x * a.one() == x


def test_elem_mul_gaussian():
    a = EtaleAlgebra(GAUSS)
    al = a.alpha()
    assert (al * al).coords == (Fraction(-1), Fraction(0))


def test_elem_mul_reducible():
    # X(X^2-2): alpha is a zero divisor, alpha * alpha^2 = 2 alpha
    a = EtaleAlgebra([0, -2, 0, 1])
    al = a.alpha()
    assert al * (al * al) == 2 * al


def rem_reference(p, g):
    # the coordinates of p(alpha): the remainder of p modulo g over Q
    n = len(g) - 1
    r = [Fraction(c) for c in p] + [Fraction(0)] * n
    for k in range(len(r) - 1, n - 1, -1):
        q = r[k] / g[-1]
        for i in range(n + 1):
            r[k - n + i] -= q * g[i]
    return tuple(r[:n])


def test_elem_mul_and_from_poly_match_polynomial_remainder():
    rng = random.Random(113)
    algebras = [[0, -2, 0, 1], [0, 6, 0, -6, 0, 3]]  # reducible
    for n in range(2, 7):
        for lead in (1, 2, -3, 5, 6, -6):
            while True:
                g = [rng.randint(-7, 7) for _ in range(n)] + [lead]
                if intpoly.discriminant(g) != 0:
                    break
            algebras.append(g)
    rand = lambda m: [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(m)]
    for g in algebras:
        a = EtaleAlgebra(g)
        n = a.n
        for _ in range(3):
            x, y = rand(n), rand(n)
            xy = [sum(x[i] * y[k - i] for i in range(n) if 0 <= k - i < n)
                  for k in range(2 * n - 1)]
            p = rand(rng.randint(2 * n, 3 * n))  # degree >= 2n - 1
            for got, want in ((elem_mul(a.element(x), a.element(y)), xy),
                              (a.from_poly(p), p)):
                assert got.coords == rem_reference(want, g), g
                assert got.den > 0 and gcd(got.den, *got.num) == 1


def test_equal_elements_from_different_inputs_are_equal():
    a = EtaleAlgebra(CUBIC)
    forms = [a.element([Fraction(1, 2), 1, Fraction(-4, 3)]),
             a.element([Fraction(3, 6), Fraction(5, 5), Fraction(-8, 6)]),
             AlgElement(a, [3, 6, -8], 6),
             AlgElement(a, [Fraction(3, 2), 3, -4], 3),
             a.element([1, 2, Fraction(-8, 3)]) * Fraction(1, 2)]
    for x in forms:
        assert x == forms[0] and hash(x) == hash(forms[0])
        assert (x.num, x.den) == ((3, 6, -8), 6)


def test_elem_mul_algebra_mismatch():
    a = EtaleAlgebra(GAUSS)
    b = EtaleAlgebra([-2, 0, 1])
    with pytest.raises(DomainError):
        elem_mul(a.alpha(), b.alpha())


def test_algebra_rejects_bad_input():
    with pytest.raises(DomainError):
        EtaleAlgebra([1, 1])  # degree 1
    with pytest.raises(DomainError):
        EtaleAlgebra([1, 2, 1])  # (X+1)^2 not squarefree


def test_trace_and_norm():
    a = EtaleAlgebra(GAUSS)
    assert trace_and_norm(a.one()) == (2, 1)
    assert trace_and_norm(a.alpha()) == (0, 1)
    b = EtaleAlgebra([-2, 0, 1])
    assert trace_and_norm(b.alpha()) == (0, -2)
    c = EtaleAlgebra(CUBIC)
    assert trace_and_norm(c.one()) == (3, 1)


def test_from_poly():
    a = EtaleAlgebra(GAUSS)
    x = a.from_poly([1, 2, 3])  # 1 + 2a + 3a^2 = -2 + 2a
    assert x.coords == (Fraction(-2), Fraction(2))


def test_zeta_lattice_monic_is_unit():
    rng = random.Random(61)
    for _ in range(10):
        f = rand_sf_poly(rng, monic=True)
        n = intpoly.degree(f)
        a = EtaleAlgebra(f)
        for k in range(n):
            assert zeta_lattice(f, k, a) == unit_lattice(a)


def test_zeta_lattice_cubic_bases():
    r = zeta_lattice(CUBIC, 0)
    assert [list(map(int, row)) for row in r.basis] == [
        [1, 0, 0], [0, 2, 0], [0, 3, 2]]
    i1 = zeta_lattice(CUBIC, 1)
    assert [list(map(int, row)) for row in i1.basis] == [
        [1, 0, 0], [0, 1, 0], [0, 3, 2]]


def test_zeta_lattice_range_errors():
    with pytest.raises(DomainError):
        zeta_lattice(CUBIC, 3)
    with pytest.raises(DomainError):
        zeta_lattice(CUBIC, -1)
    with pytest.raises(DomainError):
        zeta_lattice([1, 2, 1], 0)  # discriminant zero


def test_lattice_norm_basics():
    a = EtaleAlgebra(GAUSS)
    u = unit_lattice(a)
    assert lattice_norm(u, u) == 1
    doubled = make_lattice(a, [[2, 0], [0, 2]])
    assert lattice_norm(doubled, u) == 4


def test_lattice_norm_invariant_ideals():
    rng = random.Random(67)
    for _ in range(20):
        f = rand_sf_poly(rng)
        n = intpoly.degree(f)
        a = EtaleAlgebra(f)
        r = zeta_lattice(f, 0, a)
        for k in range(n):
            assert lattice_norm(zeta_lattice(f, k, a), r) == \
                Fraction(1, abs(f[-1]) ** k)


def test_lattice_mul_module_property():
    rng = random.Random(71)
    for _ in range(10):
        f = rand_sf_poly(rng)
        n = intpoly.degree(f)
        a = EtaleAlgebra(f)
        r = zeta_lattice(f, 0, a)
        k = rng.randrange(n)
        ik = zeta_lattice(f, k, a)
        assert lattice_mul(ik, r) == ik


def test_lattice_mul_cubic_square():
    i1 = zeta_lattice(CUBIC, 1)
    i2 = zeta_lattice(CUBIC, 2)
    assert lattice_mul(i1, i1) == i2


def test_ideal_powers():
    rng = random.Random(73)
    for _ in range(50):
        f = rand_sf_poly(rng, primitive=True)
        n = intpoly.degree(f)
        a = EtaleAlgebra(f)
        i1 = zeta_lattice(f, 1, a)
        acc = zeta_lattice(f, 0, a)
        for k in range(1, n):
            acc = lattice_mul(acc, i1)
            assert acc == zeta_lattice(f, k, a)


def test_inverse_different_relation():
    # I_f(n-2) * I_f(1) = I_f(n-1) for degree >= 3
    rng = random.Random(79)
    for _ in range(10):
        f = rand_sf_poly(rng)
        n = intpoly.degree(f)
        if n < 3:
            continue
        a = EtaleAlgebra(f)
        assert lattice_mul(zeta_lattice(f, n - 2, a), zeta_lattice(f, 1, a)) \
            == zeta_lattice(f, n - 1, a)


def test_lattice_equal_and_change_of_basis():
    a = EtaleAlgebra(CUBIC)
    l = zeta_lattice(CUBIC, 0, a)
    assert lattice_equal(l, l)
    assert lattice_change_of_basis(l, l) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    perm = make_lattice(a, [l.basis[2], l.basis[0], l.basis[1]])
    assert lattice_equal(l, perm)
    assert lattice_change_of_basis(perm, l) == [
        [0, 0, 1], [1, 0, 0], [0, 1, 0]]
    u = unit_lattice(a)
    doubled = make_lattice(a, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert not lattice_equal(u, doubled)
    assert lattice_change_of_basis(u, doubled) is None


def test_endo_ring_monic():
    f = [-1, -1, 0, 1]  # X^3 - X - 1, monic irreducible
    a = EtaleAlgebra(f)
    u = unit_lattice(a)
    assert endo_ring(u) == u


def test_endo_ring_of_top_ideal_is_invariant_order():
    rng = random.Random(83)
    for _ in range(15):
        f = rand_sf_poly(rng, primitive=True)
        n = intpoly.degree(f)
        a = EtaleAlgebra(f)
        assert endo_ring(zeta_lattice(f, n - 1, a)) == zeta_lattice(f, 0, a)


def test_endo_ring_imprimitive():
    # f = 2 f' with f' primitive: multipliers of I_f(n-1) form R_{f'}
    fp = [7, 5, 3, 2]
    f = intpoly.poly_scale(fp, 2)
    a = EtaleAlgebra(f)
    top = zeta_lattice(f, intpoly.degree(f) - 1, a)
    assert endo_ring(top) == zeta_lattice(fp, 0, a)


def test_invariant_order_is_ring():
    rng = random.Random(89)
    for _ in range(15):
        f = rand_sf_poly(rng)
        assert is_order(zeta_lattice(f, 0))


def test_trace_form_disc_of_invariant_order():
    rng = random.Random(97)
    for _ in range(20):
        f = rand_sf_poly(rng)
        assert trace_form_disc(zeta_lattice(f, 0)) == intpoly.discriminant(f)


def test_trace_form_disc_scaling_law():
    # disc of any basis of L = N_O(L)^2 disc(O)
    rng = random.Random(101)
    f = CUBIC
    a = EtaleAlgebra(f)
    r = zeta_lattice(f, 0, a)
    for _ in range(10):
        rows = [[Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
                 for _ in range(3)] for _ in range(3)]
        try:
            l = make_lattice(a, rows)
        except DomainError:
            continue
        assert trace_form_disc(l) == lattice_norm(l, r) ** 2 * trace_form_disc(r)


def test_dual_of_dual():
    a = EtaleAlgebra(CUBIC)
    for k in range(3):
        l = zeta_lattice(CUBIC, k, a)
        assert dual_lattice(dual_lattice(l)) == l


def test_norm_form_quadratics():
    a = EtaleAlgebra(GAUSS)
    u = unit_lattice(a)
    assert norm_form(u, u) == DecomposableForm(2, {(2, 0): 1, (0, 2): 1})
    b = EtaleAlgebra([-2, 0, 1])
    ub = unit_lattice(b)
    assert norm_form(ub, ub) == DecomposableForm(2, {(2, 0): 1, (0, 2): -2})


def test_norm_form_requires_order():
    a = EtaleAlgebra(GAUSS)
    u = unit_lattice(a)
    # (1/2)Z + Za is not closed under multiplication
    not_ring = make_lattice(a, [[Fraction(1, 2), 0], [0, 1]])
    with pytest.raises(DomainError):
        norm_form(u, not_ring)


def test_norm_form_is_hermite_form_up_to_sign():
    rng = random.Random(103)
    for _ in range(50):
        f = rand_sf_poly(rng)
        n = intpoly.degree(f)
        a = EtaleAlgebra(f)
        r = zeta_lattice(f, 0, a)
        nf = norm_form(descending_power_lattice(a), r)
        hf = hermite_form(f)
        assert nf == hf or nf == -hf


def test_power_lattice_membership():
    # p(X) = X s(cX) has all powers p(alpha)^k, k < n, in the power lattice
    rng = random.Random(107)
    for _ in range(25):
        f = rand_sf_poly(rng)
        n = intpoly.degree(f)
        c = f[-1]
        a = EtaleAlgebra(f)
        top = zeta_lattice(f, n - 1, a)
        s = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        scx = [si * c ** i for i, si in enumerate(s)]
        p = [0] + scx  # X * s(cX)
        x = a.from_poly(p)
        for k in range(n):
            assert top.contains(x ** k)


def test_is_invertible_iff_primitive():
    rng = random.Random(109)
    prim = done_imprim = 0
    while prim < 10 or done_imprim < 10:
        f = rand_sf_poly(rng)
        n = intpoly.degree(f)
        a = EtaleAlgebra(f)
        r = zeta_lattice(f, 0, a)
        k = rng.randint(1, n - 1)
        flag = is_invertible(zeta_lattice(f, k, a), r)
        if intpoly.content(f) == 1:
            assert flag
            prim += 1
        else:
            assert not flag
            done_imprim += 1


def test_kappa_search_trivial():
    a = EtaleAlgebra(GAUSS)
    u = unit_lattice(a)
    assert colon_and_kappa_search(u, u, 5) == a.one()
    tripled = make_lattice(a, [[3, 0], [0, 3]])
    k = colon_and_kappa_search(tripled, u, 5)
    assert k == 3 * a.one()


def test_kappa_search_nontrivial_generator():
    # (1+i) Z[i] has index 2; the search should recover 1+i up to sign/unit
    a = EtaleAlgebra(GAUSS)
    u = unit_lattice(a)
    l = make_lattice(a, [[1, 1], [-1, 1]])
    k = colon_and_kappa_search(l, u, 5)
    assert k is not None
    scaled = make_lattice(a, [list((k * b).coords) for b in u.basis_elements()])
    assert scaled == l


def test_kappa_search_inconclusive():
    # norms in Z[i] are sums of two squares, never 3, and any kappa here
    # would need |N(kappa)| = 3: the search must come back empty-handed
    a = EtaleAlgebra(GAUSS)
    u = unit_lattice(a)
    tri = make_lattice(a, [[3, 0], [0, 1]])
    assert colon_and_kappa_search(tri, u, 6) is None


def test_kappa_search_rejects_negative_bound():
    # checked before the equal-lattice and scalar shortcuts
    a = EtaleAlgebra(GAUSS)
    u = unit_lattice(a)
    with pytest.raises(DomainError):
        colon_and_kappa_search(u, u, -1)
    assert colon_and_kappa_search(u, u, 0) == a.one()


def test_int_nth_root_is_exact_for_large_values():
    big = 10 ** 20 + 7
    assert _int_nth_root(big ** 4, 4) == big
    assert _int_nth_root(big ** 2, 2) == big
    assert _int_nth_root(10 ** 400, 4) == 10 ** 100
    assert _int_nth_root(10 ** 400, 2) == 10 ** 200
    assert _int_nth_root(10 ** 400, 3) is None
    assert _int_nth_root(big ** 4 + 1, 4) is None
    assert _int_nth_root(big ** 2 - 1, 2) is None
    assert _int_nth_root(17, 2) is None
    assert _int_nth_root(0, 5) == 0 and _int_nth_root(1, 3) == 1
    assert _int_nth_root(-8, 3) is None


def box_reference(n, bound):
    # one of each +- pair of the nonzero vectors of the box, by sup-norm
    # and then lexicographically
    vecs = [z for z in itertools.product(range(-bound, bound + 1), repeat=n)
            if any(z) and next(v for v in z if v) > 0]
    return sorted(vecs, key=lambda z: (max(map(abs, z)), z))


def test_line_walk_visits_the_box_in_shell_then_lex_order():
    for n in range(2, 6):
        for bound in range(1, 4):
            walked = [p + (t,) for p, ts in _lines(n, bound) for t in ts]
            assert walked == box_reference(n, bound), (n, bound)


def first_hit(l1, l2, bound):
    # brute-force reference: the exact norm of each candidate by
    # determinant, then the lattice check, in the order of box_reference
    a = l1.algebra
    col = colon_lattice(l1, l2)
    want = lattice_norm(l1, l2)
    for z in box_reference(a.n, bound):
        kappa = AlgElement(a, [Fraction(sum(zi * row[j]
                                            for zi, row in zip(z, col.hnf)),
                                        col.denominator)
                               for j in range(a.n)])
        if abs(trace_and_norm(kappa)[1]) != want:
            continue
        if make_lattice(a, [list((kappa * b).coords)
                            for b in l2.basis_elements()]) == l1:
            return -kappa if next(c for c in kappa.coords if c) < 0 else kappa
    return None


def test_kappa_search_returns_the_first_hit_of_the_box():
    # [-5, -3, 4, -2, 2] hits only in the inverse orientation, [2, -2, 5,
    # -5, 3] only in the direct one, and [4, -1, 0, 5, 2] in neither
    hits = 0
    for f in ([2, -2, 5, -5, 3], [-5, -3, 4, -2, 2], [3, -4, 4, -2, 2],
              [4, -1, 0, 5, 2]):
        a = EtaleAlgebra(f)
        order, ideal = zeta_lattice(f, 0, a), zeta_lattice(f, 1, a)
        for l1, l2 in ((ideal, order), (order, ideal)):
            want = first_hit(l1, l2, 3)
            assert colon_and_kappa_search(l1, l2, 3) == want, f
            hits += want is not None
    assert hits == 4

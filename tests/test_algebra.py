import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from hermeq import intpoly
from hermeq.algebra import (MAX_SEARCH_BOUND, SCAN_PRIME, AlgElement,
                            EtaleAlgebra, IdealLattice, _evaluators,
                            _norm_hits, colon_and_kappa_search, colon_lattice,
                            elem_mul, invariant_order, is_order,
                            lattice_equal, lattice_mul, lattice_norm,
                            norm_form, trace_form_disc, zeta_lattice)
from hermeq.forms import DecomposableForm, hermite_form, unpack_exponents
from hermeq.intmat import hnf_lattice, inverse_rational, mat_mul
from hermeq.intpoly import DomainError
from oracles import (basis_elements, dual_lattice, form_value, lines, power,
                     power_sums, trace_and_norm, unit_lattice)


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
    return IdealLattice(algebra,
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
    rand = lambda m: [rng.randint(-9, 9) for _ in range(m)]
    for g in algebras:
        a = EtaleAlgebra(g)
        n = a.n
        for _ in range(3):
            x, y = rand(n), rand(n)
            dx, dy = rng.randint(1, 4), rng.randint(1, 4)
            xy = [Fraction(sum(x[i] * y[k - i] for i in range(n)
                               if 0 <= k - i < n), dx * dy)
                  for k in range(2 * n - 1)]
            p = rand(rng.randint(2 * n, 3 * n))  # degree >= 2n - 1
            for got, want in ((elem_mul(AlgElement(a, x, dx),
                                        AlgElement(a, y, dy)), xy),
                              (a.from_poly(p), p)):
                assert got.coords == rem_reference(want, g), g
                assert got.den > 0 and gcd(got.den, *got.num) == 1


def test_equal_elements_from_different_inputs_are_equal():
    a = EtaleAlgebra(CUBIC)
    forms = [AlgElement(a, [3, 6, -8], 6),
             AlgElement(a, [6, 12, -16], 12),
             AlgElement(a, [-3, -6, 8], -6),
             AlgElement(a, [1, 0, 0], 2) + AlgElement(a, [0, 3, -4], 3),
             AlgElement(a, [3, 6, -8], 3) * AlgElement(a, [1, 0, 0], 2)]
    for x in forms:
        assert x == forms[0] and hash(x) == hash(forms[0])
        assert (x.num, x.den) == ((3, 6, -8), 6)


def test_fraction_coordinates_are_refused():
    # integer coordinates over a denominator are the one input format
    a = EtaleAlgebra(CUBIC)
    half = Fraction(1, 2)
    for build in (lambda: a.element([half, 1, 0]),
                  lambda: AlgElement(a, [1, 2, 3], half),
                  lambda: a.from_poly([1, half]),
                  lambda: a.one() * half,
                  lambda: IdealLattice(a, [[half, 0, 0], [0, 1, 0],
                                           [0, 0, 1]])):
        with pytest.raises(TypeError):
            build()


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
    assert (r.rows, r.denominator) == ([[1, 0, 0], [0, 2, 0], [0, 3, 2]], 1)
    i1 = zeta_lattice(CUBIC, 1)
    assert (i1.rows, i1.denominator) == ([[1, 0, 0], [0, 1, 0], [0, 3, 2]],
                                         1)


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
    doubled = IdealLattice(a, [[2, 0], [0, 2]])
    assert lattice_norm(doubled, u) == 4


def test_ideal_lattice_rejects_a_singular_basis():
    a = EtaleAlgebra(GAUSS)
    assert IdealLattice(a, [[2, 1], [0, 3]]).hnf == ((2, 1), (0, 3))
    for rows in ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[0, 0], [3, 1]]):
        with pytest.raises(DomainError, match="singular"):
            IdealLattice(a, rows)


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


def test_lattice_mul_matches_products_of_elements():
    # the integer-row product against the n^2 products b_i c_j taken as
    # AlgElements, each reduced on its own, over their least common
    # denominator; nonmonic and reducible g, denominators above 1
    rng = random.Random(83)
    fractional = 0
    algebras = [[-3, 1, 2], [7, 5, 3, 2], [2, -1, 0, 5, 3],
                intpoly.poly_mul([-1, 2], [1, 0, 3]),  # (2X - 1)(3X^2 + 1)
                intpoly.poly_mul([1, 1], [-2, 0, 0, 5])]
    for g in algebras:
        a = EtaleAlgebra(g)
        n = a.n
        for _ in range(4):
            pair = []
            while len(pair) < 2:
                rows = [[rng.randint(-6, 6) for _ in range(n)]
                        for _ in range(n)]
                if hnf_lattice(rows)[1] == n:
                    pair.append(IdealLattice(a, rows, rng.randint(2, 12)))
            l1, l2 = pair
            prods = [x * y for x in basis_elements(l1)
                     for y in basis_elements(l2)]
            d = lcm(*(x.den for x in prods))
            h, _ = hnf_lattice([[c * (d // x.den) for c in x.num]
                                for x in prods])
            want = IdealLattice(a, h, d)
            got = lattice_mul(l1, l2)
            assert got.rows == want.rows, g
            assert got.denominator == want.denominator, g
            assert got.hnf == want.hnf, g
            fractional += got.denominator > 1
    assert fractional >= 15


def _scaled_by_elements(l, kappa):
    # kappa * l on the basis kappa * b_i, the products taken one by one
    prods = [kappa * x for x in basis_elements(l)]
    d = lcm(*(x.den for x in prods))
    return IdealLattice(l.algebra, [[c * (d // x.den) for c in x.num]
                                    for x in prods], d)


def test_scaled_and_is_order_match_the_element_route():
    # scaled and is_order go through the lattice product; the reference
    # multiplies basis elements one by one.  Nonmonic and reducible g, the
    # orders R_f and Z + m R_f beside the ideals I_f(k) and random lattices,
    # and kappa a zero divisor at times, which both routes refuse alike
    rng = random.Random(79)
    orders = others = refused = 0
    algebras = [[-3, 1, 2], [7, 5, 3, 2], [2, -1, 0, 5, 3], [1, 0, 1, 0, 1],
                [0, 1, 0, 1], intpoly.poly_mul([-1, 2], [1, 0, 3]),
                intpoly.poly_mul([1, 1], [-2, 0, 0, 5])]
    for g in algebras:
        a = EtaleAlgebra(g)
        n = a.n
        r = invariant_order(g, a)
        m = rng.randint(2, 5)
        lattices = [zeta_lattice(g, k, a) for k in range(n)]
        lattices.append(IdealLattice(a, r.rows[:1] + [
            [m * c for c in row] for row in r.rows[1:]], r.denominator))
        while len(lattices) < n + 5:
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            if hnf_lattice(rows)[1] == n:
                lattices.append(IdealLattice(a, rows, rng.randint(1, 4)))
        for l in lattices:
            b = basis_elements(l)
            closed = l.contains(a.one()) and all(
                l.contains(x * y) for x in b for y in b)
            assert is_order(l) == closed, (g, l)
            orders += closed
            others += not closed
            kappas = [AlgElement(a, [rng.randint(-2, 2) for _ in range(n)],
                                 rng.randint(1, 6)) for _ in range(3)]
            if g == [0, 1, 0, 1]:  # X^3 + X: alpha (alpha^2 + 1) = 0
                kappas += [a.alpha(), a.from_poly([1, 0, 1])]
            for kappa in kappas + [a.zero()]:
                try:
                    want = _scaled_by_elements(l, kappa)
                except DomainError as exc:
                    with pytest.raises(DomainError, match=str(exc)):
                        l.scaled(kappa)
                    refused += 1
                    continue
                got = l.scaled(kappa)
                assert (got.rows, got.denominator) == \
                    (want.rows, want.denominator), (g, l, kappa)
    assert orders >= 15 and others >= 35 and refused >= 80
    with pytest.raises(DomainError, match="algebra mismatch"):
        r.scaled(EtaleAlgebra(GAUSS).one())


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
    # the change of basis U, basis(l1) = U basis(l2), is unimodular exactly
    # when the lattices are equal
    def change_of_basis(l1, l2):
        # (rows1 / d1) (rows2 / d2)^-1 = (d2 / d1) rows1 rows2^-1
        return [[x * l2.denominator / l1.denominator for x in row]
                for row in mat_mul(l1.rows, inverse_rational(l2.rows))]

    a = EtaleAlgebra(CUBIC)
    l = zeta_lattice(CUBIC, 0, a)
    assert lattice_equal(l, l)
    perm = IdealLattice(a, [l.rows[2], l.rows[0], l.rows[1]], l.denominator)
    assert lattice_equal(l, perm)
    assert change_of_basis(perm, l) == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    u = unit_lattice(a)
    doubled = IdealLattice(a, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert not lattice_equal(u, doubled)
    assert change_of_basis(u, doubled) == [
        [Fraction(1, 2) * (i == j) for j in range(3)] for i in range(3)]


def test_endo_ring_monic():
    # the multiplier ring {x : x L inside L} is the colon (L : L)
    f = [-1, -1, 0, 1]  # X^3 - X - 1, monic irreducible
    a = EtaleAlgebra(f)
    u = unit_lattice(a)
    assert colon_lattice(u, u) == u


def test_endo_ring_of_top_ideal_is_invariant_order():
    rng = random.Random(83)
    for _ in range(15):
        f = rand_sf_poly(rng, primitive=True)
        n = intpoly.degree(f)
        a = EtaleAlgebra(f)
        top = zeta_lattice(f, n - 1, a)
        assert colon_lattice(top, top) == zeta_lattice(f, 0, a)


def test_endo_ring_imprimitive():
    # f = 2 f' with f' primitive: multipliers of I_f(n-1) form R_{f'}
    fp = [7, 5, 3, 2]
    f = intpoly.poly_scale(fp, 2)
    a = EtaleAlgebra(f)
    top = zeta_lattice(f, intpoly.degree(f) - 1, a)
    assert colon_lattice(top, top) == zeta_lattice(fp, 0, a)


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
        # entries p / q with q in 1, 2, 3, as integer rows over 6
        rows = [[rng.randint(-6, 6) * 6 // rng.choice([1, 1, 2, 3])
                 for _ in range(3)] for _ in range(3)]
        try:
            l = IdealLattice(a, rows, 6)
        except DomainError:
            continue
        assert trace_form_disc(l) == lattice_norm(l, r) ** 2 * trace_form_disc(r)


def test_dual_of_dual():
    a = EtaleAlgebra(CUBIC)
    for k in range(3):
        l = zeta_lattice(CUBIC, k, a)
        assert dual_lattice(dual_lattice(l)) == l


def test_colon_lattice_matches_the_trace_dual_route():
    # colon_lattice solves x M(b) in l1 for the basis b of l2 directly; the
    # duality (l1 : l2) = dual(dual(l1) l2) reaches it through the trace form
    rng = random.Random(1307)
    algebras = [[0, -2, 0, 1]]  # X^3 - 2X, reducible
    for n in range(2, 6):
        for lead in (1, -1, 2, -3, 5):
            while True:
                g = [rng.randint(-6, 6) for _ in range(n)] + [lead]
                if intpoly.discriminant(g) != 0:
                    break
            algebras.append(g)
    for g in algebras:
        a = EtaleAlgebra(g)
        n = a.n
        lattices = [zeta_lattice(g, rng.randrange(n), a)]
        while len(lattices) < 4:
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            try:
                lattices.append(IdealLattice(a, rows, rng.randint(1, 6)))
            except DomainError:
                pass
        for l1 in lattices:
            for l2 in lattices:  # l1 = l2 included
                col = colon_lattice(l1, l2)
                ref = dual_lattice(lattice_mul(dual_lattice(l1), l2))
                assert (col.denominator, col.hnf) == \
                    (ref.denominator, ref.hnf), (g, l1, l2)


def test_integer_trace_form_matches_multiplication_matrix_traces():
    # trace_and_norm reads the trace off the diagonal of the multiplication
    # matrix, so this route never touches power sums
    import sympy

    rng = random.Random(131)
    algebras = [[0, -2, 0, 1]]  # X^3 - 2X, reducible
    for n in range(2, 7):
        for lead in (1, 2, -3, 5, -6):
            while True:
                g = [rng.randint(-7, 7) for _ in range(n)] + [lead]
                if intpoly.discriminant(g) != 0:
                    break
            algebras.append(g)
    for g in algebras:
        a = EtaleAlgebra(g)
        n = a.n
        tr = lambda x: trace_and_norm(x)[0]
        q = intpoly.scaled_power_sums(g, 2 * n - 2)
        ps = power_sums(g, 2 * n - 2)
        for k in range(2 * n - 1):
            assert type(q[k]) is int
            assert q[k] == g[-1] ** k * ps[k] == \
                g[-1] ** k * tr(power(a.alpha(), k))
        lattices = [zeta_lattice(g, rng.randrange(n), a)]
        while len(lattices) < 3:
            # entries p / q with q in 1, 2, 3, as integer rows over 6
            rows = [[rng.randint(-5, 5) * 6 // rng.choice([1, 1, 2, 3])
                     for _ in range(n)] for _ in range(n)]
            try:
                lattices.append(IdealLattice(a, rows, 6))
            except DomainError:
                pass
        for l in lattices:
            b = basis_elements(l)
            gram = [[tr(x * y) for y in b] for x in b]
            assert trace_form_disc(l) == sympy.Matrix(gram).det()
            d = basis_elements(dual_lattice(l))
            assert [[tr(x * y) for y in b] for x in d] == \
                [[int(i == j) for j in range(n)] for i in range(n)]
            for x in b:
                try:
                    assert x * x.inverse() == 1
                except DomainError:
                    assert trace_and_norm(x)[1] == 0  # a zero divisor
    with pytest.raises(DomainError):  # X^3 + X: alpha (alpha^2 + 1) = 0
        EtaleAlgebra([0, 1, 0, 1]).alpha().inverse()


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
    not_ring = IdealLattice(a, [[1, 0], [0, 2]], 2)
    with pytest.raises(DomainError):
        norm_form(u, not_ring)


def test_norm_form_is_hermite_form_up_to_sign():
    rng = random.Random(103)
    polys = [rand_sf_poly(rng) for _ in range(50)]
    # and seeded degree-6 and degree-7 cases, past rand_sf_poly's degree 5
    for n in (6, 6, 7, 7):
        f = []
        while not f or intpoly.discriminant(f) == 0:
            f = ([rng.randint(-8, 8) for _ in range(n)]
                 + [rng.choice([1, 2, 3, 5, -2, 6])])
        polys.append(f)
    for f in polys:
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
            assert top.contains(power(x, k))


def test_is_invertible_iff_primitive():
    rng = random.Random(109)
    prim = done_imprim = 0
    while prim < 10 or done_imprim < 10:
        f = rand_sf_poly(rng)
        n = intpoly.degree(f)
        a = EtaleAlgebra(f)
        r = zeta_lattice(f, 0, a)
        k = rng.randint(1, n - 1)
        # I_f(k) is invertible over R_f when I_f(k) (R_f : I_f(k)) = R_f
        ik = zeta_lattice(f, k, a)
        flag = lattice_mul(ik, colon_lattice(r, ik)) == r
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
    tripled = IdealLattice(a, [[3, 0], [0, 3]])
    k = colon_and_kappa_search(tripled, u, 5)
    assert k == 3 * a.one()


def test_kappa_search_nontrivial_generator():
    # (1+i) Z[i] has index 2; the search should recover 1+i up to sign/unit
    a = EtaleAlgebra(GAUSS)
    u = unit_lattice(a)
    l = IdealLattice(a, [[1, 1], [-1, 1]])
    k = colon_and_kappa_search(l, u, 5)
    assert k is not None
    assert u.scaled(k) == l


def test_kappa_search_inconclusive():
    # norms in Z[i] are sums of two squares, never 3, and any kappa here
    # would need |N(kappa)| = 3: the search must come back empty-handed
    a = EtaleAlgebra(GAUSS)
    u = unit_lattice(a)
    tri = IdealLattice(a, [[3, 0], [0, 1]])
    assert colon_and_kappa_search(tri, u, 6) is None


def test_kappa_search_rejects_negative_bound():
    # checked before the scalar shortcut, which finds kappa = 1 for equal
    # lattices at any bound
    a = EtaleAlgebra(GAUSS)
    u = unit_lattice(a)
    with pytest.raises(DomainError):
        colon_and_kappa_search(u, u, -1)
    assert colon_and_kappa_search(u, u, 0) == a.one()
    for f in ([-3, 1, 2], [7, 5, 3, 2], [2, -1, 0, 5, 3],
              [1, 1, -2, 0, 0, 5]):
        b = EtaleAlgebra(f)
        for l in (unit_lattice(b), zeta_lattice(f, 0, b),
                  zeta_lattice(f, b.n - 1, b)):
            assert colon_and_kappa_search(l, l, 0) == b.one(), f


def test_kappa_search_rejects_a_bound_over_the_cap():
    a = EtaleAlgebra(GAUSS)
    u = unit_lattice(a)
    with pytest.raises(DomainError, match="MAX_SEARCH_BOUND"):
        colon_and_kappa_search(u, u, MAX_SEARCH_BOUND + 1)
    assert colon_and_kappa_search(u, u, MAX_SEARCH_BOUND) == a.one()


def test_kappa_search_reads_a_scalar_kappa_off_the_first_hnf_pivots():
    # at bound 0 only the scalar shortcut can answer; kappa at the sizes
    # the exact n-th roots of the covolume ratio were once tested at
    for f in ([-3, 1, 2], [7, 5, 3, 2], [2, -1, 0, 5, 3],
              [1, 1, -2, 0, 0, 5]):
        b = EtaleAlgebra(f)
        l = zeta_lattice(f, 0, b)
        for k in (Fraction(10 ** 20 + 7, 3), Fraction(10 ** 100),
                  Fraction(5, 7 ** 30)):
            kappa = AlgElement(b, [k.numerator] + [0] * (b.n - 1),
                               k.denominator)
            assert colon_and_kappa_search(l.scaled(kappa), l, 0) == kappa
    # equal covolumes and equal first pivots, yet no scalar multiple
    a = EtaleAlgebra(GAUSS)
    l1 = IdealLattice(a, [[1, 0], [0, 2]])
    l2 = IdealLattice(a, [[1, 1], [0, 2]])
    assert l1.covolume() == l2.covolume() and l1 != l2
    assert l1.hnf[0][0] == l2.hnf[0][0]
    assert colon_and_kappa_search(l1, l2, 0) is None


def box_reference(n, bound):
    # one of each +- pair of the nonzero vectors of the box, by sup-norm
    # and then lexicographically
    vecs = [z for z in itertools.product(range(-bound, bound + 1), repeat=n)
            if any(z) and next(v for v in z if v) > 0]
    return sorted(vecs, key=lambda z: (max(map(abs, z)), z))


def test_line_walk_visits_the_box_in_shell_then_lex_order():
    for n in range(2, 6):
        for bound in range(1, 4):
            walked = [p + (t,) for p, ts in lines(n, bound) for t in ts]
            assert walked == box_reference(n, bound), (n, bound)


def first_hit(l1, l2, bound):
    # brute-force reference: the exact norm of each candidate by
    # determinant, then the lattice check, in the order of box_reference;
    # (z, kappa) for the first hit, or (None, None)
    a = l1.algebra
    col = colon_lattice(l1, l2)
    want = lattice_norm(l1, l2)
    for z in box_reference(a.n, bound):
        kappa = AlgElement(a, [sum(zi * row[j] for zi, row in zip(z, col.hnf))
                               for j in range(a.n)], col.denominator)
        if abs(trace_and_norm(kappa)[1]) != want:
            continue
        if l2.scaled(kappa) == l1:
            if next(c for c in kappa.coords if c) < 0:
                kappa = -kappa
            return z, kappa
    return None, None


# (f, bound, direct, inverse): the first point of the box, by brute force,
# that generates I_f(1) over R_f (direct) and R_f over I_f(1) (inverse)
FIRST_HITS = [
    # n = 2, an empty prefix, so every hit is in the zero-prefix block;
    # (0, 1) is the one point of its line u = 0
    ([-1, -2, 5], 3, (0, 1), (2, -1)),
    ([-5, 1, 3], 3, (1, -1), None),
    # n = 3, a one-coordinate prefix: a hit in the zero-prefix block, and
    # a hit in the inverse orientation only
    ([1, -5, 3, 3], 3, (0, 1, 0), (1, -1, 0)),
    ([5, 3, -4, 3], 3, None, (2, 3, -2)),
    # quartics: a hit in the direct orientation only, one in the inverse
    # orientation only, one in both and one in neither
    ([2, -2, 5, -5, 3], 3, (1, -1, 2, -1), None),
    ([-5, -3, 4, -2, 2], 3, None, (3, 2, -1, -2)),
    ([3, -4, 4, -2, 2], 3, (2, -3, 1, 0), (1, 2, 1, 1)),
    ([4, -1, 0, 5, 2], 3, None, None),
    # n = 5
    ([2, -5, 1, 1, 4, 2], 2, None, (1, -2, -1, 2, 1)),
    ([1, 5, -2, 1, -5, 5], 2, (0, 1, 0, 0, 0), None),
]


def test_kappa_search_returns_the_first_hit_of_the_box():
    for f, bound, direct, inverse in FIRST_HITS:
        a = EtaleAlgebra(f)
        order, ideal = zeta_lattice(f, 0, a), zeta_lattice(f, 1, a)
        for (l1, l2), z in (((ideal, order), direct),
                            ((order, ideal), inverse)):
            point, kappa = first_hit(l1, l2, bound)
            assert point == z, f
            assert colon_and_kappa_search(l1, l2, bound) == kappa, f


def test_compiled_evaluators_match_direct_evaluation():
    # n = 2 has an empty head.  For every value w of every block of the
    # box, scan through head must return exactly the points of the block
    # where |P| = |w| by oracles.form_value, each once, plus the
    # zero prefix's (0, ..., 0, -s) when it qualifies; and nothing for a
    # value beyond them all
    rng = random.Random(41)
    for n in range(2, 6):
        exps = [e for e in itertools.product(range(n + 1), repeat=n)
                if sum(e) == n]
        form = DecomposableForm(n, {e: rng.randint(-40, 40) for e in exps})
        keys, scan = _evaluators(n)
        monos = [unpack_exponents(key, n, n + 1) for key in keys]
        assert sorted(monos) == exps
        coeffs = [form.terms.get(e, 0) for e in monos]
        residues = [c % SCAN_PRIME for c in coeffs]
        points = 0
        # a block: the lines of one shell s (every line holds t = s)
        # that share a prefix
        for (s, prefix), block in itertools.groupby(
                lines(n, 2), key=lambda l: (max(l[1]), l[0][:-1])):
            block = list(block)
            covered = [(p[-1], t) for p, ts in block for t in ts]
            points += len(covered)
            if not any(prefix):
                covered.append((0, -s))
            value = {pt: abs(form_value(form, prefix + pt))
                     for pt in covered}
            us = [p[-1] for p, _ in block]
            rows = s in prefix or -s in prefix
            for w in set(value.values()):
                for sign in (1, -1):
                    hits = scan(coeffs, residues, prefix, us, s, rows,
                                sign * w)
                    assert len(hits) == len(set(hits))
                    assert set(hits) == {pt for pt in covered
                                         if value[pt] == w}, (n, prefix, w)
            assert scan(coeffs, residues, prefix, us, s, rows,
                        max(value.values()) + 1) == []
        assert points == (5 ** n - 1) // 2


def test_scan_matches_brute_force():
    # a full block (rows true), a ring block (every t only where |u| = s)
    # and the zero prefix's half ring (u >= 0) against the values of the
    # points each covers, by oracles.form_value; every value and its
    # negative must be found, and values outside +-that set must not
    rng = random.Random(47)
    for n in range(2, 6):
        exps = [e for e in itertools.product(range(n + 1), repeat=n)
                if sum(e) == n]
        form = DecomposableForm(n, {e: rng.randint(-30, 30) for e in exps})
        keys, scan = _evaluators(n)
        coeffs = [form.terms.get(unpack_exponents(key, n, n + 1), 0)
                  for key in keys]
        residues = [c % SCAN_PRIME for c in coeffs]
        for s in range(1, 4):
            full = range(-s, s + 1)
            inner = range(1 - s, s)
            kinds = [(tuple(rng.choice(inner) for _ in range(n - 3)) + (s,),
                      full, True),
                     (tuple(rng.choice(inner) for _ in range(n - 2)),
                      full, False),
                     ((0,) * (n - 2), range(s + 1), False)]
            for prefix, us, rows in kinds:
                prefix = prefix[:n - 2]
                values = {form_value(form, prefix + (u, t)) for u in us
                          for t in (full if rows or abs(u) == s else (-s, s))}
                block = (coeffs, residues, prefix, us, s, rows)
                for v in values:
                    assert scan(*block, v), (n, s, prefix, rows, v)
                    assert scan(*block, -v), (n, s, prefix, rows, v)
                top = max(map(abs, values))
                absent = [w for w in range(top + 3) if w not in values
                          and -w not in values]
                assert absent
                for w in absent[:5] + absent[-5:]:
                    assert not scan(*block, w), (n, s, prefix, w)


def test_residue_scan_hit_list_matches_brute_force():
    # The walk's ordered hit list against the box's exact values, term by
    # term, at n = 2..5 and bounds 1..4, on residue adversaries: a form
    # with every coefficient = 0 (mod SCAN_PRIME), so that for a want
    # = 0 (mod SCAN_PRIME) every point passes the residue test; a form
    # tuned so that its value at a point z0 is = 0 (mod SCAN_PRIME), so
    # that want = -want there; wants one SCAN_PRIME away from a value,
    # which that value's point matches by residue and not by value; and
    # the value at (0, ..., 0, 1), a hit of the zero-prefix block whose
    # negative (0, ..., 0, -1) the scan also returns
    rng = random.Random(53)
    p = SCAN_PRIME
    for n in range(2, 6):
        keys, _ = _evaluators(n)
        monos = [unpack_exponents(key, n, n + 1) for key in keys]
        top = (0,) * (n - 1) + (n,)  # the t^n term, the value at (0, ..., 1)
        box = box_reference(n, 4)
        z0 = box[rng.randrange(len(box))][:-1] + (1,)

        def draw(scale):
            # n = 5 keeps about a fifth of its 126 terms, for a quick
            # brute force
            terms = {e: scale * rng.randint(-9, 9) for e in monos
                     if n < 5 or rng.random() < 0.2}
            terms[top] = scale * rng.randint(1, 9)
            return terms

        zeros = draw(p)
        tuned = draw(1)
        # z0's last coordinate is 1, so the t^n term moves its value by 1:
        # make that value SCAN_PRIME
        tuned[top] += p - form_value(DecomposableForm(n, tuned), z0)
        for terms in (zeros, tuned):
            form = DecomposableForm(n, terms)
            values = {z: form_value(form, z) for z in box}
            picks = [abs(values[box[rng.randrange(len(box))]])
                     for _ in range(2)]
            wants = picks + [abs(values[box[0]]), p * 10 ** 6 + p]
            if terms is zeros:
                assert all(v % p == 0 for v in values.values())
            else:
                assert values[z0] == p
                wants += [p] + [w + p for w in picks]
                assert any(values[z] % p in (w % p, -w % p)
                           and abs(values[z]) != w
                           for w in wants for z in box), n
            assert box[0] == (0,) * (n - 1) + (1,)
            coeffs = [form.terms.get(e, 0) for e in monos]
            for w in wants:
                for bound in range(1, 5):
                    want = [z for z in box if max(map(abs, z)) <= bound
                            and abs(values[z]) == w]
                    assert list(_norm_hits(coeffs, n, bound, w)) == want, \
                        (n, bound, w)


@pytest.mark.parametrize("f, base, bound, count", [
    # X^3 - X - 1: the first three hits share one block, on three lines,
    # and the later ones spread over other blocks
    ([-1, -1, 0, 1], [2, 1, 0], 3, 13),
    # X^2 - 2, an empty head: hits 2-3 and 4-5 each share one line
    ([-2, 0, 1], [2, 1], 5, 5),
])
def test_kappa_search_walks_a_block_on_past_a_rejected_candidate(
        monkeypatch, f, base, bound, count):
    # A candidate of the colon lattice whose norm is +-want always passes
    # the exact confirmation (kappa l2 lies in l1 with the same index), so
    # rejections are injected: rejecting the first k norm hits of the box,
    # found by brute force, must return hit k
    a = EtaleAlgebra(f)
    n = a.n
    l2 = unit_lattice(a)
    l1 = l2.scaled(a.element(base))
    col = colon_lattice(l1, l2)
    want = lattice_norm(l1, l2)
    hits = []
    for z in box_reference(n, bound):
        kappa = AlgElement(a, [sum(zi * row[j] for zi, row in zip(z, col.hnf))
                               for j in range(n)], col.denominator)
        if abs(trace_and_norm(kappa)[1]) == want:
            hits.append(kappa)
    assert len(hits) == count
    scaled = IdealLattice.scaled
    for k in range(len(hits) + 1):
        rejected = hits[:k]
        monkeypatch.setattr(
            IdealLattice, "scaled",
            lambda l, kappa: l if kappa in rejected else scaled(l, kappa))
        got = colon_and_kappa_search(l1, l2, bound)
        if k == len(hits):
            assert got is None
        else:
            want_k = hits[k]
            if next(c for c in want_k.num if c) < 0:
                want_k = -want_k
            assert got == want_k, k

import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy

from hermeq import intmat, intpoly
from hermeq.algebra import invariant_order, norm_form, zeta_lattice
from hermeq.forms import (MAX_FORM_BITS, MAX_FORM_DEGREE, DecomposableForm,
                          act_gln, form_content, hermite_form, laplace_minors,
                          transfer_matrix, verify_disc_identity)
from oracles import MPoly, form_value, power_sums


def rand_unimodular2(rng, steps=5):
    g = [[1, 0], [0, 1]]
    for _ in range(steps):
        q = rng.randint(-3, 3)
        if rng.random() < 0.5:
            g = [[g[0][0] + q * g[1][0], g[0][1] + q * g[1][1]], list(g[1])]
        else:
            g = [list(g[0]), [g[1][0] + q * g[0][0], g[1][1] + q * g[0][1]]]
    if rng.random() < 0.4:
        g = [g[1], g[0]]
    return g


def gl2_act_oracle(f, g):
    # (c X + d)^n f((a X + b)/(c X + d)) expanded with polynomial arithmetic
    (a, b), (c, d) = g
    n = intpoly.degree(f)
    out = []
    for j in range(n + 1):
        fj = f[n - j]
        if not fj:
            continue
        term = intpoly.poly_mul(intpoly.poly_pow([b, a], n - j),
                                intpoly.poly_pow([d, c], j))
        out = intpoly.poly_add(out, intpoly.poly_scale(term, fj))
    return out


def test_hermite_form_quadratic():
    F = hermite_form([1, 0, 1])
    assert F.terms == {(2, 0): 1, (0, 2): 1}


def test_hermite_form_scaled_quadratic():
    F = hermite_form([2, 0, 2])
    assert F.terms == {(2, 0): 2, (0, 2): 2}


def test_hermite_form_cube_root_of_unity():
    F = hermite_form([-1, 0, 0, 1])
    assert F.terms == {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): -3}


def test_hermite_form_matches_circulant_norm():
    # [X^3 - 1] is the norm form of Q[Y]/(Y^3-1): a circulant determinant
    a, b, c = sympy.symbols("a b c")
    circ = sympy.Matrix([[a, c, b], [b, a, c], [c, b, a]]).det()
    F = hermite_form([-1, 0, 0, 1])
    expr = sympy.expand(circ.subs({a: sympy.Symbol("x3"), b: sympy.Symbol("x2"),
                                   c: sympy.Symbol("x1")}))
    mine = 0
    x = sympy.symbols("x1 x2 x3")
    for e, coef in F.terms.items():
        t = coef
        for xi, k in zip(x, e):
            t *= xi ** k
        mine += t
    assert sympy.expand(mine - expr) == 0


def test_hermite_form_quadratic_general():
    # [aX^2+bX+c] = X1^2 f(-X2/X1) = c X1^2 - b X1 X2 + a X2^2
    rng = random.Random(8)
    for _ in range(15):
        a2, b, c = rng.randint(1, 9), rng.randint(-9, 9), rng.randint(-9, 9)
        F = hermite_form([c, b, a2])
        expect = {(2, 0): c, (1, 1): -b, (0, 2): a2}
        assert F.terms == {e: v for e, v in expect.items() if v}


def test_hermite_form_degree_error():
    with pytest.raises(intpoly.DomainError):
        hermite_form([3, 1])


def test_hermite_form_agrees_with_symbolic_resultant():
    # independent route: generic cofactor expansion of the same Sylvester
    # matrix with MPoly coefficients
    rng = random.Random(19)
    for _ in range(12):
        n = rng.randint(2, 4)
        f = [rng.randint(-9, 9) for _ in range(n)] + [rng.choice([1, 2, -3])]
        phi = [MPoly.variable(n, n - 1 - i) for i in range(n)]  # Xn, ..., X1
        r = intmat.det_cofactor(intpoly.sylvester_matrix(phi, f))
        assert DecomposableForm(n, r.terms) == hermite_form(f)


def _rand_linear_rows(rng, k, ncols, nvars):
    # entries: None, 0, an all-zero form, or coefficients in -4..4
    def entry():
        u = rng.random()
        if u < 0.1:
            return None
        if u < 0.15:
            return 0
        if u < 0.2:
            return [0] * nvars
        return [rng.randint(-4, 4) for _ in range(nvars)]
    return [[entry() for _ in range(ncols)] for _ in range(k)]


def _mixed_matrix(rng, k, m, nvars):
    # k linear rows over k + m columns above m rows of integers
    return (_rand_linear_rows(rng, k, k + m, nvars)
            + [[rng.randint(-4, 4) for _ in range(k + m)] for _ in range(m)])


def _as_mpoly(rows, nvars):
    unit = [tuple(int(i == j) for i in range(nvars)) for j in range(nvars)]

    def entry(a):
        if isinstance(a, int):
            return MPoly.constant(nvars, a)
        return MPoly(nvars, {unit[i]: x for i, x in enumerate(a or ())})
    return [[entry(a) for a in row] for row in rows]


def _cofactor_terms(rows, nvars):
    # det_cofactor returns the int 0 when a whole row is zero
    return (MPoly(nvars) + intmat.det_cofactor(_as_mpoly(rows, nvars))).terms


def test_laplace_minors_matches_cofactor_determinant():
    # k linear rows above m integer rows, k = 0 (an integer determinant)
    # and m = 0 (the norm-form case) included
    rng = random.Random(23)
    for k in range(6):
        for m in range(4):
            if not 0 < k + m <= 6:
                continue
            for trial in range(4):
                nvars = rng.randint(1, 4)
                rows = _mixed_matrix(rng, k, m, nvars)
                singular = True
                if trial == 1 and k:  # an all-zero linear row
                    rows[rng.randrange(k)] = [rng.choice([None, 0, [0] * nvars])
                                              for _ in range(k + m)]
                elif trial == 2 and k > 1:  # a repeated linear row
                    rows[k - 1] = list(rows[0])
                elif trial == 3 and m > 1:  # a repeated integer row
                    rows[-1] = list(rows[k])
                else:
                    singular = False
                got = laplace_minors(rows, nvars)
                assert got == _cofactor_terms(rows, nvars), (k, m, rows)
                if singular:
                    assert got == {}
    # hand cases: det [[x, y], [-y, x]] = x^2 + y^2, and one mixed matrix
    assert laplace_minors([[[1, 0], [0, 1]], [[0, -1], [1, 0]]], 2) == {
        (2, 0): 1, (0, 2): 1}
    assert laplace_minors([[[1, 0], [0, 1], 0], [None, [1, 0], [0, 1]],
                           [1, 2, 3]], 2) == {(2, 0): 3, (1, 1): -2, (0, 2): 1}
    assert laplace_minors([[2, 1], [1, 1]], 2) == {(0, 0): 1}
    assert laplace_minors([[2, 1], [4, 2]], 2) == {}


def test_laplace_minors_weighted_sum_over_column_sets():
    # the determinant equals the generalized Laplace sum over the k-sets S
    # of columns: the linear rows' minor on S times the integer rows' minor
    # on the other columns, signed by (-1)^(0 + ... + k-1 + sum of S)
    rng = random.Random(29)
    for k, m in ((1, 2), (2, 2), (3, 2), (3, 3), (4, 3)):
        nvars = rng.randint(2, 4)
        rows = _mixed_matrix(rng, k, m, nvars)
        mats = _as_mpoly(rows, nvars)
        want = MPoly(nvars)
        for cols in combinations(range(k + m), k):
            comp = [c for c in range(k + m) if c not in cols]
            minor = intmat.det_cofactor([[row[c] for c in cols]
                                         for row in mats[:k]])
            weight = intmat.det_bareiss([[row[c] for c in comp]
                                         for row in rows[k:]])
            if (k * (k - 1) // 2 + sum(cols)) % 2:
                weight = -weight
            want = want + weight * minor
        assert want.terms
        assert laplace_minors(rows, nvars) == want.terms
        assert want.terms == _cofactor_terms(rows, nvars)


def test_form_degree_cap():
    f = [1] + [0] * MAX_FORM_DEGREE + [1]
    with pytest.raises(intpoly.DomainError, match="MAX_FORM_DEGREE"):
        hermite_form(f)
    with pytest.raises(intpoly.DomainError, match="MAX_FORM_DEGREE"):
        norm_form(zeta_lattice(f, MAX_FORM_DEGREE), invariant_order(f))
    # the size cap: degree 3 has C(5, 3) * 3 = 30 per coefficient bit
    lead = 1 << (MAX_FORM_BITS // 30)
    with pytest.raises(intpoly.DomainError, match="MAX_FORM_BITS"):
        hermite_form([1, 0, 0, lead])
    assert hermite_form([1, 0, 0, lead // 2]).terms


def test_form_content_examples():
    assert form_content(hermite_form([1, 0, 1])) == 1
    assert form_content(hermite_form([2, 0, 2])) == 2
    assert form_content(hermite_form([-3, 0, 0, 3])) == 9


def test_form_content_power_law():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(2, 5)
        f = [rng.randint(-8, 8) for _ in range(n)] + [rng.choice([1, 2, 3, 6, -4])]
        F = hermite_form(f)
        assert form_content(F) == intpoly.content(f) ** (n - 1)


def test_act_gln_identity_and_swap():
    F = hermite_form([1, 0, 1])
    assert act_gln(F, intmat.identity(2)) == F
    assert act_gln(F, [[0, 1], [1, 0]]) == F


def test_act_gln_matches_sympy_substitution():
    rng = random.Random(31)
    for _ in range(8):
        n = rng.randint(2, 4)
        f = [rng.randint(-6, 6) for _ in range(n)] + [rng.choice([1, 2])]
        F = hermite_form(f)
        u = [[0] * n for _ in range(n)]
        for i in range(n):
            u[i][i] = 1
        for _ in range(4):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randint(-2, 2)
                for k in range(n):
                    u[i][k] += q * u[j][k]
        res = act_gln(F, u)
        xs = sympy.symbols("x0:%d" % n)
        subbed = 0
        for e, coef in F.terms.items():
            t = coef
            for i, k in enumerate(e):
                t *= sum(u[i][j] * xs[j] for j in range(n)) ** k
            subbed += t
        subbed = sympy.expand(subbed)
        mine = 0
        for e, coef in res.terms.items():
            t = coef
            for xi, k in zip(xs, e):
                t *= xi ** k
            mine += t
        assert sympy.expand(mine - subbed) == 0


def _sympy_substituted_terms(F, u):
    # in sympy's sparse polynomial ring over ZZ
    _, *xs = sympy.polys.rings.ring("x0:%d" % F.n, sympy.ZZ)
    powers = []  # powers[i][k] = L_i^k, L_i = sum_j u[i][j] x_j
    for i in range(F.n):
        li = sum(u[i][j] * xs[j] for j in range(F.n))
        powers.append([li ** k for k in range(F.n + 1)])
    total = 0
    for e, coef in F.terms.items():
        t = coef
        for pw, k in zip(powers, e):
            t = t * pw[k]
        total = total + t
    return {e: int(c) for e, c in dict(total).items() if c} if total else {}


def _rand_unimodular_signed(rng, n):
    # elementary row operations with multipliers in -3..3, then a sign flip
    # or a row swap: entries of both signs, and zeros where few operations
    # ran
    u = intmat.identity(n)
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-3, 3)
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
    i, j = rng.randrange(n), rng.randrange(n)
    if rng.random() < 0.5:
        u[i] = [-x for x in u[i]]
    else:
        u[i], u[j] = u[j], u[i]
    return u


def test_act_gln_by_horner_matches_sympy_up_to_degree_6():
    rng = random.Random(53)
    for n in range(2, 7):
        f = [rng.randint(-6, 6) for _ in range(n)] + [rng.choice([1, 2, -3])]
        single = [0] * n
        single[0], single[-1] = 1, n - 1
        forms = [hermite_form(f),
                 DecomposableForm(n, {tuple(single): -5}),
                 DecomposableForm(n, {(0,) * (n - 1) + (n,): 7}),
                 DecomposableForm(n, {})]
        u = intmat.identity(n)
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randint(-2, 2)
                for k in range(n):
                    u[i][k] += q * u[j][k]
        # a signed permutation of determinant -1
        perm = list(range(n))
        rng.shuffle(perm)
        signed = [[rng.choice([1, -1]) if j == perm[i] else 0
                   for j in range(n)] for i in range(n)]
        if intmat.det_bareiss(signed) == 1:
            signed[0] = [-x for x in signed[0]]
        assert intmat.det_bareiss(signed) == -1
        us = [_rand_unimodular_signed(rng, n) for _ in range(6)]
        assert any(x < 0 for v in us for row in v for x in row)
        assert any(x == 0 for v in us for row in v for x in row)
        for F in forms:
            for m in [u, signed] + us:
                assert act_gln(F, m).terms == _sympy_substituted_terms(F, m)
        assert act_gln(DecomposableForm(n, {}), u) == DecomposableForm(n, {})
        # acting by v, then by w, substitutes v w
        for v, w in zip(us[::2], us[1::2]):
            F = forms[0]
            vw = intmat.mat_mul(v, w)
            assert (act_gln(act_gln(F, v), w).terms
                    == _sympy_substituted_terms(F, vw))


def test_act_gln_composition():
    rng = random.Random(37)
    F = hermite_form([1, 2, 0, 1])
    for _ in range(6):
        u = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        v = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for m in (u, v):
            for _ in range(3):
                i, j = rng.randrange(3), rng.randrange(3)
                if i != j:
                    q = rng.randint(-2, 2)
                    for k in range(3):
                        m[i][k] += q * m[j][k]
        assert act_gln(act_gln(F, u), v) == act_gln(F, intmat.mat_mul(u, v))


def test_act_gln_rejects_non_unimodular():
    F = hermite_form([1, 0, 1])
    with pytest.raises(intpoly.DomainError):
        act_gln(F, [[2, 0], [0, 1]])


def test_transfer_matrix_identity():
    for n in (2, 3, 4, 5):
        assert transfer_matrix([[1, 0], [0, 1]], n) == intmat.identity(n)


def test_transfer_matrix_shear_n2():
    g = [[1, 1], [0, 1]]
    t = transfer_matrix(g, 2)
    # defining identity pins this matrix down; check it over random quadratics
    rng = random.Random(41)
    for _ in range(20):
        f = [rng.randint(-9, 9), rng.randint(-9, 9), rng.choice([1, 2, 3, -1])]
        gf = gl2_act_oracle(f, g)
        if intpoly.degree(gf) != 2:
            continue
        assert hermite_form(gf) == act_gln(hermite_form(f), intmat.transpose(t))


def test_transfer_identity_random():
    rng = random.Random(43)
    hits = 0
    while hits < 25:
        n = rng.randint(2, 5)
        f = [rng.randint(-6, 6) for _ in range(n)] + [rng.choice([1, 2, -2])]
        g = rand_unimodular2(rng)
        gf = gl2_act_oracle(f, g)
        if intpoly.degree(gf) != n:
            continue
        t = transfer_matrix(g, n)
        assert intmat.is_unimodular(t)
        lhs = hermite_form(gf)
        rhs = act_gln(hermite_form(f), intmat.transpose(t))
        assert lhs == rhs or lhs == -rhs
        hits += 1


def test_transfer_anti_homomorphism():
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randint(2, 5)
        g1 = rand_unimodular2(rng)
        g2 = rand_unimodular2(rng)
        t12 = transfer_matrix(intmat.mat_mul(g1, g2), n)
        assert t12 == intmat.mat_mul(transfer_matrix(g2, n),
                                     transfer_matrix(g1, n))


def test_transfer_rejects_non_unimodular():
    with pytest.raises(intpoly.DomainError):
        transfer_matrix([[2, 0], [0, 1]], 3)


def test_power_sums_known_roots():
    # (X-1)(X-2): p_k = 1 + 2^k
    f = [2, -3, 1]
    ps = power_sums(f, 6)
    for k in range(7):
        assert ps[k] == 1 + 2 ** k
    # non-monic (2X-1)(X-1): roots 1/2 and 1
    g = [1, -3, 2]
    ps = power_sums(g, 5)
    for k in range(6):
        assert ps[k] == Fraction(1, 2 ** k) + 1


def test_verify_disc_identity_quadratic():
    # trace matrix of X^2+1 is [[2,0],[0,-2]] with determinant -4 = D
    assert power_sums([1, 0, 1], 2) == [2, 0, -2]
    assert verify_disc_identity([1, 0, 1])


def test_verify_disc_identity_nonmonic_cubic():
    assert verify_disc_identity([7, 5, 3, 2])


def test_verify_disc_identity_sweep():
    rng = random.Random(53)
    done = 0
    while done < 60:
        n = rng.randint(2, 5)
        f = [rng.randint(-20, 20) for _ in range(n)] + [rng.randint(1, 20)]
        if intpoly.discriminant(f) == 0:
            continue
        assert verify_disc_identity(f)
        done += 1


def test_verify_disc_identity_degenerate():
    with pytest.raises(intpoly.DomainError):
        verify_disc_identity([1, 2, 1])  # (X+1)^2


def test_form_evaluate():
    F = hermite_form([1, 0, 1])
    assert form_value(F, [3, 4]) == 25
    with pytest.raises(intpoly.DomainError):
        form_value(F, [1, 2, 3])


def test_form_homogeneity_guard():
    with pytest.raises(intpoly.DomainError):
        DecomposableForm(2, {(1, 0): 3})


def test_mpoly_arithmetic():
    x = MPoly.variable(2, 0)
    y = MPoly.variable(2, 1)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + 1) * (x - 1) == x * x - 1
    assert x ** 3 == x * x * x
    assert (x - x) == 0

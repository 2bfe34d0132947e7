import random

import pytest
import sympy

from hermeq.equivalence import (ContentMismatchError, DegenerateSystemError,
                                DegreeDropError, NotARootError,
                                PreconditionError, _charpoly, _power_basis,
                                _solve_33,
                                beta_minpoly,
                                beta_power_matrix, gl2_act, gl2_pair_test,
                                gl2_witness_solve, hermite_witness_check,
                                partition_gl2, reducible_pair, z_equiv_test)
from hermeq.algebra import EtaleAlgebra
from hermeq.intmat import det_bareiss, identity, mat_mul
from hermeq.intpoly import DomainError, discriminant, normalize, poly_scale

X = sympy.symbols("x")

QUARTIC = [1, 2, -4, -1, 1]  # X^4 - X^3 - 4X^2 + 2X + 1
QUARTIC_BETAS = [(-4, 0, 1), (-2, 1, 0), (-1, 2, 0), (0, -1, 1), (1, 0, 0),
                 (1, 1, 0), (3, 1, -1), (4, 1, -1), (15, 4, -4), (21, 1, -5)]
QUARTIC_CLASSES = [[0, 4, 7], [1, 5, 6, 9], [2, 3, 8]]


def rand_gamma(rng):
    while True:
        a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
        if a * d - b * c in (1, -1):
            return [[a, b], [c, d]]


def gamma_inv(gamma):
    (a, b), (c, d) = gamma
    det = a * d - b * c
    assert det in (1, -1)
    return [[d * det, -b * det], [-c * det, a * det]]


def test_gl2_act_identity():
    assert gl2_act([1, 0, 1], [[1, 0], [0, 1]]) == [1, 0, 1]


def test_gl2_act_shear():
    # X^2+1 under X -> X+1
    assert gl2_act([1, 0, 1], [[1, 1], [0, 1]]) == [2, 2, 1]


def test_gl2_act_inversion_with_sign():
    # X^3-2 under X -> 1/X, negated: 2X^3 - 1
    assert gl2_act([-2, 0, 0, 1], [[0, 1], [1, 0]], -1) == [-1, 0, 0, 2]


def test_gl2_act_degree_drop():
    # gamma sends infinity to the root 1 of X^2 - 1... use f with root a/c
    # f = X^2 - 1 has root 1 = gamma(inf) for gamma = [[1, 0], [1, 1]]
    with pytest.raises(DegreeDropError):
        gl2_act([-1, 0, 1], [[1, 0], [1, 1]])


def test_gl2_act_rejects_non_unimodular():
    with pytest.raises(DomainError):
        gl2_act([1, 0, 1], [[2, 0], [0, 1]])


def test_gl2_act_rejects_bad_sign():
    with pytest.raises(DomainError):
        gl2_act([1, 0, 1], [[1, 0], [0, 1]], 2)


def test_gl2_act_matches_sympy_substitution():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(2, 5)
        f = [rng.randint(-5, 5) for _ in range(n)] + [rng.randint(1, 5)]
        gamma = rand_gamma(rng)
        (a, b), (c, d) = gamma
        fx = sympy.Poly(list(reversed(f)), X)
        num = sympy.together(fx.as_expr().subs(X, sympy.Rational(1) * (a * X + b) / (c * X + d)))
        expect = sympy.Poly(sympy.expand(num * (c * X + d) ** n), X)
        try:
            got = gl2_act(f, gamma)
        except DegreeDropError:
            assert expect.degree() < n
            continue
        assert list(reversed(got)) == [int(v) for v in expect.all_coeffs()]


def test_gl2_act_is_right_action():
    rng = random.Random(72)
    for _ in range(40):
        n = rng.randint(2, 4)
        f = [rng.randint(-4, 4) for _ in range(n)] + [rng.randint(1, 3)]
        g1, g2 = rand_gamma(rng), rand_gamma(rng)
        prod = mat_mul(g1, g2)
        try:
            two_step = gl2_act(gl2_act(f, g1), g2)
            one_step = gl2_act(f, prod)
        except DegreeDropError:
            continue
        assert two_step == one_step


def test_gl2_act_preserves_discriminant():
    rng = random.Random(73)
    for _ in range(40):
        n = rng.randint(2, 5)
        f = [rng.randint(-5, 5) for _ in range(n)] + [rng.randint(1, 4)]
        if discriminant(normalize(f)) == 0 or len(normalize(f)) != n + 1:
            continue
        try:
            g = gl2_act(f, rand_gamma(rng))
        except DegreeDropError:
            continue
        assert discriminant(g) == discriminant(f)


def test_z_equiv_translation():
    assert z_equiv_test([1, 0, 1], [2, 2, 1]) == (1, 1)


def test_z_equiv_absent():
    assert z_equiv_test([1, 0, 1], [2, 0, 1]) is None


def test_z_equiv_reflection():
    assert z_equiv_test([1, 1, 0, 1], [-1, 1, 0, 1]) == (-1, 0)


def test_z_equiv_rejects_non_monic():
    with pytest.raises(DomainError):
        z_equiv_test([1, 0, 2], [1, 0, 2])


def test_z_equiv_finds_random_translates():
    rng = random.Random(74)
    for _ in range(30):
        n = rng.randint(2, 6)
        f = [rng.randint(-6, 6) for _ in range(n)] + [1]
        e = rng.choice([1, -1])
        a = rng.randint(-5, 5)
        g = poly_scale(_translate(f, e, a), e ** n)
        got = z_equiv_test(f, g)
        assert got is not None
        ee, aa = got
        assert poly_scale(_translate(f, ee, aa), ee ** n) == g


def _translate(f, e, a):
    fx = sympy.Poly(list(reversed(f)), X)
    gx = sympy.Poly(sympy.expand(fx.as_expr().subs(X, e * X + a)), X)
    return [int(v) for v in reversed(gx.all_coeffs())]


def test_witness_solve_alpha_is_identity():
    w = gl2_witness_solve(QUARTIC, [1, 0, 0])
    assert w.gamma == [[1, 0], [0, 1]]
    assert w.sign == 1


def test_witness_solve_related_pair():
    w = gl2_pair_test(QUARTIC, (1, 0, 0), (4, 1, -1))
    assert w is not None
    (a, b), (c, d) = w.gamma
    assert a * d - b * c in (1, -1)


def test_witness_solve_unrelated_pair():
    assert gl2_pair_test(QUARTIC, (1, 0, 0), (-2, 1, 0)) is None


def test_witness_solve_rejects_zero():
    with pytest.raises(DomainError):
        gl2_witness_solve(QUARTIC, [0, 0, 0])


def test_witness_solve_rejects_non_monic():
    with pytest.raises(DomainError):
        gl2_witness_solve([1, 0, 0, 2], [1, 0, 0])


def test_solve_33_degenerate_reported():
    with pytest.raises(DegenerateSystemError):
        _solve_33(QUARTIC, [0, 0, 0])


def test_witness_recovers_minimal_polynomial():
    # a valid witness gamma for beta_i -> beta_j turns minpoly(beta_i) into
    # +-minpoly(beta_j - m) under the inverse substitution, where m is the
    # constant coordinate the pair test translates away
    for bi in QUARTIC_BETAS:
        pinv = sympy.Matrix(beta_power_matrix(QUARTIC, [0] + list(bi))).inv()
        for bj in QUARTIC_BETAS:
            w = gl2_pair_test(QUARTIC, bi, bj)
            if w is None:
                continue
            m = int((sympy.Matrix([[0] + list(bj)]) * pinv)[0, 0])
            mi = beta_minpoly(QUARTIC, bi)
            mj_shift = _translate(beta_minpoly(QUARTIC, bj), 1, m)
            t = gl2_act(mi, gamma_inv(w.gamma))
            assert t == mj_shift or poly_scale(t, -1) == mj_shift


def test_beta_minpoly_against_sympy():
    alpha = sympy.rootof(sympy.Poly(list(reversed(QUARTIC)), X), 0)
    for b in QUARTIC_BETAS[:4]:
        expr = b[0] * alpha + b[1] * alpha ** 2 + b[2] * alpha ** 3
        mp = sympy.minimal_polynomial(expr, X)
        assert beta_minpoly(QUARTIC, b) == [int(v) for v in reversed(sympy.Poly(mp, X).all_coeffs())]


def test_charpoly_against_sympy_on_random_integer_matrices():
    # arbitrary integer matrices, not only multiplication matrices, with a
    # repeated row or a zero row forcing singular ones at every size
    rng = random.Random(74)
    for n in range(1, 7):
        for trial in range(6):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if trial == 1:
                m[-1] = list(m[0])
            elif trial == 2:
                m[rng.randrange(n)] = [0] * n
            want = sympy.Matrix(m).charpoly(X).all_coeffs()
            assert _charpoly(m) == [int(v) for v in reversed(want)], m
    assert _charpoly([[0, 0], [0, 0]]) == [0, 0, 1]


def test_beta_power_matrix_unimodular_for_generators():
    for b in QUARTIC_BETAS:
        p = beta_power_matrix(QUARTIC, [0] + list(b))
        assert det_bareiss(p) in (1, -1)


def test_power_basis_test():
    # None for fractional powers, a singular power matrix and a
    # non-unimodular one; (P, P^-1) for a generator
    a = EtaleAlgebra([1, 1, 2])  # alpha^2 = (-1 - alpha) / 2
    assert _power_basis(a, a.alpha() * a.alpha()) is None
    q = EtaleAlgebra(QUARTIC)
    assert _power_basis(q, q.zero()) is None
    assert _power_basis(q, 2 * q.alpha()) is None
    for b in QUARTIC_BETAS:
        p, pinv = _power_basis(q, q.from_poly([0] + list(b)))
        assert p == beta_power_matrix(QUARTIC, [0] + list(b))
        assert mat_mul(p, pinv) == identity(4)


def test_pair_test_rejects_non_generator():
    with pytest.raises(PreconditionError):
        gl2_pair_test(QUARTIC, (2, 0, 0), (1, 0, 0))


def test_partition_quartic_table():
    assert partition_gl2(QUARTIC, QUARTIC_BETAS) == QUARTIC_CLASSES


def test_partition_is_order_independent():
    rng = random.Random(75)
    perm = list(range(len(QUARTIC_BETAS)))
    rng.shuffle(perm)
    shuffled = [QUARTIC_BETAS[p] for p in perm]
    part = partition_gl2(QUARTIC, shuffled)
    # map shuffled indices back to original ones
    back = sorted(sorted(perm[i] for i in c) for c in part)
    assert back == QUARTIC_CLASSES


def test_hermite_witness_identity():
    u = hermite_witness_check(QUARTIC, QUARTIC, [0, 1])
    assert u == identity(4)


def test_hermite_witness_content_mismatch():
    with pytest.raises(ContentMismatchError):
        hermite_witness_check([1, 0, 1], [2, 0, 2], [0, 1])


def test_hermite_witness_leading_mismatch():
    with pytest.raises(ContentMismatchError):
        hermite_witness_check([1, 0, 0, 1], [1, 0, 3, 2], [0, 1])


def test_hermite_witness_not_a_root():
    with pytest.raises(NotARootError):
        hermite_witness_check([1, 0, 1], [1, 0, 1], [1, 1])


def test_hermite_witness_lattice_mismatch_is_inconclusive():
    # beta = 2 alpha is a root of X^2 + 4 but spans a smaller lattice
    assert hermite_witness_check([1, 0, 1], [4, 0, 1], [0, 2]) is None


def test_z_equivalent_pairs_pass_hermite_check():
    rng = random.Random(76)
    for _ in range(20):
        n = rng.randint(2, 5)
        f = [rng.randint(-5, 5) for _ in range(n)] + [1]
        f = normalize(f)
        if len(f) != n + 1 or discriminant(f) == 0:
            continue
        e = rng.choice([1, -1])
        a = rng.randint(-4, 4)
        g = poly_scale(_translate(f, e, a), e ** n)
        u = hermite_witness_check(f, g, [-e * a, e])
        assert u is not None
        assert det_bareiss(u) in (1, -1)


def test_reducible_pair_cubic():
    g, h, q = reducible_pair([1, -1, 0, 1])
    assert g == [0, 1, -1, 0, 1]
    assert h == [0, 1, 0, -1, 1]
    u = hermite_witness_check(g, h, q)
    assert u is not None and det_bareiss(u) in (1, -1)


def test_reducible_pair_quartic():
    f = [1, 1, 0, 0, 1]
    g, h, q = reducible_pair(f)
    assert g[0] == 0 and h[0] == 0
    assert len(g) == len(f) + 1 and len(h) == len(f) + 1
    assert hermite_witness_check(g, h, q) is not None


def test_reducible_pair_rejects_wrong_constant():
    with pytest.raises(PreconditionError):
        reducible_pair([-1, -1, 0, 1])


def test_reducible_pair_rejects_rational_root():
    # X^3 + X^2 - X + ... need f(1) = 0 or f(-1) = 0 with f(0) = 1:
    # X^3 - X^2 - X + 1 has f(1) = 0
    with pytest.raises(PreconditionError):
        reducible_pair([1, -1, -1, 1])


def test_reducible_pair_rejects_non_monic():
    with pytest.raises(PreconditionError):
        reducible_pair([1, 0, 0, 2])

import random

import pytest
import sympy

from hermeq.algebra import zeta_lattice
from hermeq.intmat import mat_mul
from hermeq.intpoly import DomainError, discriminant
from hermeq.primes import is_squarefree
from hermeq.quartic import (A0_DOUBLED, EXAMPLE_F, EXAMPLE_G, EXAMPLE_GAMMA,
                            EXAMPLE_M, QuarticPair, act, iota,
                            principality_evidence, verify_example)
from oracles import resolvent_cubic

X = sympy.Symbol("x")
Y = sympy.Symbol("y")


def rand_unimodular3(rng, steps=6):
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        c = rng.randint(-3, 3)
        for t in range(3):
            m[i][t] += c * m[j][t]
        if rng.random() < 0.3:
            s = rng.choice(range(3))
            m[s] = [-x for x in m[s]]
    return m


def rand_unimodular2(rng, steps=5):
    m = [[1, 0], [0, 1]]
    for _ in range(steps):
        c = rng.randint(-4, 4)
        if rng.random() < 0.5:
            m = mat_mul(m, [[1, c], [0, 1]])
        else:
            m = mat_mul(m, [[1, 0], [c, 1]])
        if rng.random() < 0.3:
            m = mat_mul(m, [[0, 1], [1, 0]])
    return m


def rand_quartic(rng):
    while True:
        f = [rng.randint(-9, 9) for _ in range(4)] + [rng.choice([1, 2, 3, 4, 5, -3])]
        if f[4]:
            return f


def test_iota_example_matrices():
    pair = iota(EXAMPLE_F)
    assert pair.a == [[0, 0, 1], [0, -2, 0], [1, 0, 0]]
    assert pair.b == [[8, -1, 0], [-1, -124, 13], [0, 13, 510]]


def test_iota_pure_power():
    pair = iota([0, 0, 0, 0, 1])
    assert pair.a == A0_DOUBLED
    assert pair.b == [[2, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_iota_rejects_wrong_degree():
    with pytest.raises(DomainError):
        iota([1, 2, 3, 1])
    with pytest.raises(DomainError):
        iota([1, 0, 0, 0, 0, 1])


def test_iota_recovers_coefficients():
    # injectivity: every coefficient of f can be read back off the pair
    rng = random.Random(11)
    for _ in range(25):
        f = rand_quartic(rng)
        b = iota(f).b
        back = [b[2][2] // 2, b[1][2], b[1][1] // 2, b[0][1], b[0][0] // 2]
        assert back == [f[0], f[1], f[2], f[3], f[4]]


def test_pair_validation():
    with pytest.raises(DomainError):
        QuarticPair([[0, 0], [0, 0]], A0_DOUBLED)
    with pytest.raises(DomainError):
        QuarticPair([[0, 1, 0], [0, -2, 0], [1, 0, 0]], A0_DOUBLED)  # asymmetric
    with pytest.raises(DomainError):
        QuarticPair([[1, 0, 0], [0, -2, 0], [0, 0, 0]], A0_DOUBLED)  # odd diagonal


def test_identity_action():
    pair = iota(EXAMPLE_F)
    ident3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    ident2 = [[1, 0], [0, 1]]
    assert act(pair, ident3, ident2) == pair


def test_example_transport_bit_exact():
    moved = act(iota(EXAMPLE_G), EXAMPLE_GAMMA, EXAMPLE_M)
    assert moved == iota(EXAMPLE_F)
    assert moved.a == A0_DOUBLED


def test_example_discriminants_agree_and_squarefree():
    df = discriminant(EXAMPLE_F)
    dg = discriminant(EXAMPLE_G)
    assert df == dg == -8124503
    assert is_squarefree(df)


def test_verify_example_report():
    rep = verify_example()
    assert rep["act_matches"] is True
    assert rep["disc_equal"] is True
    assert rep["disc"] == -8124503
    assert rep["disc_squarefree"] is True


def test_act_rejects_non_unimodular():
    pair = iota(EXAMPLE_F)
    with pytest.raises(DomainError):
        act(pair, [[2, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0, 1]])
    with pytest.raises(DomainError):
        act(pair, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[2, 0], [0, 1]])


def test_action_composition():
    rng = random.Random(5)
    for _ in range(20):
        pair = iota(rand_quartic(rng))
        g1, g2 = rand_unimodular3(rng), rand_unimodular3(rng)
        m1, m2 = rand_unimodular2(rng), rand_unimodular2(rng)
        twice = act(act(pair, g1, m1), g2, m2)
        once = act(pair, mat_mul(g2, g1), mat_mul(m2, m1))
        assert twice == once


def test_resolvent_closed_form():
    rng = random.Random(7)
    for _ in range(30):
        f = rand_quartic(rng)
        c0, c1, c2, c3, c4 = f[4], f[3], f[2], f[1], f[0]
        want = [1, c2, c1 * c3 - 4 * c0 * c4,
                c0 * c3 ** 2 + c1 ** 2 * c4 - 4 * c0 * c2 * c4]
        assert resolvent_cubic(iota(f)) == want


def _cubic_expr(coeffs):
    return sum(c * X ** (3 - k) * Y ** k for k, c in enumerate(coeffs))


def test_resolvent_transformation_law():
    rng = random.Random(13)
    for _ in range(15):
        pair = iota(rand_quartic(rng))
        g = rand_unimodular3(rng)
        m = rand_unimodular2(rng)
        (r, s), (t, u) = m
        before = _cubic_expr(resolvent_cubic(pair))
        after = _cubic_expr(resolvent_cubic(act(pair, g, m)))
        substituted = before.subs({X: r * X - t * Y, Y: -s * X + u * Y},
                                  simultaneous=True)
        assert sympy.expand(after - substituted) == 0


def test_resolvent_even_division_is_exact():
    # a doubled pair always has an even pencil determinant, so the halving
    # in resolvent_cubic never truncates; spot-check against raw expansion
    pair = iota([3, 1, -2, 5, 2])
    e = _cubic_expr(resolvent_cubic(pair))
    a = sympy.Matrix(pair.a)
    b = sympy.Matrix(pair.b)
    assert sympy.expand(2 * e - (a * X - b * Y).det()) == 0


def test_principality_monic_is_immediate():
    rep = principality_evidence([1, 2, -4, -1, 1], bound=3)
    assert rep["status"] == "principal"
    assert rep["orientation"] == "direct"
    k = rep["generator"]
    assert list(k.coords) == [1, 0, 0, 0]


def test_principality_example_f():
    rep = principality_evidence(EXAMPLE_F)
    assert rep["status"] == "principal"
    assert rep["orientation"] == "inverse"
    kappa = rep["generator"]
    alg = kappa.algebra
    # the reported generator is exactly (11 + 4 alpha)^-1
    lam = alg.element([11, 4, 0, 0])
    assert kappa * lam == alg.one()
    # and it really carries the order onto the ideal
    order = zeta_lattice(EXAMPLE_F, 0, alg)
    ideal = zeta_lattice(EXAMPLE_F, 1, alg)
    assert order.scaled(kappa) == ideal


def test_principality_example_g_inconclusive():
    rep = principality_evidence(EXAMPLE_G, bound=8)
    assert rep["status"] == "inconclusive"
    assert rep["generator"] is None
    assert rep["orientation"] is None


def test_principality_rejects_bad_input():
    with pytest.raises(DomainError):
        principality_evidence([1, 2, 1])  # wrong degree
    with pytest.raises(DomainError):
        principality_evidence([1, 0, 0, 0, 0, 1])  # wrong degree
    with pytest.raises(DomainError):
        principality_evidence([0, 0, 0, 0, 1])  # X^4, degenerate


def test_factorize_and_squarefree():
    assert is_squarefree(30)
    assert not is_squarefree(12)
    assert is_squarefree(-8124503)
    # the square of a prime just below the cube root of the product
    big = 1000003 * 1000033
    assert not is_squarefree(big * 1000003)


def test_is_squarefree_matches_factorint():
    # the trial division stops at the cube root of what is left, so take
    # prime powers and products around that root: p = 997 and p = 1009 lie
    # on either side of the cube root of p^2 q for q the other one; 8124503
    # is the quartic example's discriminant
    rng = random.Random(20)
    cases = [1, 2, 3, 4, 8, 9, 8124503]
    for p, q in ((997, 1009), (1009, 997), (2, 1009), (1009, 2)):
        cases += [p, p * p, p ** 3, p * q, p * p * q, p * p * q * q,
                  p * q * 991, p * p * q * 991]
    cases += [rng.randrange(1, 10 ** 9) for _ in range(300)]
    cases += [rng.randrange(2, 1000) ** 2 * rng.randrange(1, 10 ** 4)
              for _ in range(200)]
    cases += [k ** 3 for k in range(2, 200)]
    for n in cases:
        expect = all(e == 1 for e in sympy.factorint(n).values())
        assert is_squarefree(n) == expect, n
        assert is_squarefree(-n) == expect, -n
    with pytest.raises(ValueError):
        is_squarefree(0)

import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hermeq import intpoly

X = sympy.Symbol("X")


def to_sympy(p):
    return sympy.Poly(list(reversed(p)) or [0], X)


def rand_poly(rng, maxdeg=5, lo=-9, hi=9):
    d = rng.randint(0, maxdeg)
    p = [rng.randint(lo, hi) for _ in range(d + 1)]
    return intpoly.normalize(p)


def test_normalize_strips_trailing_zeros():
    assert intpoly.normalize([1, 2, 0, 0]) == [1, 2]
    assert intpoly.normalize([0, 0]) == []
    assert intpoly.degree([]) == -1


def test_arithmetic_matches_sympy():
    rng = random.Random(23)
    for _ in range(40):
        a = rand_poly(rng)
        b = rand_poly(rng)
        assert to_sympy(intpoly.poly_add(a, b)) == (to_sympy(a) + to_sympy(b))
        assert to_sympy(intpoly.poly_sub(a, b)) == (to_sympy(a) - to_sympy(b))
        if a or b:
            assert to_sympy(intpoly.poly_mul(a, b)) == (to_sympy(a) * to_sympy(b))


def test_eval_and_compose():
    f = [1, 2, 3]  # 3X^2 + 2X + 1
    assert intpoly.poly_eval(f, 2) == 17
    g = [0, 1, 1]  # X^2 + X
    comp = intpoly.poly_compose(f, g)
    for x in range(-4, 5):
        assert intpoly.poly_eval(comp, x) == intpoly.poly_eval(f, intpoly.poly_eval(g, x))


def test_pow():
    assert intpoly.poly_pow([1, 1], 4) == [1, 4, 6, 4, 1]
    assert intpoly.poly_pow([2, 0, 1], 0) == [1]


def test_content_and_primitive():
    assert intpoly.content([1, 0, 1]) == 1
    assert intpoly.content([2, 0, 2]) == 2
    assert intpoly.content([-4, 10, 0, 6]) == 2
    assert intpoly.primitive_part([-4, 10, 0, 6]) == [-2, 5, 0, 3]
    with pytest.raises(intpoly.DomainError):
        intpoly.content([0, 0])


def test_content_scaling_property():
    rng = random.Random(31)
    for _ in range(30):
        f = rand_poly(rng)
        if not f:
            continue
        c = rng.choice([-7, -3, -1, 2, 5, 12])
        assert intpoly.content(intpoly.poly_scale(f, c)) == abs(c) * intpoly.content(f)


def test_divmod_exact():
    a = [2, 0, -3, 1]  # X^3 - 3X^2 + 2
    b = [-1, 1]  # X - 1
    q, r = intpoly.poly_divmod_exact(a, b)
    assert intpoly.poly_add(intpoly.poly_mul(q, b), r) == a
    assert intpoly.degree(r) < intpoly.degree(b)
    with pytest.raises(intpoly.DomainError):
        intpoly.poly_divmod_exact([1, 0, 1], [1, 2])


def test_reverse():
    assert intpoly.reverse([1, 2, 3]) == [3, 2, 1]


def test_resultant_hand_cases():
    # Res(X-1, X-2): both linear, Sylvester is [[1,-1],[1,-2]]
    assert intpoly.resultant([-1, 1], [-2, 1]) == -1
    assert intpoly.resultant([1, 0, 1], [1, 0, 1]) == 0
    # a constant operand: Res(c, q) = c^deg q and Res(p, c) = c^deg p, with
    # Res(c, d) = 1 for two constants, in both argument orders
    for c in ([3], [-2], [-1], [1], [-5, 0, 0]):
        for q in ([2, -1], [1, 2, 3], [-4, 0, 0, -7], [0, 0, 0, 0, 3]):
            want = c[0] ** intpoly.degree(q)
            assert intpoly.resultant(c, q) == want, (c, q)
            assert intpoly.resultant(q, c) == want, (c, q)
        for d in (-7, -1, 1, 4):
            assert intpoly.resultant(c, [d]) == intpoly.resultant([d], c) == 1


def test_resultant_product_formula_on_split_polys():
    # Res(p, q) = lc(p)^(deg q) * prod q(alpha) over roots alpha of p.
    # This pins the sign convention, which sympy's resultant does not preserve
    # under argument swap.
    rng = random.Random(37)
    for _ in range(25):
        roots_p = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
        lc = rng.choice([1, 2, 3, -2])
        p = [lc]
        for r in roots_p:
            p = intpoly.poly_mul(p, [-r, 1])
        q = rand_poly(rng, 4)
        if intpoly.degree(q) < 1:
            continue
        expect = lc ** intpoly.degree(q)
        for r in roots_p:
            expect *= intpoly.poly_eval(q, r)
        assert intpoly.resultant(p, q) == expect


def test_resultant_matches_sympy_up_to_documented_sign():
    rng = random.Random(41)
    for _ in range(30):
        p = rand_poly(rng, 4)
        q = rand_poly(rng, 4)
        if intpoly.degree(p) < 1 or intpoly.degree(q) < 1:
            continue
        mine = intpoly.resultant(p, q)
        ref = sympy.resultant(to_sympy(p), to_sympy(q))
        assert abs(mine) == abs(ref)


def test_resultant_swap_sign():
    rng = random.Random(43)
    for _ in range(20):
        p = rand_poly(rng, 4)
        q = rand_poly(rng, 4)
        if intpoly.degree(p) < 1 or intpoly.degree(q) < 1:
            continue
        s = (-1) ** (intpoly.degree(p) * intpoly.degree(q))
        assert intpoly.resultant(p, q) == s * intpoly.resultant(q, p)


def test_resultant_zero_poly_raises():
    for p, q in (([], [1, 1]), ([1, 1], [0, 0]), ([0], [3]), ([3], [])):
        with pytest.raises(intpoly.DomainError, match="zero polynomial"):
            intpoly.resultant(p, q)


def test_discriminant_hand_cases():
    assert intpoly.discriminant([1, 0, 1]) == -4  # X^2+1
    assert intpoly.discriminant([-1, -1, 0, 1]) == -23  # X^3-X-1
    # quadratic formula check: aX^2+bX+c has D = b^2-4ac
    assert intpoly.discriminant([5, 3, 2]) == 9 - 40


def test_discriminant_matches_sympy():
    rng = random.Random(47)
    for _ in range(30):
        f = rand_poly(rng, 5)
        if intpoly.degree(f) < 2:
            continue
        assert intpoly.discriminant(f) == sympy.discriminant(to_sympy(f))


def test_discriminant_translation_invariance():
    rng = random.Random(53)
    for _ in range(20):
        d = rng.randint(2, 5)
        f = [rng.randint(-9, 9) for _ in range(d)] + [1]  # monic degree d
        a = rng.randint(-4, 4)
        shifted = intpoly.poly_compose(f, [a, 1])
        assert intpoly.discriminant(shifted) == intpoly.discriminant(f)


def test_discriminant_constant_raises():
    with pytest.raises(intpoly.DomainError):
        intpoly.discriminant([3])


def test_roots_mod_p():
    assert intpoly.roots_mod_p([0, 1], 5) == {0}
    k5 = [1, 3, 5, 5]  # 5X^3+5X^2+3X+1
    assert 1 in intpoly.roots_mod_p(k5, 7)
    assert intpoly.roots_mod_p(k5, 11) == set()
    with pytest.raises(intpoly.DomainError):
        intpoly.roots_mod_p([7, 7], 7)


def test_sylvester_layout():
    # deg q rows of p first, descending coefficients shifted right
    p = [2, 0, 1]  # X^2 + 2
    q = [3, 1]  # X + 3
    assert intpoly.sylvester_matrix(p, q) == [
        [1, 0, 2],
        [1, 3, 0],
        [0, 1, 3],
    ]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=6),
       st.lists(st.integers(-20, 20), min_size=1, max_size=6))
def test_mul_commutes(a, b):
    assert intpoly.poly_mul(a, b) == intpoly.poly_mul(b, a)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-10, 10), min_size=1, max_size=5),
       st.integers(-5, 5))
def test_eval_is_ring_hom(a, x):
    sq = intpoly.poly_mul(a, a)
    assert intpoly.poly_eval(sq, x) == intpoly.poly_eval(a, x) ** 2

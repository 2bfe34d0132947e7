import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermeq import intmat
from hermeq.equivalence import DegenerateSystemError, _pair_kernel
from oracles import adjugate


def det_cofactor(m):
    # independent oracle: naive Laplace expansion along the first row
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def rand_mat(rng, r, c, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def rand_unimodular(rng, n, steps=12):
    u = intmat.identity(n)
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        for k in range(n):
            u[i][k] += q * u[j][k]
    return u


def test_det_identity():
    assert intmat.det_bareiss(intmat.identity(3)) == 1


def test_det_hand_2x2():
    assert intmat.det_bareiss([[1, 2], [3, 4]]) == -2


def test_det_matches_cofactor_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rand_mat(rng, n, n)
        assert intmat.det_bareiss(m) == det_cofactor(m)


def test_det_matches_sympy():
    import sympy

    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 6)
        m = rand_mat(rng, n, n, -20, 20)
        assert intmat.det_bareiss(m) == sympy.Matrix(m).det()


def test_det_rejects_nonsquare():
    with pytest.raises(intmat.DimensionError):
        intmat.det_bareiss([[1, 2, 3], [4, 5, 6]])


def check_hnf_shape(h):
    # upper-triangular pivot ladder, positive pivots, reduced above
    last = -1
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        assert nz, "zero row in full-rank HNF"
        p = nz[0]
        assert p > last
        last = p
        assert row[p] > 0
    for k, row in enumerate(h):
        p = next(j for j, x in enumerate(row) if x)
        for i in range(k):
            assert 0 <= h[i][p] < row[p]


def test_hnf_identity():
    h, t = intmat.hnf(intmat.identity(4))
    assert h == intmat.identity(4)
    assert t == intmat.identity(4)


def test_hnf_hand_case():
    m = [[2, 0], [1, 1]]
    h, t = intmat.hnf(m)
    assert h == [[1, 1], [0, 2]]
    assert intmat.mat_mul(t, m) == h
    assert intmat.det_bareiss(t) in (1, -1)


def test_hnf_unimodular_gives_identity():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(2, 5)
        u = rand_unimodular(rng, n)
        h, _ = intmat.hnf(u)
        assert h == intmat.identity(n)


def test_hnf_defining_properties_random():
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randint(1, 5)
        c = rng.randint(r, 6)
        m = rand_mat(rng, r, c)
        if intmat.hnf_lattice(m)[1] < r:
            continue  # not full row rank
        h, t = intmat.hnf(m)
        assert intmat.mat_mul(t, m) == h
        assert intmat.det_bareiss(t) in (1, -1)
        check_hnf_shape(h)


def test_hnf_lattice_invariance():
    # hnf(U m) = hnf(m) for unimodular U: same row lattice, same canonical basis
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 5)
        m = rand_mat(rng, n, n)
        if intmat.det_bareiss(m) == 0:
            continue
        u = rand_unimodular(rng, n)
        h1, _ = intmat.hnf(m)
        h2, _ = intmat.hnf(intmat.mat_mul(u, m))
        assert h1 == h2


def test_hnf_rank_deficient_raises():
    with pytest.raises(intmat.RankError):
        intmat.hnf([[1, 2], [2, 4]])


def test_hnf_lattice_drops_zero_rows():
    h, rank = intmat.hnf_lattice([[1, 2], [2, 4], [0, 1]])
    assert rank == 2
    assert h == [[1, 0], [0, 1]]


def _hnf_shapes(rng):
    # n^2 x n (the shape of an ideal product's generators), square and
    # 2 x k matrices, each also with 60-digit entries, a zero row, and
    # rows that are combinations of a few others (rank deficient)
    shapes = [(n * n, n) for n in range(2, 6)]
    shapes += [(n, n) for n in range(1, 6)] + [(2, k) for k in range(1, 6)]
    for r, c in shapes:
        for trial in range(6):
            hi = 10 ** 60 if trial in (1, 4) else 30
            m = rand_mat(rng, r, c, -hi, hi)
            if trial >= 3:  # rank at most max(1, c - 1)
                basis = m[:max(1, c - 1)]
                m = [[sum(rng.randint(-3, 3) * b[j] for b in basis)
                      for j in range(c)] for _ in range(r)]
            if trial in (2, 5):
                m[rng.randrange(r)] = [0] * c
            yield m


def test_hnf_without_transform_matches_transform_path():
    # hnf_lattice forms no transform.  The path of hnf reduces [m | I] on
    # the columns of m, which leaves [T m | T] with T unimodular: the H of
    # hnf_lattice must be the first rank rows of T m, and the rest of T m
    # must vanish, so H spans the row lattice of m
    rng = random.Random(61)
    deficient = 0
    for m in _hnf_shapes(rng):
        h, rank = intmat.hnf_lattice(m)
        r, c = intmat.mat_dims(m)
        rows = [list(row) + [int(i == k) for k in range(r)]
                for i, row in enumerate(m)]
        assert len(intmat._hnf_echelon(rows, c)) == rank
        t = [row[c:] for row in rows]
        tm = intmat.mat_mul(t, m)
        assert tm == [row[:c] for row in rows]
        assert tm[:rank] == h
        assert all(x == 0 for row in tm[rank:] for x in row)
        assert intmat.is_unimodular(t)
        check_hnf_shape(h)
        if rank == r:
            assert intmat.hnf(m) == (h, t)
        else:
            deficient += 1
            with pytest.raises(intmat.RankError):
                intmat.hnf(m)
    assert deficient


# The program takes left kernels of 2-row integer matrices only, by the
# closed form equivalence._pair_kernel: for m = [r0, r1] it returns the
# primitive (c, d) with c r0 + d r1 = 0 and first nonzero entry positive
# (the HNF-canonical sign), or None when m has full row rank.

def test_left_kernel_identity_empty():
    assert _pair_kernel(*intmat.identity(2)) is None


def test_left_kernel_hand_case():
    assert _pair_kernel([1], [-1]) == (1, 1)


def test_left_kernel_random():
    import sympy

    rng = random.Random(3)
    for trial in range(40):
        c = rng.randint(1, 4)
        m = rand_mat(rng, 2, c, -5, 5)
        if trial % 3 == 0:  # rank at most 1
            m[1] = [rng.randint(-2, 2) * x for x in m[0]]
        if not any(m[0]) and not any(m[1]):
            with pytest.raises(DegenerateSystemError):
                _pair_kernel(*m)
            continue
        ker = _pair_kernel(*m)
        # rank-nullity against a rational rank oracle
        rank = sympy.Matrix(m).rank()
        assert (ker is None) == (rank == 2)
        if ker is not None:
            assert intmat.mat_mul([list(ker)], m) == [[0] * c]
            assert math.gcd(*ker) == 1


def test_left_kernel_primitive():
    # kernel of [[2],[−2]] is spanned by (1,1), not (2,2)
    assert _pair_kernel([2], [-2]) == (1, 1)


def test_inverse_rational():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rand_mat(rng, n, n)
        if intmat.det_bareiss(m) == 0:
            continue
        inv = intmat.inverse_rational(m)
        prod = intmat.mat_mul(m, inv)
        assert all(
            prod[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n)
        )


def test_adjugate_gives_det_times_identity():
    rng = random.Random(23)
    for n in range(1, 7):
        for t in range(6):
            m = rand_mat(rng, n, n)
            if t < 2:  # singular: the last row repeats a row, or is zero
                m[-1] = list(m[0]) if n > 1 and t == 0 else [0] * n
            adj = adjugate(m)
            d = det_cofactor(m)
            want = [[d * (i == j) for j in range(n)] for i in range(n)]
            assert intmat.mat_mul(m, adj) == want
            assert intmat.mat_mul(adj, m) == want


def test_adjugate_solve_gives_det_and_adjugate_times_b():
    def check(m, b):
        det, x = intmat.adjugate_solve(m, b)
        assert det == det_cofactor(m)
        if det:  # a b with no columns gives [[], ...]
            assert x == intmat.mat_mul(adjugate(m), b)
        else:
            assert x is None

    rng = random.Random(29)
    for n in range(1, 7):
        for t in range(8):
            m = rand_mat(rng, n, n)
            if t < 2:  # singular: the last row repeats a row, or is zero
                m[-1] = list(m[0]) if n > 1 and t == 0 else [0] * n
            if t == 2:  # a zero leading entry forces a row swap
                m[0][0] = 0
            check(m, rand_mat(rng, n, rng.randint(1, 4)))
    for n in range(2, 9):
        big = 10 ** 60
        check(rand_mat(rng, n, n), rand_mat(rng, n, 2))  # n up to 8
        m = rand_mat(rng, n, n, -big, big)  # 60-digit entries
        check(m, rand_mat(rng, n, 3, -big, big))
        check(m, [[] for _ in m])  # b with no columns
        if n > 2:
            # row 1 (and row 2) agree with multiples of the rows above on
            # their first 2 (3) columns, so the pivot at k = 1 (k = 2) is
            # zero only after elimination and forces a row swap there
            for k in (1, 2)[:n - 2]:
                m = rand_mat(rng, n, n)
                m[k] = [3 * x - y for x, y in zip(m[0], m[k - 1])][:k + 1] \
                    + m[k][k + 1:]
                check(m, rand_mat(rng, n, 2))
        for upper in (True, False):  # the shapes colon_lattice solves
            m = [[x if (j >= i) == upper else 0 for j, x in enumerate(r)]
                 for i, r in enumerate(rand_mat(rng, n, n, 1, 9))]
            check(m, rand_mat(rng, n, 2))
            m[n // 2][n // 2] = 0  # singular
            check(m, rand_mat(rng, n, 2))
    with pytest.raises(intmat.DimensionError):
        intmat.adjugate_solve([[1, 2], [3, 4]], [[1]])


def test_det_mod_is_the_determinant_reduced_mod_q():
    # against Bareiss, for small and word-sized primes, with singular
    # matrices, forced row swaps and entries far larger than q
    rng = random.Random(31)
    for q in (2, 7, 2 ** 31 - 1):
        for n in range(0, 7):
            for t in range(6):
                m = rand_mat(rng, n, n)
                if t == 0 and n > 1:
                    m[-1] = list(m[0])
                if t == 1 and n:
                    m[0][0] = 0
                if t == 2:
                    m = [[x * 10 ** 30 + rng.randint(-9, 9) for x in r]
                         for r in m]
                assert intmat.det_mod(m, q) == intmat.det_bareiss(m) % q, m


def test_inverse_singular_raises():
    with pytest.raises(intmat.RankError):
        intmat.inverse_rational([[1, 2], [2, 4]])


def test_is_unimodular():
    assert intmat.is_unimodular([[1, 5], [0, -1]])
    assert not intmat.is_unimodular([[2, 0], [0, 1]])
    assert not intmat.is_unimodular([[1, 0, 0], [0, 1, 0]])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-30, 30), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_det_transpose_invariant(m):
    assert intmat.det_bareiss(m) == intmat.det_bareiss(intmat.transpose(m))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_det_multiplicative(a, b):
    assert intmat.det_bareiss(intmat.mat_mul(a, b)) == \
        intmat.det_bareiss(a) * intmat.det_bareiss(b)

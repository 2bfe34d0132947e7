import json
import os
import random

import pytest
import sympy

from hermeq.equivalence import (ContentMismatchError, DegenerateSystemError,
                                DegreeDropError, NotARootError,
                                PreconditionError, _BetaContext, _generator,
                                _pair_kernel, _power_matrix, _solve_33,
                                _unimodular_inverse, _witness_sign, gl2_act,
                                gl2_pair_test, gl2_witness_solve,
                                hermite_witness_check, partition_gl2,
                                reducible_pair, z_equiv_test)
from hermeq.algebra import AlgElement, EtaleAlgebra, product_rows
from hermeq.cli import main
from hermeq.forms import act_gln, hermite_form
from hermeq.intmat import (adjugate_solve, det_bareiss, hnf_lattice, identity,
                           mat_mul, transpose)
from hermeq.intpoly import DomainError, discriminant, normalize, poly_scale
from hermeq.jsonio import load_table
from oracles import adjugate, charpoly, partition_two_way

X = sympy.symbols("x")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

QUARTIC = [1, 2, -4, -1, 1]  # X^4 - X^3 - 4X^2 + 2X + 1
QUARTIC_BETAS = [(-4, 0, 1), (-2, 1, 0), (-1, 2, 0), (0, -1, 1), (1, 0, 0),
                 (1, 1, 0), (3, 1, -1), (4, 1, -1), (15, 4, -4), (21, 1, -5)]
QUARTIC_CLASSES = [[0, 4, 7], [1, 5, 6, 9], [2, 3, 8]]


def power_matrix(beta):
    # the rows of beta^0, ..., beta^3 over alpha, a root of QUARTIC, for
    # beta = (b_2, b_3, b_4); integral since QUARTIC is monic
    alg = EtaleAlgebra(QUARTIC)
    p, d = product_rows(alg.one(), alg.from_poly([0] + list(beta)))
    assert d == 1
    return p


def minpoly(beta):
    # the characteristic polynomial of beta, as the pair tests use it
    alg = EtaleAlgebra(QUARTIC)
    return _BetaContext(alg, *_generator(alg, list(beta))).minpoly


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


def test_witness_solve_takes_only_the_n_minus_1_vector():
    # all n coordinates, the constant one included, are refused: the
    # message names the n - 1 entries the degree needs
    with pytest.raises(DomainError, match=r"needs n - 1 = 3"):
        gl2_witness_solve(QUARTIC, [0, 1, 0, 0])


def test_witness_solve_rejects_non_monic():
    with pytest.raises(DomainError):
        gl2_witness_solve([1, 0, 0, 2], [1, 0, 0])


def test_solve_33_degenerate_reported():
    with pytest.raises(DegenerateSystemError):
        _solve_33(QUARTIC, [0, 0, 0])


def test_pair_kernel_matches_brute_force():
    # the closed form against every (c, d) in a box that holds the
    # primitive kernel vector: None exactly when no nonzero (c, d) kills
    # both rows, and otherwise the primitive one with a positive first
    # nonzero entry, of which every kernel vector is a multiple.  Hand
    # cases first: a rank-2 pair, a rank-1 pair and its multiple
    assert _pair_kernel([1, 0], [0, 1]) is None
    assert _pair_kernel([1], [-1]) == (1, 1)
    assert _pair_kernel([2], [-2]) == (1, 1)
    assert _pair_kernel([0, 0, 3], [0, 0, 6]) == (2, -1)
    rng = random.Random(71)
    box = range(-5, 6)
    for trial in range(600):
        k = rng.randint(1, 5)
        r0 = [rng.randint(-5, 5) for _ in range(k)]
        if trial % 3 == 0:  # rank at most 1
            p, q = rng.randint(-2, 2), rng.randint(-2, 2)
            r0, r1 = [p * x for x in r0], [q * x for x in r0]
        else:
            r1 = [rng.randint(-5, 5) for _ in range(k)]
        if trial % 50 == 0:
            r1 = [0] * k
        if not any(r0) and not any(r1):
            with pytest.raises(DegenerateSystemError):
                _pair_kernel(r0, r1)
            continue
        kills = [(c, d) for c in box for d in box if (c, d) != (0, 0)
                 and all(c * x + d * y == 0 for x, y in zip(r0, r1))]
        ker = _pair_kernel(r0, r1)
        if not kills:
            assert ker is None, (r0, r1)
            continue
        assert ker in kills, (r0, r1)
        c, d = ker
        assert c > 0 or (c == 0 and d > 0)
        for x, y in kills:
            assert x * d == y * c and (x % c if c else y % d) == 0, (r0, r1)


def test_witness_recovers_minimal_polynomial():
    # a valid witness gamma for beta_i -> beta_j turns minpoly(beta_i) into
    # +-minpoly(beta_j - m) under the inverse substitution, where m is the
    # constant coordinate the pair test translates away
    for bi in QUARTIC_BETAS:
        pinv = sympy.Matrix(power_matrix(bi)).inv()
        for bj in QUARTIC_BETAS:
            w = gl2_pair_test(QUARTIC, bi, bj)
            if w is None:
                continue
            m = int((sympy.Matrix([[0] + list(bj)]) * pinv)[0, 0])
            mi = minpoly(bi)
            mj_shift = _translate(minpoly(bj), 1, m)
            t = gl2_act(mi, gamma_inv(w.gamma))
            assert t == mj_shift or poly_scale(t, -1) == mj_shift


def test_beta_minpoly_against_sympy():
    alpha = sympy.rootof(sympy.Poly(list(reversed(QUARTIC)), X), 0)
    for b in QUARTIC_BETAS[:4]:
        expr = b[0] * alpha + b[1] * alpha ** 2 + b[2] * alpha ** 3
        mp = sympy.minimal_polynomial(expr, X)
        assert minpoly(b) == [int(v) for v in
                              reversed(sympy.Poly(mp, X).all_coeffs())]


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
            assert charpoly(m) == [int(v) for v in reversed(want)], m
    assert charpoly([[0, 0], [0, 0]]) == [0, 0, 1]


def test_beta_power_matrix_unimodular_for_generators():
    for b in QUARTIC_BETAS:
        assert det_bareiss(power_matrix(b)) in (1, -1)


def test_power_basis_test():
    # None for fractional powers, a singular power matrix and a
    # non-unimodular one; P for a generator, and P^-1 from it
    a = EtaleAlgebra([1, 1, 2])  # alpha^2 = (-1 - alpha) / 2
    assert _power_matrix(a, a.alpha() * a.alpha()) is None
    q = EtaleAlgebra(QUARTIC)
    assert _power_matrix(q, q.zero()) is None
    assert _power_matrix(q, 2 * q.alpha()) is None
    for b in QUARTIC_BETAS:
        p = _power_matrix(q, q.from_poly([0] + list(b)))
        pinv = _unimodular_inverse(p)
        assert p == power_matrix(b)
        assert mat_mul(p, pinv) == identity(4)


def test_power_basis_on_hand_cases():
    # det P = -1, a non-integral beta, and two singular betas
    a = EtaleAlgebra([1, 0, 1])  # alpha^2 = -1
    p = _power_matrix(a, -a.alpha())
    assert p == [[1, 0], [0, -1]] and det_bareiss(p) == -1
    assert _unimodular_inverse(p) == p
    q = EtaleAlgebra(QUARTIC)
    assert _power_matrix(q, AlgElement(q, [0, 1, 0, 0], 2)) is None
    assert _power_matrix(q, 3 * q.one()) is None
    # alpha^2 - alpha - 2 is -2 at both roots 0 and 1 of X^3 - X, so its
    # powers span only a plane
    r = EtaleAlgebra([0, -1, 0, 1])
    assert _power_matrix(r, r.from_poly([-2, -1, 1])) is None


def test_power_basis_matches_the_hnf_definition():
    # the powers of beta are a Z-basis of Z[alpha] when the power matrix P
    # is integral with HNF the identity; then _power_matrix gives P, and
    # _unimodular_inverse its inverse
    rng = random.Random(77)
    seen = {"+1": 0, "-1": 0, "fractional": 0, "other": 0}
    for g in ([1, 0, 1], [-1, -1, 0, 1], QUARTIC, [1, 1, 2], [3, 0, -1, 2],
              [1, -2, 0, 1, 0, 1]):
        a = EtaleAlgebra(g)
        n = a.n
        for _ in range(40):
            beta = a.from_poly([rng.randint(-2, 2) for _ in range(n)])
            p, d = product_rows(a.one(), beta)
            basis = _power_matrix(a, beta)
            if d == 1 and hnf_lattice(p)[0] == identity(n):
                assert basis is not None, (g, beta)
                assert basis == p
                assert mat_mul(p, _unimodular_inverse(basis)) == identity(n)
                seen["+1" if det_bareiss(p) == 1 else "-1"] += 1
            else:
                assert basis is None, (g, beta)
                seen["fractional" if d > 1 else "other"] += 1
    assert all(seen.values()), seen


def test_non_generator_is_refused_before_the_adjugate(monkeypatch, capsys):
    # at degree 30 a random one-digit beta almost never generates Z[alpha];
    # det P mod a prime refuses it without the exact adjugate, and
    # check-gl2 still exits 2
    import hermeq.equivalence as eq
    calls = []

    def counting(m, b):
        calls.append(len(m))
        return adjugate_solve(m, b)

    monkeypatch.setattr(eq, "adjugate_solve", counting)
    rng = random.Random(30)
    f = [rng.randint(-9, 9) for _ in range(30)] + [1]
    beta = [rng.randint(-9, 9) for _ in range(29)]
    code = main(["check-gl2", "--poly", json.dumps(f), "--beta",
                 json.dumps(beta), "--target", json.dumps([1] + [0] * 28)])
    err = capsys.readouterr().err
    assert code == 2 and "do not span" in err
    assert calls == []
    # a generator still reaches it, once
    assert gl2_pair_test(f, [1] + [0] * 28, [1] + [0] * 28) is not None
    assert calls == [30]


def test_pair_test_and_partition_reject_a_vector_of_the_wrong_length():
    # a vector (b_2, ..., b_n) has n - 1 entries; a longer one must not be
    # read as a higher power of alpha, nor a shorter one fail in a product
    f = [1, 1, 0, 1]
    for beta, target, what in (([0, 1, 0], [0, 1], "beta has 3"),
                               ([0, 1], [0, 1, 0], "target has 3"),
                               ([0, 1], [1], "target has 1")):
        with pytest.raises(DomainError, match=what + ".*n - 1 = 2"):
            gl2_pair_test(f, beta, target)
    with pytest.raises(DomainError, match="beta at index 1 has 2"):
        partition_gl2(QUARTIC, [QUARTIC_BETAS[0], (1, 0)])


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


# Moebius substitutions whose denominator c beta + d is a unit whenever
# beta and beta + 1 are: translations and a negation (c = 0), inversions
# (d = 0) and three with c = d != 0
ORBIT_GAMMAS = [[[1, 0], [0, 1]], [[-1, 2], [0, 1]], [[1, 5], [0, -1]],
                [[0, 1], [1, 0]], [[3, 1], [-1, 0]],
                [[1, 0], [1, 1]], [[2, 1], [1, 1]], [[-1, -2], [1, 1]]]
TABLES = ("table1", "table2", "table3")


def unit_poly(rng, n):
    # a monic squarefree f of degree n with f(0) and f(-1) in {1, -1}: alpha
    # and alpha + 1 are units of Z[alpha]
    while True:
        f = ([rng.choice([1, -1])] + [rng.randint(-3, 3) for _ in range(n - 1)]
             + [1])
        if sum(c * (-1) ** k for k, c in enumerate(f)) in (1, -1) \
                and discriminant(f) != 0:
            return f


def moebius_image(beta, gamma):
    # (a beta + b) / (c beta + d) if it lies in Z[alpha], else None
    (a, b), (c, d) = gamma
    try:
        img = (a * beta + b) * (c * beta + d).inverse()
    except DomainError:
        return None
    return img if img.den == 1 else None


def seeded_orbit(rng, n):
    # (f, betas, orbit of each beta, gamma of each beta): the images under
    # ORBIT_GAMMAS of alpha and of one more generator of Z[alpha] from a
    # small box, as vectors (b_2, ..., b_n), shuffled
    f = unit_poly(rng, n)
    alg = EtaleAlgebra(f)
    bases = [alg.alpha()]
    for _ in range(400):
        beta = alg.element([0] + [rng.randint(-2, 2) for _ in range(n - 1)])
        if _power_matrix(alg, beta) is not None and beta != alg.alpha():
            bases.append(beta)
            break
    rows = [(list(img.num[1:]), k, gamma)
            for k, base in enumerate(bases) for gamma in ORBIT_GAMMAS
            for img in [moebius_image(base, gamma)] if img is not None]
    rng.shuffle(rows)
    return f, [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]


def test_minpoly_from_the_inverse_power_basis_matches_charpoly():
    # X^n - (beta^n) P^-1 against the Faddeev-LeVerrier characteristic
    # polynomial of beta's multiplication matrix, on every generator of the
    # three tables and on seeded generators of degree 3..8
    cases = []
    for name in TABLES:
        table = load_table(name)
        cases += [(table["minpoly"], b) for b in table["betas"]]
    rng = random.Random(79)
    for n in range(3, 9):
        f, betas, _, _ = seeded_orbit(rng, n)
        cases += [(f, b) for b in betas]
    assert len(cases) > 150
    for f, b in cases:
        alg = EtaleAlgebra(f)
        beta = alg.element([0] + list(b))
        want = charpoly(product_rows(beta, alg.alpha())[0])
        assert _BetaContext(alg, *_generator(alg, list(b))).minpoly == want, \
            (f, b)


@pytest.mark.parametrize("name", TABLES)
def test_partition_matches_the_two_way_oracle_on_the_tables(name):
    table = load_table(name)
    assert partition_gl2(table["minpoly"], table["betas"]) == \
        partition_two_way(table["minpoly"], table["betas"])


def test_partition_matches_the_two_way_oracle_on_seeded_orbits():
    # each pair tested once from the lower index, against every ordered
    # pair; every orbit must land in one class.  Coverage: witnesses with
    # c = 0 and with c != 0, inversions among the betas, a related pair
    # whose constant coordinate w_0 in the lower beta's power basis is not
    # 0, and a run with more than one class
    rng = random.Random(80)
    seen = {"c = 0": 0, "c != 0": 0, "inversion": 0, "w_0 != 0": 0,
            "classes > 1": 0}
    for n in (3, 4, 5, 6):
        for _ in range(2):
            f, betas, orbit, gammas = seeded_orbit(rng, n)
            classes = partition_gl2(f, betas)
            assert classes == partition_two_way(f, betas), (f, betas)
            seen["classes > 1"] += len(classes) > 1
            for k in set(orbit):
                members = [i for i, o in enumerate(orbit) if o == k]
                assert any(set(members) <= set(c) for c in classes)
            seen["inversion"] += [[0, 1], [1, 0]] in gammas
            alg = EtaleAlgebra(f)
            for i, j in ((i, j) for c in classes for i in c for j in c
                         if i < j):
                w = gl2_pair_test(f, betas[i], betas[j])
                assert w is not None
                seen["c != 0" if w.gamma[1][0] else "c = 0"] += 1
                p, _ = product_rows(alg.one(), alg.element([0] + betas[i]))
                pinv = [[det_bareiss(p) * x for x in r] for r in adjugate(p)]
                seen["w_0 != 0"] += mat_mul([[0] + betas[j]], pinv)[0][0] != 0
    assert all(seen.values()), seen


def test_partition_keeps_each_refusal_type():
    # non-monic, degree 2, a vector of the wrong length: DomainError itself;
    # a beta whose powers do not span Z[alpha]: PreconditionError
    for f, betas, kind in (([1, 0, 0, 2], [(1, 0), (0, 1)], DomainError),
                           ([-1, 1, 1], [(1,), (-1,)], DomainError),
                           (QUARTIC, [(1, 0, 0), (1, 0)], DomainError),
                           (QUARTIC, [(1, 0, 0), (2, 0, 0)],
                            PreconditionError)):
        with pytest.raises(DomainError) as exc:
            partition_gl2(f, betas)
        assert type(exc.value) is kind, (f, betas, exc.value)



def counting_calls(monkeypatch, module, name, calls):
    # rebind module.name to a wrapper that appends its arguments to calls
    fn = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, wrapper)


# the pair tests (_gl2_gamma calls) and P^-1 solves (adjugate_solve calls)
# of one partition of each table, when a row runs only from a class minimum
TABLE_WORK = {"table1": (17, 3), "table2": (181, 10), "table3": (237, 11)}


@pytest.mark.parametrize("name", TABLES)
def test_partition_runs_rows_only_from_class_minima(name, monkeypatch):
    import hermeq.equivalence as eq
    pairs, solves = [], []
    counting_calls(monkeypatch, eq, "_gl2_gamma", pairs)
    counting_calls(monkeypatch, eq, "adjugate_solve", solves)
    table = load_table(name)
    classes = partition_gl2(table["minpoly"], table["betas"])
    most_pairs, most_solves = TABLE_WORK[name]
    assert len(pairs) <= most_pairs
    assert len(solves) <= min(most_solves, len(classes))


def shuffled_partitions(rng, f, betas, times):
    # (perm, classes) of `times` seeded shuffles of the betas; each
    # partition against the two-way oracle on the same order
    for _ in range(times):
        perm = list(range(len(betas)))
        rng.shuffle(perm)
        shuffled = [betas[p] for p in perm]
        classes = partition_gl2(f, shuffled)
        assert classes == partition_two_way(f, shuffled), (f, shuffled)
        yield perm, classes


def late_minimum(classes):
    # some class minimum comes after a non-minimal member of another class
    return any(c[0] > d[1] for c in classes for d in classes if len(d) > 1)


@pytest.mark.parametrize("name", ("table2", "table3"))
def test_partition_of_a_shuffled_table_maps_back(name):
    # which betas get a row depends on the index order; a shuffle moves
    # the class minima, and the classes must follow the betas
    table = load_table(name)
    f, betas = table["minpoly"], table["betas"]
    want = partition_gl2(f, betas)
    late = 0
    for perm, classes in shuffled_partitions(random.Random(81), f, betas, 3):
        assert sorted(sorted(perm[i] for i in c) for c in classes) == want
        late += late_minimum(classes)
    assert late


def test_partition_of_shuffled_orbits_with_late_class_minima():
    # seeded orbits of more than one class (the second generator not
    # related to alpha), each shuffled three more times
    rng = random.Random(82)
    orbits = 0
    late = 0
    for n in (3, 4, 5, 6) * 8:
        f, betas, _, _ = seeded_orbit(rng, n)
        want = partition_gl2(f, betas)
        if len(want) == 1:
            continue
        orbits += 1
        for perm, classes in shuffled_partitions(rng, f, betas, 3):
            assert sorted(sorted(perm[i] for i in c) for c in classes) == want
            late += late_minimum(classes)
        if orbits == 4:
            break
    assert orbits == 4 and late >= 6, (orbits, late)


def test_partition_refuses_a_non_generator_before_any_pair_test(monkeypatch):
    # every beta is tested for generating Z[alpha] before the first row, so
    # a non-generator first, right after the minimum 0 of the class
    # [0, 4, 7], in the middle or last is refused alike, with no pair test
    import hermeq.equivalence as eq
    pairs = []
    counting_calls(monkeypatch, eq, "_gl2_gamma", pairs)
    for bad in ((2, 0, 0), (0, 0, 0)):
        for at in (0, 1, 5, len(QUARTIC_BETAS)):
            betas = QUARTIC_BETAS[:at] + [bad] + QUARTIC_BETAS[at:]
            with pytest.raises(DomainError) as exc:
                partition_gl2(QUARTIC, betas)
            assert type(exc.value) is PreconditionError, (bad, at)
            assert "do not span" in str(exc.value)
    assert pairs == []


def test_hermite_witness_check_forms_no_inverse(monkeypatch):
    # the check returns P and needs only det(P) = +-1: no adjugate, on an
    # affirmative case or on a negative one
    import hermeq.algebra as algebra
    import hermeq.equivalence as eq
    import hermeq.intmat as intmat
    solves = []
    for module in (algebra, eq, intmat):
        counting_calls(monkeypatch, module, "adjugate_solve", solves)
    assert hermite_witness_check(QUARTIC, QUARTIC, [0, 1]) == identity(4)
    u = hermite_witness_check(QUARTIC, _translate(QUARTIC, 1, 1), [-1, 1])
    assert u is not None and det_bareiss(u) == 1
    assert hermite_witness_check([1, 0, 1], [4, 0, 1], [0, 2]) is None
    assert solves == []


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


def test_hermite_witness_relates_the_forms_as_documented():
    # act_gln(hermite_form(g), R U^-T R) = +-hermite_form(f), R reversing
    # the variable order, while U itself does not carry [g] to +-[f]; on
    # the README's example, z-equivalent pairs and reducible pairs
    readme = open(os.path.join(ROOT, "README.md"), encoding="utf-8").read()
    block = readme.split("```python\n")[1].split("```")[0]
    scope = {}
    exec(block, scope)
    cases = [(scope["f"], scope["g"], scope["u"])]
    rng = random.Random(77)
    while len(cases) < 8:
        n = rng.randint(3, 5)
        f = normalize([rng.randint(-5, 5) for _ in range(n)] + [1])
        if len(f) != n + 1 or discriminant(f) == 0:
            continue
        a = rng.choice([a for a in range(-4, 5) if a])
        g = _translate(f, 1, a)
        cases.append((f, g, hermite_witness_check(f, g, [-a, 1])))
    for f in ([1, -1, 0, 1], [1, 1, 0, 0, 1]):
        g, h, q, u = reducible_pair(f)
        cases.append((g, h, u))
    for f, g, u in cases:
        det = det_bareiss(u)
        inv_t = [[det * v for v in row] for row in transpose(adjugate(u))]
        hf, hg = hermite_form(f), hermite_form(g)
        assert act_gln(hg, [row[::-1] for row in inv_t[::-1]]) in (hf, -hf)
        assert act_gln(hg, u) not in (hf, -hf), (f, g)


def test_reducible_pair_cubic():
    g, h, q, w = reducible_pair([1, -1, 0, 1])
    assert g == [0, 1, -1, 0, 1]
    assert h == [0, 1, 0, -1, 1]
    u = hermite_witness_check(g, h, q)
    assert u is not None and det_bareiss(u) in (1, -1)
    assert w == u


def test_reducible_pair_quartic():
    f = [1, 1, 0, 0, 1]
    g, h, q, w = reducible_pair(f)
    assert g[0] == 0 and h[0] == 0
    assert len(g) == len(f) + 1 and len(h) == len(f) + 1
    assert hermite_witness_check(g, h, q) is not None
    assert w == hermite_witness_check(g, h, q)


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


def test_witness_sign_is_the_sign_of_the_translates_leading_coefficient():
    # the sign of the leading coefficient of gl2_act(f, gamma), +1 where
    # the translate drops degree; f(1) = 0 makes [[1, 0], [1, 1]] drop
    rng = random.Random(2404)
    cases = [([-1, 1, 0, 1, -1], [[1, 0], [1, 1]])]
    for _ in range(200):
        n = rng.randint(3, 7)
        f = [rng.randint(-9, 9) for _ in range(n)] + [rng.choice([1, -1, 3])]
        cases.append((f, rand_gamma(rng)))
    for f, gamma in cases:
        try:
            want = 1 if gl2_act(f, gamma)[-1] > 0 else -1
        except DegreeDropError:
            want = 1
        assert _witness_sign(f, gamma) == want, (f, gamma)

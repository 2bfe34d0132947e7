# Equivalence tests and witnesses for integer polynomials of one degree n:
#
#  - Z-equivalence        g(X) = e^n f(eX + a),  e = +-1, a integer
#  - GL2(Z)-equivalence   g(X) = +-(cX+d)^n f((aX+b)/(cX+d)), ad-bc = +-1
#  - Hermite equivalence  the forms [f], [g] agree up to GL_n(Z) and sign
#
# Z-equivalence is decided outright.  GL2 witnesses for a fixed shared-root
# embedding come from a small linear system; the partition routine applies it
# pairwise to a list of root expressions.  Hermite witnesses are certified
# through the invariant-lattice criterion: a root beta of g in K_f whose
# power lattice equals the power lattice of alpha yields a unimodular change
# of basis carrying one form to the other.

from .algebra import EtaleAlgebra, product_rows
from .intmat import hnf_lattice, identity, is_unimodular, left_kernel, mat_mul
from .intpoly import (DomainError, constant_term, content, degree,
                      discriminant, normalize, poly_add, poly_compose,
                      poly_divmod_exact, poly_eval, poly_mul, poly_pow,
                      poly_scale, poly_shift, reverse)


class DegreeDropError(DomainError):
    """The Moebius translate has leading coefficient 0."""


class ContentMismatchError(DomainError):
    """Contents or leading coefficients rule the pair out."""


class NotARootError(DomainError):
    """The witness expression is not a root of the target polynomial."""


class DegenerateSystemError(DomainError):
    """Every coefficient of the witness system vanished."""


class PreconditionError(DomainError):
    """A documented caller obligation failed in a detectable way."""


class Gl2Witness:
    __slots__ = ("gamma", "sign")

    def __init__(self, gamma, sign=1):
        self.gamma = [list(gamma[0]), list(gamma[1])]
        self.sign = sign

    def __eq__(self, other):
        return (isinstance(other, Gl2Witness)
                and self.gamma == other.gamma and self.sign == other.sign)

    def __repr__(self):
        return "Gl2Witness(%r, sign=%d)" % (self.gamma, self.sign)


def gl2_act(f, gamma, sign=1):
    """sign * (cX+d)^n f((aX+b)/(cX+d)), expanded through the homogenization.

    The translate of a degree-n polynomial is again taken of degree n; if
    the substitution sends infinity to a root, the leading coefficient
    vanishes and a DegreeDropError is raised.
    """
    f = normalize(f)
    n = degree(f)
    if n < 1:
        raise DomainError("need degree >= 1")
    (a, b), (c, d) = gamma
    if not is_unimodular(gamma):
        raise DomainError("substitution must be unimodular")
    if sign not in (1, -1):
        raise DomainError("sign must be +-1")
    out = []
    for j in range(n + 1):
        fj = f[n - j]
        if not fj:
            continue
        term = poly_mul(poly_pow([b, a], n - j), poly_pow([d, c], j))
        out = poly_add(out, poly_scale(term, fj))
    if degree(out) < n:
        raise DegreeDropError("translate has degree below %d" % n)
    return poly_scale(out, sign) if sign == -1 else out


def z_equiv_test(f, g):
    """Witness (e, a) with g(X) = e^n f(eX + a), or None.

    For each e the candidate a is forced by the X^(n-1) coefficients, so
    this decides Z-equivalence completely.
    """
    f = normalize(f)
    g = normalize(g)
    n = degree(f)
    if n < 2 or degree(g) != n:
        raise DomainError("need equal degrees >= 2")
    if f[-1] != 1 or g[-1] != 1:
        raise DomainError("Z-equivalence test needs monic inputs")
    for e in (1, -1):
        num = e * g[n - 1] - f[n - 1]
        if num % n:
            continue
        a = num // n
        cand = poly_scale(poly_compose(f, [a, e]), e ** n)
        if cand == g:
            return (e, a)
    return None


def _solve_33(f, b):
    # f = X^n + a1 X^(n-1) + ... + an monic, b = (b2, ..., bn) the
    # coordinates of beta = b2 alpha + ... + bn alpha^(n-1).
    #
    # beta (c alpha + d) = a alpha + b' unwinds, coordinate by coordinate,
    # to n-2 homogeneous conditions on (c, d) plus formulas for a and b':
    #   alpha^j (2<=j<=n-1):  c (b_j - b_n a_{n-j}) + d b_{j+1} = 0
    #   alpha^1:              a  = d b_2 - c b_n a_{n-1}
    #   constant:             b' = -c b_n a_n
    n = degree(f)
    acoef = lambda j: f[n - j]  # descending coefficient a_j
    bcoef = lambda j: b[j - 2]
    rows = [[bcoef(j) - bcoef(n) * acoef(n - j), bcoef(j + 1)]
            for j in range(2, n)]
    if not rows:
        raise DomainError("witness system needs degree >= 3")
    ker = left_kernel([[r[0] for r in rows], [r[1] for r in rows]])
    if len(ker) == 2:
        raise DegenerateSystemError("all witness-system coefficients vanish")
    sols = []
    for gen in ker:
        for c, d in (tuple(gen), (-gen[0], -gen[1])):
            a = d * bcoef(2) - c * bcoef(n) * acoef(n - 1)
            bb = -c * bcoef(n) * acoef(n)
            if a * d - bb * c in (1, -1):
                sols.append((a, bb, c, d))
    return sols


def _moebius_holds(f, b, gamma):
    # (c Y + d) beta(Y) == a Y + b' modulo f, with beta(Y) = sum b_j Y^(j-1)
    (a, bb), (c, d) = gamma
    lhs = poly_mul([d, c], [0] + list(b))
    _, rem = poly_divmod_exact(lhs, f)
    return normalize(rem) == normalize([bb, a])


def _witness_sign(f, gamma):
    # the sign restoring a positive leading coefficient after the translate
    try:
        t = gl2_act(f, gamma)
    except DegreeDropError:
        return 1
    return 1 if t[-1] > 0 else -1


def gl2_witness_solve(f, beta):
    """GL2(Z) witness gamma with beta = (a alpha + b)/(c alpha + d), or None.

    f must be monic of degree >= 3; beta gives the coordinates of the target
    element, either (b_2, ..., b_n) or all n coordinates, in which case the
    constant one is normalized away (a translation, harmless to existence).
    Only this embedding alpha -> beta is examined.
    """
    f = normalize(f)
    n = degree(f)
    if n < 3 or f[-1] != 1:
        raise DomainError("witness solver needs a monic polynomial of degree >= 3")
    b = list(beta)
    if len(b) == n:
        b = b[1:]
    if len(b) != n - 1:
        raise DomainError("beta vector has wrong length")
    if not any(b):
        raise DomainError("beta must be nonzero")
    for a, bb, c, d in _solve_33(f, b):
        gamma = [[a, bb], [c, d]]
        if _moebius_holds(f, b, gamma):
            return Gl2Witness(gamma, _witness_sign(f, gamma))
    return None


def _charpoly(m):
    # det(X I - m) of an integer matrix by Faddeev-LeVerrier: with M_1 = I,
    # c_{n-k} = -tr(m M_k) / k and M_{k+1} = m M_k + c_{n-k} I.  The c_j are
    # integers and so is every M_k, so each division is exact.
    n = len(m)
    out = [0] * n + [1]
    mk = identity(n)
    for k in range(1, n + 1):
        mk = mat_mul(m, mk)
        c, r = divmod(-sum(mk[i][i] for i in range(n)), k)
        if r:
            raise AssertionError("characteristic polynomial not integral")
        out[n - k] = c
        for i in range(n):
            mk[i][i] += c
    return out


def _power_basis(alg, beta):
    # (P, P^-1) if the powers of beta are a Z-basis of the lattice the
    # powers of alpha span, else None: the power matrix P is integral with
    # HNF the identity, and then the HNF transform T (T P = I) is P^-1
    p, d = product_rows(alg.one(), beta)
    h, t, _ = hnf_lattice(p)
    return (p, t) if d == 1 and h == identity(alg.n) else None


class _BetaContext:
    # per-vector data reused across all pair tests in a partition run
    __slots__ = ("pinv", "minpoly")

    def __init__(self, alg, beta_full):
        beta = alg.from_poly(beta_full)
        basis = _power_basis(alg, beta)
        if basis is None:
            raise PreconditionError("powers of beta do not span Z[alpha]")
        self.pinv = basis[1]
        # beta is integral (row 1 of P) and f monic: the matrix is integral
        self.minpoly = _charpoly(product_rows(beta, alg.alpha())[0])


def _pair_witness(ctx_i, beta_j_full):
    w = mat_mul([beta_j_full], ctx_i.pinv)[0]
    w[0] = 0  # translate the constant coordinate away
    if not any(w):
        return None
    return gl2_witness_solve(ctx_i.minpoly, w[1:])


def beta_power_matrix(f, beta_full):
    """Rows = coordinates of beta^0, ..., beta^(n-1) in the power basis."""
    alg = EtaleAlgebra(f)
    p, d = product_rows(alg.one(), alg.from_poly(beta_full))
    if d != 1:
        raise DomainError("powers of beta are not integral")
    return p


def beta_minpoly(f, beta):
    """Characteristic polynomial of multiplication by beta on Z[alpha].

    Equals the minimal polynomial whenever beta generates the algebra
    (always the case for the table inputs, where Z[beta] = Z[alpha]).
    """
    f = normalize(f)
    n = degree(f)
    if f[-1] != 1:
        raise DomainError("needs a monic polynomial")
    alg = EtaleAlgebra(f)
    beta_el = alg.from_poly([0] + list(beta)) if len(beta) == n - 1 \
        else alg.from_poly(beta)
    return _charpoly(product_rows(beta_el, alg.alpha())[0])


def gl2_pair_test(f, beta_i, beta_j):
    """Witness that beta_j is a GL2(Z) Moebius image of beta_i, or None.

    Both vectors are (b_2, ..., b_n) against the root alpha of f.  beta_j is
    rewritten in the power basis of beta_i (which must again be a Z-basis of
    Z[alpha]; anything else is a PreconditionError) and the witness system
    is solved against the minimal polynomial of beta_i.
    """
    f = normalize(f)
    if f[-1] != 1:
        raise DomainError("pair test needs a monic polynomial")
    ctx = _BetaContext(EtaleAlgebra(f), [0] + list(beta_i))
    return _pair_witness(ctx, [0] + list(beta_j))


def partition_gl2(f, betas):
    """Classes of indices under pairwise GL2(Z)-relatedness of the betas.

    The pair test runs in both directions (the constant-coordinate
    normalization could in principle see the two sides differently) and the
    result is closed transitively; classes come back sorted, so the output
    does not depend on the input order beyond the indexing itself.
    """
    f = normalize(f)
    if f[-1] != 1:
        raise DomainError("partition needs a monic polynomial")
    alg = EtaleAlgebra(f)
    ctxs = [_BetaContext(alg, [0] + list(b)) for b in betas]
    full = [[0] + list(b) for b in betas]
    m = len(betas)
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for i in range(m):
        for j in range(i + 1, m):
            if find(i) == find(j):
                continue
            if _pair_witness(ctxs[i], full[j]) is not None or \
               _pair_witness(ctxs[j], full[i]) is not None:
                union(i, j)
    classes = {}
    for i in range(m):
        classes.setdefault(find(i), []).append(i)
    return sorted(sorted(c) for c in classes.values())


def hermite_witness_check(f, g, expr):
    """Certify Hermite equivalence of f and g, or return None.

    expr is an integer polynomial; beta = expr(alpha) must be a root of g
    inside K_f whose power lattice coincides with the power lattice of
    alpha.  When it does, the change of basis U (rows = powers of beta in
    powers of alpha) is unimodular and carries [g] to +-[f]; U is returned.
    Failure of the lattice comparison proves nothing about the pair.
    """
    f = normalize(f)
    g = normalize(g)
    n = degree(f)
    if n < 2 or degree(g) != n:
        raise DomainError("need equal degrees >= 2")
    if discriminant(f) == 0:
        raise DomainError("discriminant must be nonzero")
    if content(f) != content(g):
        raise ContentMismatchError("contents differ")
    if abs(f[-1]) != abs(g[-1]):
        raise ContentMismatchError("leading coefficients differ in absolute value")
    alg = EtaleAlgebra(f)
    beta = alg.from_poly(expr)
    if poly_eval(g, beta) != 0:
        raise NotARootError("expression is not a root of the target")
    # I_f(n-1) has the identity basis, so the change of basis is P itself
    basis = _power_basis(alg, beta)
    return None if basis is None else basis[0]


def reducible_pair(f):
    """A Hermite-equivalent reducible pair built from a monic f with f(0)=1.

    Returns (g, h, q) with g = X f(X), h = X^(n+1) f(1/X), and q a witness
    polynomial: q sends the root class of g to a root of h, and the witness
    check certifies the equivalence.  q(X) = X r(X) where r(X) expresses
    alpha^(-2) integrally (alpha is a unit of Z[alpha] because f(0) = 1).
    """
    f = normalize(f)
    n = degree(f)
    if n < 3:
        raise PreconditionError("need degree >= 3")
    if f[-1] != 1:
        raise PreconditionError("need a monic polynomial")
    if constant_term(f) != 1:
        raise PreconditionError("need constant term 1")
    if poly_eval(f, 1) == 0 or poly_eval(f, -1) == 0:
        raise PreconditionError("polynomial has a rational root")
    g = poly_shift(f, 1)
    h = poly_shift(reverse(f), 1)
    # 1/alpha = -(alpha^(n-1) + a1 alpha^(n-2) + ... + a_{n-1})
    inv = poly_scale(f[1:], -1)
    _, r = poly_divmod_exact(poly_mul(inv, inv), f)
    q = poly_shift(r, 1)
    u = hermite_witness_check(g, h, q)
    if u is None:
        raise AssertionError("constructed witness failed the lattice check")
    return g, h, q

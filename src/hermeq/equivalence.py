# Equivalence tests and witnesses for integer polynomials of one degree n:
#
#  - Z-equivalence        g(X) = e^n f(eX + a),  e = +-1, a integer
#  - GL2(Z)-equivalence   g(X) = +-(cX+d)^n f((aX+b)/(cX+d)), ad-bc = +-1
#  - Hermite equivalence  the forms [f], [g] agree up to GL_n(Z) and sign
#
# Z-equivalence is decided outright.  GL2 witnesses for a fixed shared-root
# embedding come from a small linear system; the partition routine applies it
# from the least member of each class of a list of root expressions.  Hermite
# witnesses are certified through the invariant-lattice criterion: a root
# beta of g in K_f whose power lattice equals the power lattice of alpha
# yields a unimodular change of basis carrying one form to the other.

from math import gcd

from .algebra import EtaleAlgebra, product_rows
from .intmat import adjugate_solve, det_mod, identity, is_unimodular, mat_mul
from .intpoly import (DomainError, constant_term, content, degree, leading,
                      normalize, poly_add, poly_compose, poly_divmod_exact,
                      poly_eval, poly_mul, poly_pow, poly_scale, poly_shift,
                      reverse)


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


def _pair_kernel(r0, r1):
    # the primitive (c, d) with c r0 + d r1 = 0, its first nonzero entry
    # positive (the HNF-canonical sign), or None if r0, r1 are independent:
    # a multiple of (r1[j], -r0[j]) at the first column j not all zero
    j = next((j for j, x in enumerate(zip(r0, r1)) if any(x)), None)
    if j is None:
        raise DegenerateSystemError("all witness-system coefficients vanish")
    c, d = r1[j], -r0[j]
    g = gcd(c, d) if (c, d) > (0, 0) else -gcd(c, d)
    c, d = c // g, d // g
    return None if any(c * x + d * y for x, y in zip(r0, r1)) else (c, d)


def _solve_33(f, b):
    # f = X^n + a1 X^(n-1) + ... + an monic, b = (b2, ..., bn) the
    # coordinates of beta = b2 alpha + ... + bn alpha^(n-1).
    #
    # beta (c alpha + d) = a alpha + b' unwinds, coordinate by coordinate,
    # to n-2 homogeneous conditions on (c, d) plus formulas for a and b':
    #   alpha^j (2<=j<=n-1):  c (b_j - b_n a_{n-j}) + d b_{j+1} = 0
    #   alpha^1:              a  = d b_2 - c b_n a_{n-1}
    #   constant:             b' = -c b_n a_n
    # with a_{n-j} = f[j], b_j = b[j-2].  The candidate (a, b', c, d), or
    # None; its negation satisfies the negated relation, which holds
    # exactly when this one does
    n = degree(f)
    if n < 3:
        raise DomainError("witness system needs degree >= 3")
    bn = b[-1]
    ker = _pair_kernel([x - bn * a for x, a in zip(b, f[2:n])], b[1:])
    if ker is None:
        return None
    c, d = ker
    a, bb = d * b[0] - c * bn * f[1], -c * bn * f[0]
    if a * d - bb * c not in (1, -1):
        return None
    return a, bb, c, d


def _witness_sign(f, gamma):
    # sign of the translate's leading coefficient sum f_j a^j c^(n-j); 1 at 0
    (a, _), (c, _) = gamma
    lead = sum(x * a ** j * c ** (len(f) - 1 - j) for j, x in enumerate(f))
    return -1 if lead < 0 else 1


def _gl2_gamma(f, b):
    # the gamma of _solve_33 if (c Y + d) beta(Y) == a Y + b' modulo f,
    # beta(Y) = sum b_j Y^(j-1), else None; the division is the certificate
    sol = _solve_33(f, b)
    if sol is None:
        return None
    a, bb, c, d = sol
    _, rem = poly_divmod_exact(poly_mul([d, c], [0] + list(b)), f)
    return [[a, bb], [c, d]] if normalize(rem) == normalize([bb, a]) else None


def gl2_witness_solve(f, beta):
    """GL2(Z) witness gamma with beta = (a alpha + b)/(c alpha + d), or None.

    f must be monic of degree >= 3; beta gives the coordinates
    (b_2, ..., b_n) of the target element past its constant one, which a
    translation moves freely; any other length is a DomainError.  Only this
    embedding alpha -> beta is examined.
    """
    f = normalize(f)
    n = degree(f)
    if n < 3 or f[-1] != 1:
        raise DomainError("witness solver needs a monic polynomial of degree >= 3")
    b = _vector(n, beta, "beta")
    if not any(b):
        raise DomainError("beta must be nonzero")
    gamma = _gl2_gamma(f, b)
    return gamma and Gl2Witness(gamma, _witness_sign(f, gamma))


def _power_matrix(alg, beta):
    # the power matrix P of beta (rows beta^0, ..., beta^(n-1) over the
    # powers of alpha) if those powers are a Z-basis of the lattice the
    # powers of alpha span, else None: P is integral and its HNF is the
    # identity, that is det(P) = +-1.  det(P) mod the prime 2^31 - 1 refuses
    # most other beta before the exact Bareiss determinant, of growing entries
    p, d = product_rows(alg.one(), beta)
    if d != 1 or det_mod(p, 2 ** 31 - 1) not in (1, 2 ** 31 - 2) \
            or not is_unimodular(p):
        return None
    return p


def _generator(alg, b):
    # (beta, P) for beta = b_2 alpha + ... + b_n alpha^(n-1); a
    # PreconditionError unless the powers of beta span Z[alpha]
    beta = alg.element([0] + b)
    p = _power_matrix(alg, beta)
    if p is None:
        raise PreconditionError("powers of beta do not span Z[alpha]")
    return beta, p


def _unimodular_inverse(p):
    # P^-1 = adj(P) / det(P) = det(P) adj(P) for det(P) = +-1
    det, adj = adjugate_solve(p, identity(len(p)))
    return [[det * x for x in r] for r in adj]


class _BetaContext:
    # the data of the pair tests from one generator beta with power matrix
    # P: the minimal polynomial X^n - sum c_k X^k, c = (beta^n row) P^-1,
    # and P^-1 less its first row and column, taking (b_2, ..., b_n) to
    # coordinates in the powers of beta past the constant one
    __slots__ = ("pinv", "minpoly")

    def __init__(self, alg, beta, p):
        pinv = _unimodular_inverse(p)
        # beta is integral (row 1 of P) and f monic: beta^n has no denominator
        top = (alg.element(p[-1]) * beta).num
        self.minpoly = [-c for c in mat_mul([list(top)], pinv)[0]] + [1]
        self.pinv = [r[1:] for r in pinv[1:]]


def _vector(n, beta, what):
    # a vector (b_2, ..., b_n) against the root of a degree-n polynomial
    if len(beta) != n - 1:
        raise DomainError("%s has %d entries; degree %d needs n - 1 = %d"
                          % (what, len(beta), n, n - 1))
    return list(beta)


def gl2_pair_test(f, beta_i, beta_j):
    """Witness that beta_j is a GL2(Z) Moebius image of beta_i, or None.

    Both vectors are (b_2, ..., b_n) against the root alpha of f; any other
    length is a DomainError.  beta_j is rewritten in the power basis of
    beta_i (which must again be a Z-basis of Z[alpha]; anything else is a
    PreconditionError), less its constant coordinate, and the witness
    system is solved against the minimal polynomial of beta_i.
    """
    f = normalize(f)
    if leading(f) != 1:
        raise DomainError("pair test needs a monic polynomial")
    n = degree(f)
    alg = EtaleAlgebra(f)
    ctx = _BetaContext(alg, *_generator(alg, _vector(n, beta_i, "beta")))
    w = mat_mul([_vector(n, beta_j, "target")], ctx.pinv)[0]
    return gl2_witness_solve(ctx.minpoly, w) if any(w) else None


def partition_gl2(f, betas):
    """Classes of indices under pairwise GL2(Z)-relatedness of the betas,
    each (b_2, ..., b_n) as in gl2_pair_test.

    Every beta is first tested, in index order, for generating Z[alpha]
    (a PreconditionError if one does not).  A pair test from beta_i
    rewrites beta_j in the powers of beta_i, less its constant coordinate
    w_0, and solves against the minimal polynomial of beta_i.  The test is
    complete: beta_j - w_0 = (a beta_i + b)/(c beta_i + d), ad - bc = +-1,
    puts (c, d) in the kernel of rows that all vanish only if beta_j = w_0,
    not a generator; so (c, d) is t times the primitive kernel vector,
    ad - bc is t^2 times a fixed integer and t = +-1, the two candidates.
    Relatedness is an equivalence (gamma^-1 and gamma gamma' are again
    witnesses), so a row of tests runs only from the least index i of each
    class, against the j > i not yet in a class, with one P^-1 for all of
    them: a later member's answers are those of its class minimum.
    Classes come back sorted.
    """
    f = normalize(f)
    if leading(f) != 1:
        raise DomainError("partition needs a monic polynomial")
    n = degree(f)
    vecs = [_vector(n, b, "beta at index %d" % i) for i, b in enumerate(betas)]
    alg = EtaleAlgebra(f)
    gens = [_generator(alg, b) for b in vecs]
    root = list(range(len(vecs)))  # the class minimum of each index
    for i, gen in enumerate(gens):
        rest = [j for j in range(i + 1, len(vecs)) if root[j] == j]
        if root[i] == i and rest:
            ctx = _BetaContext(alg, *gen)
            for j, w in zip(rest, mat_mul([vecs[j] for j in rest], ctx.pinv)):
                if _gl2_gamma(ctx.minpoly, w) is not None:
                    root[j] = i
    classes = {}
    for i, r in enumerate(root):
        classes.setdefault(r, []).append(i)
    return list(classes.values())


def hermite_witness_check(f, g, expr):
    """Certify Hermite equivalence of f and g, or return None.

    expr is an integer polynomial; beta = expr(alpha) must be a root of g
    inside K_f whose power lattice coincides with the power lattice of
    alpha.  When it does, the change of basis U (row i = beta^i in the
    powers of alpha, both ascending) is unimodular and is returned.  It
    relates the forms through its inverse transpose with the variable
    order reversed: act_gln(hermite_form(g), R U^-T R) = +-hermite_form(f),
    R the order-reversing permutation, because hermite_form's variables
    run over descending powers.  Failure of the lattice comparison proves
    nothing about the pair.
    """
    f = normalize(f)
    g = normalize(g)
    n = degree(f)
    if n < 2 or degree(g) != n:
        raise DomainError("need equal degrees >= 2")
    if content(f) != content(g):
        raise ContentMismatchError("contents differ")
    if abs(f[-1]) != abs(g[-1]):
        raise ContentMismatchError("leading coefficients differ in absolute value")
    alg = EtaleAlgebra(f)  # refuses a zero discriminant
    beta = alg.from_poly(expr)
    if poly_eval(g, beta) != 0:
        raise NotARootError("expression is not a root of the target")
    # I_f(n-1) has the identity basis, so the change of basis is P itself
    return _power_matrix(alg, beta)


def reducible_pair(f):
    """A Hermite-equivalent reducible pair built from a monic f with f(0)=1.

    Returns (g, h, q, u) with g = X f(X), h = X^(n+1) f(1/X), q a witness
    polynomial and u the unimodular witness hermite_witness_check(g, h, q)
    certifying the equivalence: q sends the root class of g to a root of h.
    q(X) = X r(X) where r(X) expresses alpha^(-2) integrally (alpha is a
    unit of Z[alpha] because f(0) = 1).
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
    return g, h, q, u

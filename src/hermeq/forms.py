# Decomposable forms attached to integer polynomials.
#
# For f of degree n the associated form in n variables is
#
#   [f](X1,...,Xn) = Res_Y(X1 Y^(n-1) + X2 Y^(n-2) + ... + Xn, f(Y)),
#
# a homogeneous integer form of degree n that factors into linear forms over
# the splitting field.  This module builds [f] exactly, applies GL_n(Z)
# substitutions, and produces the n x n transfer matrix t(gamma) through
# which a 2x2 substitution on f acts on [f].

from math import comb

from .intmat import det_bareiss, is_unimodular, mat_dims
from .intpoly import (DomainError, content, degree, discriminant, normalize,
                      poly_mul, poly_pow, scaled_power_sums)


class DecomposableForm:
    """Homogeneous integer form of degree n in n variables, stored sparsely.

    terms maps exponent tuples (entries >= 0 summing to n) to nonzero
    integer coefficients.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms):
        self.n = n
        self.terms = {}
        for e, c in terms.items():
            if not c:
                continue
            e = tuple(e)
            if len(e) != n or sum(e) != n or any(x < 0 for x in e):
                raise DomainError("exponent %r not homogeneous of degree %d" % (e, n))
            self.terms[e] = c

    def __eq__(self, other):
        return (isinstance(other, DecomposableForm)
                and self.n == other.n and self.terms == other.terms)

    def __neg__(self):
        return DecomposableForm(self.n, {e: -c for e, c in self.terms.items()})

    def __repr__(self):
        return "DecomposableForm(%d, %r)" % (self.n, self.terms)


# Above this degree hermite_form and norm_form refuse their input.  Each
# grows about tenfold per degree: at degree 9 each takes about 4 s on a
# 2-core machine (hermite_form peaks near 130 MB resident), and at degree
# 10 norm_form takes about 40 s.  reproduce-all stays at degree 5 and the
# tests at degree 8.
MAX_FORM_DEGREE = 9
# The form of f has C(2n-1, n) terms of about n - 1 times the size of f's
# coefficients; hermite_form and `hermeq normform` refuse an f with
# C(2n-1, n) * n * (bit length of its largest coefficient) over this cap.
MAX_FORM_BITS = 10 ** 6


def check_form_size(n, f=()):
    if n > MAX_FORM_DEGREE:
        raise DomainError("degree %d is over the cap MAX_FORM_DEGREE = %d"
                          % (n, MAX_FORM_DEGREE))
    bits = max((abs(c) for c in f), default=0).bit_length()
    size = comb(2 * n - 1, n) * n * bits if n > 0 else 0
    if size > MAX_FORM_BITS:
        raise DomainError("form size C(2n-1, n) * n * bits = %d at degree %d "
                          "is over the cap MAX_FORM_BITS = %d"
                          % (size, n, MAX_FORM_BITS))


def unpack_exponents(key, nvars, base):
    """The exponent tuple packed in key as sum e_i * base^i."""
    e = []
    for _ in range(nvars):
        key, r = divmod(key, base)
        e.append(r)
    return tuple(e)


def laplace_minors(rows, nvars, weight):
    """Sum over column sets S of weight(S) * minor(rows on S), expanded.

    Each entry of rows is None (zero) or a linear form, a sequence of nvars
    integer coefficients.  A column set S is a bitmask over the columns
    with len(rows) bits set; weight(S) is an integer, asked once per S.
    Returns the sum as a dict from exponent tuples to nonzero coefficients.

    The minors are built one row at a time in a dict keyed by column
    bitmask: expanding along row r, the minor on S gains a[r][c] * (minor
    of the rows above on S - c) with the sign (-1)^(members of S above c).
    A polynomial is a dict keyed by the packed exponent sum e_i * b^i with
    b = len(rows) + 1, which no exponent reaches, so multiplying by a
    variable adds b^i to a key.  The minors of the last row are never
    stored: each is weighted and folded into the sum as it arises.
    """
    b = len(rows) + 1
    steps = [[None if a is None else
              [(b ** i, x) for i, x in enumerate(a) if x] for a in row]
             for row in rows]
    level = {0: {0: 1}}
    for row in steps[:-1]:
        nxt = {}
        for mask, poly in level.items():
            for c, lin in enumerate(row):
                if not lin or mask >> c & 1:
                    continue
                sign = -1 if bin(mask >> c).count("1") & 1 else 1
                acc = nxt.setdefault(mask | 1 << c, {})
                for step, x in lin:
                    x *= sign
                    for key, coef in poly.items():
                        key += step
                        acc[key] = acc.get(key, 0) + x * coef
        for poly in nxt.values():
            for key in [k for k, v in poly.items() if not v]:
                del poly[key]
        level = nxt
    weights = {}
    out = {}
    for mask, poly in level.items():
        for c, lin in enumerate(steps[-1]):
            if not lin or mask >> c & 1:
                continue
            s = mask | 1 << c
            w = weights.get(s)
            if w is None:
                w = weights[s] = weight(s)
            if not w:
                continue
            if bin(mask >> c).count("1") & 1:
                w = -w
            for step, x in lin:
                x *= w
                for key, coef in poly.items():
                    key += step
                    out[key] = out.get(key, 0) + x * coef
    return {unpack_exponents(k, nvars, b): v for k, v in out.items() if v}


def hermite_form(f):
    """The decomposable form [f] by symbolic expansion of Res(phi_X, f).

    The (2n-1)-square Sylvester determinant is expanded by generalized
    Laplace along its first n rows (the rows holding the variables; row r
    has X_j at column r+j): laplace_minors gives the sum of their minors,
    each weighted by its signed complementary integer minor from Bareiss.
    Exact for any degree up to MAX_FORM_DEGREE.
    """
    f = normalize(f)
    n = degree(f)
    if n < 2:
        raise DomainError("form needs degree >= 2")
    check_form_size(n, f)
    size = 2 * n - 1
    fd = list(reversed(f))  # leading coefficient first
    base_sign = n * (n - 1) // 2  # sum of the expanded row indices
    variable = [[int(i == j) for i in range(n)] for j in range(n)]
    rows = [[variable[c - r] if 0 <= c - r < n else None
             for c in range(size)] for r in range(n)]

    def weight(mask):
        cols = [c for c in range(size) if mask >> c & 1]
        comp = [c for c in range(size) if not mask >> c & 1]
        bottom = [[fd[c - i] if 0 <= c - i <= n else 0 for c in comp]
                  for i in range(n - 1)]
        minor = det_bareiss(bottom)
        return -minor if (sum(cols) + base_sign) % 2 else minor

    return DecomposableForm(n, laplace_minors(rows, n, weight))


def form_content(F):
    """Positive gcd of the coefficients of a nonzero form."""
    return content(list(F.terms.values()))


def act_gln(F, u):
    """Substituted form F(u X), expanded exactly; u must be unimodular.

    Multivariate Horner: grouped by the exponent of X_0, F is a polynomial
    in L_0 = sum_j u[0][j] X_j whose coefficients are the groups, each
    substituted the same way in X_1, ...  Every step multiplies by one
    linear form L_i, so no power of a linear form is ever expanded.  As in
    laplace_minors, a polynomial is a dict keyed by the packed exponent
    sum e_i * b^i with b = n + 1, so multiplying by X_j adds b^j to a key.
    """
    r, c = mat_dims(u)
    if r != c or r != F.n or not is_unimodular(u):
        raise DomainError("substitution matrix must be unimodular of matching size")
    n = F.n
    b = n + 1
    linear = [[(b ** j, x) for j, x in enumerate(row) if x] for row in u]

    def times(poly, lin):
        # lin is not empty: u is unimodular, so no L_i is zero
        (step, x), rest = lin[0], lin[1:]
        out = {key + step: x * coef for key, coef in poly.items()}
        get = out.get
        for step, x in rest:
            for key, coef in poly.items():
                key += step
                out[key] = get(key, 0) + x * coef
        return out

    def sub(terms, i):
        # terms: exponents of X_i, ..., X_(n-1) -> coefficient
        groups = {}
        for e, coef in terms.items():
            groups.setdefault(e[0], {})[e[1:]] = coef
        acc = {}
        for k in range(max(groups), -1, -1):
            if acc:
                acc = times(acc, linear[i])
            if k in groups:
                group = groups[k]
                inner = sub(group, i + 1) if i + 1 < n else {0: group[()]}
                for key, coef in inner.items():
                    acc[key] = acc.get(key, 0) + coef
        return acc

    out = sub(F.terms, 0) if F.terms else {}
    return DecomposableForm(n, {unpack_exponents(k, n, b): v
                                for k, v in out.items() if v})


def transfer_matrix(gamma, n):
    """The n x n matrix t(gamma) with [gamma f](X) = [f](t(gamma)^T X).

    Row k holds the coefficients of (d*A - b)^(n-1-k) (a - c*A)^k, read off
    against the basis A^(n-1), ..., A, 1: entry (k, j) is the coefficient of
    A^(n-1-j).  This is the (n-1)-st symmetric power of the inverse Moebius
    substitution, normalized so t(identity) is the identity; composition
    reverses order, t(g1 g2) = t(g2) t(g1).
    """
    (a, b), (c, d) = gamma
    if not is_unimodular(gamma):
        raise DomainError("transfer matrix needs a unimodular 2x2 matrix")
    rows = []
    for k in range(n):
        p = poly_mul(poly_pow([-b, d], n - 1 - k), poly_pow([a, -c], k))
        p = list(p) + [0] * (n - len(p))
        rows.append([p[n - 1 - j] for j in range(n)])
    return rows


def verify_disc_identity(f):
    """Check f0^(2n-2) det(Tr(alpha^(i+j)))_{0<=i,j<n} = D(f).

    The left side is the discriminant of [f] computed through the trace
    form of Q[X]/(f); the right side is the resultant route.  Equality is
    the invariance statement tying the form to its polynomial.  It is
    checked in integers: with q_k = f0^k Tr(alpha^k), det(q_(i+j)) =
    f0^(n(n-1)) det(Tr(alpha^(i+j))) = f0^((n-1)(n-2)) D(f).
    """
    f = normalize(f)
    n = degree(f)
    if n < 2:
        raise DomainError("need degree >= 2")
    d = discriminant(f)
    if d == 0:
        raise DomainError("discriminant is zero (not squarefree)")
    q = scaled_power_sums(f, 2 * n - 2)
    return (det_bareiss([q[i:i + n] for i in range(n)])
            == f[-1] ** ((n - 1) * (n - 2)) * d)

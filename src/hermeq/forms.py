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
                      poly_mul, poly_pow, scaled_power_sums, sylvester_matrix)


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


def _mul_add(acc, poly, lin, scale):
    # acc += scale * lin * poly, returning acc: polynomials are packed-
    # exponent dicts, lin is (step, coefficient) pairs, step a variable's key
    get = acc.get
    for step, x in lin:
        x *= scale
        for key, coef in poly.items():
            key += step
            acc[key] = get(key, 0) + x * coef
    return acc


def laplace_minors(rows, nvars):
    """The determinant of a square matrix whose leading rows are linear.

    Each entry of the leading rows is 0, None or a linear form, a sequence
    of nvars integer coefficients; the remaining rows hold integers.  The
    expanded determinant is a dict from exponent tuples to coefficients:
    packed_minors(rows) with its keys unpacked.
    """
    terms, b = packed_minors(rows)
    return {unpack_exponents(key, nvars, b): v for key, v in terms.items()
            if v}


def packed_minors(rows):
    """(terms, b): the determinant of laplace_minors with each exponent
    tuple e packed into the key sum e_i * b^i, b = k + 1 for k leading
    linear rows.  A coefficient that cancels to zero may be kept.

    Generalized Laplace along the k linear rows: the determinant is the sum
    over k-sets S of columns of the minor of the linear rows on S times the
    complementary minor, the integer rows on the columns outside S (Bareiss,
    once per S), signed by (-1)^(0 + ... + k-1 + sum of S).  The minors
    are built one row at a time in a dict keyed by column bitmask:
    expanding along row r, the minor on S gains a[r][c] * (minor of the
    rows above on S - c) with the sign (-1)^(members of S above c).  A
    polynomial is a dict keyed by the packed exponent sum e_i * b^i with
    b = k + 1, which no exponent reaches, so multiplying by a variable adds
    b^i to a key.  The minors of the last linear row are never stored:
    each is weighted and folded into the sum as it arises.
    """
    size = len(rows)
    k = max((r + 1 for r, row in enumerate(rows)
             if not all(isinstance(a, int) for a in row)), default=0)
    ints = rows[k:]
    b = k + 1
    if not k:
        return {0: det_bareiss(ints)}, b
    steps = [[[(b ** i, x) for i, x in enumerate(a or ()) if x] for a in row]
             for row in rows[:k]]
    level = {0: {0: 1}}
    for row in steps[:-1]:
        nxt = {}
        for mask, poly in level.items():
            for c, lin in enumerate(row):
                if not lin or mask >> c & 1:
                    continue
                sign = -1 if bin(mask >> c).count("1") & 1 else 1
                _mul_add(nxt.setdefault(mask | 1 << c, {}), poly, lin, sign)
        level = nxt
    weights, out = {}, {}
    for mask, poly in level.items():
        for c, lin in enumerate(steps[-1]):
            if not lin or mask >> c & 1:
                continue
            s = mask | 1 << c
            w = weights.get(s)
            if w is None:
                comp = [j for j in range(size) if not s >> j & 1]
                w = det_bareiss([[row[j] for j in comp] for row in ints])
                if (k * (k - 1) // 2 + sum(range(size)) - sum(comp)) % 2:
                    w = -w
                weights[s] = w
            if not w:
                continue
            if bin(mask >> c).count("1") & 1:
                w = -w
            _mul_add(out, poly, lin, w)
    return out, b


def hermite_form(f):
    """The decomposable form [f] as the determinant Res(phi_X, f).

    phi_X(Y) = X1 Y^(n-1) + ... + Xn, its coefficients the unit linear
    forms; laplace_minors expands the (2n-1)-square Sylvester matrix of
    phi_X and f along its n variable rows.  Exact for any degree up to
    MAX_FORM_DEGREE.
    """
    f = normalize(f)
    n = degree(f)
    if n < 2:
        raise DomainError("form needs degree >= 2")
    check_form_size(n, f)
    phi = [[int(i == n - 1 - j) for i in range(n)] for j in range(n)]
    return DecomposableForm(n, laplace_minors(sylvester_matrix(phi, f), n))


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

    def sub(terms, i):
        # terms: exponents of X_i, ..., X_(n-1) -> coefficient
        groups = {}
        for e, coef in terms.items():
            groups.setdefault(e[0], {})[e[1:]] = coef
        acc = {}
        for k in range(max(groups), -1, -1):
            if acc:
                acc = _mul_add({}, acc, linear[i], 1)
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

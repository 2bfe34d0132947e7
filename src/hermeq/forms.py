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

from .intmat import det_bareiss, is_unimodular, mat_dims
from .intpoly import (DomainError, degree, discriminant, normalize,
                      poly_mul, poly_pow, scaled_power_sums)


class MPoly:
    """Sparse multivariate polynomial over the integers.

    Keys are exponent tuples of fixed length nvars; values are nonzero ints.
    Supports ring arithmetic with other MPoly instances and with ints, which
    is all the symbolic Sylvester expansion needs.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[tuple(e)] = c

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars, j):
        e = [0] * nvars
        e[j] = 1
        return cls(nvars, {tuple(e): 1})

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        if isinstance(other, int):
            return MPoly.constant(self.nvars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return MPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = MPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            if other == 0:
                return not self.terms
            return self.terms == {(0,) * self.nvars: other}
        if isinstance(other, MPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return "MPoly(%d, %r)" % (self.nvars, self.terms)


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

    def evaluate(self, point):
        if len(point) != self.n:
            raise DomainError("evaluation point has wrong length")
        total = 0
        for e, c in self.terms.items():
            t = c
            for x, k in zip(point, e):
                if k:
                    t *= x ** k
            total += t
        return total


def hermite_form(f):
    """The decomposable form [f] by symbolic expansion of Res(phi_X, f).

    The (2n-1)-square Sylvester determinant is expanded by generalized
    Laplace along its first n rows (the rows holding the variables): the
    variable-row minors come from a subset DP adding one row at a time, the
    complementary integer minors from Bareiss.  Exact for any degree; meant
    for n up to about 8, beyond which the subset count takes over.
    """
    f = normalize(f)
    n = degree(f)
    if n < 2:
        raise DomainError("form needs degree >= 2")
    size = 2 * n - 1
    fd = list(reversed(f))  # leading coefficient first
    # level[S] = minor of the first r variable rows on column set S,
    # held as a sparse exponent dict; row r has variable j at column r+j.
    level = {(): {(0,) * n: 1}}
    for r in range(n):
        nxt = {}
        for cols, val in level.items():
            for j in range(n):
                c = r + j
                if c in cols:
                    continue
                pos = 0
                while pos < len(cols) and cols[pos] < c:
                    pos += 1
                sgn = -1 if (r + pos) % 2 else 1
                key = cols[:pos] + (c,) + cols[pos:]
                acc = nxt.setdefault(key, {})
                for e, coef in val.items():
                    e2 = list(e)
                    e2[j] += 1
                    e2 = tuple(e2)
                    s = acc.get(e2, 0) + sgn * coef
                    if s:
                        acc[e2] = s
                    else:
                        del acc[e2]
        level = nxt
    base_sign = n * (n - 1) // 2  # sum of the expanded row indices
    out = {}
    for cols, val in level.items():
        if not val:
            continue
        comp = [c for c in range(size) if c not in cols]
        bottom = []
        for i in range(n - 1):
            row = []
            for c in comp:
                k = c - i
                row.append(fd[k] if 0 <= k <= n else 0)
            bottom.append(row)
        minor = det_bareiss(bottom) if bottom else 1
        if not minor:
            continue
        sgn = -1 if (sum(cols) + base_sign) % 2 else 1
        m = sgn * minor
        for e, coef in val.items():
            s = out.get(e, 0) + m * coef
            if s:
                out[e] = s
            else:
                del out[e]
    return DecomposableForm(n, out)


def form_content(F):
    from math import gcd

    if not F.terms:
        raise DomainError("content of the zero form is undefined")
    g = 0
    for c in F.terms.values():
        g = gcd(g, c)
    return g


def act_gln(F, u):
    """Substituted form F(u X), expanded exactly; u must be unimodular.

    Multivariate Horner: grouped by the exponent of X_0, F is a polynomial
    in L_0 = sum_j u[0][j] X_j whose coefficients are the groups, each
    substituted the same way in X_1, ...  Every step multiplies by one
    linear form L_i, so no power of a linear form is ever expanded.
    """
    r, c = mat_dims(u)
    if r != c or r != F.n or not is_unimodular(u):
        raise DomainError("substitution matrix must be unimodular of matching size")
    n = F.n
    linear = [MPoly(n, {tuple(int(k == j) for k in range(n)): u[i][j]
                        for j in range(n)}) for i in range(n)]

    def sub(terms, i):
        # terms: exponents of X_i, ..., X_(n-1) -> coefficient
        if i == n:
            return terms[()]
        groups = {}
        for e, coef in terms.items():
            groups.setdefault(e[0], {})[e[1:]] = coef
        acc = MPoly(n)
        for k in range(max(groups), -1, -1):
            acc = acc * linear[i]
            if k in groups:
                acc = acc + sub(groups[k], i + 1)
        return acc

    return DecomposableForm(n, sub(F.terms, 0).terms if F.terms else {})


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

# Etale algebras Q[X]/(g) for squarefree integer g, together with the
# full-rank Z-lattices inside them that this package cares about: the
# invariant order R_f, the invariant ideals I_f(k), and arbitrary fractional
# lattices.  Everything is exact; reducible g (zero divisors) is supported
# throughout, with element inversion the one operation that can refuse.

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod

from .forms import (DecomposableForm, check_form_size, packed_minors,
                    unpack_exponents)
from .intmat import (adjugate_solve, det_bareiss, hnf_lattice, identity,
                     mat_mul, transpose)
from .intpoly import (DomainError, degree, discriminant, normalize,
                      poly_eval, primitive_part, scaled_power_sums)


def _lowest(rows, den=1):
    # integer rows over a nonzero integer den, as integer rows over their
    # least positive denominator
    g = gcd(den, *(x for row in rows for x in row))
    if den < 0:
        g = -g
    return [[x // g for x in row] for row in rows], den // g


def product_rows(x, r):
    """(rows, d): the integer rows of x * r^k, k = 0 .. n-1, over their least
    common denominator d; the multiplication matrix of x for r = alpha."""
    pows = [x]
    for _ in range(x.algebra.n - 1):
        pows.append(pows[-1] * r)
    d = lcm(*(y.den for y in pows))
    return [[c * (d // y.den) for c in y.num] for y in pows], d


def _algebra_key(g):
    # the primitive positive-leading multiple of g, which fixes Q[X]/(g)
    key = primitive_part(g)
    return tuple(key if key[-1] > 0 else [-c for c in key])


class EtaleAlgebra:
    """Q[X]/(g) for squarefree g of degree n >= 2; alpha is the class of X.

    Scaling g by a constant does not change the quotient, so algebras
    compare equal whenever their primitive positive-leading defining
    polynomials agree.
    """

    __slots__ = ("poly", "n", "key", "pow_scale", "pow_table")

    def __init__(self, g):
        g = normalize(g)
        n = degree(g)
        if n < 2:
            raise DomainError("algebra needs degree >= 2")
        if discriminant(g) == 0:
            raise DomainError("defining polynomial must be squarefree")
        self.poly = g
        self.n = n
        self.key = _algebra_key(g)
        # integer rows of s alpha^k, k = 0 .. 2n-2 (all that products need),
        # s = |lead|^(n-1): alpha^(n+j) has a denominator dividing
        # lead^(j+1), so each row is integral and each step divides exactly
        s = self.pow_scale = abs(g[-1]) ** (n - 1)
        pows = [[s * (i == k) for i in range(n)] for k in range(n)]
        for _ in range(n - 1):
            prev = pows[-1]
            q, r = divmod(prev[-1], g[-1])
            if r:
                raise AssertionError("power table not integral")
            pows.append([a - q * c for a, c in zip([0] + prev[:-1], g)])
        self.pow_table = pows

    def __eq__(self, other):
        return isinstance(other, EtaleAlgebra) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "EtaleAlgebra(%r)" % (self.poly,)

    def element(self, coords):
        if len(coords) != self.n:
            raise DomainError("coordinate vector has wrong length")
        return AlgElement(self, coords)

    def zero(self):
        return self.element([0] * self.n)

    def one(self):
        return self.element([1] + [0] * (self.n - 1))

    def alpha(self):
        return self.element([0, 1] + [0] * (self.n - 2))

    def from_poly(self, p):
        """The class of the polynomial p(X), any degree, integer
        coefficients; the zero element for p = [] too."""
        return self.zero() + poly_eval(p, self.alpha())


class AlgElement:
    """sum(num[i] alpha^i) / den with den > 0 and gcd(den, *num) == 1, a
    unique form, so == and hash compare the fields.  Built from integer
    coordinates over a nonzero integer den; coords is the read-only
    Fraction view."""

    __slots__ = ("algebra", "num", "den")

    def __init__(self, algebra, coords, den=1):
        (num,), self.den = _lowest([coords], den)
        self.algebra = algebra
        self.num = tuple(num)

    @property
    def coords(self):
        return tuple(Fraction(c, self.den) for c in self.num)

    def _check(self, other):
        if isinstance(other, AlgElement):
            if other.algebra != self.algebra:
                raise DomainError("algebra mismatch")
            return other
        if isinstance(other, int):
            a = self.algebra
            return a.element([other] + [0] * (a.n - 1))
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return AlgElement(self.algebra,
                          [a * other.den + b * self.den
                           for a, b in zip(self.num, other.num)],
                          self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return AlgElement(self.algebra, [-a for a in self.num], self.den)

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return elem_mul(self, other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.algebra.element([other] + [0] * (self.algebra.n - 1))
        return (isinstance(other, AlgElement)
                and self.algebra == other.algebra
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.algebra, self.num, self.den))

    def __repr__(self):
        return "AlgElement(%r)" % (list(self.coords),)

    def inverse(self):
        """The multiplicative inverse, or DomainError for a zero divisor."""
        # the first row of the inverse of the multiplication matrix m / d,
        # that is d adj(m^T) e_0 / det(m)
        m, d = product_rows(self, self.algebra.alpha())
        det, col = adjugate_solve(transpose(m),
                                  [[d * (i == 0)] for i in range(len(m))])
        if det == 0:
            raise DomainError("element is not invertible")
        return AlgElement(self.algebra, [c for c, in col], det)


def _products(a, xs, ys):
    # the integer rows of s * x * y, s = a.pow_scale, for each numerator
    # row x in xs and then y in ys: the convolution of the two rows, with
    # its coefficients of alpha^k, k < n, scaled by s and the rest folded
    # into the power basis through pow_table, whose row k is s * alpha^k
    n = a.n
    s = a.pow_scale
    high = a.pow_table[n:]
    out = []
    for x in xs:
        for y in ys:
            conv = [0] * (2 * n - 1)
            for i, c in enumerate(x):
                if c:
                    for j, d in enumerate(y):
                        conv[i + j] += c * d
            row = [s * c for c in conv[:n]]
            for c, pw in zip(conv[n:], high):
                if c:
                    for t in range(n):
                        row[t] += c * pw[t]
            out.append(row)
    return out


def elem_mul(x, y):
    if x.algebra != y.algebra:
        raise DomainError("algebra mismatch")
    a = x.algebra
    (row,) = _products(a, [x.num], [y.num])
    return AlgElement(a, row, x.den * y.den * a.pow_scale)


class IdealLattice:
    """Full-rank Z-lattice in an etale algebra.

    The constructing basis (integer rows over a nonzero integer den) is
    kept in its row order, which change-of-basis witnesses need, as integer
    rows over the least positive denominator.
    Equality uses the canonical pair (denominator, HNF of denominator * L).
    """

    __slots__ = ("algebra", "rows", "denominator", "hnf")

    def __init__(self, algebra, rows, den=1):
        n = algebra.n
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DomainError("lattice basis must be square of algebra degree")
        rows, den = _lowest(rows, den)
        h, rank = hnf_lattice(rows)
        if rank != n:
            raise DomainError("lattice basis is singular")
        self.algebra = algebra
        self.rows = rows
        self.denominator = den
        self.hnf = tuple(tuple(row) for row in h)

    def key(self):
        return (self.algebra.key, self.denominator, self.hnf)

    def __eq__(self, other):
        return isinstance(other, IdealLattice) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "IdealLattice(d=%d, hnf=%r)" % (self.denominator,
                                               [list(r) for r in self.hnf])

    def scaled(self, kappa):
        """The lattice kappa * L, on the basis kappa * b_i."""
        _same_algebra(self, kappa)
        a = self.algebra
        return IdealLattice(a, _products(a, [kappa.num], self.rows),
                            kappa.den * self.denominator * a.pow_scale)

    def covolume(self):
        # |det| of any basis: the stored HNF is triangular, pivots positive
        return Fraction(prod(row[i] for i, row in enumerate(self.hnf)),
                        self.denominator ** self.algebra.n)

    def contains(self, x):
        if x.algebra != self.algebra:
            raise DomainError("algebra mismatch")
        # x is in L iff denominator * x.num = x.den * (w H) for an integer
        # w; H is triangular, so solve for w row by row
        v = [self.denominator * c for c in x.num]
        for i, row in enumerate(self.hnf):
            w, r = divmod(v[i], x.den * row[i])
            if r:
                return False
            v = [a - w * x.den * b for a, b in zip(v, row)]
        return True


def zeta_lattice(f, k, algebra=None):
    """The invariant lattice I_f(k) inside K_f.

    Basis 1, alpha, ..., alpha^k, zeta_{k+1}, ..., zeta_{n-1} where
    zeta_i = f0 alpha^i + f1 alpha^(i-1) + ... + f_{i-1} alpha, indexing the
    coefficients of f from the leading one down.  k = 0 is the invariant
    order R_f; k = n-1 is the span of the powers of alpha.
    """
    f = normalize(f)
    n = degree(f)
    if algebra is None:
        algebra = EtaleAlgebra(f)
    elif algebra.key != _algebra_key(f):
        raise DomainError("algebra does not match polynomial")
    if not 0 <= k <= n - 1:
        raise DomainError("k out of range 0..%d" % (n - 1))
    rows = []
    for i in range(k + 1):
        rows.append([int(i == j) for j in range(n)])
    for i in range(k + 1, n):
        row = [0] * n
        for j in range(i):
            row[i - j] += f[n - j]  # f[n-j] = descending coefficient f_j
        rows.append(row)
    return IdealLattice(algebra, rows)


def invariant_order(f, algebra=None):
    return zeta_lattice(f, 0, algebra)


def _same_algebra(l1, l2):
    if l1.algebra != l2.algebra:
        raise DomainError("algebra mismatch")


def lattice_norm(l, o):
    """|det| of the base change from a basis of o to a basis of l."""
    _same_algebra(l, o)
    return l.covolume() / o.covolume()


def lattice_mul(l1, l2):
    _same_algebra(l1, l2)
    a = l1.algebra
    # the products b_i c_j as integer rows over one denominator; the HNF
    # commutes with positive scaling, so IdealLattice reduces its result to
    # the rows and denominator of the products reduced one by one
    h, rank = hnf_lattice(_products(a, l1.rows, l2.rows))
    if rank != a.n:
        raise DomainError("product lattice is not full rank")
    return IdealLattice(a, h, l1.denominator * l2.denominator * a.pow_scale)


def lattice_equal(l1, l2):
    _same_algebra(l1, l2)
    return l1 == l2


def _gram(l):
    """(G, s): the trace form Tr(b_i b_j) on the stored basis of l is G / s,
    G an integer matrix and s > 0."""
    g, n = l.algebra.poly, l.algebra.n
    f0 = g[-1]
    # q_k = f0^k Tr(alpha^k), so scaling column a of the rows by
    # f0^(n-1-a) makes every entry of C Q C^T carry f0^(2n-2)
    q = scaled_power_sums(g, 2 * n - 2)
    c = [[x * f0 ** (n - 1 - a) for a, x in enumerate(row)] for row in l.rows]
    hankel = [q[i:i + n] for i in range(n)]
    return (mat_mul(mat_mul(c, hankel), transpose(c)),
            f0 ** (2 * n - 2) * l.denominator ** 2)


def colon_lattice(l1, l2):
    """(l1 : l2) = {x : x*l2 inside l1}, solved for in integers.

    Write l1 = H1 / d1 with H1 its HNF, and let b_j = r_j / d2 run over the
    HNF basis of l2.  Row i of s * d2 * M(b_j), M(b) the multiplication
    matrix of b and s the algebra's pow_scale, is the integer row
    s * alpha^i * r_j, so P_j = s * d2 * M(b_j) comes from one _products
    call for all j.  x lies in the colon exactly when x M(b_j) H1^-1 d1 is
    integral for every j, that is x c / D is an integer for every column c
    of every P_j adj(H1), with D = s d2 det(H1) / d1.  Those columns span
    the row lattice of an n x n HNF H, so the colon is D (H^T)^-1, read off
    as D adj(H^T) / det(H) by one adjugate_solve.
    """
    _same_algebra(l1, l2)
    a = l1.algebra
    n = a.n
    det1, adj1 = adjugate_solve(l1.hnf, identity(n))
    prods = mat_mul(_products(a, identity(n), l2.hnf), adj1)
    # the column c of P_j adj(H1): entry i is row i * n + j, column c
    h, _ = hnf_lattice([[prods[i * n + j][c] for i in range(n)]
                        for j in range(n) for c in range(n)])
    scale = a.pow_scale * l2.denominator * det1
    det, rows = adjugate_solve(transpose(h), [[scale * (i == j)
                                               for j in range(n)]
                                              for i in range(n)])
    return IdealLattice(a, rows, det * l1.denominator)


def trace_form_disc(l):
    """det(Tr(b_i b_j)) over the stored basis of l; rational in general."""
    gram, s = _gram(l)
    return Fraction(det_bareiss(gram), s ** l.algebra.n)


def is_order(o):
    # 1 in o puts o inside o * o, so o is closed exactly when o * o = o
    return o.contains(o.algebra.one()) and lattice_mul(o, o) == o


def _integer_norm_form(algebra, rows):
    # (terms, d): N(z1 r1 + ... + zn rn) for integer rows r_i as the integer
    # form det(d*M) = d^n N(sum z_i r_i), packed exponent keys (base n + 1,
    # as every row of M is linear) -> coefficients, zeros among them.
    # Row k of s*M(x) is s alpha^k x = sum_j x_j pow_table[k + j], so z_i's
    # coefficient in entry (k, c) of s*M is entry (i, c) of the rows times
    # pow_table[k:k + n]; d = s / g with g the gcd of s and all those
    # coefficients, the least common denominator of the multiplication
    # matrices of the r_i
    n = algebra.n
    table = algebra.pow_table
    s = algebra.pow_scale
    sym = [transpose(mat_mul(rows, table[k:k + n])) for k in range(n)]
    g = gcd(s, *(x for line in sym for entry in line for x in entry))
    if g > 1:
        sym = [[[x // g for x in entry] for entry in line] for line in sym]
    terms, _ = packed_minors(sym)
    return terms, s // g


def norm_form(l, o):
    """The norm form N(x1 b1 + ... + xn bn) / N_o(l) on the basis of l.

    o must be an order (contain 1 and be closed under multiplication); the
    result has integer coefficients whenever l is a fractional o-ideal.
    """
    _same_algebra(l, o)
    n = l.algebra.n
    check_form_size(n)
    if not is_order(o):
        raise DomainError("second argument must be an order")
    det, dd = _integer_norm_form(l.algebra, l.rows)
    nu = lattice_norm(l, o)
    div = (dd * l.denominator) ** n * nu.numerator
    terms = {}
    for key, c in det.items():
        v, r = divmod(c * nu.denominator, div)
        if r:
            raise DomainError("norm form is not integral; l is not an o-ideal")
        if v:
            terms[unpack_exponents(key, n, n + 1)] = v
    return DecomposableForm(n, terms)


def _exponents(nvars, deg):
    # the exponent vectors of total degree deg in nvars variables
    if nvars == 1:
        return [(deg,)]
    return [(k,) + e for k in range(deg + 1)
            for e in _exponents(nvars - 1, deg - k)]


def _horner(terms, x):
    # source of the polynomial with coefficient names terms, highest power
    # first, at x by Horner's rule
    out = terms[0]
    for c in terms[1:]:
        out = "(%s)*%s + %s" % (out, x, c)
    return out


# The prime modulo which the generator search scans its boxes.  The norm
# form's coefficients carry tens of bits, but a point can take the value
# +-want only if it does so modulo this prime, and that test runs on
# residues of one machine digit; the points that pass it are evaluated
# exactly.
SCAN_PRIME = 8191


@lru_cache(maxsize=None)
def _evaluators(n):
    """(keys, scan): the block evaluator of a form P of degree n in
    z_0..z_{n-1}, given as its coefficient vector C on the monomials whose
    exponent tuples e are packed in keys as sum e_i (n + 1)^i, the packing
    of packed_minors.

    scan(C, R, prefix, us, s, rows, w) is the list of the points (u, t) at
    which P(prefix, u, t) takes the value w or -w, with u in us, t in -s..s
    when rows is true or |u| = s, and t = +-s otherwise; each point appears
    once.  R is C reduced modulo SCAN_PRIME, and the scan runs on residues:
    it forms the coefficients a of P as a polynomial in (u, t) from R,
    each monomial of the prefix formed once and shared, and tests each
    point for P = +-w modulo SCAN_PRIME.  Only the points that pass are
    evaluated exactly, from the exact coefficients head(C, *prefix),
    formed once per call and only if a point passes.  On a line of every t
    it takes the coefficients c_j(u) of t^j by Horner in u, tests t = 0
    once and then each pair +-t at once through the even and odd parts in
    t: P(u, +-t) = E(t^2) +- t O(t^2).  On a line of t = +-s alone it
    evaluates P(u, +-s) = A(u) +- B(u), whose coefficients in u it forms
    once per call.  The a, the c_j(u) and A, B are reduced, so for a
    quartic up to bound 16 each point costs single-digit integer steps
    (below 2^30).  The monomials depend only on n, so the code is compiled
    once per degree.
    """
    monos = _exponents(n, n)
    keys = tuple(sum(x * (n + 1) ** i for i, x in enumerate(e))
                 for e in monos)
    zs = ["z%d" % i for i in range(n - 2)]
    # a[k] is the coefficient of u^i t^j, (j, i) = pairs[k], t-degree first
    pairs = [(j, i) for j in range(n, -1, -1) for i in range(n - j, -1, -1)]
    # head forms each monomial of the prefix once, as a product of one of
    # degree one less and a z; pre names it (None for the empty monomial)
    pre = {(0,) * (n - 2): None}
    shared = []
    for e in sorted({e[:-2] for e in monos}, key=lambda e: (sum(e), e)):
        if any(e):
            k = next(i for i, m in enumerate(e) if m)
            low = pre[e[:k] + (e[k] - 1,) + e[k + 1:]]
            if low is None:
                pre[e] = zs[k]
            else:
                pre[e] = "m%d" % len(shared)
                shared.append("%s = %s*%s" % (pre[e], low, zs[k]))
    parts = {pr: [] for pr in pairs}
    for k, e in enumerate(monos):
        mono = pre[e[:-2]]
        parts[e[-1], e[-2]].append("[%d]*%s" % (k, mono) if mono
                                   else "[%d]" % k)
    names = ["a%d" % k for k in range(len(pairs))]
    residue = " %% %d" % SCAN_PRIME

    def sums(vec):
        # the source of each a[k] from the coefficient vector named vec
        return [" + ".join(vec + x for x in parts[pr]) or "0" for pr in pairs]

    def code(lines, indent):
        return "".join(" " * indent + ln + "\n" for ln in lines)

    def found(t):
        return ["if v == r or v == nr:", "    hits.append((u, %s))" % t]

    def both(t):
        return (["v = (e + o)" + residue] + found(t)
                + ["v = (e - o)" + residue] + found("-" + t))

    # c%d is c_j(u), the coefficient of t^j, named by n - j, with mod
    # appended to its source
    def coeffs(mod):
        return ["c%d = (%s)%s" % (n - j, _horner(
                    [nm for nm, pr in zip(names, pairs) if pr[0] == j], "u"),
                                       mod)
                for j in range(n, -1, -1)]

    even = ["c%d" % (n - j) for j in range(n - n % 2, -1, -2)]
    odd = ["c%d" % (n - j) for j in range(n - 1 + n % 2, 0, -2)]
    full = (coeffs(residue) + ["v = c%d" % n] + found("0")
            + ["for t, t2 in squares:"]
            + ["    " + ln for ln in ["e = " + _horner(even, "t2"),
                                      "o = t * (%s)" % _horner(odd, "t2")]
               + both("t")])
    # A%d and B%d: the coefficients of u^i in the parts of P(u, s) even and
    # odd in s, so that P(u, +-s) = A(u) +- B(u)
    spow = ["s%d = s%d * s" % (j, j - 1) for j in range(2, n + 1)]
    ab = []
    for x, parity in (("A", 0), ("B", 1)):
        for i in range(n + 1 - parity):
            terms = [nm + "*s%d" % pr[0] if pr[0] else nm
                     for nm, pr in zip(names, pairs)
                     if pr[1] == i and pr[0] % 2 == parity]
            ab.append("%s%d = (%s)%s" % (x, i, " + ".join(terms), residue))
    ring = ["e = " + _horner(["A%d" % i for i in range(n, -1, -1)], "u"),
            "o = " + _horner(["B%d" % i for i in range(n - 1, -1, -1)], "u")
            ] + both("s")
    unpack = "    %s, = a\n" % ", ".join(names)
    src = ("def head(%s):\n" % ", ".join(["C"] + zs) + code(shared, 4)
           + "    return (%s,)\n" % ", ".join(sums("C"))
           + "def value(a, u, t):\n" + unpack + code(coeffs(""), 4)
           + "    return %s\n" % _horner(["c%d" % k for k in range(n + 1)],
                                          "t")
           + "def scan(C, R, prefix, us, s, rows, w):\n"
           + ("    %s, = prefix\n" % ", ".join(zs) if zs else "")
           + code(shared, 4)
           + code(["%s = (%s)%s" % (nm, x, residue)
                   for nm, x in zip(names, sums("R"))], 4)
           + "    r = w%s\n    nr = -w%s\n" % (residue, residue)
           + "    hits = []\n"
           + "    squares = [(t, t * t) for t in range(1, s + 1)]\n"
           + "    if not rows:\n        s1 = s\n" + code(spow + ab, 8)
           + "    for u in us:\n"
           + "        if rows or u == s or u == -s:\n" + code(full, 12)
           + "        else:\n" + code(ring, 12)
           + "    if hits:\n"
           + "        a = head(C, *prefix)\n"
           + "        hits = [(u, t) for u, t in hits\n"
           + "                if value(a, u, t) in (w, -w)]\n"
           + "    return hits\n")
    compiled = {}
    exec(src, compiled)
    return keys, compiled["scan"]


# The largest search bound colon_and_kappa_search accepts.  The bound sets
# the work: the box holds ((2B+1)^n - 1)/2 candidates, 138,458,880 for a
# quartic at B = 64, some 230 times the default box of principality_evidence.
MAX_SEARCH_BOUND = 64


def _norm_hits(coeffs, n, bound, want):
    """The points z of the search box at which the form of degree n with
    coefficient vector coeffs on the keys of _evaluators(n) takes the
    value want or -want, in the walk order of colon_and_kappa_search.

    Each shell s is walked by blocks: a block is a prefix z_0..z_{n-3}, in
    product order, with u = z_{n-2} and t = z_{n-1} free, so that on it the
    form is a polynomial in (u, t).  A prefix above zero has u in -s..s,
    the zero prefix u in 0..s, and a prefix below zero is skipped.  A line
    u takes every t in -s..s when the prefix or u reaches +-s, and t = +-s
    otherwise.  The coefficients are reduced modulo SCAN_PRIME once, and
    one compiled scan per block tests each of its points on those
    residues, evaluates each point that passes exactly, and returns the
    points of value +-want, which are yielded in sorted (u, t) order, the
    walk order within the block.  On the zero prefix the scan also
    returns (0, ..., 0, -s), the negative of the box point (0, ..., 0, s),
    when it hits; that point lies outside the box and is dropped.
    """
    scan = _evaluators(n)[1]
    residues = [c % SCAN_PRIME for c in coeffs]
    zero = (0,) * (n - 2)
    for s in range(1, bound + 1):
        full = range(-s, s + 1)
        for prefix in product(full, repeat=n - 2):
            if prefix > zero:
                us = full
            elif prefix == zero:
                us = range(s + 1)
            else:
                continue
            rows = s in prefix or -s in prefix
            for u, t in sorted(scan(coeffs, residues, prefix, us, s, rows,
                                    want)):
                if t == -s and not u and prefix == zero:
                    continue
                yield prefix + (u, t)


def colon_and_kappa_search(l1, l2, bound):
    """Search for kappa with kappa * l2 = l1.

    Any such kappa lies in the colon lattice (l1 : l2); its absolute norm
    must equal the lattice norm of l1 relative to l2.  Candidates are the
    coordinate vectors z against the canonical HNF basis of the colon
    lattice (the as-computed colon basis can be badly skewed, which would
    bury small generators) of sup-norm 1..bound, one of each +- pair: those
    whose first nonzero entry is positive.  They are visited by sup-norm,
    then in lex order, and only those whose norm form value is +-want, as
    _norm_hits finds them, are confirmed exactly.  A hit is a proof;
    exhaustion is inconclusive (None).  A bound outside
    0..MAX_SEARCH_BOUND raises DomainError.
    """
    _same_algebra(l1, l2)
    if bound < 0:
        raise DomainError("search bound must be >= 0")
    if bound > MAX_SEARCH_BOUND:
        raise DomainError("search bound %d is over the cap MAX_SEARCH_BOUND"
                          " = %d" % (bound, MAX_SEARCH_BOUND))
    a = l1.algebra
    n = a.n
    ratio = l1.covolume() / l2.covolume()
    # a rational kappa > 0 with kappa * l2 = l1 scales the ideal of first
    # coordinates, which the first HNF pivot generates
    k = Fraction(l1.hnf[0][0] * l2.denominator, l2.hnf[0][0] * l1.denominator)
    if k ** n == ratio:
        kappa = AlgElement(a, [k.numerator] + [0] * (n - 1), k.denominator)
        if l2.scaled(kappa) == l1:
            return kappa
    col = colon_lattice(l1, l2)
    d = col.denominator
    det, dd = _integer_norm_form(a, col.hnf)
    want = ratio * (dd * d) ** n
    if want.denominator != 1:
        return None
    # det is homogeneous of degree n, so its keys are among _evaluators'
    coeffs = [det.get(key, 0) for key in _evaluators(n)[0]]
    for z in _norm_hits(coeffs, n, bound, want.numerator):
        kappa = AlgElement(a, [sum(zi * row[j] for zi, row in zip(z, col.hnf))
                               for j in range(n)], d)
        if l2.scaled(kappa) == l1:
            # -kappa works whenever kappa does; fix the sign of the first
            # nonzero power coordinate for a deterministic answer
            lead = next(c for c in kappa.num if c)
            return -kappa if lead < 0 else kappa
    return None

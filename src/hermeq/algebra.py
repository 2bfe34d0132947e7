# Etale algebras Q[X]/(g) for squarefree integer g, together with the
# full-rank Z-lattices inside them that this package cares about: the
# invariant order R_f, the invariant ideals I_f(k), and arbitrary fractional
# lattices.  Everything is exact; reducible g (zero divisors) is supported
# throughout, with element inversion the one operation that can refuse.

from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm

from .forms import MPoly, DecomposableForm
from .intmat import (det_bareiss, det_cofactor, det_rational, hnf,
                     hnf_lattice, inverse_rational, is_unimodular,
                     mat_int_check, mat_mul, RankError)
from .intpoly import (DomainError, degree, discriminant, normalize,
                      poly_eval, power_sums, primitive_part)


def _lowest(rows, den=1):
    # rows of ints over den > 0, or of ints and Fractions (den 1), as
    # integer rows over their least positive denominator
    if any(type(x) is not int for row in rows for x in row):
        rows = [[Fraction(x) for x in row] for row in rows]
        m = lcm(*(x.denominator for row in rows for x in row))
        rows = [[x.numerator * (m // x.denominator) for x in row]
                for row in rows]
        den *= m
    g = gcd(den, *(x for row in rows for x in row))
    return [[x // g for x in row] for row in rows], den // g


def _rows(elems):
    # integer rows of the elements over their least common denominator
    d = lcm(*(x.den for x in elems))
    return [[c * (d // x.den) for c in x.num] for x in elems], d


def product_rows(x, r):
    """(rows, d): the integer rows of x * r^k, k = 0 .. n-1, over their least
    common denominator d; the multiplication matrix of x for r = alpha."""
    pows = [x]
    for _ in range(x.algebra.n - 1):
        pows.append(pows[-1] * r)
    return _rows(pows)


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
        # traces of alpha^k, k = 0 .. 2n-2 (power sums of the roots of g)
        self.traces = power_sums(g, 2 * n - 2)

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
        """The class of the polynomial p(X), any degree, int or Fraction
        coefficients; the zero element for p = [] too."""
        return self.zero() + poly_eval(p, self.alpha())

    def trace_table(self):
        n = self.n
        return [[self.traces[i + j] for j in range(n)] for i in range(n)]


class AlgElement:
    """sum(num[i] alpha^i) / den with den > 0 and gcd(den, *num) == 1, a
    unique form, so == and hash compare the fields.  Built from ints over
    den, or from ints and Fractions; coords is the read-only Fraction view."""

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
        if isinstance(other, (int, Fraction)):
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

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return elem_mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = self.algebra.one()
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
        # the first row of the inverse of the multiplication matrix rows / d
        rows, d = product_rows(self, self.algebra.alpha())
        try:
            inv = inverse_rational(rows)
        except (RankError, ZeroDivisionError):
            raise DomainError("element is not invertible")
        return AlgElement(self.algebra, [d * c for c in inv[0]])


def elem_mul(x, y):
    if x.algebra != y.algebra:
        raise DomainError("algebra mismatch")
    a = x.algebra
    n = a.n
    conv = [0] * (2 * n - 1)
    for i, c in enumerate(x.num):
        if c:
            for j, d in enumerate(y.num):
                conv[i + j] += c * d
    out = [0] * n
    for c, pw in zip(conv, a.pow_table):
        if c:
            for t in range(n):
                out[t] += c * pw[t]
    return AlgElement(a, out, x.den * y.den * a.pow_scale)


def trace_and_norm(x):
    rows, d = product_rows(x, x.algebra.alpha())
    return (Fraction(sum(r[i] for i, r in enumerate(rows)), d),
            Fraction(det_bareiss(rows), d ** len(rows)))


class IdealLattice:
    """Full-rank Z-lattice in an etale algebra.

    The constructing basis (ints over den, or ints and Fractions) is kept
    in its row order, which change-of-basis witnesses need, as integer rows
    over the least positive denominator; basis is its Fraction view.
    Equality uses the canonical pair (denominator, HNF of denominator * L).
    """

    __slots__ = ("algebra", "rows", "denominator", "hnf")

    def __init__(self, algebra, rows, den=1):
        n = algebra.n
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DomainError("lattice basis must be square of algebra degree")
        rows, den = _lowest(rows, den)
        try:
            h, _ = hnf(rows)
        except RankError:
            raise DomainError("lattice basis is singular")
        self.algebra = algebra
        self.rows = rows
        self.denominator = den
        self.hnf = tuple(tuple(row) for row in h)

    @property
    def basis(self):
        d = self.denominator
        return [tuple(Fraction(x, d) for x in row) for row in self.rows]

    def key(self):
        return (self.algebra.key, self.denominator, self.hnf)

    def __eq__(self, other):
        return isinstance(other, IdealLattice) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "IdealLattice(d=%d, hnf=%r)" % (self.denominator,
                                               [list(r) for r in self.hnf])

    def basis_elements(self):
        return [AlgElement(self.algebra, row, self.denominator)
                for row in self.rows]

    def scaled(self, kappa):
        """The lattice kappa * L, on the basis kappa * b_i."""
        return IdealLattice(self.algebra,
                            *_rows([kappa * b for b in self.basis_elements()]))

    def det_basis(self):
        return Fraction(det_bareiss(self.rows),
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


def make_lattice(algebra, rows):
    return IdealLattice(algebra, rows)


def unit_lattice(algebra):
    n = algebra.n
    return IdealLattice(algebra,
                        [[int(i == j) for j in range(n)] for i in range(n)])


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
        raise DomainError("k out of range")
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
    return abs(l.det_basis() / o.det_basis())


def lattice_mul(l1, l2):
    _same_algebra(l1, l2)
    a = l1.algebra
    rows, d = _rows([x * y for x in l1.basis_elements()
                     for y in l2.basis_elements()])
    h, _, rank = hnf_lattice(rows)
    if rank != a.n:
        raise DomainError("product lattice is not full rank")
    return IdealLattice(a, h, d)


def lattice_equal(l1, l2):
    _same_algebra(l1, l2)
    return l1 == l2


def lattice_change_of_basis(l1, l2):
    """Unimodular U with basis(l1) = U * basis(l2), or None if l1 != l2."""
    _same_algebra(l1, l2)
    if l1 != l2:
        return None
    b2inv = inverse_rational([list(r) for r in l2.basis])
    u = mat_int_check(mat_mul([list(r) for r in l1.basis], b2inv))
    assert is_unimodular(u)
    return u


def dual_lattice(l):
    """Trace-form dual {x : Tr(x L) in Z}."""
    b = [list(r) for r in l.basis]
    t = l.algebra.trace_table()
    gram = mat_mul(mat_mul(b, t), [list(col) for col in zip(*b)])
    dual_rows = mat_mul(inverse_rational(gram), b)
    return IdealLattice(l.algebra, dual_rows)


def colon_lattice(l1, l2):
    """(l1 : l2) = {x : x*l2 inside l1}, via duality: dual(dual(l1) * l2)."""
    _same_algebra(l1, l2)
    return dual_lattice(lattice_mul(dual_lattice(l1), l2))


def endo_ring(l):
    """The multiplier ring {x : x*L inside L}; always a ring containing 1."""
    return colon_lattice(l, l)


def trace_form_disc(l):
    """det(Tr(b_i b_j)) over the stored basis of l; rational in general."""
    b = [list(r) for r in l.basis]
    t = l.algebra.trace_table()
    return det_rational(mat_mul(mat_mul(b, t), [list(col) for col in zip(*b)]))


def is_order(o):
    if not o.contains(o.algebra.one()):
        return False
    elems = o.basis_elements()
    return all(o.contains(x * y) for x in elems for y in elems)


def is_invertible(l, o):
    """Whether l is invertible as an o-module: l * (o : l) = o."""
    _same_algebra(l, o)
    return lattice_mul(l, colon_lattice(o, l)) == o


def _integer_norm_form(algebra, rows):
    # N(z1 r1 + ... + zn rn) for integer rows r_i, as an integer form in z
    n = algebra.n
    alpha = algebra.alpha()
    mats = [product_rows(AlgElement(algebra, row), alpha) for row in rows]
    d = lcm(*(dm for _, dm in mats))
    sym = [[MPoly(n) for _ in range(n)] for _ in range(n)]
    for i, (m, dm) in enumerate(mats):
        xi = MPoly.variable(n, i)
        for r in range(n):
            for c in range(n):
                v = m[r][c] * (d // dm)
                if v:
                    sym[r][c] = sym[r][c] + v * xi
    return det_cofactor(sym), d  # det(d*M) = d^n N(sum z_i r_i)


def norm_form(l, o):
    """The norm form N(x1 b1 + ... + xn bn) / N_o(l) on the basis of l.

    o must be an order (contain 1 and be closed under multiplication); the
    result has integer coefficients whenever l is a fractional o-ideal.
    """
    _same_algebra(l, o)
    if not is_order(o):
        raise DomainError("second argument must be an order")
    n = l.algebra.n
    det, dd = _integer_norm_form(l.algebra, l.rows)
    nu = lattice_norm(l, o)
    div = (dd * l.denominator) ** n * nu.numerator
    terms = {}
    for e, c in det.terms.items():
        v, r = divmod(c * nu.denominator, div)
        if r:
            raise DomainError("norm form is not integral; l is not an o-ideal")
        if v:
            terms[e] = v
    return DecomposableForm(n, terms)


def _int_nth_root(v, n):
    """The integer r >= 0 with r**n == v, or None; exact at any size."""
    if v < 2:
        return v if v >= 0 else None
    r = isqrt(v) if n == 2 else 1 << -(-v.bit_length() // n)
    while n > 2:  # integer Newton from above: 2^ceil(bits/n) > v^(1/n)
        y = ((n - 1) * r + v // r ** (n - 1)) // n
        if y >= r:
            break
        r = y
    return r if r ** n == v else None


def _rational_nth_root(q, n):
    p, d = _int_nth_root(q.numerator, n), _int_nth_root(q.denominator, n)
    return None if p is None or d is None else Fraction(p, d)


def _lines(n, bound):
    # The search box one line at a time along the last coordinate: pairs
    # (prefix, ts) such that prefix + (t,) for t in ts runs over the vectors
    # of sup-norm 1..bound whose first nonzero entry is positive (norms are
    # even in sign, so one of each +- pair suffices), by sup-norm, then lex.
    zero = (0,) * (n - 1)
    for s in range(1, bound + 1):
        full = range(-s, s + 1)
        for p in product(full, repeat=n - 1):
            if p > zero:  # the first nonzero entry is positive
                yield p, full if s in p or -s in p else (-s, s)
            elif p == zero:
                yield p, (s,)


def _compile_lines(p):
    """Compile an MPoly p in z_0..z_{n-1} into two positional lambdas: the
    coefficients of p in t = z_{n-1} (highest first) as a function of
    z_0..z_{n-2}, and p at each t of a line by Horner on them."""
    names = ["z%d" % i for i in range(p.nvars - 1)]
    parts = [[] for _ in range(1 + max((e[-1] for e in p.terms), default=0))]
    for e, c in sorted(p.terms.items()):
        mono = "".join("*" + nm for nm, k in zip(names, e) for _ in range(k))
        parts[e[-1]].append("(%d)%s" % (c, mono))
    body = ", ".join(" + ".join(q) or "0" for q in reversed(parts))
    cs = ["c%d" % k for k in range(len(parts))]
    horner = "c0"
    for c in cs[1:]:
        horner = "(%s)*t + %s" % (horner, c)
    return (eval("lambda %s: (%s,)" % (", ".join(names), body)),
            eval("lambda ts, %s: [%s for t in ts]" % (", ".join(cs), horner)))


def colon_and_kappa_search(l1, l2, bound=50):
    """Search for kappa with kappa * l2 = l1.

    Any such kappa lies in the colon lattice (l1 : l2); its absolute norm
    must equal the lattice norm of l1 relative to l2.  Candidates are
    enumerated by sup-norm of their coordinates against the canonical HNF
    basis of the colon lattice up to the bound (the as-computed colon basis
    can be badly skewed, which would bury small generators), then in lex
    order, one line along the last coordinate at a time: on a line the norm
    form is a polynomial in that coordinate, evaluated by Horner in exact
    integers.  Candidates passing the norm filter are confirmed exactly.  A
    hit is a proof; exhaustion is inconclusive (None).
    """
    _same_algebra(l1, l2)
    if bound < 0:
        raise DomainError("search bound must be >= 0")
    a = l1.algebra
    n = a.n
    if l1 == l2:
        return a.one()
    ratio = abs(l1.det_basis() / l2.det_basis())
    c = _rational_nth_root(ratio, n)
    if c is not None:
        kappa = c * a.one()
        if l2.scaled(kappa) == l1:
            return kappa
    col = colon_lattice(l1, l2)
    d = col.denominator
    det, dd = _integer_norm_form(a, col.hnf)
    want = ratio * (dd * d) ** n
    if want.denominator != 1:
        return None
    want = want.numerator
    coeffs, horner = _compile_lines(det)
    for p, ts in _lines(n, bound):
        vals = horner(ts, *coeffs(*p))
        if want not in vals and -want not in vals:
            continue
        for t, v in zip(ts, vals):
            if v != want and v != -want:
                continue
            z = p + (t,)
            kappa = AlgElement(a, [sum(zi * row[j]
                                       for zi, row in zip(z, col.hnf))
                                   for j in range(n)], d)
            if l2.scaled(kappa) == l1:
                # -kappa works whenever kappa does; fix the sign of the
                # first nonzero power coordinate for a deterministic answer
                lead = next(c for c in kappa.num if c)
                return -kappa if lead < 0 else kappa
    return None

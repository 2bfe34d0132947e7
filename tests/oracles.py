"""Reference implementations the tests compare hermeq against.

MPoly is a sparse multivariate polynomial over the integers with plain
ring arithmetic.  Over it, intmat.det_cofactor expands symbolic
determinants.  lines() is the walk order of the generator search box,
one line along the last coordinate at a time.  dual_lattice() is the
trace-form dual, the route to colon lattices by duality.  adjugate() is
the cofactor definition that intmat.adjugate_solve is checked against;
power_sums() and trace_and_norm() are Fraction views of the traces and
norms hermeq computes in integers; form_value() evaluates a decomposable
form term by term, the reference for the search's compiled evaluators;
power() raises an element to a power by repeated multiplication;
basis_elements() is the basis of a lattice as elements, the element by
element route that lattice_mul, IdealLattice.scaled and is_order are
checked against; unit_lattice() is Z[alpha]; make_table() writes table
fixtures; resolvent_cubic() is the pencil determinant of a quartic pair,
which quartic.act moves by a variable substitution.  charpoly() is the
Faddeev-LeVerrier characteristic polynomial the minimal polynomials of the
GL2 pair tests are checked against, and partition_two_way() the partition
by pair tests in both directions.
"""

from fractions import Fraction
from itertools import product

from hermeq.algebra import (AlgElement, EtaleAlgebra, IdealLattice, _gram,
                            product_rows)
from hermeq.equivalence import gl2_witness_solve
from hermeq.intmat import adjugate_solve, det_bareiss, identity, mat_mul
from hermeq.intpoly import DomainError, normalize, poly_mul, scaled_power_sums
from hermeq.jsonio import poly_to_json, table_checksum
from hermeq.quartic import QuarticPair


def adjugate(m):
    """The integer adjugate adj(m), so m adj(m) = adj(m) m = det(m) I, by its
    definition through cofactors; singular m included."""
    n = len(m)
    return [[(-1) ** (i + j) * det_bareiss([r[:i] + r[i + 1:] for k, r in
                                            enumerate(m) if k != j])
             for j in range(n)] for i in range(n)]


def charpoly(m):
    """det(X I - m) of an integer matrix by Faddeev-LeVerrier: with
    M_1 = I, c_{n-k} = -tr(m M_k) / k and M_{k+1} = m M_k + c_{n-k} I.  The
    c_j are integers and so is every M_k, so each division is exact."""
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


def partition_two_way(f, betas):
    """The classes of the betas, each (b_2, ..., b_n), under GL2(Z)-
    relatedness by a pair test in both directions of every pair: beta_j
    written in the powers of beta_i through the cofactor inverse of the
    power matrix, its constant coordinate dropped, and the witness system
    solved against charpoly(beta_i); the hits closed by union-find."""
    alg = EtaleAlgebra(f)
    ctxs = []
    for b in betas:
        beta = alg.element([0] + list(b))
        p, d = product_rows(alg.one(), beta)
        det = det_bareiss(p)
        if d != 1 or det not in (1, -1):
            raise DomainError("powers of beta do not span Z[alpha]")
        ctxs.append(([[det * x for x in r] for r in adjugate(p)],
                     charpoly(product_rows(beta, alg.alpha())[0])))
    parent = list(range(len(betas)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, (pinv, minpoly) in enumerate(ctxs):
        for j, b in enumerate(betas):
            w = mat_mul([[0] + list(b)], pinv)[0][1:]
            if i != j and any(w) and \
                    gl2_witness_solve(minpoly, w) is not None:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    classes = {}
    for i in range(len(betas)):
        classes.setdefault(find(i), []).append(i)
    return sorted(sorted(c) for c in classes.values())


def form_value(form, point):
    """The value of a forms.DecomposableForm at a point, term by term: the
    brute-force reference for the search's compiled evaluators."""
    if len(point) != form.n:
        raise DomainError("evaluation point has wrong length")
    total = 0
    for e, c in form.terms.items():
        for x, k in zip(point, e):
            c *= x ** k
        total += c
    return total


def power(x, k):
    """x^k for an AlgElement x and k >= 0, by repeated multiplication."""
    out = x.algebra.one()
    for _ in range(k):
        out = out * x
    return out


def power_sums(f, m):
    """Sums of k-th powers of the roots of f, k = 0..m, as Fractions.

    These are the traces of alpha^k in Q[X]/(f) when f is squarefree.
    """
    qs = scaled_power_sums(f, m)
    f0 = normalize(f)[-1]
    return [Fraction(q, f0 ** k) for k, q in enumerate(qs)]


def trace_and_norm(x):
    """(Tr(x), N(x)) off the multiplication matrix of x."""
    rows, d = product_rows(x, x.algebra.alpha())
    return (Fraction(sum(r[i] for i, r in enumerate(rows)), d),
            Fraction(det_bareiss(rows), d ** len(rows)))


def unit_lattice(algebra):
    """Z[alpha], on the power basis."""
    n = algebra.n
    return IdealLattice(algebra,
                        [[int(i == j) for j in range(n)] for i in range(n)])


def make_table(name, minpoly, betas, classes):
    """A checksummed table fixture, as jsonio.parse_table reads it."""
    payload = {
        "version": 1,
        "name": name,
        "minpoly": poly_to_json(minpoly),
        "betas": [[str(c) for c in b] for b in betas],
        "classes": [sorted(c) for c in classes],
    }
    payload["sha256"] = table_checksum(payload)
    return payload


def resolvent_cubic(pair):
    """Coefficients [e0, e1, e2, e3] of the binary cubic det(dA x - dB y) / 2.

    e_k multiplies x^(3-k) y^k.  In terms of the underlying halved forms
    this is 4 det(A x - B y); for iota(f) it comes out as the classical
    cubic resolvent x^3 + f2 x^2 y + (f1 f3 - 4 f0 f4) x y^2
    + (f0 f3^2 + f1^2 f4 - 4 f0 f2 f4) y^3.  Acting by (gamma, m) with
    m = [[r, s], [t, u]] substitutes (x, y) -> (r x - t y, -s x + u y).
    """
    if not isinstance(pair, QuarticPair):
        raise DomainError("expected a QuarticPair")
    e = [[[pair.a[i][j], -pair.b[i][j]] for j in range(3)] for i in range(3)]
    total = [0, 0, 0, 0]
    for (i, j, k), sign in ((( 0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                            ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1)):
        term = poly_mul(poly_mul(e[0][i], e[1][j]), e[2][k])
        for t, c in enumerate(term):  # poly_mul strips trailing zeros
            total[t] += sign * c
    for t in range(4):
        if total[t] % 2:
            raise DomainError("pencil determinant of a doubled pair is even")
        total[t] //= 2
    return total


def basis_elements(l):
    """The stored basis of the lattice l as elements, in its row order."""
    return [AlgElement(l.algebra, row, l.denominator) for row in l.rows]


def dual_lattice(l):
    """Trace-form dual {x : Tr(x L) in Z}, on the basis dual to that of l,
    so that (l1 : l2) = dual_lattice(lattice_mul(dual_lattice(l1), l2))."""
    gram, s = _gram(l)
    # the dual basis is (G / s)^-1 b = s adj(G) rows / (det(G) denominator)
    det, rows = adjugate_solve(gram, [[s * x for x in r] for r in l.rows])
    return IdealLattice(l.algebra, rows, det * l.denominator)


def lines(n, bound):
    """The search box of algebra.colon_and_kappa_search one line at a time
    along the last coordinate: pairs (prefix, ts) such that prefix + (t,)
    for t in ts runs over the vectors of sup-norm 1..bound whose first
    nonzero entry is positive (norms are even in sign, so one of each +-
    pair suffices), by sup-norm, then lex."""
    zero = (0,) * (n - 1)
    for s in range(1, bound + 1):
        full = range(-s, s + 1)
        for p in product(full, repeat=n - 1):
            if p > zero:  # the first nonzero entry is positive
                yield p, full if s in p or -s in p else (-s, s)
            elif p == zero:
                yield p, (s,)


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


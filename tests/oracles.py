"""Reference implementations the tests compare hermeq against.

MPoly is a sparse multivariate polynomial over the integers with plain
ring arithmetic.  Over it, intmat.det_cofactor expands symbolic
determinants.  lines() is the walk order of the generator search box,
one line along the last coordinate at a time.  dual_lattice() is the
trace-form dual, the route to colon lattices by duality.
"""

from itertools import product

from hermeq.algebra import IdealLattice, _gram
from hermeq.intmat import adjugate_solve


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


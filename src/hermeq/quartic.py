# Pairs of ternary quadratic forms attached to quartic polynomials.
#
# A quartic f = f0 X^4 + f1 X^3 + ... + f4 (f0 the leading coefficient)
# determines the pair (A0, B_f) of integral ternary quadratic forms
#
#   A0  = x0 x2 - x1^2
#   B_f = f0 x0^2 + f1 x0 x1 + f2 x1^2 + f3 x1 x2 + f4 x2^2.
#
# Both are stored through doubled Gram matrices: symmetric 3x3 integer
# matrices with even diagonal, so no half-integers ever appear.  GL3(Z)
# acts on both members by congruence at once while GL2(Z) mixes the two
# members, and the joint orbit of the pair refines the equivalence data
# of f: the pencil determinant is the cubic resolvent binary form, which
# the action moves by a plain variable substitution.

from .intmat import mat_mul, transpose, is_unimodular, mat_dims
from .intpoly import DomainError, normalize, degree, discriminant
from .algebra import EtaleAlgebra, zeta_lattice, colon_and_kappa_search
from .primes import is_squarefree


def _checked_doubled(m):
    """Copy of m after verifying it is a doubled ternary Gram matrix."""
    if mat_dims(m) != (3, 3):
        raise DomainError("expected a 3x3 matrix")
    out = [[int(x) if isinstance(x, int) else x for x in row] for row in m]
    for i in range(3):
        for j in range(3):
            if not isinstance(out[i][j], int):
                raise DomainError("matrix entries must be integers")
        if out[i][i] % 2:
            raise DomainError("doubled Gram matrix needs an even diagonal")
        for j in range(i):
            if out[i][j] != out[j][i]:
                raise DomainError("doubled Gram matrix must be symmetric")
    return out


class QuarticPair:
    """An ordered pair (A, B) of doubled ternary Gram matrices."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = _checked_doubled(a)
        self.b = _checked_doubled(b)

    def __eq__(self, other):
        if not isinstance(other, QuarticPair):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __repr__(self):
        return "QuarticPair(%r, %r)" % (self.a, self.b)


# Doubled Gram matrix of the seed form x0 x2 - x1^2, shared by the image
# of every quartic.
A0_DOUBLED = [[0, 0, 1], [0, -2, 0], [1, 0, 0]]


def iota(f):
    """The pair (A0, B_f) attached to a quartic f (ascending coefficients)."""
    f = normalize(f)
    if degree(f) != 4:
        raise DomainError("iota is defined for quartics only")
    c0, c1, c2, c3, c4 = f[4], f[3], f[2], f[1], f[0]
    b = [[2 * c0, c1, 0], [c1, 2 * c2, c3], [0, c3, 2 * c4]]
    return QuarticPair(A0_DOUBLED, b)


def act(pair, gamma, m):
    """The pair moved by gamma in GL3(Z) and m = [[r, s], [t, u]] in GL2(Z).

    gamma acts by congruence on each member, m by mixing the members:
    the new pair is (r A' + s B', t A' + u B') with A' = gamma A gamma^T.
    Composing satisfies act(act(p, g1, m1), g2, m2) = act(p, g2 g1, m2 m1).
    """
    if not isinstance(pair, QuarticPair):
        raise DomainError("expected a QuarticPair")
    if mat_dims(gamma) != (3, 3) or not is_unimodular(gamma):
        raise DomainError("gamma must be a unimodular 3x3 matrix")
    if mat_dims(m) != (2, 2) or not is_unimodular(m):
        raise DomainError("m must be a unimodular 2x2 matrix")
    gt = transpose(gamma)
    ca = mat_mul(mat_mul(gamma, pair.a), gt)
    cb = mat_mul(mat_mul(gamma, pair.b), gt)
    (r, s), (t, u) = m
    na = [[r * ca[i][j] + s * cb[i][j] for j in range(3)] for i in range(3)]
    nb = [[t * ca[i][j] + u * cb[i][j] for j in range(3)] for i in range(3)]
    return QuarticPair(na, nb)


def principality_evidence(f, bound=16):
    """Search evidence that the lattice with basis 1, alpha, zeta_2, zeta_3
    of a quartic f is principal over the invariant order.

    Both orientations are tried: a kappa with kappa * R_f = I_f, and
    failing that a lambda with lambda * I_f = R_f, whose inverse is then a
    generator (confirmed exactly before being reported).  Either hit
    proves principality; exhausting both search boxes proves nothing and
    is reported as inconclusive.  The default bound covers the stock
    example f, whose smallest generator (11 + 4 alpha)^-1 sits at
    coordinate height 12 of the inverse-orientation box.  A bound outside
    0..algebra.MAX_SEARCH_BOUND raises DomainError.
    """
    f = normalize(f)
    if degree(f) != 4:
        raise DomainError("evidence search is defined for quartics only")
    alg = EtaleAlgebra(f)  # refuses a zero discriminant
    order = zeta_lattice(f, 0, alg)
    ideal = zeta_lattice(f, 1, alg)
    kappa = colon_and_kappa_search(ideal, order, bound)
    orientation = "direct"
    if kappa is None:
        lam = colon_and_kappa_search(order, ideal, bound)
        if lam is not None:
            kappa = lam.inverse()
            orientation = "inverse"
            if order.scaled(kappa) != ideal:
                raise RuntimeError("inverse-orientation generator failed "
                                   "its confirmation")
    return {
        "bound": bound,
        "generator": kappa,
        "orientation": orientation if kappa is not None else None,
        "status": "principal" if kappa is not None else "inconclusive",
    }


# A stock transport instance exercised by the command line verify-example:
# two nonmonic quartics sharing squarefree discriminant -8124503, carried
# onto each other by an explicit (gamma, m).
EXAMPLE_F = [255, 13, -62, -1, 4]
EXAMPLE_G = [-6, -7, -2, -1, 5]
EXAMPLE_GAMMA = [[0, 2, -1], [-1, 0, 1], [-3, -15, 10]]
EXAMPLE_M = [[0, 1], [-1, 63]]


def verify_example():
    """Recompute the stock transport; every entry of the report must hold."""
    pf = iota(EXAMPLE_F)
    pg = iota(EXAMPLE_G)
    moved = act(pg, EXAMPLE_GAMMA, EXAMPLE_M)
    df = discriminant(EXAMPLE_F)
    dg = discriminant(EXAMPLE_G)
    return {
        "act_matches": moved == pf,
        "disc_equal": df == dg,
        "disc": df,
        "disc_squarefree": is_squarefree(df),
    }

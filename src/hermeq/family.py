# Catalan-coefficient polynomial kit and the certified non-monic pair family.
#
# The kit holds four integer polynomials a, b, h, k derived from truncated
# Catalan generating series; the pairs f = cX^n + t k(cX) and the companion g
# share a root expression beta = alpha - c alpha^2 and are certified Hermite
# equivalent by the invariant-lattice witness.  The number-theoretic side
# (choice of primes p, c, t) follows exact congruence and root-freeness
# searches, smallest candidate first.

from math import comb

from .algebra import EtaleAlgebra
from .equivalence import hermite_witness_check
from .intmat import det_bareiss
from .intpoly import (DomainError, constant_term, degree, discriminant,
                      leading, normalize, poly_add, poly_compose, poly_eval,
                      poly_mul, poly_scale, poly_shift, poly_sub,
                      roots_mod_p)
from .primes import is_prime, primes_in_progression


class SearchLimitError(DomainError):
    """A parameter search hit its limit; the message records progress."""


class CertificateError(RuntimeError):
    """A certificate that must hold by construction failed."""


def catalan(i):
    if i < 0:
        raise DomainError("index must be nonnegative")
    return comb(2 * i, i) // (i + 1)


def _exact_xpow_quotient(p, m):
    # p / X^m, insisting the low-order part vanishes
    if normalize(p[:m]):
        raise AssertionError("low-order coefficients survive an exact division")
    return normalize(p[m:])


class FamilyKit:
    """The four kit polynomials for one degree n, ascending coefficients."""

    __slots__ = ("n", "a", "b", "h", "k")

    def __init__(self, n, a, b, h, k):
        self.n = n
        self.a = a
        self.b = b
        self.h = h
        self.k = k

    def __repr__(self):
        return "FamilyKit(n=%d)" % self.n


def build_kit(n):
    """Kit for degree n: a = truncated Catalan series, then
    b = (X a^2 - a + 1)/X^(n-1), h = ((1-X) a(X-X^2) - 1)/X^(n-1),
    k = -h(1-X).  The divisions are exact by construction."""
    if n < 2:
        raise DomainError("kit needs n >= 2")
    a = [catalan(i) for i in range(n - 1)]
    num_b = poly_add(poly_sub([0] + poly_mul(a, a), a), [1])
    b = _exact_xpow_quotient(num_b, n - 1)
    comp = poly_compose(a, [0, 1, -1])
    num_h = poly_sub(poly_mul([1, -1], comp), [1])
    h = _exact_xpow_quotient(num_h, n - 1)
    k = poly_scale(poly_compose(h, [1, -1]), -1)
    if not (degree(b) == degree(h) == degree(k) == n - 2):
        raise AssertionError("kit polynomial of unexpected degree")
    if k[0] != 1:
        raise AssertionError("k(0) != 1")
    return FamilyKit(n, a, b, h, k)


def shifted_kit_poly(n):
    """Closed form for k(X+1): C_{n-1} sum over i <= n-2 of
    binom(n,i) (n-1-i)(n-i) / ((n-1+i)(n+i)) X^i, always integral."""
    if n < 2:
        raise DomainError("needs n >= 2")
    cn = catalan(n - 1)
    out = []
    for i in range(n - 1):
        v, r = divmod(cn * comb(n, i) * (n - 1 - i) * (n - i),
                      (n - 1 + i) * (n + i))
        if r:
            raise AssertionError("closed form not integral")
        out.append(v)
    return normalize(out)


def verify_kit_identities(kit):
    """Exact polynomial identities tying the kit together; returns a
    name -> bool report (failures are reported, never raised)."""
    n = kit.n
    comp_a = poly_compose(kit.a, [0, 1, -1])
    report = {}
    report["a_comp"] = (poly_mul([0, 1, -1], comp_a)
                        == poly_add([0, 1], poly_shift(kit.h, n)))
    report["b_split"] = (poly_compose(kit.b, [0, 1, -1])
                         == poly_scale(poly_mul(kit.h, kit.k), -1))
    nxt = build_kit(n + 1)
    report["recursion"] = (poly_add(poly_mul([-1, 1], nxt.k), kit.k)
                           == poly_shift([catalan(n - 1)], n))
    report["shifted_form"] = poly_compose(kit.k, [1, 1]) == shifted_kit_poly(n)
    nxt2 = build_kit(n + 2)
    rhs = poly_add(kit.k,
                   poly_sub(poly_sub(poly_shift([catalan(n)], n + 2),
                                     poly_shift([catalan(n)], n + 1)),
                            poly_shift([catalan(n - 1)], n)))
    report["double_step"] = (poly_mul(poly_mul([-1, 1], [-1, 1]), nxt2.k)
                             == rhs)
    return report


def family_polys(n, c, t):
    """(f, g, recovery) for parameters (c, t): f~(cX) and g~(cX) of
    tilde_polys divided by c^(n-1), so f = cX^n + t k(cX); recovery =
    X a(cX) - c^(n-2) t b(cX) maps beta back to alpha."""
    # tilde_polys refuses n < 4 before the zero parameters are refused
    f, g = (poly_compose(p, [0, c]) for p in tilde_polys(n, c, t))
    if c == 0 or t == 0:
        raise DomainError("parameters must be nonzero")
    scale = c ** (n - 1)
    if any(x % scale for x in f + g):
        raise AssertionError("c^(n-1) does not divide f~(cX) and g~(cX)")
    kit = build_kit(n)
    recovery = poly_sub(poly_mul([0, 1], poly_compose(kit.a, [0, c])),
                        poly_scale(poly_compose(kit.b, [0, c]),
                                   c ** (n - 2) * t))
    return [x // scale for x in f], [x // scale for x in g], recovery


def tilde_polys(n, c, t):
    """The weight-normalized pair: f~ = X^n + T k(X) and
    g~ = X^n + T(1 - 2X a(X)) + T^2 b(X) with T = c^(n-1) t; satisfies
    g~(X - X^2) = f~(X) f~(1 - X)."""
    if n < 4:
        raise DomainError("family needs n >= 4")
    kit = build_kit(n)
    big_t = c ** (n - 1) * t
    ft = poly_add(poly_shift([1], n), poly_scale(kit.k, big_t))
    gt = poly_add(poly_shift([1], n),
                  poly_add(poly_scale(poly_sub([1], poly_mul([0, 2], kit.a)),
                                      big_t),
                           poly_scale(kit.b, big_t * big_t)))
    return ft, gt


def eisenstein_check(f, q):
    """True iff q does not divide the leading coefficient, divides every
    other coefficient, and q^2 does not divide the constant term."""
    if not is_prime(q):
        raise DomainError("modulus must be prime")
    f = normalize(f)
    if degree(f) < 1:
        return False
    if leading(f) % q == 0:
        return False
    if any(co % q for co in f[:-1]):
        return False
    return constant_term(f) % (q * q) != 0


def snc(n, c):
    """The residue set {+-r^n mod c : r in F_c^*}, sorted."""
    if not is_prime(c):
        raise DomainError("modulus must be prime")
    out = set()
    for r in range(1, c):
        v = pow(r, n, c)
        out.add(v)
        out.add((-v) % c)
    return sorted(out)


def properly_nonmonic_certificate(f, c):
    """Certify that no unimodular substitution makes f monic.

    Requires f constant modulo the prime c (every non-constant coefficient
    divisible by c); then any substitution gives leading coefficient
    congruent to t d^n mod c with t = f(0), and the sweep confirms
    t d^n is never +-1 mod c.  Returns False when the congruence shape or
    the sweep fails (no certificate, not a disproof)."""
    if not is_prime(c):
        raise DomainError("modulus must be prime")
    f = normalize(f)
    if degree(f) < 1:
        return False
    if any(co % c for co in f[1:]):
        return False
    t = constant_term(f) % c
    for d in range(c):
        if pow(d, degree(f), c) * t % c in (1, c - 1):
            return False
    return True


def _prime_param(name, v):
    try:  # is_prime(v), with a refusal that names the parameter
        return is_prime(v)
    except ValueError as exc:
        raise DomainError("parameter %s: %s" % (name, exc)) from None


class FamilyParams:
    __slots__ = ("n", "p", "c", "t")

    def __init__(self, n, p, c, t):
        self.n = n
        self.p = p
        self.c = c
        self.t = t

    def __repr__(self):
        return "FamilyParams(n=%d, p=%d, c=%d, t=%d)" % (
            self.n, self.p, self.c, self.t)

    def __eq__(self, other):
        return (isinstance(other, FamilyParams) and
                (self.n, self.p, self.c, self.t)
                == (other.n, other.p, other.c, other.t))

    def validate(self):
        n, p, c, t = self.n, self.p, self.c, self.t
        if n < 4:
            raise DomainError("family needs n >= 4")
        if not is_prime(p) or p <= catalan(n - 1):
            raise DomainError("p must be a prime above the Catalan number")
        if roots_mod_p(build_kit(n + 1).k, p):
            raise DomainError("next kit polynomial has a root mod p")
        if c != 1:
            if not _prime_param("c", c) or c % (n * p) != 1:
                raise DomainError("c must be 1 or a prime = 1 mod n p")
        if not _prime_param("t", t):
            raise DomainError("t must be prime")
        if t % p != (-pow(catalan(n - 1), -1, p)) % p:
            raise DomainError("t has the wrong residue mod p")
        if t == c:
            raise DomainError("t must differ from c")
        if c != 1 and (t % c) in snc(n, c):
            raise DomainError("t mod c lies in the obstruction set")


def find_params(n, search_limit=10 ** 6, monic=False):
    """Smallest-first parameter search: p, then c (1 in monic mode), then t.

    Every scan stops at search_limit and raises SearchLimitError recording
    how far it got."""
    if n < 4:
        raise DomainError("family needs n >= 4")
    cat = catalan(n - 1)
    knext = build_kit(n + 1).k
    for p in range(cat + 1, search_limit + 1):
        if is_prime(p) and not roots_mod_p(knext, p):
            break
    else:  # every p in the range tried, or the range is empty
        raise SearchLimitError("no usable p with C_%d = %d < p <= %d"
                               % (n - 1, cat, search_limit))
    if monic:
        c = 1
    else:
        c = next(primes_in_progression(1, n * p))
        if c > search_limit:
            raise SearchLimitError(
                "no prime c = 1 mod %d below %d" % (n * p, search_limit))
    resid = (-pow(cat, -1, p)) % p
    t = None
    for q in primes_in_progression(resid, p):
        if q > search_limit:
            raise SearchLimitError(
                "no usable t below %d (residue %d mod %d)" % (search_limit, resid, p))
        if q == c:
            continue
        if c != 1 and (q % c) in snc(n, c):
            continue
        t = q
        break
    params = FamilyParams(n, p, c, t)
    params.validate()
    return params


def generate_certified_pair(n, params):
    """Build (f, g) for the parameters and verify every checkable
    certificate; returns the bundle as a plain dict.  The parameters are
    validated first (DomainError); after that every certificate holds by
    construction, so a failure raises CertificateError: it means a bug."""
    params.validate()
    if params.n != n:
        raise DomainError("parameter degree does not match")
    c, t, p = params.c, params.t, params.p
    f, g, recovery = family_polys(n, c, t)

    def need(cond, what):
        if not cond:
            raise CertificateError("certificate failed: %s" % what)

    need(eisenstein_check(f, t), "f Eisenstein at t")
    need(eisenstein_check(g, t), "g Eisenstein at t")
    disc = discriminant(f)
    need(disc == discriminant(g), "equal discriminants")

    alg = EtaleAlgebra(f)
    alpha = alg.alpha()
    beta = alpha - c * alpha * alpha
    need(poly_eval(g, beta) == 0, "beta is a root of g")
    need(poly_eval(recovery, beta) == alpha,
         "recovery polynomial returns alpha")

    u = hermite_witness_check(f, g, [0, 1, -c])
    need(u is not None, "lattice witness")
    need(det_bareiss(u) in (1, -1), "witness unimodular")

    knext = build_kit(n + 1).k
    need(all(poly_eval(knext, r) % p for r in range(p)),
         "next kit polynomial root-free mod p")

    bundle = {
        "n": n,
        "p": p,
        "c": c,
        "t": t,
        "f": f,
        "g": g,
        "recovery": recovery,
        "witness_expr": [0, 1, -c],
        "witness": u,
        "eisenstein_prime": t,
        "discriminant": disc,
        "properly_nonmonic": None,
    }
    if c != 1:
        need(properly_nonmonic_certificate(f, c), "f properly non-monic")
        need(properly_nonmonic_certificate(g, c), "g properly non-monic")
        bundle["properly_nonmonic"] = True
    return bundle

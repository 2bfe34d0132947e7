"""Re-check affirmative CLI answers from their stdout alone.

Each function takes the command's input and the JSON it printed, and
asserts that the printed witness proves the answer, by a route other than
the one that produced it:

- recheck_gl2: `check-gl2` solves a linear system in the power basis of
  beta_i and signs the witness by the translate's leading coefficient.
  Here the Moebius relation is re-derived by products alone in K_f, with
  no inverse (an inverse would run the adjugate solve check-gl2 runs),
  and the sign by expanding gl2_act on the minimal polynomial of beta_i,
  the characteristic polynomial of its multiplication matrix.
- recheck_hermite: `check-hermite` and `reducible-pair` take U from the
  power lattice of a root of g in K_f.  Here U^-1 is the cofactor
  adjugate of oracles.py, and U is checked to carry [g] to +-[f] on
  hermite_form.
- recheck_z: `check-z` forces a by the X^(n-1) coefficients and composes
  f with eX + a in hermeq's polynomial arithmetic.  Here e^n f(eX + a) is
  expanded in sympy.
- recheck_family_gen: `family gen` builds f and g from the weight-
  normalized pair and certifies U by the invariant-lattice criterion.
  Here f and g are the paper's formulas evaluated in sympy from the kit,
  and U is checked to carry [g] to +-[f] on the forms of both routes,
  hermite_form and norm_form.
- recheck_principal_evidence: `quartic principal-evidence` finds kappa
  by a residue scan of the colon lattice's norm form and confirms it by
  an HNF comparison of lattices.  Here kappa * R_f = I_f is re-proved in
  sympy from the printed coordinates alone: both bases are built from
  the definition of zeta_i, and the rational change of basis from I_f to
  kappa * R_f must be an integer matrix of determinant +-1.
"""

import json
from fractions import Fraction

import sympy

from hermeq.algebra import (EtaleAlgebra, invariant_order, norm_form,
                            zeta_lattice)
from hermeq.equivalence import DegreeDropError, gl2_act
from hermeq.family import build_kit
from hermeq.forms import act_gln, hermite_form
from hermeq.intmat import transpose
from oracles import adjugate, charpoly


def _ints(values):
    return [int(v) for v in values]


def recheck_gl2(poly, beta, target, out):
    """(a beta_i + b) - beta_j (c beta_i + d) = w (c beta_i + d) for one
    rational integer w, so (a beta_i + b)/(c beta_i + d) - beta_j = w; and
    the sign is that of the leading coefficient of the translate of the
    minimal polynomial of beta_i (+1 where it vanishes)."""
    doc = json.loads(out)
    assert doc["related"] is True, doc
    gamma = [_ints(row) for row in doc["witness"]["gamma"]]
    (a, b), (c, d) = gamma
    assert a * d - b * c in (1, -1), gamma
    alg = EtaleAlgebra(poly)
    bi = alg.element([0] + list(beta))
    bj = alg.element([0] + list(target))
    den = c * bi + d
    rest = a * bi + b - bj * den
    # w from the first nonzero coordinate of den, then checked on all
    k = next(i for i, v in enumerate(den.num) if v)
    w = Fraction(rest.num[k] * den.den, den.num[k] * rest.den)
    assert w.denominator == 1 and rest == int(w) * den, (gamma, rest, den)
    rows, x = [], bi
    for _ in range(alg.n):
        rows.append(list(x.num))
        x = x * alg.alpha()
    try:
        lead = gl2_act(charpoly(rows), gamma)[-1]
    except DegreeDropError:
        lead = 0
    assert doc["witness"]["sign"] == (-1 if lead < 0 else 1), (gamma, lead)


def paper_pair(n, c, t):
    """f = cX^n + t k(cX) and g = cX^n + t(1 - 2cX a(cX)) + c^(n-1) t^2 b(cX),
    the paper's formulas evaluated in sympy from the kit, as ascending
    integer coefficients."""
    x = sympy.Symbol("x")
    kit = build_kit(n)
    a, b, k = (sum(co * (c * x) ** i for i, co in enumerate(p))
               for p in (kit.a, kit.b, kit.k))
    return tuple(_ints(reversed(sympy.Poly(sympy.expand(e), x).all_coeffs()))
                 for e in (c * x ** n + t * k,
                           c * x ** n + t * (1 - 2 * c * x * a)
                           + c ** (n - 1) * t ** 2 * b))


def _flip(m):
    # m with its rows and columns reversed: the change of basis between
    # descending and ascending powers
    return [row[::-1] for row in m[::-1]]


def _carries_hermite_forms(f, g, u):
    # U is unimodular and act_gln(hermite_form(g), R U^-T R) is
    # +-hermite_form(f); returns U^-1
    adj = adjugate(u)
    det = sum(u[0][j] * adj[j][0] for j in range(len(u)))
    assert det in (1, -1), u
    inv = [[det * v for v in row] for row in adj]
    hf, hg = hermite_form(f), hermite_form(g)
    assert act_gln(hg, transpose(_flip(inv))) in (hf, -hf), u
    return inv


def recheck_family_gen(out):
    """f and g are paper_pair(n, c, t), and U^-T carries [g] to +-[f]: on
    hermite_form, whose variables run over descending powers, through the
    flipped U, and on the norm forms of the power lattices, over ascending
    powers, through U itself."""
    doc = json.loads(out)
    n = doc["n"]
    f, g = paper_pair(n, doc["c"], doc["t"])
    assert _ints(doc["f"]["coeffs"]) == f, (doc["f"], f)
    assert _ints(doc["g"]["coeffs"]) == g, (doc["g"], g)
    u = [_ints(row) for row in doc["witness"]]
    inv = _carries_hermite_forms(f, g, u)
    nf, ng = (norm_form(zeta_lattice(p, n - 1), invariant_order(p))
              for p in (f, g))
    assert act_gln(ng, transpose(inv)) in (nf, -nf)


def recheck_hermite(f, g, out):
    """The printed U of `check-hermite --poly f --other g`, or of
    `reducible-pair` whose printed pair is (f, g), is unimodular and
    act_gln(hermite_form(g), R U^-T R) = +-hermite_form(f), R the
    order-reversing permutation: hermite_form's variables run over
    descending powers, U's rows over ascending ones."""
    doc = json.loads(out)
    if "equivalent" in doc:
        assert doc["equivalent"] is True, doc
    else:
        assert (_ints(doc["g"]["coeffs"]), _ints(doc["h"]["coeffs"])) \
            == (list(f), list(g)), doc
    _carries_hermite_forms(f, g, [_ints(row) for row in doc["witness"]])


def recheck_z(f, g, out):
    """The printed (e, a) has e = +-1 and g(X) = e^n f(eX + a), expanded in
    sympy."""
    doc = json.loads(out)
    assert doc["equivalent"] is True, doc
    e, a = int(doc["witness"]["e"]), int(doc["witness"]["a"])
    assert e in (1, -1), doc
    got = affine_image(f, e, a)
    assert got == list(g), (doc, got)


def affine_image(f, e, a):
    """e^n f(eX + a) for f of degree n, ascending integer coefficients,
    expanded in sympy."""
    x = sympy.Symbol("x")
    p = sympy.Poly(e ** (len(f) - 1)
                   * sum(c * (e * x + a) ** i for i, c in enumerate(f)), x)
    return _ints(reversed(p.all_coeffs()))


def recheck_principal_evidence(poly, bound, out):
    """A principal answer's generator kappa, read from its printed power
    coordinates, carries R_f onto I_f: with R_f on 1, zeta_1, ..., zeta_3
    and I_f on 1, alpha, zeta_2, zeta_3, zeta_i = f_0 alpha^i + ... +
    f_(i-1) alpha (f_0 the leading coefficient), the products kappa b_i
    reduced modulo f are the rows of M, and M B^-1, B the rows of I_f's
    basis, is integral with determinant +-1."""
    doc = json.loads(out)
    assert doc["status"] == "principal", doc
    assert doc["orientation"] in ("direct", "inverse"), doc
    assert doc["bound"] == bound, doc
    x = sympy.Symbol("x")
    n = len(poly) - 1
    f = sympy.Poly(list(reversed(poly)), x, domain="QQ")
    desc = list(reversed(poly))  # f_0, f_1, ..., f_n

    def zeta(i):
        return sum(desc[j] * x ** (i - j) for j in range(i))

    def row(e):
        r = sympy.Poly(e, x, domain="QQ").rem(f).all_coeffs()[::-1]
        return list(r) + [0] * (n - len(r))

    kappa = sum(sympy.Rational(c) * x ** i
                for i, c in enumerate(doc["generator"]["coords"]))
    order = [sympy.Integer(1)] + [zeta(i) for i in range(1, n)]
    ideal = [sympy.Integer(1), x] + [zeta(i) for i in range(2, n)]
    m = sympy.Matrix([row(kappa * b) for b in order])
    change = m * sympy.Matrix([row(b) for b in ideal]).inv()
    assert all(v.is_integer for v in change), change
    assert change.det() in (1, -1), change

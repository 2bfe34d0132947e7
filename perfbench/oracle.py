"""Reference arithmetic that shares no code with hermeq.

Two kinds of helpers live here.  The small exact routines (polynomial
products, Bareiss determinants, a Sylvester discriminant, a squarefree
test, multiplication in Q[X]/(f)) are written out again from the
definitions; input generation uses them to build pairs whose verdict is
known by construction, and the output checks use them to re-verify
witnesses.  The sympy routines give discriminants and resultants from a
library that hermeq never imports.  sympy is imported lazily so that it
never counts in set-up time or in the timed region.
"""

from fractions import Fraction


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return trim(out)


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def ppow(a, k):
    out = [1]
    for _ in range(k):
        out = pmul(out, a)
    return out


def affine_image(f, e, a):
    """e^n f(e X + a) for f of degree n, ascending coefficients."""
    n = len(f) - 1
    out = []
    for i, c in enumerate(f):
        if c:
            out = padd(out, [c * x for x in ppow([a, e], i)])
    return [c * e ** n for c in out]


def root_scaled(f, c):
    """c^n f(X / c): its roots are c times the roots of f."""
    n = len(f) - 1
    return [x * c ** (n - i) for i, x in enumerate(f)]


def det(m):
    """Fraction-free Bareiss determinant of a square integer matrix."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def disc(f):
    """Discriminant of f (degree n >= 1) from the Sylvester matrix of f, f'."""
    n = len(f) - 1
    g = [i * c for i, c in enumerate(f)][1:]
    fd, gd = f[::-1], g[::-1]
    size = 2 * n - 1
    rows = [[0] * i + fd + [0] * (size - n - 1 - i) for i in range(n - 1)]
    rows += [[0] * i + gd + [0] * (size - n - i) for i in range(n)]
    res = det(rows)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    q, r = divmod(sign * res, f[-1])
    if r:
        raise ArithmeticError("discriminant is not integral")
    return q


def is_squarefree(d):
    """Exact squarefree test: trial division up to the cube root, then the
    cofactor has at most two prime factors and is squareful only if it is
    a perfect square."""
    from math import isqrt
    d = abs(d)
    if d == 0:
        return False
    p = 2
    while p * p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return False
        p += 1
    r = isqrt(d)
    return d == 1 or r * r != d


def content(f):
    from math import gcd
    g = 0
    for c in f:
        g = gcd(g, c)
    return g


def _mulmod(x, y, f):
    # product of two power-basis vectors in Q[X]/(f), f of degree n
    n = len(f) - 1
    prod = [Fraction(0)] * (2 * n - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                prod[i + j] += a * b
    for k in range(2 * n - 2, n - 1, -1):
        t = prod[k]
        if t:
            prod[k] = 0
            for i in range(n):
                prod[k - n + i] -= t * Fraction(f[i], f[n])
    return prod[:n]


def invariant_lattice(f, k):
    """Power-basis rows of 1, alpha, ..., alpha^k, zeta_{k+1}, ..., zeta_{n-1}
    with zeta_i = f0 alpha^i + ... + f_{i-1} alpha (f0 the leading
    coefficient); k = 0 is the invariant order."""
    n = len(f) - 1
    desc = f[::-1]
    rows = []
    for i in range(n):
        row = [0] * n
        if i <= k:
            row[i] = 1
        else:
            for j in range(i):
                row[i - j] += desc[j]
        rows.append(row)
    return rows


def _solve_left(b, m):
    """X with X b = m over the rationals (b square and invertible)."""
    n = len(b)
    # Gauss-Jordan on the transposed system b^T X^T = m^T
    a = [[Fraction(b[j][i]) for j in range(n)] + [Fraction(m[r][i])
                                                  for r in range(len(m))]
         for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [v * inv for v in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                t = a[r][c]
                a[r] = [v - t * w for v, w in zip(a[r], a[c])]
    return [[a[i][n + r] for i in range(n)] for r in range(len(m))]


def generates(f, kappa):
    """Whether kappa * R_f = I_f(1), by an independent change of basis:
    the rows kappa * r_i must be an integral unimodular combination of the
    basis of I_f(1)."""
    kappa = [Fraction(c) for c in kappa]
    order = invariant_lattice(f, 0)
    ideal = invariant_lattice(f, 1)
    moved = [_mulmod(kappa, r, f) for r in order]
    t = _solve_left(ideal, moved)
    if any(v.denominator != 1 for row in t for v in row):
        return False
    return det([[int(v) for v in row] for row in t]) in (1, -1)


def sympy_disc(f):
    import sympy
    x = sympy.Symbol("x")
    return int(sympy.discriminant(sympy.Poly(f[::-1], x)))


def sympy_form_value(f, point):
    """Res_Y(x1 Y^(n-1) + ... + xn, f(Y)) at an integer point with x1 != 0,
    the value of the decomposable form [f] there."""
    import sympy
    y = sympy.Symbol("y")
    phi = sympy.Poly(list(point), y)
    return int(sympy.resultant(phi, sympy.Poly(f[::-1], y)))

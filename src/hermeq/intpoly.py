# Dense univariate polynomials with exact coefficients.
#
# A polynomial is a list of coefficients in ascending order: p[i] is the
# coefficient of X^i.  The zero polynomial is the empty list.  Trailing
# (high-order) zeros are never stored; normalize() strips them.  Coefficients
# are ints.

from math import gcd

from .intmat import det_bareiss


class DomainError(ValueError):
    pass


def normalize(p):
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return list(p[:n])


def degree(p):
    # degree of the zero polynomial is -1 by convention
    return len(p) - 1


def leading(p):
    if not p:
        raise DomainError("zero polynomial has no leading coefficient")
    return p[-1]


def constant_term(p):
    return p[0] if p else 0


def poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return normalize(out)


def poly_neg(a):
    return [-c for c in a]


def poly_sub(a, b):
    return poly_add(a, poly_neg(b))


def poly_scale(a, c):
    if c == 0:
        return []
    return [c * x for x in a]


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return normalize(out)


def poly_pow(a, k):
    out = [1]
    base = list(a)
    while k:
        if k & 1:
            out = poly_mul(out, base)
        k >>= 1
        if k:
            base = poly_mul(base, base)
    return out


def poly_shift(a, k):
    # multiply by X^k
    if not a:
        return []
    return [0] * k + list(a)


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_compose(p, q):
    # p(q(X)), exact
    acc = []
    for c in reversed(p):
        acc = poly_add(poly_mul(acc, q), [c] if c else [])
    return acc


def derivative(p):
    return normalize([i * p[i] for i in range(1, len(p))])


def content(p):
    """Positive gcd of the coefficients of a nonzero polynomial."""
    if not normalize(p):
        raise DomainError("content of the zero polynomial is undefined")
    g = 0
    for c in p:
        g = gcd(g, c)
    return g


def primitive_part(p):
    c = content(p)
    return [x // c for x in p]


def poly_divmod_exact(a, b):
    """Euclidean division a = q*b + r over the integers.

    Requires the leading coefficient of b to be a unit (+-1) so that the
    division stays integral; raises DomainError otherwise.
    """
    b = normalize(b)
    if not b:
        raise DomainError("division by zero polynomial")
    lb = b[-1]
    if lb not in (1, -1):
        raise DomainError("divisor leading coefficient must be a unit")
    r = list(normalize(a))
    q = [0] * max(0, len(r) - len(b) + 1)
    while len(r) >= len(b):
        c = r[-1] * lb  # r[-1] / lb since lb in {1,-1}
        k = len(r) - len(b)
        q[k] = c
        for i, bc in enumerate(b):
            r[i + k] -= c * bc
        r = normalize(r)
        if not r:
            break
    return normalize(q), normalize(r)


def reverse(p):
    """X^deg(p) * p(1/X)."""
    return normalize(normalize(p)[::-1])


def sylvester_matrix(p, q):
    """Sylvester matrix of p and q, deg q rows of p first, then deg p rows of q.

    Rows hold descending coefficients, each shifted one column to the right of
    the previous row, matching the classical resultant determinant layout.
    The coefficients are only compared with 0 and copied, so symbolic ones
    (any ring elements) lay out the same way.
    """
    p = normalize(p)
    q = normalize(q)
    if not p or not q:
        raise DomainError("resultant of the zero polynomial is undefined")
    m, n = degree(p), degree(q)
    size = m + n
    pd = list(reversed(p))  # descending
    qd = list(reversed(q))
    rows = []
    for i in range(n):
        row = [0] * size
        for j, c in enumerate(pd):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [0] * size
        for j, c in enumerate(qd):
            row[i + j] = c
        rows.append(row)
    return rows


def resultant(p, q):
    """Res(p, q) of integer polynomials as the Sylvester determinant (deg q
    rows of p on top), by fraction-free Bareiss elimination; two constants
    lay out as the 0 x 0 matrix, of determinant 1."""
    return det_bareiss(sylvester_matrix(p, q))


def discriminant(f):
    """D(f) = (-1)^(n(n-1)/2) Res(f, f') / f0 with f0 the leading coefficient."""
    f = normalize(f)
    n = degree(f)
    if n < 1:
        raise DomainError("discriminant needs degree >= 1")
    r = resultant(f, derivative(f))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    num = sign * r
    f0 = f[-1]
    if num % f0:
        raise AssertionError("discriminant division was not exact")
    return num // f0


def scaled_power_sums(f, m):
    """The integers f0^k p_k, k = 0..m, with p_k the sum of the k-th powers
    of the roots of f and f0 its leading coefficient.

    f0 times a root of f is a root of the monic integer polynomial
    f0^(n-1) f(Y/f0), so Newton's identities on it need no division.
    """
    f = normalize(f)
    n = degree(f)
    if n < 1:
        raise DomainError("power sums need degree >= 1")
    # e[j] = coefficient of Y^(n-j) in f0^(n-1) f(Y/f0), zero past j = n
    e = [0] + [f[n - j] * f[-1] ** (j - 1) for j in range(1, n + 1)] + [0] * m
    qs = [n]
    for k in range(1, m + 1):
        qs.append(-k * e[k] - sum(e[i] * qs[k - i]
                                  for i in range(1, min(k, n + 1))))
    return qs


def roots_mod_p(f, p):
    """All x in {0,...,p-1} with f(x) = 0 mod p, by direct evaluation."""
    red = [c % p for c in f]
    if not any(red):
        raise DomainError("polynomial vanishes identically mod p")
    out = set()
    for x in range(p):
        acc = 0
        for c in reversed(red):
            acc = (acc * x + c) % p
        if acc == 0:
            out.add(x)
    return out

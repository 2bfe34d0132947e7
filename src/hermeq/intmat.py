# Exact dense matrix kernels: one fraction-free Bareiss elimination, for
# determinants and adjugate solves, and row-style Hermite normal form (hnf
# with its transformation matrix, hnf_lattice without).
#
# Matrices are lists of row lists.  Nothing here is optimized for size; every
# matrix in this package is tiny (dimension at most a few dozen) and the only
# thing that matters is exactness.

from fractions import Fraction


class DimensionError(ValueError):
    pass


class RankError(ValueError):
    pass


def mat_dims(m):
    r = len(m)
    c = len(m[0]) if r else 0
    for row in m:
        if len(row) != c:
            raise DimensionError("ragged matrix")
    return r, c


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_copy(m):
    return [list(r) for r in m]


def transpose(m):
    r, c = mat_dims(m)
    return [[m[i][j] for i in range(r)] for j in range(c)]


def mat_mul(a, b):
    ra, ca = mat_dims(a)
    rb, cb = mat_dims(b)
    if ca != rb:
        raise DimensionError("matrix product shape mismatch")
    out = [[0] * cb for _ in range(ra)]
    for i in range(ra):
        arow = a[i]
        orow = out[i]
        for k in range(ca):
            x = arow[k]
            if x:
                brow = b[k]
                for j in range(cb):
                    orow[j] += x * brow[j]
    return out


def _bareiss(a, n):
    """Forward fraction-free Bareiss elimination, in place, on the first n
    columns of the n rows a; columns past n follow along.  Returns the
    signed determinant of the leading n x n block, or 0 when a column has
    no pivot.  Every division it makes is exact."""
    if n == 0:
        return 1
    sign = 1
    prev = 1
    w = len(a[0])
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, w):
                q, rem = divmod(a[i][j] * a[k][k] - a[i][k] * a[k][j], prev)
                if rem:
                    raise AssertionError("Bareiss division not exact")
                a[i][j] = q
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_bareiss(m):
    """Exact determinant of an integer matrix by fraction-free Bareiss
    elimination."""
    r, c = mat_dims(m)
    if r != c:
        raise DimensionError("determinant needs a square matrix")
    return _bareiss(mat_copy(m), r)


def det_cofactor(m):
    """Determinant by Laplace expansion along the first row.

    Entries may live in any commutative ring (only +, *, unary - and
    comparison with 0 are used); exponential in the dimension, so reserved
    for small symbolic matrices where Bareiss division is unavailable.
    Nothing in the package calls it: it is the symbolic determinant the
    tests check forms.laplace_minors and hermite_form against, and
    perfbench/tracing.py traces it by name.
    """
    r, c = mat_dims(m)
    if r != c:
        raise DimensionError("determinant needs a square matrix")
    if r == 0:
        return 1
    if r == 1:
        return m[0][0]
    total = 0
    for j in range(r):
        x = m[0][j]
        if x == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = x * det_cofactor(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def det_mod(m, q):
    """det(m) mod the prime q, in 0 .. q-1, by elimination over Z/q."""
    a = [[x % q for x in r] for r in m]
    det = 1
    while a:  # eliminate the first column and drop it with the pivot row
        i = next((i for i, r in enumerate(a) if r[0]), None)
        if i is None:
            return 0
        pivot = a.pop(i)
        det = det * (-1) ** i * pivot[0] % q
        inv = pow(pivot[0], -1, q)
        a = [[(u - x * v) % q for u, v in zip(r[1:], pivot[1:])]
             for r in a for x in [r[0] * inv]]
    return det


def adjugate_solve(m, b):
    """(det(m), adj(m) b) for a square integer matrix m and an integer
    matrix b with as many rows, or (0, None) when m is singular.

    The forward Bareiss pass on [m | b] leaves U x = c with x = m^-1 b and
    U upper triangular, so y = det(m) x = adj(m) b, an integer matrix,
    comes by back substitution: y_i = (det c_i - sum_{j>i} U_ij y_j) / U_ii,
    an exact division.
    """
    n, c = mat_dims(m)
    if n != c or len(b) != n:
        raise DimensionError("adjugate_solve needs a square m and as many "
                             "rows in b")
    a = [list(r) + list(rb) for r, rb in zip(m, b)]
    det = _bareiss(a, n)
    if det == 0:
        return 0, None
    y = [None] * n
    for i in range(n - 1, -1, -1):
        u = a[i]
        acc = [det * v for v in u[n:]]
        for j in range(i + 1, n):
            x = u[j]
            if x:
                acc = [s - x * t for s, t in zip(acc, y[j])]
        y[i] = []
        for s in acc:
            q, rem = divmod(s, u[i])
            if rem:
                raise AssertionError("back substitution not exact")
            y[i].append(q)
    return det, y


def _hnf_echelon(h, c):
    """Bring the first c columns of the rows h, in place, to row Hermite
    normal form and return the pivot columns.

    The form: pivot columns strictly increasing, pivots positive, entries
    above each pivot reduced into [0, pivot), zero rows at the bottom.
    Every row operation replaces whole rows, so columns past c follow
    along: an identity block there ends as the transform T.
    """
    r = len(h)
    row = 0
    pivots = []
    for col in range(c):
        for pivot in range(row, r):
            if h[pivot][col]:
                break
        else:
            continue
        h[row], h[pivot] = h[pivot], h[row]
        # Clear below (row+1..r-1) in this column.  Against each row, the
        # Euclidean steps run on the two column entries alone and gather
        # into one unimodular 2x2 matrix [[p, q], [s, t]], which then acts
        # on the two whole rows at once.
        for i in range(row + 1, r):
            a, b = h[row], h[i]
            x, y = a[col], b[col]
            if not y:
                continue
            if not y % x:
                k = y // x
                h[i] = [v - k * u for u, v in zip(a, b)]
                continue
            p, q, s, t = 1, 0, 0, 1
            while y:
                k = x // y
                x, y = y, x - k * y
                p, q, s, t = s, t, p - k * s, q - k * t
            h[row] = [p * u + q * v for u, v in zip(a, b)]
            h[i] = [s * u + t * v for u, v in zip(a, b)]
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
        pivots.append(col)
        row += 1
        if row == r:
            break
    # Reduce entries above each pivot, walking pivots left to right: later
    # pivot rows are zero in earlier pivot columns, so this order never
    # disturbs a column already reduced.
    for k, col in enumerate(pivots):
        b = h[k]
        p = b[col]
        for i in range(k):
            q = h[i][col] // p
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], b)]
    return pivots


def hnf(m):
    """Row-style Hermite normal form of a full-row-rank integer matrix.

    Returns (H, T) with H = T m, T unimodular.  H is upper triangular with
    positive pivots and entries above each pivot reduced into [0, pivot).
    Raises RankError if the rows are dependent.
    """
    # reduce [m | I], so the identity block records the transform
    r, c = mat_dims(m)
    rows = [[*row] + [int(i == k) for k in range(r)]
            for i, row in enumerate(m)]
    if len(_hnf_echelon(rows, c)) != r:
        raise RankError("matrix does not have full row rank")
    return [row[:c] for row in rows], [row[c:] for row in rows]


def hnf_lattice(m):
    """HNF basis of the row lattice of m (any shape); zero rows dropped.

    Returns (H, rank), H the first `rank` rows of the HNF of m.
    """
    _, c = mat_dims(m)
    rows = mat_copy(m)
    rank = len(_hnf_echelon(rows, c))
    return rows[:rank], rank


def inverse_rational(m):
    """Exact inverse adj(m) / det(m) of the integer matrix m, with Fraction
    entries; RankError if m is singular."""
    det, adj = adjugate_solve(m, identity(len(m)))
    if det == 0:
        raise RankError("singular matrix")
    return [[Fraction(x, det) for x in row] for row in adj]


def is_unimodular(m):
    r, c = mat_dims(m)
    if r != c:
        return False
    return det_bareiss(m) in (1, -1)


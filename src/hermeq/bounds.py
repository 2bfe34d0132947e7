# Effective finiteness bounds: how large a polynomial sharing an
# equivalence class can be in coefficient height and in degree for a
# given discriminant, and how far one Hermite class can split into
# GL2(Z)- or Z-equivalence classes.

from decimal import Decimal, ROUND_CEILING, localcontext

from .intpoly import DomainError

_MONIC_LOG_PRECISION = 40

# The largest degree the bounds accept.  The general height bound has about
# 25 n^2 log2(16 n^3) bits and the split counts 5 n^2, so the report grows
# as n^2 log n and printing it in decimal faster still: `hermeq bounds`
# prints 130 KB in 0.5 s at n = 30 and 400 KB in 3.2 s at n = 50, and with
# --monic 1 MB in 11.5 s at n = 600 (one run each, 2-core host, Python 3.11).
MAX_BOUND_DEGREE = 30
# The general height bound (16 n^3)^(25 n^2) |d|^(5n-3) has at most
# 25 n^2 bits(16 n^3) + (5n - 3) bits(d) bits; coeff_bound_log refuses an
# (n, d) whose count is over this cap, before forming the bound.  Printing
# a bound of 10^6 bits (301,030 digits) takes 1.6 s (2-core host, Python
# 3.11); at n = 4 the cap admits a d of 58,564 bits, about 17,630 digits.
MAX_HEIGHT_BITS = 10 ** 6


def _check_degree(n):
    if not isinstance(n, int) or n < 2:
        raise DomainError("degree must be an integer >= 2")
    if n > MAX_BOUND_DEGREE:
        raise DomainError("degree %d is over the cap MAX_BOUND_DEGREE = %d"
                          % (n, MAX_BOUND_DEGREE))


def coeff_bound_log(n, d, monic=False):
    """The coefficient-height bound at discriminant d (the bound itself,
    not its logarithm; the name is historical).

    General polynomials: the exact integer (4^2 n^3)^(25 n^2) |d|^(5n-3).
    Monic polynomials: n^20 8^(n^2+19) (|d| (log* |d|)^n)^(n-1), where
    log* means max(1, ln|d|); that convention is this library's reading,
    documented here because the source formula leaves it implicit.  The
    monic value involves a transcendental, so it is returned as a Decimal
    computed with every operation rounded toward +infinity at 40 digits,
    which keeps it a certified upper bound.  A degree outside
    2..MAX_BOUND_DEGREE raises DomainError, here and in split_counts and
    split_refinement.  A general bound whose bit count
    25 n^2 bits(16 n^3) + (5n - 3) bits(d) is over MAX_HEIGHT_BITS raises
    DomainError before the bound is formed.
    """
    _check_degree(n)
    if d == 0:
        raise DomainError("discriminant must be nonzero")
    ad = abs(d)
    if not monic:
        bits = 25 * n * n * (16 * n ** 3).bit_length() \
            + (5 * n - 3) * ad.bit_length()
        if bits > MAX_HEIGHT_BITS:
            raise DomainError("height bound of up to %d bits is over the cap "
                              "MAX_HEIGHT_BITS = %d" % (bits, MAX_HEIGHT_BITS))
        return (16 * n ** 3) ** (25 * n * n) * ad ** (5 * n - 3)
    with localcontext() as ctx:
        ctx.prec = _MONIC_LOG_PRECISION
        ctx.rounding = ROUND_CEILING
        # ln() is always half-even and ** need not round up, so take them at
        # surplus precision and bump by one ulp to stay on the safe side of
        # an upper bound.  |d| enters as ceil(|d| / 2^s) 2^s, its leading 200
        # bits, at a cost that stays flat in its size; below 2^200, exactly
        with localcontext() as lctx:
            lctx.prec = _MONIC_LOG_PRECISION + 10

            def up(x):
                return x + Decimal(1).scaleb(x.adjusted() - lctx.prec + 1)
            s = max(0, ad.bit_length() - 200)
            big = Decimal(-(-ad >> s)) * up(Decimal(2) ** s) if s else Decimal(ad)
            lnv = up(big.ln())
        logstar = max(+lnv, Decimal(1))
        inner = big * logstar ** n
        return Decimal(n) ** 20 * Decimal(8) ** (n * n + 19) * inner ** (n - 1)


def max_degree(d, monic=False):
    """The degree cap 3 + 2 log_3 |d| (monic: 2 + the same), floored.

    Elementary but easy to get wrong in floating point when |d| is a
    power of 3, so the floor is taken by exact integer comparison:
    floor(2 log_3 |d|) is the largest k with 3^k <= d^2.  The count starts
    from k0 = floor((b - 1) 200 / 317), b = bits(d^2): 317/200 > log2(3),
    so 3^k0 < 2^(b-1) <= d^2, and k - k0 is at most 2 + 1.5e-5 b.
    """
    if d == 0:
        raise DomainError("discriminant must be nonzero")
    dd = d * d
    k = (dd.bit_length() - 1) * 200 // 317
    p = 3 ** (k + 1)
    while p <= dd:
        k += 1
        p *= 3
    return (2 if monic else 3) + k


def split_counts(n, monic=False):
    """Upper bound on GL2(Z)-equivalence classes (monic: Z-equivalence
    classes of monic polynomials) inside one Hermite class of separable
    degree-n polynomials.  Unconditional values; the quartic cases sharpen
    for large discriminants, see split_refinement."""
    _check_degree(n)
    if monic:
        if n == 2:
            return 1
        if n == 3:
            return 10
        if n == 4:
            return 2760
    else:
        if n in (2, 3):
            return 1
        if n == 4:
            return 10
    return 2 ** (5 * n * n)


def split_refinement(n, monic=False):
    """The sharper split bound valid once the discriminant is large
    enough (quartics only); None where no refinement is stated."""
    _check_degree(n)
    if n == 4:
        return 182 if monic else 7
    return None


def bound_report(n, d, monic=False):
    """All bounds for one (degree, discriminant) pair in a single record."""
    return {
        "n": n,
        "D": d,
        "monic": bool(monic),
        "height_bound": coeff_bound_log(n, d, monic),
        "degree_cap": max_degree(d, monic),
        "split_counts": {
            "gl2": split_counts(n, False),
            "z_monic": split_counts(n, True),
            "large_disc_gl2": split_refinement(n, False),
            "large_disc_z_monic": split_refinement(n, True),
        },
    }

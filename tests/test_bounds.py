import random
from decimal import ROUND_CEILING, Decimal, localcontext

import pytest
import sympy

from hermeq import bounds
from hermeq.bounds import (MAX_BOUND_DEGREE, MAX_HEIGHT_BITS, bound_report,
                           coeff_bound_log, max_degree, split_counts,
                           split_refinement)
from hermeq.intpoly import DomainError


def test_general_bound_exact_integer():
    assert coeff_bound_log(2, 5) == 128 ** 100 * 5 ** 7
    assert coeff_bound_log(2, -5) == coeff_bound_log(2, 5)
    assert coeff_bound_log(3, 1) == (16 * 27) ** 225


def test_monic_bound_against_high_precision_oracle():
    got = coeff_bound_log(2, 3, monic=True)
    true = Decimal(str(sympy.N(2 ** 20 * 8 ** 23 * 3 * sympy.log(3) ** 2, 60)))
    rel = (got - true) / true
    # certified upper: never below the oracle (beyond the oracle's own
    # last-digit rounding), with the overshoot within rounding size
    assert rel >= Decimal("-1e-55")
    assert rel < Decimal("1e-30")


def test_monic_bound_unit_discriminant_is_exact():
    # log* 1 = 1, so nothing transcendental remains
    assert coeff_bound_log(2, 1, monic=True) == Decimal(2 ** 20 * 8 ** 23)
    assert coeff_bound_log(2, -1, monic=True) == Decimal(2 ** 20 * 8 ** 23)


def test_monic_bound_small_disc_logstar_clamps():
    # |d| = 2 has ln < 1, so log* clamps to 1 and the value is again exact
    assert coeff_bound_log(2, 2, monic=True) == Decimal(2 ** 20 * 8 ** 23 * 2)


def _monic_bound_converting_all_of_d(n, d):
    # the monic bound with the whole of |d| converted to Decimal
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 40, ROUND_CEILING
        with localcontext() as lctx:
            lctx.prec = 50
            lnv = Decimal(abs(d)).ln()
            lnv += Decimal(1).scaleb(lnv.adjusted() - lctx.prec + 1)
        logstar = max(+lnv, Decimal(1))
        inner = Decimal(abs(d)) * logstar ** n
        return Decimal(n) ** 20 * Decimal(8) ** (n * n + 19) * inner ** (n - 1)


def test_monic_bound_of_a_long_disc_keeps_38_digits_and_stays_above():
    # |d| enters from its leading bits: never below the bound that converts
    # all of |d|, and equal to it in the first 38 digits
    rng = random.Random(4140)
    for digits in range(41, 121):
        d = rng.choice((1, -1)) * rng.randrange(10 ** (digits - 1),
                                                10 ** digits)
        n = rng.randint(2, 8)
        got = coeff_bound_log(n, d, monic=True)
        want = _monic_bound_converting_all_of_d(n, d)
        assert got >= want
        assert got.adjusted() == want.adjusted()
        assert got.as_tuple().digits[:38] == want.as_tuple().digits[:38]


def test_bound_monotone_in_disc():
    for n in (2, 3, 5):
        vals = [coeff_bound_log(n, d) for d in (1, 2, 17, 3981, 10 ** 9)]
        assert vals == sorted(vals) and len(set(vals)) == len(vals)
        mvals = [coeff_bound_log(n, d, monic=True)
                 for d in (1, 3, 17, 3981, 10 ** 9)]
        assert mvals == sorted(mvals) and len(set(mvals)) == len(mvals)


def test_bound_rejects_bad_input():
    with pytest.raises(DomainError):
        coeff_bound_log(1, 5)
    with pytest.raises(DomainError):
        coeff_bound_log(3, 0)
    with pytest.raises(DomainError):
        max_degree(0)
    with pytest.raises(DomainError):
        split_counts(1)


def test_degree_over_the_cap_is_refused():
    n = MAX_BOUND_DEGREE
    assert bound_report(n, 5)["split_counts"]["gl2"] == 2 ** (5 * n * n)
    for call in (lambda: coeff_bound_log(n + 1, 5),
                 lambda: coeff_bound_log(n + 1, 5, monic=True),
                 lambda: split_counts(n + 1),
                 lambda: split_refinement(n + 1),
                 lambda: bound_report(n + 1, 5, monic=True)):
        with pytest.raises(DomainError, match="MAX_BOUND_DEGREE"):
            call()


def test_height_bound_cap_at_its_value_and_one_bit_over(monkeypatch):
    # at n = 4 the bound has at most 25 * 16 * bits(1024) + 17 bits(d)
    # bits: the largest d the cap admits has 58,564 bits, and one bit more
    # is refused before the bound is formed; the monic bound has no cap
    size = 25 * 16 * 11 + 17 * 58564
    assert size <= MAX_HEIGHT_BITS < size + 17
    d = (1 << 58564) - 1
    assert 0 < coeff_bound_log(4, -d).bit_length() <= MAX_HEIGHT_BITS
    for disc in (d + 1, -(d + 1)):
        with pytest.raises(DomainError, match="MAX_HEIGHT_BITS = %d"
                           % MAX_HEIGHT_BITS):
            coeff_bound_log(4, disc)
    assert coeff_bound_log(4, d + 1, monic=True) > 0
    # the count exactly at the cap passes, one bit over it is refused
    monkeypatch.setattr(bounds, "MAX_HEIGHT_BITS", size)
    assert coeff_bound_log(4, d) > 0
    monkeypatch.setattr(bounds, "MAX_HEIGHT_BITS", size - 1)
    with pytest.raises(DomainError, match="MAX_HEIGHT_BITS = %d" % (size - 1)):
        bound_report(4, d)


def test_max_degree_values():
    assert max_degree(1) == 3
    assert max_degree(1, monic=True) == 2
    assert max_degree(3981) == 18
    assert max_degree(-3981) == 18
    assert max_degree(3) == 5
    assert max_degree(3, monic=True) == 4


def test_max_degree_exact_at_powers_of_three():
    # 2 log_3 |d| is an integer exactly at powers of 3; the floor must
    # include the boundary, one less just below it
    assert max_degree(3 ** 7) == 3 + 14
    assert max_degree(3 ** 7 - 1) == 3 + 13
    assert max_degree(3 ** 7 + 1) == 3 + 14


def test_max_degree_matches_the_count_from_zero():
    # the count starts from a lower bound read off the bit length, since
    # 3^200 < 2^317; against the count from k = 0 on and off powers of 3
    assert 3 ** 200 < 2 ** 317

    def reference(d):
        k, p = 0, 3
        while p <= d * d:
            k, p = k + 1, 3 * p
        return 3 + k

    for j in range(0, 400, 7):
        for d in (3 ** j - 1, 3 ** j, 3 ** j + 1, 2 ** j, -(2 ** j) - 1):
            if d:
                assert max_degree(d) == reference(d), d


def test_split_counts_table():
    assert [split_counts(n) for n in (2, 3, 4, 5, 6)] == \
        [1, 1, 10, 2 ** 125, 2 ** 180]
    assert [split_counts(n, monic=True) for n in (2, 3, 4, 5, 6)] == \
        [1, 10, 2760, 2 ** 125, 2 ** 180]


def test_split_refinements():
    assert split_refinement(4) == 7
    assert split_refinement(4, monic=True) == 182
    assert split_refinement(3) is None
    assert split_refinement(5, monic=True) is None


def test_bound_report_shape():
    rep = bound_report(4, 3981)
    assert rep["n"] == 4 and rep["D"] == 3981 and rep["monic"] is False
    assert rep["degree_cap"] == 18
    assert rep["height_bound"] == coeff_bound_log(4, 3981)
    sc = rep["split_counts"]
    assert sc["gl2"] == 10 and sc["z_monic"] == 2760
    assert sc["large_disc_gl2"] == 7 and sc["large_disc_z_monic"] == 182

from itertools import islice

import pytest

from hermeq.primes import MAX_PRIME_INPUT, is_prime, primes_in_progression


@pytest.mark.parametrize("residue, modulus",
                         [(1, 44), (3, 11), (0, 7), (0, 1), (-3, 10),
                          (10, 11)])
def test_primes_in_progression_is_the_filtered_range(residue, modulus):
    want = [p for p in range(2000)
            if is_prime(p) and p % modulus == residue % modulus]
    # a class holding one prime, as (0, 7) does, ends with it: take no more
    assert list(islice(primes_in_progression(residue, modulus),
                       len(want))) == want


@pytest.mark.parametrize("residue, modulus, want",
                         [(0, 7, [7]), (3, 9, [3]), (6, 9, []), (2, 6, [2]),
                          (4, 6, []), (0, 4, [])])
def test_a_class_sharing_a_factor_with_its_modulus_ends(residue, modulus,
                                                        want):
    # g = gcd(residue, modulus) > 1 divides every member: only g can be prime
    assert list(primes_in_progression(residue, modulus)) == want


def test_is_prime_refusal_names_its_cap():
    # the largest input below the cap with no factor up to 37 is answered
    below = next(m for m in range(MAX_PRIME_INPUT - 1, 0, -1)
                 if all(m % p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
                                        31, 37)))
    assert is_prime(below) in (True, False)
    with pytest.raises(ValueError,
                       match="MAX_PRIME_INPUT = %d" % MAX_PRIME_INPUT):
        is_prime(MAX_PRIME_INPUT)

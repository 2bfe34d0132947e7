# Deterministic primality and squarefree tests.

from itertools import count
from math import gcd, isqrt

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to every base in _SMALL_PRIMES
MAX_PRIME_INPUT = 3_317_044_064_679_887_385_961_981


def is_prime(n):
    """Deterministic Miller-Rabin.

    The fixed witness set is exact for every n < MAX_PRIME_INPUT, far beyond
    any parameter searched here; larger inputs are rejected outright rather
    than answered probabilistically.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n >= MAX_PRIME_INPUT:
        raise ValueError("input is at or over the cap MAX_PRIME_INPUT = %d of"
                         " the deterministic witness set" % MAX_PRIME_INPUT)
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_progression(residue, modulus):
    """Yield the primes p = residue (mod modulus), ascending."""
    g = gcd(residue, modulus)  # a class with g > 1 holds no prime but g
    for p in count(residue % modulus, modulus) if g == 1 else [g]:
        if is_prime(p) and (p - residue) % modulus == 0:
            yield p


def is_squarefree(n):
    """True when no prime square divides n; rejects 0.

    Trial division by d = 2, 3, ... while d^3 is at most what is left of
    |n|, so about |n|^(1/3) divisions.  The cofactor m left then has no
    prime factor below m^(1/3): it is 1, a prime, a product of two
    distinct primes or a prime square, and only the last is a square.
    """
    if n == 0:
        raise ValueError("zero has no factorization")
    m = abs(n)
    d = 2
    while d * d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return False
        d += 1
    return m == 1 or isqrt(m) ** 2 != m

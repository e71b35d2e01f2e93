"""Test oracle: trial division by one `%` per prime, in increasing order."""

from prational.factorint import sieve

SMALL_PRIMES = sieve(1000)
PRIMES = sieve(10 ** 6)


def trial_divide(a: int, trial_bound: int, found: dict[int, int]) -> int:
    """Divide the primes p <= trial_bound out of a into ``found``, stopping at
    the first p with p*p above what is left; return what is left, or 1 when
    that is prime (and then in ``found``).  Integers below 10**6 are divided
    by the primes below 1000 only."""
    p = 2
    for p in SMALL_PRIMES if a < 10 ** 6 else PRIMES:
        if p > trial_bound or p * p > a:
            break
        while a % p == 0:
            a //= p
            found[p] = found.get(p, 0) + 1
    if a > 1 and p * p > a:
        found[a] = found.get(a, 0) + 1
        a = 1
    return a
